// DaemonClient — a thin, typed session with ONE running mds_daemon.
//
// Where ghba::Client drives the whole multi-server lookup cascade,
// DaemonClient speaks to a single server over a single connection: it is
// the library behind the ghba_client tool (and anything else that pokes a
// daemon by port), replacing hand-rolled EncodeHeader/OpenEnvelope code at
// every call site with typed Result<T> methods. No retries, no health
// tracking — a tool talking to one known port wants the first error, not
// a fail-over.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mds/metadata.hpp"
#include "rpc/protocol.hpp"
#include "rpc/socket.hpp"

namespace ghba {

class DaemonClient {
 public:
  /// Connect to a daemon on `port` (loopback). Every subsequent call uses
  /// `io_timeout_ms` as its per-exchange deadline.
  static Result<DaemonClient> Connect(std::uint16_t port,
                                      std::uint32_t io_timeout_ms = 2000);

  DaemonClient(DaemonClient&&) = default;
  DaemonClient& operator=(DaemonClient&&) = default;

  /// What `Verify` resolved, beyond the bare present/absent bit: which
  /// server answered for the path and which replicas route to it.
  struct VerifyResult {
    bool present = false;
    /// Id of the server whose exact store holds the path (the lease
    /// grantor), or kInvalidMds when absent.
    MdsId resolved = kInvalidMds;
    bool lease_granted = false;
    std::uint32_t lease_ttl_ms = 0;
    /// Replica owners whose filters (L2 segment array) match the path on
    /// this daemon — where a cascade would route before verifying.
    std::vector<MdsId> replica_hits;
    /// The daemon's L1 verdict, when its LRU array answers uniquely.
    MdsId lru_home = kInvalidMds;
    bool lru_unique = false;
  };

  Status Ping();
  Status Insert(const std::string& path, const FileMetadata& metadata);
  Status Unlink(const std::string& path);

  /// Exact membership probe plus routing resolution: kVerify for the
  /// verdict, kLookupLocal for the L1/L2 routing picture, and (for a
  /// present path) kLeaseGrant to learn the resolved server id from the
  /// grant. Any failed exchange fails the whole call.
  Result<VerifyResult> Verify(const std::string& path);

  /// Lease/invalidate pair, exposed for scripting coherence experiments.
  Result<LeaseGrantResp> RequestLease(const std::string& path);
  Status Invalidate(const std::string& path);

  Result<StatsResp> Stats();

  /// Fire-and-forget kShutdown.
  Status Shutdown();

  /// One raw request/response exchange with the per-call deadline (the
  /// txn_chaos tool drives TxnDriver over this).
  Result<std::vector<std::uint8_t>> Call(const std::vector<std::uint8_t>& req);

 private:
  DaemonClient(TcpConnection conn, std::uint32_t io_timeout_ms)
      : conn_(std::move(conn)), io_timeout_ms_(io_timeout_ms) {}

  TcpConnection conn_;
  std::uint32_t io_timeout_ms_;
};

}  // namespace ghba
