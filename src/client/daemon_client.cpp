#include "client/daemon_client.hpp"

#include <chrono>

namespace ghba {

Result<DaemonClient> DaemonClient::Connect(std::uint16_t port,
                                           std::uint32_t io_timeout_ms) {
  auto conn = TcpConnection::Connect(
      port, Deadline::After(std::chrono::milliseconds(io_timeout_ms)));
  if (!conn.ok()) return conn.status();
  return DaemonClient(std::move(*conn), io_timeout_ms);
}

Result<std::vector<std::uint8_t>> DaemonClient::Call(
    const std::vector<std::uint8_t>& req) {
  const auto deadline =
      Deadline::After(std::chrono::milliseconds(io_timeout_ms_));
  if (Status s = conn_.SendFrame(req, deadline); !s.ok()) return s;
  return conn_.RecvFrame(deadline);
}

Status DaemonClient::Ping() {
  return StatusReply(Call(EncodeHeader(MsgType::kPing)));
}

Status DaemonClient::Insert(const std::string& path,
                            const FileMetadata& metadata) {
  return StatusReply(Call(EncodeInsert(path, metadata)));
}

Status DaemonClient::Unlink(const std::string& path) {
  return StatusReply(Call(EncodePathRequest(MsgType::kUnlink, path)));
}

Result<DaemonClient::VerifyResult> DaemonClient::Verify(
    const std::string& path) {
  VerifyResult out;
  auto present = DecodeReply(Call(EncodePathRequest(MsgType::kVerify, path)),
                             DecodeBoolResp);
  if (!present.ok()) return present.status();
  out.present = *present;
  // The routing picture: which replicas (and the L1 cache) would have
  // sent a cascade here.
  auto local =
      DecodeReply(Call(EncodePathRequest(MsgType::kLookupLocal, path)),
                  DecodeLocalLookupResp);
  if (!local.ok()) return local.status();
  out.replica_hits = std::move(local->hits);
  out.lru_unique = local->lru_unique;
  out.lru_home = local->lru_home;
  if (out.present) {
    // The daemon identifies itself through the lease grant.
    auto lease = RequestLease(path);
    if (!lease.ok()) return lease.status();
    out.resolved = lease->home;
    out.lease_granted = lease->granted;
    out.lease_ttl_ms = lease->ttl_ms;
  }
  return out;
}

Result<LeaseGrantResp> DaemonClient::RequestLease(const std::string& path) {
  return DecodeReply(Call(EncodePathRequest(MsgType::kLeaseGrant, path)),
                     DecodeLeaseGrantResp);
}

Status DaemonClient::Invalidate(const std::string& path) {
  return StatusReply(Call(EncodePathRequest(MsgType::kInvalidate, path)));
}

Result<StatsResp> DaemonClient::Stats() {
  return DecodeReply(Call(EncodeHeader(MsgType::kGetStats)), DecodeStatsResp);
}

Status DaemonClient::Shutdown() {
  return conn_.SendFrame(
      EncodeHeader(MsgType::kShutdown),
      Deadline::After(std::chrono::milliseconds(io_timeout_ms_)));
}

}  // namespace ghba
