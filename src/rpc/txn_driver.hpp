// Client-side two-phase-commit driver over a caller-supplied call function.
//
// The driver owns the message choreography of a namespace transaction —
// who gets begun, prepared, decided, committed, in what order — and the
// kTxn* codecs; the caller supplies only how one request frame reaches a
// server and comes back. PrototypeCluster passes its retrying Call() over
// loopback sockets to in-process servers; the txn_chaos tool passes a
// DaemonClient exchange with real mds_daemon processes it can kill -9
// between phases. The protocol proven crash-safe in-process is therefore
// byte-for-byte the one the daemons speak.
//
// Protocol (presumed abort, client-driven — servers never dial out):
//
//   Begin(C)          coordinator C journals kTxnBegin
//   Prepare(P_i)      each participant validates, journals kTxnPrepare and
//                     takes an intent lock; a remove-prepare's vote carries
//                     the file's metadata so a rename needs no read RPC
//   Decide(C, commit) THE commit point: C journals kTxnDecision. Only
//                     after this returns is the operation acked.
//   Commit(P_i)       each participant applies + closes in one WAL frame
//
// Any prepare refusal flips the txn to Decide(C, abort) + best-effort
// Abort(P_i). A crash after Decide leaves participants in doubt; recovery
// resolution (ResolveInDoubt) re-drives the closing messages from the
// coordinator's durable decision table, or presumes abort once the
// coordinator is confirmed dead and reports no decision.
//
// Crash/halt instrumentation: after every message the driver calls the
// `after_step` hook with the phase and the server that just processed it.
// A false return halts the driver mid-protocol — exactly a client dying at
// that boundary — and the hook itself may crash the target server first.
// Both faults at every boundary are what the phase-matrix tests sweep.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.hpp"
#include "mds/metadata.hpp"
#include "rpc/protocol.hpp"

namespace ghba {

/// Which protocol message just completed (hook tag; ArmCrashPoint tags are
/// built from these names — see TxnPhaseName).
enum class TxnPhase : std::uint8_t {
  kBegin = 0,
  kPrepare = 1,
  kDecide = 2,
  kCommit = 3,
  kAbort = 4,
};

constexpr const char* TxnPhaseName(TxnPhase phase) {
  switch (phase) {
    case TxnPhase::kBegin: return "begin";
    case TxnPhase::kPrepare: return "prepare";
    case TxnPhase::kDecide: return "decide";
    case TxnPhase::kCommit: return "commit";
    case TxnPhase::kAbort: return "abort";
  }
  return "unknown";
}

class TxnDriver {
 public:
  /// One request/response exchange with server `id`. Unreachable or dead
  /// targets answer with a transport error; the driver translates it into
  /// abort or in-doubt per phase.
  using CallFn = std::function<Result<std::vector<std::uint8_t>>(
      MdsId id, const std::vector<std::uint8_t>& frame)>;
  /// Is `id` confirmed dead (crashed / removed), as opposed to merely
  /// unreachable right now? Resolution only presumes abort on confirmed
  /// death; a transient partition leaves the op in doubt.
  using DeadFn = std::function<bool(MdsId id)>;
  /// `after_step` may be null (no instrumentation). It runs after every
  /// successful message; returning false halts the drive at that boundary.
  using StepHook = std::function<bool(TxnPhase, MdsId target)>;

  TxnDriver(CallFn call, DeadFn confirmed_dead, StepHook after_step = nullptr)
      : call_(std::move(call)),
        confirmed_dead_(std::move(confirmed_dead)),
        after_step_(std::move(after_step)) {}

  /// Atomically move `src` (homed on `src_home`) to `dst` (homed on
  /// `dst_home`), coordinated by `src_home`. Returns Ok once the commit
  /// decision is durable on the coordinator — even if a closing commit
  /// could not be delivered (that op stays in doubt until ResolveInDoubt).
  /// NotFound when src is absent, AlreadyExists when dst is taken; both
  /// abort cleanly.
  Status Rename(std::uint64_t txn_id, const std::string& src, MdsId src_home,
                const std::string& dst, MdsId dst_home);

  /// Atomically create `path` on `home` (also the coordinator) with
  /// `metadata`, failing with AlreadyExists if present. Single-participant
  /// 2PC: same journal trail, same crash matrix, one server.
  Status CreateExclusive(std::uint64_t txn_id, const std::string& path,
                         MdsId home, const FileMetadata& metadata);

  /// Resolve every in-doubt prepare on `server` by consulting each op's
  /// coordinator: committed rolls forward, aborted/unknown rolls back, an
  /// undecided txn is first force-aborted on the coordinator. Returns the
  /// number of ops still in doubt (coordinator unreachable and not
  /// confirmed dead); 0 means the server is clean.
  Result<std::uint64_t> ResolveInDoubt(MdsId server);

 private:
  /// Run the hook; false means halt.
  bool Step(TxnPhase phase, MdsId target);

  // One method per kTxn* message: encode, call, decode.
  Status Begin(MdsId coordinator, std::uint64_t txn_id,
               const std::vector<MdsId>& participants);
  /// A non-OK result is a NO vote or a transport failure; either way the
  /// drive aborts.
  Result<TxnPrepareResp> Prepare(MdsId participant, const TxnPrepareReq& req);
  Status Decide(MdsId coordinator, std::uint64_t txn_id, bool commit);
  /// kTxnCommit or kTxnAbort for one prepared op.
  Status Finish(MsgType type, MdsId participant, std::uint64_t txn_id,
                const std::string& path);

  /// Decide(abort) + best-effort aborts to every prepared participant,
  /// then return `cause` (the original failure).
  Status AbortAll(std::uint64_t txn_id, MdsId coordinator,
                  const std::vector<std::pair<MdsId, std::string>>& prepared,
                  Status cause);

  CallFn call_;
  DeadFn confirmed_dead_;
  StepHook after_step_;
};

}  // namespace ghba
