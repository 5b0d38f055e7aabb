#include "rpc/txn_driver.hpp"

#include <utility>

namespace ghba {

bool TxnDriver::Step(TxnPhase phase, MdsId target) {
  return !after_step_ || after_step_(phase, target);
}

Status TxnDriver::Begin(MdsId coordinator, std::uint64_t txn_id,
                        const std::vector<MdsId>& participants) {
  return StatusReply(call_(
      coordinator,
      EncodeTxnBegin({.txn_id = txn_id, .participants = participants})));
}

Result<TxnPrepareResp> TxnDriver::Prepare(MdsId participant,
                                          const TxnPrepareReq& req) {
  // A NO vote (NotFound, AlreadyExists, intent-locked, ...) arrives as a
  // plain status envelope and surfaces as the error.
  return DecodeReply(call_(participant, EncodeTxnPrepare(req)),
                     DecodeTxnPrepareResp);
}

Status TxnDriver::Decide(MdsId coordinator, std::uint64_t txn_id,
                         bool commit) {
  return StatusReply(call_(
      coordinator, EncodeTxnDecide({.txn_id = txn_id, .commit = commit})));
}

Status TxnDriver::Finish(MsgType type, MdsId participant,
                         std::uint64_t txn_id, const std::string& path) {
  return StatusReply(call_(
      participant, EncodeTxnFinish(type, {.path = path, .txn_id = txn_id})));
}

Status TxnDriver::AbortAll(
    std::uint64_t txn_id, MdsId coordinator,
    const std::vector<std::pair<MdsId, std::string>>& prepared,
    Status cause) {
  // The abort decision makes the outcome durable; the per-participant
  // aborts merely release intent locks early. Failures are fine — a
  // participant that misses its abort resolves via presumed abort.
  if (Decide(coordinator, txn_id, false).ok() &&
      !Step(TxnPhase::kDecide, coordinator)) {
    return cause;
  }
  for (const auto& [participant, path] : prepared) {
    // Best-effort: the op aborts anyway once the participant resolves.
    (void)Finish(MsgType::kTxnAbort, participant, txn_id, path);
    if (!Step(TxnPhase::kAbort, participant)) return cause;
  }
  return cause;
}

Status TxnDriver::Rename(std::uint64_t txn_id, const std::string& src,
                         MdsId src_home, const std::string& dst,
                         MdsId dst_home) {
  if (txn_id == 0) return Status::InvalidArgument("txn id 0 is reserved");
  if (src == dst) return Status::InvalidArgument("rename onto itself");
  const MdsId coordinator = src_home;
  std::vector<MdsId> participants{src_home};
  if (dst_home != src_home) participants.push_back(dst_home);

  if (Status s = Begin(coordinator, txn_id, participants); !s.ok()) return s;
  if (!Step(TxnPhase::kBegin, coordinator)) {
    return Status::Unavailable("txn halted after begin");
  }

  std::vector<std::pair<MdsId, std::string>> prepared;

  // Prepare the remove first: its vote carries src's metadata, which the
  // insert prepare needs. NotFound here IS the rename's NotFound.
  TxnPrepareReq req{.path = src,
                    .txn_id = txn_id,
                    .coordinator = coordinator,
                    .subop = TxnSubOp::kRemove,
                    .participants = participants,
                    .metadata = {}};
  auto vote = Prepare(src_home, req);
  if (!vote.ok()) return AbortAll(txn_id, coordinator, prepared, vote.status());
  if (!vote->has_metadata) {
    return AbortAll(txn_id, coordinator, prepared,
                    Status::Internal("remove vote carried no metadata"));
  }
  prepared.emplace_back(src_home, src);
  if (!Step(TxnPhase::kPrepare, src_home)) {
    return Status::Unavailable("txn halted after src prepare");
  }

  req.path = dst;
  req.subop = TxnSubOp::kInsert;
  req.metadata = std::move(vote->metadata);
  if (auto ins = Prepare(dst_home, req); !ins.ok()) {
    return AbortAll(txn_id, coordinator, prepared, ins.status());
  }
  prepared.emplace_back(dst_home, dst);
  if (!Step(TxnPhase::kPrepare, dst_home)) {
    return Status::Unavailable("txn halted after dst prepare");
  }

  // THE commit point. Failure to make the decision durable aborts; after
  // it returns, the rename is committed no matter what happens next.
  if (Status s = Decide(coordinator, txn_id, true); !s.ok()) {
    return AbortAll(txn_id, coordinator, prepared, std::move(s));
  }
  if (!Step(TxnPhase::kDecide, coordinator)) {
    return Status::Ok();  // committed; closing messages owed to resolution
  }

  // Insert before remove: the transient double-presence window is benign
  // (both lookups succeed), a neither-present window would not be.
  for (const auto& [participant, path] :
       {std::pair{dst_home, dst}, std::pair{src_home, src}}) {
    if (!Finish(MsgType::kTxnCommit, participant, txn_id, path).ok()) {
      continue;  // already committed; resolution will close this op
    }
    if (!Step(TxnPhase::kCommit, participant)) return Status::Ok();
  }
  return Status::Ok();
}

Status TxnDriver::CreateExclusive(std::uint64_t txn_id,
                                  const std::string& path, MdsId home,
                                  const FileMetadata& metadata) {
  if (txn_id == 0) return Status::InvalidArgument("txn id 0 is reserved");
  if (Status s = Begin(home, txn_id, {home}); !s.ok()) return s;
  if (!Step(TxnPhase::kBegin, home)) {
    return Status::Unavailable("txn halted after begin");
  }

  const TxnPrepareReq req{.path = path,
                          .txn_id = txn_id,
                          .coordinator = home,
                          .subop = TxnSubOp::kInsert,
                          .participants = {home},
                          .metadata = metadata};
  if (auto vote = Prepare(home, req); !vote.ok()) {
    return AbortAll(txn_id, home, {}, vote.status());
  }
  if (!Step(TxnPhase::kPrepare, home)) {
    return Status::Unavailable("txn halted after prepare");
  }

  if (Status s = Decide(home, txn_id, true); !s.ok()) {
    return AbortAll(txn_id, home, {{home, path}}, std::move(s));
  }
  if (!Step(TxnPhase::kDecide, home)) return Status::Ok();

  // Committed either way: an undelivered commit is closed by resolution,
  // and the drive is complete whatever the hook says.
  if (Finish(MsgType::kTxnCommit, home, txn_id, path).ok()) {
    (void)Step(TxnPhase::kCommit, home);
  }
  return Status::Ok();
}

Result<std::uint64_t> TxnDriver::ResolveInDoubt(MdsId server) {
  auto pending = DecodeReply(call_(server, EncodeHeader(MsgType::kTxnList)),
                             DecodeTxnListResp);
  if (!pending.ok()) return pending.status();

  const auto query = [this](MdsId coordinator, std::uint64_t txn_id) {
    return DecodeReply(call_(coordinator, EncodeTxnResolve(txn_id)),
                       DecodeTxnResolveResp);
  };
  std::uint64_t unresolved = 0;
  for (const TxnListEntry& op : pending->entries) {
    TxnDecisionState verdict = TxnDecisionState::kUnknown;
    if (op.coordinator == server) {
      // Self-coordinated op: the server's own recovered decision table is
      // authoritative; ask it directly.
      auto res = query(server, op.txn_id);
      if (!res.ok()) return res.status();
      verdict = res->state;
    } else if (auto res = query(op.coordinator, op.txn_id); res.ok()) {
      verdict = res->state;
    } else if (confirmed_dead_(op.coordinator)) {
      // Presumed abort: a dead coordinator that never reported a commit
      // decision cannot have committed (it journals the decision before
      // anyone acks), so rolling back is safe.
      verdict = TxnDecisionState::kAborted;
    } else {
      ++unresolved;  // merely unreachable: stay in doubt, retry later
      continue;
    }

    if (verdict == TxnDecisionState::kPending) {
      // Begun but undecided: no client is still driving this txn (we are
      // the recovery path), so fix the verdict to abort first.
      if (!Decide(op.coordinator, op.txn_id, false).ok()) {
        ++unresolved;
        continue;
      }
      verdict = TxnDecisionState::kAborted;
    }

    // kUnknown means the coordinator never began it: presumed abort.
    const MsgType close = verdict == TxnDecisionState::kCommitted
                              ? MsgType::kTxnCommit
                              : MsgType::kTxnAbort;
    if (!Finish(close, server, op.txn_id, op.path).ok()) ++unresolved;
  }
  return unresolved;
}

}  // namespace ghba
