#include "rpc/prototype_cluster.hpp"

#include <algorithm>
#include <chrono>
#include <thread>

#include "bloom/compressed.hpp"
#include "common/logging.hpp"
#include "hash/fnv.hpp"

namespace ghba {

namespace {
double NowMs() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Transport-level failures worth a retry / health demerit; remote
/// application statuses (NotFound, AlreadyExists, ...) are not.
/// kCorruption only reaches this check from the framing layer (magic/CRC
/// mismatch on a response frame) — the payload decoders run later, at the
/// call sites — so it too means "the wire mangled it, try again fresh".
bool IsTransient(const Status& s) {
  return s.code() == StatusCode::kUnavailable ||
         s.code() == StatusCode::kTimedOut ||
         s.code() == StatusCode::kCorruption;
}

/// True when a response frame is the server rejecting the *request* as
/// corrupt. Our encoders never emit malformed requests, so this means the
/// frame was mangled in flight — retrying on a fresh connection is safe.
bool IsRemoteCorruptionReject(const std::vector<std::uint8_t>& resp) {
  ByteReader in(resp);
  const auto env = OpenEnvelope(in);
  return env.ok() && !env->has_payload &&
         env->status.code() == StatusCode::kCorruption;
}

/// Sets a flag for the current scope, restoring the previous value on exit.
/// Used to suppress the automatic fail-over chase while a topology
/// operation holds references into groups_/group_of_: a failed Call inside
/// such an operation must only account health, never mutate the topology
/// out from under its caller.
struct FlagGuard {
  explicit FlagGuard(bool& flag) : flag_(flag), saved_(flag) { flag = true; }
  ~FlagGuard() { flag_ = saved_; }
  FlagGuard(const FlagGuard&) = delete;
  FlagGuard& operator=(const FlagGuard&) = delete;
  bool& flag_;
  bool saved_;
};
}  // namespace

PrototypeCluster::PrototypeCluster(ClusterConfig config, ProtoScheme scheme)
    : config_(std::move(config)),
      scheme_(scheme),
      rng_(config_.seed ^ 0x9999),
      health_(config_.rpc.suspect_after),
      rpc_retries_(metrics_.registry().counter(metrics_names::kRpcRetries)),
      rpc_timeouts_(metrics_.registry().counter(metrics_names::kRpcTimeouts)),
      rpc_failures_(metrics_.registry().counter(metrics_names::kRpcFailures)),
      rpc_suspected_(
          metrics_.registry().counter(metrics_names::kRpcSuspected)),
      rpc_failovers_(
          metrics_.registry().counter(metrics_names::kRpcFailovers)) {}

void PrototypeCluster::QueryCtx::CloseLevel(int level) {
  const double now = NowMs();
  trace.level_elapsed_ns[static_cast<std::size_t>(level - 1)] +=
      static_cast<std::uint64_t>((now - mark_ms) * 1e6);
  mark_ms = now;
}

void PrototypeCluster::QueryCtx::Contact(MdsId id) {
  if (id == entry) return;
  if (std::find(contacted.begin(), contacted.end(), id) != contacted.end()) {
    return;
  }
  contacted.push_back(id);
}

PrototypeCluster::~PrototypeCluster() { Stop(); }

void PrototypeCluster::set_fault_injector(FaultInjector* injector) {
  MutexLock lock(&mu_);
  injector_ = injector;
  for (auto& [id, conn] : conns_) conn.set_injector(injector);
}

std::size_t PrototypeCluster::NumServers() const {
  MutexLock lock(&mu_);
  return servers_.size();
}

std::size_t PrototypeCluster::NumGroups() const {
  MutexLock lock(&mu_);
  return groups_.size();
}

Result<bool> PrototypeCluster::VerifyOn(MdsId id, const std::string& path) {
  MutexLock lock(&mu_);
  return VerifyAt(id, path);
}

Status PrototypeCluster::StartServer(MdsId id) {
  auto server = std::make_unique<MdsServer>(id, config_);
  server->set_fault_injector(injector_);
  if (Status s = server->Start(); !s.ok()) return s;
  if (servers_.size() <= id) servers_.resize(id + 1);
  servers_[id] = std::move(server);
  health_.Forget(id);  // a fresh server starts with a clean slate
  return Status::Ok();
}

Status PrototypeCluster::Start() {
  MutexLock lock(&mu_);
  for (MdsId id = 0; id < config_.num_mds; ++id) {
    if (Status s = StartServer(id); !s.ok()) return s;
  }
  if (scheme_ == ProtoScheme::kHba) {
    // Full mesh: one group containing everyone; every server holds every
    // other server's replica.
    GroupInfo g;
    for (MdsId id = 0; id < config_.num_mds; ++id) {
      g.members.push_back(id);
      group_of_[id] = 0;
    }
    groups_.push_back(std::move(g));
    for (MdsId holder = 0; holder < config_.num_mds; ++holder) {
      for (MdsId owner = 0; owner < config_.num_mds; ++owner) {
        if (owner == holder) continue;
        auto filter = FetchFilter(owner);
        if (!filter.ok()) return filter.status();
        if (Status s = InstallReplica(holder, owner, *filter); !s.ok()) {
          return s;
        }
      }
    }
  } else {
    const std::uint32_t m = std::max<std::uint32_t>(config_.max_group_size, 1);
    for (MdsId id = 0; id < config_.num_mds; id += m) {
      GroupInfo g;
      for (MdsId i = id; i < std::min<MdsId>(id + m, config_.num_mds); ++i) {
        g.members.push_back(i);
        group_of_[i] = groups_.size();
      }
      groups_.push_back(std::move(g));
    }
    for (auto& g : groups_) {
      if (Status s = EnsureCoverage(g); !s.ok()) return s;
    }
  }
  // A durable restart carries each server's journaled view; fold the
  // highest recovered epoch in so this incarnation's first push is not
  // rejected as stale, then hand every server its initial view.
  if (!config_.storage.data_dir.empty()) {
    for (const MdsId id : AliveServersLocked()) {
      if (auto view = FetchMembership(id); view.ok()) {
        routing_epoch_ = std::max(routing_epoch_, view->epoch);
      }
    }
  }
  PushMembershipLocked(ReconfigReason::kJoin, AliveServersLocked());
  started_ = true;
  return Status::Ok();
}

void PrototypeCluster::Stop() {
  MutexLock lock(&mu_);
  StopLocked();
}

void PrototypeCluster::StopLocked() {
  conns_.clear();
  for (auto& server : servers_) {
    if (server) server->Stop();
  }
  started_ = false;
}

Result<std::vector<std::uint8_t>> PrototypeCluster::CallOnce(
    MdsId id, const std::vector<std::uint8_t>& req, Deadline deadline) {
  // An injected request fault answers in place of the peer: the frame
  // never leaves this client.
  if (injector_ != nullptr) {
    ByteReader in(req);
    if (const auto type = DecodeType(in); type.ok()) {
      if (auto fault = injector_->RequestFault(id, *type)) {
        if (fault->ok()) return Status::TimedOut("request frame lost");
        return EncodeStatusResp(*fault);
      }
    }
  }
  auto it = conns_.find(id);
  if (it == conns_.end()) {
    const auto connect_budget = std::min<int>(
        static_cast<int>(config_.rpc.connect_timeout_ms),
        std::max(deadline.PollTimeoutMs(), 1));
    auto conn = TcpConnection::Connect(
        servers_.at(id)->port(),
        Deadline::After(std::chrono::milliseconds(connect_budget)),
        injector_);
    if (!conn.ok()) return conn.status();
    it = conns_.emplace(id, std::move(*conn)).first;
  } else {
    // A connection cached before set_fault_injector picks it up here.
    it->second.set_injector(injector_);
  }
  if (Status s = it->second.SendFrame(req, deadline); !s.ok()) return s;
  return it->second.RecvFrame(deadline);
}

Result<std::vector<std::uint8_t>> PrototypeCluster::Call(
    MdsId id, const std::vector<std::uint8_t>& req) {
  if (id >= servers_.size() || !servers_[id]) {
    return Status::Unavailable("server is down");
  }
  const RpcOptions& rpc = config_.rpc;
  const Deadline budget =
      Deadline::After(std::chrono::milliseconds(rpc.call_budget_ms));
  Status last = Status::Unavailable("call never attempted");
  for (std::uint32_t attempt = 0; attempt < rpc.max_attempts; ++attempt) {
    if (attempt > 0) {
      // Jittered exponential backoff, clipped to the remaining budget.
      const std::uint64_t base = static_cast<std::uint64_t>(
                                     rpc.retry_backoff_ms)
                                 << (attempt - 1);
      const std::uint64_t wait = base / 2 + rng_.NextBounded(base + 1);
      const int remaining = budget.PollTimeoutMs();
      if (remaining <= 0) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(
          std::min<std::uint64_t>(wait, static_cast<std::uint64_t>(remaining))));
    }
    const int remaining = budget.PollTimeoutMs();
    if (remaining <= 0) break;
    if (attempt > 0) health_.RecordRetry(id);
    // One attempt never outlives the call budget.
    const auto attempt_deadline = Deadline::After(std::chrono::milliseconds(
        std::min<int>(static_cast<int>(rpc.attempt_timeout_ms), remaining)));
    auto resp = CallOnce(id, req, attempt_deadline);
    if (resp.ok()) {
      if (IsRemoteCorruptionReject(*resp)) {
        last = Status::Corruption("request mangled in flight");
        conns_.erase(id);
        continue;
      }
      health_.RecordSuccess(id);
      return resp;
    }
    last = resp.status();
    if (last.code() == StatusCode::kTimedOut) health_.RecordTimeout(id);
    conns_.erase(id);  // never reuse a connection that failed mid-exchange
    if (!IsTransient(last)) break;
  }
  NoteCallFailure(id);
  return last;
}

Status PrototypeCluster::OneWay(MdsId id, const std::vector<std::uint8_t>& frame) {
  if (id >= servers_.size() || !servers_[id]) {
    return Status::Unavailable("server is down");
  }
  const RpcOptions& rpc = config_.rpc;
  auto it = conns_.find(id);
  if (it == conns_.end()) {
    auto conn = TcpConnection::Connect(
        servers_.at(id)->port(),
        Deadline::After(std::chrono::milliseconds(rpc.connect_timeout_ms)),
        injector_);
    if (!conn.ok()) return conn.status();
    it = conns_.emplace(id, std::move(*conn)).first;
  } else {
    it->second.set_injector(injector_);
  }
  Status s = it->second.SendFrame(
      frame,
      Deadline::After(std::chrono::milliseconds(rpc.attempt_timeout_ms)));
  if (!s.ok()) conns_.erase(id);
  return s;
}

Result<std::vector<std::vector<std::uint8_t>>> PrototypeCluster::CallBatch(
    MdsId id, const std::vector<std::vector<std::uint8_t>>& reqs) {
  std::vector<std::vector<std::uint8_t>> out;
  out.reserve(reqs.size());
  for (std::size_t off = 0; off < reqs.size();) {
    const std::size_t n = std::min<std::size_t>(
        static_cast<std::size_t>(kMaxBatchFrames), reqs.size() - off);
    const std::vector<std::vector<std::uint8_t>> window(
        reqs.begin() + static_cast<std::ptrdiff_t>(off),
        reqs.begin() + static_cast<std::ptrdiff_t>(off + n));
    auto subs = DecodeReply(Call(id, EncodeBatch(window)), DecodeBatchResp);
    if (!subs.ok()) return subs.status();
    if (subs->size() != n) {
      return Status::Corruption("batch response count mismatch");
    }
    for (auto& sub : *subs) out.push_back(std::move(sub));
    off += n;
  }
  return out;
}

void PrototypeCluster::NoteCallFailure(MdsId id) {
  if (health_.RecordFailure(id) != PeerState::kSuspected) return;
  if (in_failover_) return;  // repair traffic only accounts, never chases
  if (!ConfirmDead(id)) {
    health_.RecordSuccess(id);  // the heart-beat answered: false alarm
    return;
  }
  health_.MarkDead(id);
  GHBA_LOG(kWarn) << "peer " << id
                 << " confirmed dead by heart-beat; running fail-over";
  if (Status s = FailOver(id); !s.ok()) {
    // Best effort: a partially repaired group still serves correctly via
    // the exact L4 path; the next detection retries coverage.
    GHBA_LOG(kWarn) << "fail-over of peer " << id
                   << " incomplete: " << s.ToString();
  }
}

bool PrototypeCluster::ConfirmDead(MdsId id) {
  if (id >= servers_.size() || !servers_[id]) return true;
  const RpcOptions& rpc = config_.rpc;
  const auto ping = EncodeHeader(MsgType::kPing);
  for (std::uint32_t i = 0; i < rpc.ping_attempts; ++i) {
    // Fresh connection per probe: the cached one may be the thing that is
    // broken. Probes go through the fault injector like any other frame —
    // a real heart-beat shares the network with the traffic it monitors.
    const auto deadline =
        Deadline::After(std::chrono::milliseconds(rpc.ping_timeout_ms));
    auto conn =
        TcpConnection::Connect(servers_[id]->port(), deadline, injector_);
    if (!conn.ok()) continue;
    if (!conn->SendFrame(ping, deadline).ok()) continue;
    const auto resp = conn->RecvFrame(deadline);
    if (resp.ok()) return false;  // alive after all
    // A checksum-mangled response still proves the peer's loop answered:
    // corruption is the wire's doing, not the peer's silence.
    if (resp.status().code() == StatusCode::kCorruption) return false;
  }
  return true;
}

Result<BloomFilter> PrototypeCluster::FetchFilter(MdsId owner) {
  return DecodeReply(Call(owner, EncodeHeader(MsgType::kGetFilter)),
                     DecompressFilter);
}

Status PrototypeCluster::InstallReplica(MdsId holder, MdsId owner,
                                        const BloomFilter& filter) {
  return StatusReply(Call(holder, EncodeReplicaInstall(owner, filter)));
}

MdsId PrototypeCluster::LightestMember(const GroupInfo& g) const {
  std::unordered_map<MdsId, std::size_t> load;
  for (const MdsId m : g.members) load[m] = 0;
  for (const auto& [owner, holder] : g.holder) ++load[holder];
  MdsId best = g.members.front();
  std::size_t best_load = static_cast<std::size_t>(-1);
  for (const MdsId m : g.members) {
    if (load[m] < best_load) {
      best_load = load[m];
      best = m;
    }
  }
  return best;
}

std::size_t PrototypeCluster::GroupWithRoom() const {
  std::size_t best = static_cast<std::size_t>(-1);
  std::size_t best_size = config_.max_group_size;
  for (std::size_t i = 0; i < groups_.size(); ++i) {
    if (groups_[i].members.size() < best_size) {
      best_size = groups_[i].members.size();
      best = i;
    }
  }
  return best;
}

Status PrototypeCluster::EnsureCoverage(GroupInfo& g) {
  FlagGuard guard(in_failover_);  // holds a reference into groups_
  const auto is_member = [&](MdsId id) {
    return std::find(g.members.begin(), g.members.end(), id) !=
           g.members.end();
  };
  // Drop replicas of co-members.
  std::vector<MdsId> to_drop;
  for (const auto& [owner, holder] : g.holder) {
    if (is_member(owner)) to_drop.push_back(owner);
  }
  for (const MdsId owner : to_drop) {
    // Best-effort cleanup: a failed drop leaves a stale replica that the
    // next reconfiguration sweep retires.
    (void)Call(g.holder[owner], EncodeReplicaDrop(owner));
    g.holder.erase(owner);
  }
  // Install missing outsider replicas.
  for (MdsId owner = 0; owner < servers_.size(); ++owner) {
    if (!servers_[owner] || is_member(owner) || g.holder.contains(owner)) {
      continue;
    }
    auto filter = FetchFilter(owner);
    if (!filter.ok()) return filter.status();
    const MdsId holder = LightestMember(g);
    if (Status s = InstallReplica(holder, owner, *filter); !s.ok()) return s;
    g.holder[owner] = holder;
  }
  return Status::Ok();
}

void PrototypeCluster::PushMembershipLocked(ReconfigReason reason,
                                            std::vector<MdsId> targets) {
  FlagGuard guard(in_failover_);  // push traffic accounts, never chases
  ++routing_epoch_;
  for (const MdsId id : targets) {
    MembershipUpdate update;
    update.epoch = routing_epoch_;
    update.reason = reason;
    if (const auto git = group_of_.find(id); git != group_of_.end()) {
      update.members = groups_[git->second].members;
    } else {
      update.members.push_back(id);  // between groups: a view of itself
    }
    // A server that misses this push re-syncs on its next epoch check.
    (void)Call(id, EncodeMembershipUpdate(update));
  }
}

Result<MembershipResp> PrototypeCluster::FetchMembership(MdsId id) {
  return DecodeReply(Call(id, EncodeHeader(MsgType::kGetMembership)),
                     DecodeMembershipResp);
}

Result<MembershipResp> PrototypeCluster::MembershipOf(MdsId id) {
  MutexLock lock(&mu_);
  if (id >= servers_.size() || !servers_[id]) {
    return Status::Unavailable("server is down");
  }
  return FetchMembership(id);
}

std::uint64_t PrototypeCluster::RoutingEpoch() const {
  MutexLock lock(&mu_);
  return routing_epoch_;
}

Result<MdsId> PrototypeCluster::HolderOf(MdsId group_member,
                                         MdsId owner) const {
  MutexLock lock(&mu_);
  const auto git = group_of_.find(group_member);
  if (git == group_of_.end()) return Status::NotFound("member is in no group");
  const auto& holder = groups_[git->second].holder;
  const auto it = holder.find(owner);
  if (it == holder.end()) {
    return Status::NotFound("group assigns no replica of this owner");
  }
  return it->second;
}

Result<bool> PrototypeCluster::HoldsReplica(MdsId holder, MdsId owner) {
  MutexLock lock(&mu_);
  const Status s = StatusReply(Call(holder, EncodeReplicaFetch(owner)));
  if (s.ok()) return true;  // the reply carries the replica itself
  if (s.code() == StatusCode::kNotFound) return false;
  return s;
}

Status PrototypeCluster::Insert(const std::string& path,
                                const FileMetadata& metadata) {
  MutexLock lock(&mu_);
  const auto alive = AliveServersLocked();
  if (alive.empty()) return Status::Unavailable("no servers");
  const MdsId home = alive[rng_.NextBounded(alive.size())];
  return StatusReply(Call(home, EncodeInsert(path, metadata)));
}

Status PrototypeCluster::InsertBatch(
    const std::vector<std::pair<std::string, FileMetadata>>& files) {
  MutexLock lock(&mu_);
  const auto alive = AliveServersLocked();
  if (alive.empty()) return Status::Unavailable("no servers");
  // Same placement distribution as Insert: each file independently draws a
  // uniformly random home. The batching is purely a wire-level grouping.
  std::map<MdsId, std::vector<std::vector<std::uint8_t>>> per_home;
  for (const auto& [path, md] : files) {
    const MdsId home = alive[rng_.NextBounded(alive.size())];
    per_home[home].push_back(EncodeInsert(path, md));
  }
  for (auto& [home, reqs] : per_home) {
    auto resps = CallBatch(home, reqs);
    if (!resps.ok()) return resps.status();
    for (const auto& resp : *resps) {
      if (Status s = StatusReply(resp); !s.ok()) return s;
    }
  }
  return Status::Ok();
}

Result<bool> PrototypeCluster::VerifyAt(MdsId candidate,
                                        const std::string& path) {
  return DecodeReply(
      Call(candidate, EncodePathRequest(MsgType::kVerify, path)),
      DecodeBoolResp);
}

Result<LookupOutcome> PrototypeCluster::Lookup(const std::string& path) {
  MutexLock lock(&mu_);
  return LookupLocked(path);
}

Result<LookupOutcome> PrototypeCluster::LookupLocked(const std::string& path,
                                                     bool teach_l1) {
  QueryCtx q;
  q.serial = ++lookup_serial_;
  q.teach_l1 = teach_l1;
  if (ruled_out_in_.size() < servers_.size()) {
    ruled_out_in_.resize(servers_.size(), 0);  // grows with the cluster only
  }
  q.start_ms = NowMs();
  q.mark_ms = q.start_ms;
  q.retries_before = health_.TotalCounts().retries;
  const auto alive = AliveServersLocked();
  if (alive.empty()) return Status::Unavailable("no servers");
  q.entry = alive[rng_.NextBounded(alive.size())];
  const MdsId entry = q.entry;

  // L1 + L2 on the entry server. A slow or dead entry degrades the query
  // to the lower levels (empty local result) instead of failing it: the
  // hierarchy below is a superset of what the entry could have answered.
  LocalLookupResp local;
  if (auto decoded = DecodeReply(
          Call(entry, EncodePathRequest(MsgType::kLookupLocal, path)),
          DecodeLocalLookupResp);
      decoded.ok()) {
    local = std::move(*decoded);
    if (std::find(local.hits.begin(), local.hits.end(), entry) ==
        local.hits.end()) {
      RuleOut(q, entry);
    }
  }

  if (local.lru_unique && TryVerifyOnce(q, local.lru_home, path)) {
    return FinishLookup(path, q, 1, true, local.lru_home);
  }
  q.CloseLevel(1);
  if (local.hits.size() == 1 && TryVerifyOnce(q, local.hits.front(), path)) {
    return FinishLookup(path, q, 2, true, local.hits.front());
  }
  q.CloseLevel(2);

  // L3: probe the rest of the entry's group. A timed-out peer counts as a
  // miss and the query continues; its candidates resurface at L4. Work on
  // a copy of the membership: any Call below may trigger automatic
  // fail-over, which rewrites groups_ (and may have already evicted the
  // entry itself during the L1/L2 call above).
  if (scheme_ == ProtoScheme::kGhba) {
    std::vector<MdsId> candidates(local.hits);
    std::vector<MdsId> members;
    if (const auto git = group_of_.find(entry); git != group_of_.end()) {
      members = groups_[git->second].members;
    }
    for (const MdsId m : members) {
      if (m == entry) continue;
      q.Contact(m);
      auto presp =
          DecodeReply(Call(m, EncodePathRequest(MsgType::kGroupProbe, path)),
                      DecodeLocalLookupResp);
      if (!presp.ok()) continue;  // a slow/dead peer must not fail the query
      if (std::find(presp->hits.begin(), presp->hits.end(), m) ==
          presp->hits.end()) {
        RuleOut(q, m);
      }
      candidates.insert(candidates.end(), presp->hits.begin(),
                        presp->hits.end());
    }
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
    for (const MdsId c : candidates) {
      if (TryVerifyOnce(q, c, path)) {
        return FinishLookup(path, q, 3, true, c);
      }
    }
    q.CloseLevel(3);
  }

  // L4: global probe of every live server L1-L3 did not rule out (on a
  // miss the entry and its group answered already, so N - |G| probes).
  // L4 is the exact level, so a peer we could not reach leaves the verdict
  // uncertain: report Unavailable rather than a confident (and possibly
  // wrong) "not found".
  bool all_peers_answered = true;
  for (MdsId m = 0; m < servers_.size(); ++m) {
    if (!servers_[m] || RuledOut(q, m)) continue;
    q.Contact(m);
    auto found =
        DecodeReply(Call(m, EncodePathRequest(MsgType::kGlobalProbe, path)),
                    DecodeBoolResp);
    if (!found.ok()) {
      all_peers_answered = false;
      continue;
    }
    if (*found) return FinishLookup(path, q, 4, true, m);
  }
  if (!all_peers_answered) {
    return Status::Unavailable(
        "lookup degraded: some peers unreachable at L4");
  }
  return FinishLookup(path, q, 4, false, kInvalidMds);
}

bool PrototypeCluster::TryVerifyOnce(QueryCtx& q, MdsId candidate,
                                     const std::string& path) {
  if (std::find(q.verified.begin(), q.verified.end(), candidate) !=
      q.verified.end()) {
    return false;
  }
  q.verified.push_back(candidate);
  q.Contact(candidate);
  // Stale cache/replica named a dead/slow server, or the answer came
  // back mangled: degraded service means the query continues down the
  // hierarchy, not that it fails (Sec. 4.5). The exact L4 pass backstops
  // any candidate skipped here.
  auto v = VerifyAt(candidate, path);
  if (v.ok() && !*v) {
    q.trace.false_route = true;  // confident wrong route
    RuleOut(q, candidate);
  }
  return v.ok() && *v;
}

void PrototypeCluster::RuleOut(const QueryCtx& q, MdsId id) {
  if (id < ruled_out_in_.size()) ruled_out_in_[id] = q.serial;
}

bool PrototypeCluster::RuledOut(const QueryCtx& q, MdsId id) const {
  return id < ruled_out_in_.size() && ruled_out_in_[id] == q.serial;
}

LookupOutcome PrototypeCluster::FinishLookup(const std::string& path,
                                             QueryCtx& q, int level,
                                             bool found, MdsId home) {
  q.CloseLevel(level);
  LookupOutcome result;
  result.found = found;
  result.home = home;
  result.served_level = level;
  result.latency_ms = NowMs() - q.start_ms;
  q.trace.level = static_cast<std::uint8_t>(level);
  q.trace.peers_contacted = static_cast<std::uint32_t>(q.contacted.size());
  q.trace.retries = static_cast<std::uint32_t>(
      health_.TotalCounts().retries - q.retries_before);
  result.trace = q.trace;

  // Client-side accounting (the entry server gets the same numbers via
  // kReportOutcome below, so server snapshots can reconstruct Fig. 13).
  const bool miss = level == 4 && !found;
  switch (level) {
    case 1:
      ++metrics_.levels.l1;
      metrics_.l1_latency_ms.Add(result.latency_ms);
      break;
    case 2:
      ++metrics_.levels.l2;
      metrics_.l2_latency_ms.Add(result.latency_ms);
      break;
    case 3:
      ++metrics_.levels.l3;
      metrics_.group_latency_ms.Add(result.latency_ms);
      break;
    default:
      if (miss) {
        ++metrics_.levels.miss;
      } else {
        ++metrics_.levels.l4;
      }
      metrics_.global_latency_ms.Add(result.latency_ms);
      break;
  }
  metrics_.lookup_latency_ms.Add(result.latency_ms);
  if (q.trace.false_route) ++metrics_.false_routes;

  OutcomeReport report;
  report.level = q.trace.level;
  report.found = found;
  report.false_route = q.trace.false_route;
  report.elapsed_ns = q.trace.TotalElapsedNs();
  report.peers_contacted = q.trace.peers_contacted;
  report.retries = q.trace.retries;
  // Telemetry one-ways: losing one only skews per-level hit counters.
  (void)OneWay(q.entry, EncodeOutcomeReport(report));
  if (found && q.teach_l1) {
    (void)OneWay(q.entry, EncodeTouch(path, home));  // L1 hint, advisory
  }
  return result;
}

Status PrototypeCluster::Unlink(const std::string& path) {
  MutexLock lock(&mu_);
  auto located = LookupLocked(path, /*teach_l1=*/false);
  if (!located.ok()) return located.status();
  if (!located->found) return Status::NotFound(path);
  return StatusReply(
      Call(located->home, EncodePathRequest(MsgType::kUnlink, path)));
}

// --- distributed transactions ---

TxnDriver PrototypeCluster::NewTxnDriver() {
  return TxnDriver(
      [this](MdsId id, const std::vector<std::uint8_t>& frame) {
        MutexLock lock(&mu_);
        return Call(id, frame);
      },
      [this](MdsId id) {
        MutexLock lock(&mu_);
        // The orchestrator's own bookkeeping is the truth here: a crashed
        // or removed server has a stopped (or absent) MdsServer object. A
        // server that is up but slow keeps its object running, so a
        // transient stall never masquerades as death and resolution stays
        // in doubt instead of presuming abort too eagerly.
        return id >= servers_.size() || !servers_[id] ||
               !servers_[id]->running();
      },
      [this](TxnPhase phase, MdsId target) {
        MutexLock lock(&mu_);
        return TxnStepLocked(phase, target);
      });
}

bool PrototypeCluster::TxnStepLocked(TxnPhase phase, MdsId target) {
  // Position k within the phase names the crash point txn.<phase>.<k>;
  // count even when nothing is armed so the numbering never depends on
  // which other points a test consumed first.
  const std::uint32_t k = txn_step_seq_[static_cast<std::size_t>(phase)]++;
  if (injector_ == nullptr || !injector_->HasArmedCrashPoints()) return true;
  const std::string name = TxnPhaseName(phase);
  const std::string suffix = "." + std::to_string(k);
  if (injector_->ConsumeCrashPoint("txn." + name + suffix) ||
      injector_->ConsumeCrashPoint("txn." + name)) {
    // The server that just processed this message loses power. The driver
    // keeps going and hits the dead peer (or finishes without it) —
    // exactly what a machine failure mid-protocol looks like.
    CrashTxnLocked(target);
    return true;
  }
  if (injector_->ConsumeCrashPoint("txnhalt." + name + suffix) ||
      injector_->ConsumeCrashPoint("txnhalt." + name)) {
    return false;  // the driving client dies at this boundary
  }
  return true;
}

void PrototypeCluster::CrashTxnLocked(MdsId victim) {
  // Same power-loss semantics as CrashMigrationLocked: the event loop
  // stops, the cached connection drops, every piece of orchestrator
  // bookkeeping stays. Detection then happens through failed calls, as
  // after a real machine failure.
  conns_.erase(victim);
  if (victim < servers_.size() && servers_[victim]) servers_[victim]->Stop();
}

std::uint64_t PrototypeCluster::NextTxnIdLocked() {
  // Lazy random seed: coordinator decision tables survive restarts, so a
  // fresh orchestrator over an old data_dir must not reuse ids an earlier
  // incarnation journaled. Id 0 is reserved by the wire codecs.
  while (next_txn_id_ == 0) next_txn_id_ = rng_.Next();
  return next_txn_id_++;
}

Status PrototypeCluster::Rename(const std::string& src,
                                const std::string& dst) {
  if (src == dst) return Status::InvalidArgument("rename onto itself");
  MdsId src_home = kInvalidMds;
  MdsId dst_home = kInvalidMds;
  std::uint64_t txn_id = 0;
  {
    MutexLock lock(&mu_);
    if (!started_) return Status::Unavailable("cluster not started");
    const auto alive = AliveServersLocked();
    if (alive.empty()) return Status::Unavailable("no servers");
    auto located = LookupLocked(src, /*teach_l1=*/false);
    if (!located.ok()) return located.status();
    if (!located->found) return Status::NotFound(src);
    src_home = located->home;
    // Cheap refusal before any journaling; the prepare-insert vote
    // re-checks authoritatively under dst's intent lock.
    if (auto probe = LookupLocked(dst); probe.ok() && probe->found) {
      return Status::AlreadyExists(dst);
    }
    dst_home = alive[Fnv1a64(dst) % alive.size()];
    txn_id = NextTxnIdLocked();
    txn_step_seq_.fill(0);
  }
  return NewTxnDriver().Rename(txn_id, src, src_home, dst, dst_home);
}

Status PrototypeCluster::CreateExclusive(const std::string& path,
                                         const FileMetadata& metadata) {
  MdsId home = kInvalidMds;
  std::uint64_t txn_id = 0;
  {
    MutexLock lock(&mu_);
    if (!started_) return Status::Unavailable("cluster not started");
    const auto alive = AliveServersLocked();
    if (alive.empty()) return Status::Unavailable("no servers");
    // Cheap refusal for a path living anywhere in the cluster; the
    // prepare-insert vote is the authoritative check on the hash home,
    // which is where every racing CreateExclusive for this path lands.
    if (auto probe = LookupLocked(path); probe.ok() && probe->found) {
      return Status::AlreadyExists(path);
    }
    home = alive[Fnv1a64(path) % alive.size()];
    txn_id = NextTxnIdLocked();
    txn_step_seq_.fill(0);
  }
  return NewTxnDriver().CreateExclusive(txn_id, path, home, metadata);
}

Result<std::uint64_t> PrototypeCluster::ResolveInDoubt(MdsId id) {
  {
    MutexLock lock(&mu_);
    if (id >= servers_.size() || !servers_[id] || !servers_[id]->running()) {
      return Status::Unavailable("server is down");
    }
  }
  return NewTxnDriver().ResolveInDoubt(id);
}

Result<LeaseGrantResp> PrototypeCluster::RequestLease(
    MdsId home, const std::string& path) {
  MutexLock lock(&mu_);
  if (home >= servers_.size() || !servers_[home]) {
    return Status::Unavailable("server is down");
  }
  return DecodeReply(
      Call(home, EncodePathRequest(MsgType::kLeaseGrant, path)),
      DecodeLeaseGrantResp);
}

Status PrototypeCluster::InvalidatePath(const std::string& path) {
  MutexLock lock(&mu_);
  const auto req = EncodePathRequest(MsgType::kInvalidate, path);
  for (const MdsId id : AliveServersLocked()) {
    auto resp = Call(id, req);
    if (!resp.ok()) continue;  // unreachable: its leases die by TTL
    if (Status s = StatusReply(resp); !s.ok()) return s;
  }
  return Status::Ok();
}

Result<std::uint32_t> PrototypeCluster::ReplicateHotEntry(MdsId owner) {
  MutexLock lock(&mu_);
  if (scheme_ != ProtoScheme::kGhba) {
    return Status::InvalidArgument(
        "hot replication requires the grouped scheme");
  }
  if (owner >= servers_.size() || !servers_[owner]) {
    return Status::NotFound("owner server is down");
  }
  FlagGuard guard(in_failover_);  // walks groups_ across Calls
  auto filter = FetchFilter(owner);
  if (!filter.ok()) return filter.status();
  std::uint32_t installs = 0;
  for (auto& g : groups_) {
    const auto designated = g.holder.find(owner);
    for (const MdsId m : g.members) {
      if (m == owner || m >= servers_.size() || !servers_[m]) continue;
      if (designated != g.holder.end() && designated->second == m) continue;
      if (Status s = InstallReplica(m, owner, *filter); !s.ok()) return s;
      ++installs;
    }
  }
  metrics_.replicas_migrated += installs;
  return installs;
}

Status PrototypeCluster::PublishAll() {
  MutexLock lock(&mu_);
  return PublishAllLocked();
}

Status PrototypeCluster::PublishAllLocked() {
  FlagGuard guard(in_failover_);  // iterates groups_ across Calls
  if (scheme_ == ProtoScheme::kHba) {
    for (MdsId owner = 0; owner < servers_.size(); ++owner) {
      if (!servers_[owner]) continue;
      auto filter = FetchFilter(owner);
      if (!filter.ok()) return filter.status();
      for (MdsId holder = 0; holder < servers_.size(); ++holder) {
        if (!servers_[holder] || holder == owner) continue;
        if (Status s = InstallReplica(holder, owner, *filter); !s.ok()) {
          return s;
        }
      }
    }
    return Status::Ok();
  }
  for (MdsId owner = 0; owner < servers_.size(); ++owner) {
    if (!servers_[owner]) continue;
    auto filter = FetchFilter(owner);
    if (!filter.ok()) return filter.status();
    for (auto& g : groups_) {
      const auto it = g.holder.find(owner);
      if (it == g.holder.end()) continue;
      if (Status s = InstallReplica(it->second, owner, *filter); !s.ok()) {
        return s;
      }
    }
  }
  return Status::Ok();
}

Result<PrototypeCluster::ReconfigOutcome> PrototypeCluster::AddServer() {
  MutexLock lock(&mu_);
  FlagGuard guard(in_failover_);  // holds references into groups_
  const std::uint64_t frames_before = TotalFramesInLocked();
  // Recycle the lowest freed id (a removed or failed-over slot) before
  // growing the vector. StartServer resets the slot's health history, so
  // the new incarnation starts clean instead of inheriting its
  // predecessor's kDead state.
  MdsId nid = static_cast<MdsId>(servers_.size());
  for (MdsId id = 0; id < servers_.size(); ++id) {
    if (!servers_[id] && !group_of_.contains(id)) {
      nid = id;
      break;
    }
  }
  if (Status s = StartServer(nid); !s.ok()) return s;
  if (Status s = JoinTopologyLocked(nid); !s.ok()) return s;
  PushMembershipLocked(ReconfigReason::kJoin, AliveServersLocked());
  const std::uint64_t delta = TotalFramesInLocked() - frames_before;
  metrics_.reconfig_messages += delta;
  return ReconfigOutcome{nid, delta};
}

Status PrototypeCluster::SplitGroupLocked(std::size_t victim) {
  GroupInfo& a = groups_[victim];
  const std::size_t move_count = a.members.size() / 2;
  if (move_count == 0) {
    return Status::InvalidArgument("group too small to split");
  }
  GroupInfo b;
  for (std::size_t i = 0; i < move_count; ++i) {
    b.members.push_back(a.members.back());
    a.members.pop_back();
  }
  // Replicas follow their holders into the new group.
  for (auto it = a.holder.begin(); it != a.holder.end();) {
    if (std::find(b.members.begin(), b.members.end(), it->second) !=
        b.members.end()) {
      b.holder[it->first] = it->second;
      it = a.holder.erase(it);
    } else {
      ++it;
    }
  }
  groups_.push_back(std::move(b));  // invalidates `a`
  for (std::size_t gi = 0; gi < groups_.size(); ++gi) {
    for (const MdsId m : groups_[gi].members) group_of_[m] = gi;
  }
  if (Status s = EnsureCoverage(groups_[victim]); !s.ok()) return s;
  if (Status s = EnsureCoverage(groups_.back()); !s.ok()) return s;
  PushMembershipLocked(ReconfigReason::kSplit, AliveServersLocked());
  return Status::Ok();
}

Status PrototypeCluster::SplitLargestGroup() {
  MutexLock lock(&mu_);
  if (scheme_ != ProtoScheme::kGhba) {
    return Status::InvalidArgument("splitting requires the grouped scheme");
  }
  if (groups_.empty()) return Status::NotFound("no groups");
  FlagGuard guard(in_failover_);  // SplitGroupLocked walks groups_
  const std::uint64_t frames_before = TotalFramesInLocked();
  std::size_t victim = 0;
  for (std::size_t gi = 1; gi < groups_.size(); ++gi) {
    if (groups_[gi].members.size() > groups_[victim].members.size()) {
      victim = gi;
    }
  }
  if (groups_[victim].members.size() < 2) {
    return Status::InvalidArgument("fullest group too small to split");
  }
  Status result = SplitGroupLocked(victim);
  metrics_.reconfig_messages += TotalFramesInLocked() - frames_before;
  return result;
}

Status PrototypeCluster::JoinTopologyLocked(MdsId nid) {
  if (scheme_ == ProtoScheme::kHba) {
    GroupInfo& g = groups_.front();
    g.members.push_back(nid);
    group_of_[nid] = 0;
    // Exchange: newcomer receives all existing replicas, everyone installs
    // the newcomer's filter.
    auto fresh = FetchFilter(nid);
    if (!fresh.ok()) return fresh.status();
    for (MdsId other = 0; other < servers_.size(); ++other) {
      if (other == nid || !servers_[other]) continue;
      auto filter = FetchFilter(other);
      if (!filter.ok()) return filter.status();
      if (Status s = InstallReplica(nid, other, *filter); !s.ok()) return s;
      if (Status s = InstallReplica(other, nid, *fresh); !s.ok()) return s;
    }
  } else {
    std::size_t target = GroupWithRoom();
    if (target == static_cast<std::size_t>(-1)) {
      // Split a random full group: tail half forms a new group.
      const std::size_t victim = rng_.NextBounded(groups_.size());
      if (Status s = SplitGroupLocked(victim); !s.ok()) return s;
      target = GroupWithRoom();
    }
    GroupInfo& g = groups_[target];
    g.members.push_back(nid);
    group_of_[nid] = target;
    if (g.holder.contains(nid)) {
      // Best-effort retire of the old holder's copy; a miss leaves a
      // stale replica, not an inconsistency.
      (void)Call(g.holder[nid], EncodeReplicaDrop(nid));
      g.holder.erase(nid);
    }

    // Light-weight migration: overloaded members hand replicas to the
    // newcomer via fetch + install + drop.
    const std::size_t outsiders =
        AliveServersLocked().size() - g.members.size();
    const std::size_t target_load =
        (outsiders + g.members.size() - 1) / g.members.size();
    std::unordered_map<MdsId, std::vector<MdsId>> held;
    for (const auto& [owner, holder] : g.holder) held[holder].push_back(owner);
    for (const MdsId m : g.members) {
      if (m == nid) continue;
      auto& owners = held[m];
      while (owners.size() > target_load) {
        const MdsId owner = owners.back();
        owners.pop_back();
        auto filter =
            DecodeReply(Call(m, EncodeReplicaFetch(owner)), DecompressFilter);
        if (!filter.ok()) return filter.status();
        if (Status s = InstallReplica(nid, owner, *filter); !s.ok()) return s;
        // Install succeeded; the old copy is now merely redundant.
        (void)Call(m, EncodeReplicaDrop(owner));
        g.holder[owner] = nid;
      }
    }

    // The newcomer's replica goes to one member of each other group.
    auto fresh = FetchFilter(nid);
    if (!fresh.ok()) return fresh.status();
    for (std::size_t gi = 0; gi < groups_.size(); ++gi) {
      if (gi == target || groups_[gi].holder.contains(nid)) continue;
      const MdsId holder = LightestMember(groups_[gi]);
      if (Status s = InstallReplica(holder, nid, *fresh); !s.ok()) return s;
      groups_[gi].holder[nid] = holder;
    }
  }
  return Status::Ok();
}

Result<RecoveryInfoResp> PrototypeCluster::RestartServer(MdsId id) {
  Result<RecoveryInfoResp> info = Status::Unavailable("restart not attempted");
  {
    MutexLock lock(&mu_);
    info = RestartServerLocked(id);
  }
  if (!info.ok() || info->txn_in_doubt == 0) return info;
  // Recovery re-locked every prepared-but-undecided op (their paths
  // refuse plain mutations until resolved); consult each op's coordinator
  // now so committed renames roll forward and everything else rolls back
  // before the rejoined server takes real traffic. The count reported
  // back to the caller is what is STILL in doubt after this pass — an
  // unreachable coordinator leaves its ops for a later ResolveInDoubt.
  if (auto left = ResolveInDoubt(id); left.ok()) {
    info->txn_in_doubt = *left;
  }
  return info;
}

Result<RecoveryInfoResp> PrototypeCluster::RestartServerLocked(MdsId id) {
  if (id >= servers_.size()) return Status::NotFound("no such server");
  if (servers_[id] != nullptr && servers_[id]->running()) {
    return Status::AlreadyExists("server is still running");
  }
  // A crashed-but-undetected server still occupies the topology (its event
  // loop died but no call has failed yet): run the fail-over bookkeeping
  // first so the rejoin below starts from a clean slate, exactly as it
  // would after automatic detection.
  if (group_of_.contains(id)) {
    if (Status s = FailOver(id); !s.ok()) return s;
  }

  FlagGuard guard(in_failover_);  // holds references into groups_
  if (Status s = StartServer(id); !s.ok()) return s;

  // Recovery handshake before the peer takes any traffic: what did its
  // durable engine bring back? (Without --data-dir: durable=false, zeros.)
  auto info = DecodeReply(Call(id, EncodeHeader(MsgType::kRecoveryInfo)),
                          DecodeRecoveryInfoResp);
  if (!info.ok()) return info.status();

  // The rejoining server recovered its journaled view (checkpoint v2 /
  // kMembership WAL records); fold its epoch in so the push below strictly
  // advances past anything it — or its peers — persisted before the
  // outage. The push then replaces whatever stale membership it recovered.
  routing_epoch_ = std::max(routing_epoch_, info->epoch);

  if (Status s = JoinTopologyLocked(id); !s.ok()) return s;

  // Recovery may have restored replicas the rebuilt topology no longer
  // assigns to this server (holders moved during the outage); sweep them.
  const std::unordered_map<MdsId, MdsId>* assigned = nullptr;
  if (scheme_ == ProtoScheme::kGhba) {
    assigned = &groups_[group_of_.at(id)].holder;
  }
  for (MdsId owner = 0; owner < servers_.size(); ++owner) {
    if (owner == id || !servers_[owner]) continue;
    if (scheme_ == ProtoScheme::kHba) continue;  // full mesh keeps them all
    const auto it = assigned->find(owner);
    if (it == assigned->end() || it->second != id) {
      // Best-effort: an undropped extra replica costs memory, not safety.
      (void)Call(id, EncodeReplicaDrop(owner));
    }
  }

  // Refresh every replica so the rejoined server serves current filters
  // (its recovered copies may predate mutations on the survivors).
  if (Status s = PublishAllLocked(); !s.ok()) return s;
  PushMembershipLocked(ReconfigReason::kJoin, AliveServersLocked());
  return *info;
}

Result<BloomFilter> PrototypeCluster::FilterOf(MdsId id) {
  MutexLock lock(&mu_);
  return FetchFilter(id);
}

std::vector<MdsId> PrototypeCluster::AliveServers() const {
  MutexLock lock(&mu_);
  return AliveServersLocked();
}

std::vector<MdsId> PrototypeCluster::AliveServersLocked() const {
  std::vector<MdsId> out;
  for (MdsId id = 0; id < servers_.size(); ++id) {
    if (servers_[id]) out.push_back(id);
  }
  return out;
}

Result<PrototypeCluster::ReconfigOutcome> PrototypeCluster::RemoveServer(
    MdsId id) {
  MutexLock lock(&mu_);
  if (id >= servers_.size() || !servers_[id]) {
    return Status::NotFound("no such server");
  }
  if (AliveServersLocked().size() == 1) {
    return Status::InvalidArgument("cannot remove the last server");
  }
  FlagGuard guard(in_failover_);  // holds references into groups_
  const std::uint64_t frames_before = TotalFramesInLocked();

  if (scheme_ == ProtoScheme::kGhba) {
    const std::size_t gid = group_of_.at(id);
    GroupInfo& g = groups_[gid];
    // Move the replicas this server holds to its group peers.
    std::vector<MdsId> held;
    for (const auto& [owner, holder] : g.holder) {
      if (holder == id) held.push_back(owner);
    }
    g.members.erase(std::find(g.members.begin(), g.members.end(), id));
    group_of_.erase(id);
    for (const MdsId owner : held) {
      auto filter =
          DecodeReply(Call(id, EncodeReplicaFetch(owner)), DecompressFilter);
      if (!filter.ok()) return filter.status();
      if (!g.members.empty()) {
        const MdsId target = LightestMember(g);
        if (Status s = InstallReplica(target, owner, *filter); !s.ok()) {
          return s;
        }
        g.holder[owner] = target;
      } else {
        g.holder.erase(owner);
      }
    }
    // Every survivor drops the leaver's replica/filter state and purges L1
    // entries pointing at it.
    for (const MdsId other : AliveServersLocked()) {
      // Leaver cleanup is advisory; failures leave stale replicas only.
      if (other != id) (void)Call(other, EncodeReplicaDrop(id));
    }
    for (auto& other : groups_) {
      other.holder.erase(id);
    }
    if (g.members.empty()) {
      groups_.erase(groups_.begin() + static_cast<std::ptrdiff_t>(gid));
      for (std::size_t gi = 0; gi < groups_.size(); ++gi) {
        for (const MdsId m : groups_[gi].members) group_of_[m] = gi;
      }
    }
  } else {
    GroupInfo& g = groups_.front();
    g.members.erase(std::find(g.members.begin(), g.members.end(), id));
    group_of_.erase(id);
    for (const MdsId other : AliveServersLocked()) {
      if (other == id) continue;
      (void)Call(other, EncodeReplicaDrop(id));  // advisory, as above
    }
  }

  // Drain the files to the survivors.
  auto files = DecodeReply(Call(id, EncodeHeader(MsgType::kExportFiles)),
                           DecodeFileListResp);
  if (!files.ok()) return files.status();
  const auto survivors = AliveServersLocked();
  std::vector<MdsId> targets;
  for (const MdsId s : survivors) {
    if (s != id) targets.push_back(s);
  }
  // Round-robin the files across the survivors, then ship each survivor's
  // share as batched writes: one kBatch frame per kMaxBatchFrames inserts,
  // one CRC and one round-trip each, instead of a Call per file.
  std::map<MdsId, std::vector<std::vector<std::uint8_t>>> drain;
  std::map<MdsId, std::vector<const std::string*>> drain_paths;
  std::size_t rr = 0;
  for (const auto& [path, md] : files->files) {
    const MdsId target = targets[rr++ % targets.size()];
    drain[target].push_back(EncodeInsert(path, md));
    drain_paths[target].push_back(&path);
  }
  for (auto& [target, reqs] : drain) {
    auto resps = CallBatch(target, reqs);
    if (!resps.ok()) return resps.status();
    for (std::size_t i = 0; i < resps->size(); ++i) {
      if (const Status s = StatusReply((*resps)[i]); !s.ok()) {
        return Status::Internal("drain re-insert of " + *drain_paths[target][i] +
                                " failed: " + s.ToString());
      }
    }
  }

  // The survivors' filters changed: refresh their replicas. The leaver's
  // frame counter disappears with it, so fold it into the delta first.
  const std::uint64_t victim_frames = servers_[id]->frames_in();
  conns_.erase(id);
  servers_[id]->Stop();
  servers_[id].reset();
  // The departed id may be recycled by a later AddServer: its health
  // history must die with this incarnation, or the re-added server would
  // start life marked dead.
  health_.Forget(id);
  if (Status s = PublishAllLocked(); !s.ok()) return s;
  PushMembershipLocked(ReconfigReason::kLeave, AliveServersLocked());

  const std::uint64_t delta =
      TotalFramesInLocked() + victim_frames - frames_before;
  metrics_.reconfig_messages += delta;
  return ReconfigOutcome{id, delta};
}

Status PrototypeCluster::KillServer(MdsId id) {
  MutexLock lock(&mu_);
  if (id >= servers_.size() || !servers_[id]) {
    return Status::NotFound("no such server");
  }
  if (AliveServersLocked().size() == 1) {
    return Status::InvalidArgument("cannot kill the last server");
  }
  return FailOver(id);
}

Status PrototypeCluster::CrashServer(MdsId id) {
  MutexLock lock(&mu_);
  if (id >= servers_.size() || !servers_[id]) {
    return Status::NotFound("no such server");
  }
  // Stop the event loop but leave every piece of orchestrator bookkeeping
  // (groups, replica maps, cached connections!) untouched: from the
  // client's point of view the machine just went dark. The health tracker
  // notices through failing calls and runs FailOver without manual help.
  servers_[id]->Stop();
  return Status::Ok();
}

Status PrototypeCluster::FailOver(MdsId id) {
  // The crash (or its detection): no drain, no goodbye.
  FlagGuard guard(in_failover_);
  const std::uint64_t frames_before = TotalFramesInLocked();
  const std::uint64_t victim_frames =
      (id < servers_.size() && servers_[id]) ? servers_[id]->frames_in() : 0;
  conns_.erase(id);
  health_.MarkDead(id);
  health_.RecordFailover(id);
  if (servers_[id]) {
    servers_[id]->Stop();  // idempotent; a stalled loop still honours it
    servers_[id].reset();
  }

  // Fail-over (Section 4.5): "the corresponding Bloom filters are removed
  // from the other MDSs" — every survivor drops the dead server's replica
  // (if it holds one) and purges its L1 entries pointing there.
  Status result = Status::Ok();
  for (const MdsId other : AliveServersLocked()) {
    // Failover cleanup: survivors that miss the drop self-heal on the
    // next membership epoch.
    (void)Call(other, EncodeReplicaDrop(id));
  }
  if (scheme_ == ProtoScheme::kGhba) {
    const std::size_t gid = group_of_.at(id);
    GroupInfo& g = groups_[gid];
    g.members.erase(std::find(g.members.begin(), g.members.end(), id));
    group_of_.erase(id);
    // Replicas it held are gone with it; forget the bookkeeping.
    for (auto it = g.holder.begin(); it != g.holder.end();) {
      it = it->second == id ? g.holder.erase(it) : std::next(it);
    }
    for (auto& other : groups_) {
      other.holder.erase(id);
    }
    if (g.members.empty()) {
      groups_.erase(groups_.begin() + static_cast<std::ptrdiff_t>(gid));
      for (std::size_t gi = 0; gi < groups_.size(); ++gi) {
        for (const MdsId m : groups_[gi].members) group_of_[m] = gi;
      }
    } else {
      result = EnsureCoverage(g);
    }
  } else {
    GroupInfo& g = groups_.front();
    g.members.erase(std::find(g.members.begin(), g.members.end(), id));
    group_of_.erase(id);
  }
  // Survivors learn the post-failover view under a bumped epoch. The dead
  // peer's health verdict deliberately survives (tests assert the kDead
  // state is visible after automatic detection); only a graceful
  // RemoveServer — or a restart of the same id — clears it.
  PushMembershipLocked(ReconfigReason::kFailover, AliveServersLocked());
  metrics_.reconfig_messages +=
      TotalFramesInLocked() + victim_frames - frames_before;
  return result;
}

Status PrototypeCluster::CrashMigrationLocked(MdsId victim,
                                              const char* phase) {
  // Power loss at a phase boundary: the event loop stops, every piece of
  // orchestrator bookkeeping stays (as CrashServer), and the caller's test
  // restarts the victim to see where its journaled state lands.
  conns_.erase(victim);
  if (victim < servers_.size() && servers_[victim]) servers_[victim]->Stop();
  return Status::Unavailable(std::string("migration crashed at phase ") +
                             phase);
}

Status PrototypeCluster::MigrateReplica(MdsId owner, MdsId to) {
  MutexLock lock(&mu_);
  if (scheme_ != ProtoScheme::kGhba) {
    return Status::InvalidArgument("migration requires the grouped scheme");
  }
  if (to >= servers_.size() || !servers_[to]) {
    return Status::NotFound("target server is down");
  }
  if (owner >= servers_.size() || !servers_[owner]) {
    return Status::NotFound("owner server is down");
  }
  const auto git = group_of_.find(to);
  if (git == group_of_.end()) return Status::NotFound("target is in no group");
  GroupInfo& g = groups_[git->second];
  const auto assignment = g.holder.find(owner);
  if (assignment == g.holder.end()) {
    return Status::NotFound("target's group holds no replica of this owner");
  }
  const MdsId from = assignment->second;
  if (from == to) return Status::Ok();
  FlagGuard guard(in_failover_);  // holds references into groups_
  const std::uint64_t frames_before = TotalFramesInLocked();

  // Phase 1 — prepare. Snapshot the owner's *current* filter and install
  // it (journaled through `to`'s WAL) on the new holder. From here until
  // retire, both holders answer probes for the owner — the dual-epoch
  // window: a lookup racing the flip probes a superset of placements, so
  // the window costs duplicate messages, never a wrong miss.
  auto filter = FetchFilter(owner);
  if (!filter.ok()) return filter.status();
  if (Status s = InstallReplica(to, owner, *filter); !s.ok()) return s;
  if (injector_ != nullptr &&
      injector_->ConsumeMigrationCrash(
          FaultInjector::MigrationPhase::kPrepare)) {
    // Routing still points at `from`: recovery sweeps the journaled copy
    // off `to` at rejoin — exactly the pre-migration placement.
    return CrashMigrationLocked(to, "prepare");
  }

  // Phase 2 — flip: rewrite the holder map and push the bumped epoch to
  // the group (journaled on each durable member); no other server routes
  // through this holder map. The commit point: from here recovery
  // completes the migration instead of undoing it.
  assignment->second = to;
  PushMembershipLocked(ReconfigReason::kMigrate, g.members);
  if (injector_ != nullptr &&
      injector_->ConsumeMigrationCrash(FaultInjector::MigrationPhase::kFlip)) {
    return CrashMigrationLocked(from, "flip");
  }

  // Phase 3 — retire: the old holder drops (journals) its copy. The new
  // copy is installed, so a failed retire only leaves a stale duplicate.
  (void)Call(from, EncodeReplicaDrop(owner));
  ++metrics_.replicas_migrated;
  metrics_.reconfig_messages += TotalFramesInLocked() - frames_before;
  if (injector_ != nullptr &&
      injector_->ConsumeMigrationCrash(
          FaultInjector::MigrationPhase::kRetire)) {
    return CrashMigrationLocked(from, "retire");
  }
  return Status::Ok();
}

Result<AdaptiveDecision> PrototypeCluster::AdaptivityTick(
    AdaptivityController& controller) {
  AdaptivitySignals signals;
  {
    MutexLock lock(&mu_);
    if (!started_) return Status::Unavailable("cluster not started");
    const auto alive = AliveServersLocked();
    signals.num_mds = static_cast<std::uint32_t>(alive.size());
    signals.num_groups = static_cast<std::uint32_t>(groups_.size());
    for (const auto& g : groups_) {
      signals.largest_group = std::max(
          signals.largest_group, static_cast<std::uint32_t>(g.members.size()));
    }
    signals.max_group_size = config_.max_group_size;
    signals.memory_budget_bytes = config_.memory_budget_bytes * alive.size();
    signals.dead_peers =
        static_cast<std::uint32_t>(health_.DeadPeers().size());
    signals.lookups_total = metrics_.levels.total();
    signals.latency = MeasureComponents(metrics_);
    for (const MdsId id : alive) {
      // A slow peer skips one sample.
      if (auto snap =
              DecodeReply(Call(id, EncodeHeader(MsgType::kStatsSnapshot)),
                          DecodeStatsSnapshotResp);
          snap.ok()) {
        signals.lookup_state_bytes += snap->lookup_state_bytes;
      }
    }
  }

  AdaptiveDecision decision = controller.Evaluate(signals);
  // Applying can fail (a peer mid-crash, a group too small to split); the
  // decision still stands — the failure is appended as the diagnostic and
  // the next tick resamples and retries.
  const auto note_failure = [&decision](const Status& s) {
    if (!s.ok()) decision.reason += " (apply failed: " + s.ToString() + ")";
  };
  // Apply best-effort outside the sampling scope: each action takes mu_
  // itself, and a failed application leaves the reason as the diagnostic
  // for the caller while the next tick retries.
  switch (decision.action) {
    case AdaptiveAction::kAddServer:
      note_failure(AddServer().status());
      break;
    case AdaptiveAction::kRemoveServer: {
      MdsId victim = kInvalidMds;
      {
        MutexLock lock(&mu_);
        const auto alive = AliveServersLocked();
        if (alive.size() > 1) victim = alive.back();
      }
      if (victim != kInvalidMds) note_failure(RemoveServer(victim).status());
      break;
    }
    case AdaptiveAction::kSplitGroup:
      note_failure(SplitLargestGroup());
      break;
    case AdaptiveAction::kNone:
      break;
  }
  return decision;
}

MetricsSnapshot PrototypeCluster::ClientSnapshot() {
  const auto totals = health_.TotalCounts();
  rpc_retries_ = totals.retries;
  rpc_timeouts_ = totals.timeouts;
  rpc_failures_ = totals.failures;
  rpc_suspected_ = totals.suspected;
  rpc_failovers_ = totals.failovers;
  return metrics_.Snapshot();
}

Status PrototypeCluster::Quiesce() {
  MutexLock lock(&mu_);
  const auto ping = EncodeHeader(MsgType::kPing);
  for (MdsId id = 0; id < servers_.size(); ++id) {
    if (!servers_[id]) continue;
    // Only cached connections can still hold queued one-way frames; a
    // fresh connection has nothing to flush.
    if (conns_.find(id) == conns_.end()) continue;
    auto resp = Call(id, ping);
    if (!resp.ok()) return resp.status();
  }
  return Status::Ok();
}

std::vector<std::uint16_t> PrototypeCluster::ServerPorts() const {
  MutexLock lock(&mu_);
  std::vector<std::uint16_t> ports;
  for (const auto& server : servers_) {
    if (server) ports.push_back(server->port());
  }
  return ports;
}

Result<StatsSnapshotResp> PrototypeCluster::FetchStats(MdsId id) {
  MutexLock lock(&mu_);
  return DecodeReply(Call(id, EncodeHeader(MsgType::kStatsSnapshot)),
                     DecodeStatsSnapshotResp);
}

std::uint64_t PrototypeCluster::TotalFramesIn() const {
  MutexLock lock(&mu_);
  return TotalFramesInLocked();
}

std::uint64_t PrototypeCluster::TotalFramesInLocked() const {
  std::uint64_t total = 0;
  for (const auto& server : servers_) {
    if (server) total += server->frames_in();
  }
  return total;
}

}  // namespace ghba
