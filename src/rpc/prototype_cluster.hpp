// Orchestrator + client for the loopback prototype (paper Section 5).
//
// Spawns one MdsServer per MDS, forms groups, installs Bloom-filter
// replicas over the wire, and drives the four-level query protocol from the
// client side: the client library plays the coordinating role of the entry
// MDS (L1/L2 run remotely on the entry server; group and global fan-outs go
// to the members / all servers). Message counts come straight from the
// servers' frame counters, which is what Fig. 15 plots.
//
// Thread safety: all client/orchestrator state (cached connections, group
// topology, the reconfiguration guard) is GHBA_GUARDED_BY(mu_); public
// entry points take the lock and everything below them carries
// GHBA_REQUIRES(mu_), so Clang's -Wthread-safety proves no path touches
// the topology unlocked — including the automatic fail-over path that
// rewrites groups_ underneath a lookup.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/lookup_outcome.hpp"
#include "common/rng.hpp"
#include "common/sync.hpp"
#include "core/adaptivity.hpp"
#include "core/config.hpp"
#include "core/metrics.hpp"
#include "mds/metadata.hpp"
#include "rpc/fault_injector.hpp"
#include "rpc/health.hpp"
#include "rpc/protocol.hpp"
#include "rpc/server.hpp"
#include "rpc/socket.hpp"
#include "rpc/txn_driver.hpp"

namespace ghba {

/// Replica topology the prototype runs.
enum class ProtoScheme {
  kGhba,  ///< groups of <= M; theta replicas per server
  kHba,   ///< every server holds every other server's replica
};

class PrototypeCluster {
 public:
  PrototypeCluster(ClusterConfig config, ProtoScheme scheme);
  ~PrototypeCluster();

  PrototypeCluster(const PrototypeCluster&) = delete;
  PrototypeCluster& operator=(const PrototypeCluster&) = delete;

  /// Spawn all servers and install the (empty) replica topology.
  Status Start();
  void Stop();

  /// Attach a deterministic fault injector. Call before Start() so server
  /// event loops honour injected stalls (servers read the pointer from
  /// their loop thread); client-side connections pick it up lazily at any
  /// time. Pass nullptr to detach from the client side.
  void set_fault_injector(FaultInjector* injector);

  /// Client-visible failure accounting (suspicion / confirmed deaths).
  const PeerHealthTracker& health() const { return health_; }

  /// Client-side metrics (per-level outcomes, lookup latency, rpc.*
  /// failure counters). Internally synchronized; readable any time.
  const ClusterMetrics& metrics() const { return metrics_; }

  /// Point-in-time export of the client registry, with the rpc.* counters
  /// refreshed from the health tracker first.
  MetricsSnapshot ClientSnapshot();

  /// Flush in-flight one-way frames (kReportOutcome / kTouchLru): a kPing
  /// round-trip on every cached connection. Each connection is FIFO on the
  /// server side, so once the ping answers, every frame queued before it
  /// has been handled. Call before polling server stats that must include
  /// already-issued lookups.
  Status Quiesce();

  /// Loopback ports of the live servers, in MdsId order (ghba_stats polls
  /// these over independent connections).
  std::vector<std::uint16_t> ServerPorts() const;

  /// One server's full stats snapshot via the kStatsSnapshot RPC.
  Result<StatsSnapshotResp> FetchStats(MdsId id);

  std::size_t NumServers() const;
  std::size_t NumGroups() const;

  /// Create a file on a uniformly random server.
  Status Insert(const std::string& path, const FileMetadata& metadata);

  /// Create many files, each on a uniformly random server (same placement
  /// distribution as Insert). Per-server traffic rides kBatch frames —
  /// many inserts, one CRC, one round-trip. First failure aborts.
  Status InsertBatch(
      const std::vector<std::pair<std::string, FileMetadata>>& files);

  /// Remove a file (the lookup protocol locates it first).
  Status Unlink(const std::string& path);

  /// Atomically rename `src` to `dst` via WAL-journaled two-phase commit.
  /// The lookup protocol locates src; src's home coordinates and
  /// journals every transition. dst's home comes from a deterministic hash
  /// placement over the live servers, so a rename usually crosses MDSs.
  /// Ok means the commit decision is durable on the coordinator: a crash
  /// at any later boundary rolls the rename forward at recovery — never a
  /// half-applied pair. NotFound when src is absent, AlreadyExists when
  /// dst is taken; both abort cleanly.
  Status Rename(const std::string& src, const std::string& dst);

  /// Atomically create `path` (same hash placement) with `metadata`,
  /// failing with AlreadyExists when present. A single-participant
  /// transaction sharing Rename's journal trail and crash matrix: the
  /// existence check and the insert are one prepared op under the intent
  /// lock, so two racing creators cannot both win.
  Status CreateExclusive(const std::string& path,
                         const FileMetadata& metadata);

  /// Resolve every in-doubt prepared op on `id` against its coordinator's
  /// durable decision table: committed ops roll forward, aborted/unknown
  /// roll back (presumed abort), an undecided txn is force-aborted first.
  /// Returns the number of ops still in doubt (coordinator unreachable
  /// and not confirmed dead); 0 means the server is clean. RestartServer
  /// runs this automatically when recovery reports in-doubt prepares.
  Result<std::uint64_t> ResolveInDoubt(MdsId id);

  /// Four-level lookup driven from the client.
  Result<LookupOutcome> Lookup(const std::string& path);

  /// Fetch every server's current filter and refresh its replicas.
  Status PublishAll();

  /// What a topology change did: the server involved and the frames the
  /// operation exchanged (Fig. 15's cost axis). Returned by value — the
  /// client-path API carries results in Result<T>, never out-params.
  struct ReconfigOutcome {
    MdsId id = kInvalidMds;
    std::uint64_t messages = 0;
  };

  /// Add one server (Fig. 15's experiment).
  Result<ReconfigOutcome> AddServer();

  /// Gracefully decommission a server: its replicas move to group peers,
  /// its files drain to the survivors, every group drops its filter.
  Result<ReconfigOutcome> RemoveServer(MdsId id);

  /// Crash a server (no drain — its files are lost) and run fail-over:
  /// survivors drop its filters and rebuild group coverage. Exercises the
  /// heart-beat path of Section 4.5 over real sockets.
  Status KillServer(MdsId id);

  /// Crash a server WITHOUT telling the orchestrator: the event loop stops
  /// but all cluster bookkeeping still believes the server is alive, as
  /// after a real machine failure. Detection and fail-over then happen
  /// automatically through the health tracker (failed calls -> suspected
  /// -> kPing confirmation -> FailOver), with no manual KillServer.
  Status CrashServer(MdsId id);

  /// Restart a dead (killed or crashed) server in place. With
  /// config.storage.data_dir set, the new incarnation recovers its durable
  /// state (checkpoint + WAL replay) before rejoining; the returned
  /// RecoveryInfoResp is the peer's own account of what it brought back.
  /// The rejoined server re-enters a group, receives fresh replicas and
  /// serves L4 again. A crashed-but-undetected server is failed over first.
  Result<RecoveryInfoResp> RestartServer(MdsId id);

  /// Move the replica of `owner` held inside `to`'s group onto `to`, as a
  /// crash-safe three-phase handoff. Each phase's durable effect is
  /// journaled through the involved server's WAL before the next phase
  /// starts:
  ///   1. prepare — snapshot the owner's current filter, install it
  ///      (journaled) on `to`; the old holder still routes.
  ///   2. flip — rewrite the holder map, bump the routing epoch and push
  ///      it to the members of `to`'s group G only (one kMembershipUpdate
  ///      each, journaled by every durable member): the holder map is the
  ///      only thing that changed, and only G routes through it. This is
  ///      the commit point. A migration therefore costs |G| + 3 messages
  ///      and |G| + 2 WAL appends, whatever the cluster size. Outsiders
  ///      keep their older epoch, which is harmless: a later push still
  ///      strictly increases it, and Start folds in the highest epoch any
  ///      server recovered.
  ///   3. retire — the old holder drops (journals) its copy.
  /// Between 1 and 3 both holders answer probes for the owner — the
  /// dual-epoch window: lookups racing the flip probe a superset of
  /// placements, so the window costs duplicate messages, never a wrong
  /// miss. A crash at any boundary (see FaultInjector::ArmMigrationCrash)
  /// recovers to exactly the pre-flip or post-flip placement of this
  /// replica, never a half-migrated view.
  Status MigrateReplica(MdsId owner, MdsId to);

  /// Split the fullest group in two (tail half forms a new group) and push
  /// the new views. The adaptivity loop's kSplitGroup action.
  Status SplitLargestGroup();

  /// One tick of the online adaptivity loop: sample the live signals
  /// (alive servers, group shapes, measured hit ratios and latencies,
  /// summed lookup_state_bytes, peer health), ask `controller` for a
  /// decision, and apply it (AddServer / RemoveServer / SplitLargestGroup)
  /// while traffic keeps flowing. Returns the decision taken; applying it
  /// best-effort — an action that fails leaves the decision's reason as
  /// the diagnostic and the next tick retries.
  Result<AdaptiveDecision> AdaptivityTick(AdaptivityController& controller);

  /// Current routing epoch (bumped before every membership push).
  std::uint64_t RoutingEpoch() const;

  /// One server's own cluster view, over the wire (kGetMembership).
  Result<MembershipResp> MembershipOf(MdsId id);

  /// Orchestrator-side placement: which member of `group_member`'s group
  /// holds the replica of `owner`?
  Result<MdsId> HolderOf(MdsId group_member, MdsId owner) const;

  /// Server-side truth: does `holder`'s segment array contain a replica of
  /// `owner` right now (kReplicaFetch probe)?
  Result<bool> HoldsReplica(MdsId holder, MdsId owner);

  /// Diagnostic: one server's current local filter, flattened (the crash
  /// tests compare pre-crash and post-recovery bits for identity).
  Result<BloomFilter> FilterOf(MdsId id);

  /// Live server ids.
  std::vector<MdsId> AliveServers() const;

  /// Diagnostic: exact store membership of `path` on one server.
  Result<bool> VerifyOn(MdsId id, const std::string& path);

  /// Ask `home` for a lookup lease on `path` (kLeaseGrant, v4). A grant is
  /// a positive membership proof with a TTL; a refusal means "do not cache"
  /// and carries no verdict about existence.
  Result<LeaseGrantResp> RequestLease(MdsId home, const std::string& path);

  /// Broadcast kInvalidate for `path` to every live server: each drops any
  /// lease and L1 entry it holds for the path. Only a path that was stored
  /// needs one (an unlinked path, a rename's src): leases are granted only
  /// for stored paths and L1 hints are planted only by found lookups, so a
  /// path that never existed has nothing to revoke. Best-effort per peer —
  /// an unreachable server's leases die by TTL instead — but a peer that
  /// answers with an error fails the call, so callers can assert coherence.
  Status InvalidatePath(const std::string& path);

  /// Flash-crowd response: install `owner`'s filter on every live group
  /// member that is not already its designated holder, so hot lookups
  /// resolve at L2 on any entry server instead of funnelling through one
  /// holder per group (reuses the MigrateReplica install path). The extra
  /// copies are cache-grade: PublishAll refreshes only designated holders,
  /// so a stale extra costs a false route that kVerify absorbs, never a
  /// wrong answer. Returns the number of copies installed.
  Result<std::uint32_t> ReplicateHotEntry(MdsId owner);

  /// Total frames received across all servers (monotone counter).
  std::uint64_t TotalFramesIn() const;

 private:
  struct GroupInfo {
    std::vector<MdsId> members;
    std::unordered_map<MdsId, MdsId> holder;  // owner -> member holding it
  };

  /// Per-lookup bookkeeping threaded through the level cascade: wall-clock
  /// attribution per level, distinct peers contacted, the verify memo and
  /// the trace under construction. Plain data — no locking of its own.
  struct QueryCtx {
    std::uint64_t serial = 0;  ///< this lookup's mark in ruled_out_in_
    bool teach_l1 = true;      ///< send the entry a kTouchLru on a hit
    MdsId entry = kInvalidMds;
    double start_ms = 0;
    double mark_ms = 0;               ///< start of the level in progress
    std::uint64_t retries_before = 0; ///< health retry total at query start
    LookupTrace trace;
    std::vector<MdsId> contacted;  ///< distinct peers (entry excluded)
    std::vector<MdsId> verified;   ///< kVerify memo (at most once each)

    /// Attribute the wall-clock since `mark_ms` to `level` and restart the
    /// mark. Levels the query fell through keep their partial elapsed time.
    void CloseLevel(int level);
    /// Record one contact with `id` (dedup; the entry server is implied).
    void Contact(MdsId id);
  };

  Status StartServer(MdsId id) GHBA_REQUIRES(mu_);
  /// Wire a freshly started server `nid` into the replica topology: group
  /// membership, replica exchange/migration, coverage. Shared by AddServer
  /// (brand-new id) and RestartServer (rejoining id). Callers hold the
  /// in_failover_ flag (this walks groups_ across Calls).
  Status JoinTopologyLocked(MdsId nid) GHBA_REQUIRES(mu_);
  /// Request/response with a per-call budget: each attempt is bounded by
  /// rpc.attempt_timeout_ms, transport failures evict the cached
  /// connection and retry (reconnecting lazily) with jittered backoff,
  /// and the whole call never outlives rpc.call_budget_ms. Failures feed
  /// the health tracker and can trigger automatic fail-over.
  Result<std::vector<std::uint8_t>> Call(MdsId id,
                                         const std::vector<std::uint8_t>& req)
      GHBA_REQUIRES(mu_);
  /// One bounded send+recv exchange over the cached (or freshly opened)
  /// connection; no retries, no health accounting.
  Result<std::vector<std::uint8_t>> CallOnce(
      MdsId id, const std::vector<std::uint8_t>& req, Deadline deadline)
      GHBA_REQUIRES(mu_);
  Status OneWay(MdsId id, const std::vector<std::uint8_t>& frame)
      GHBA_REQUIRES(mu_);

  /// Issue `reqs` against one server and return the responses in request
  /// order, packed into kBatch frames (at most kMaxBatchFrames sub-frames
  /// each, one CRC per frame). Every req must be a BatchableType request.
  Result<std::vector<std::vector<std::uint8_t>>> CallBatch(
      MdsId id, const std::vector<std::vector<std::uint8_t>>& reqs)
      GHBA_REQUIRES(mu_);

  /// Health pipeline: account a failed call; once the peer is suspected,
  /// confirm with kPing heart-beats and fail it over if confirmed dead.
  void NoteCallFailure(MdsId id) GHBA_REQUIRES(mu_);
  /// True when `id` answers none of rpc.ping_attempts kPing probes.
  bool ConfirmDead(MdsId id) GHBA_REQUIRES(mu_);
  /// Section 4.5 fail-over: stop what is left of the server, survivors
  /// drop its filters, groups rebuild coverage. Shared by KillServer and
  /// the automatic detection path.
  Status FailOver(MdsId id) GHBA_REQUIRES(mu_);

  Result<BloomFilter> FetchFilter(MdsId owner) GHBA_REQUIRES(mu_);
  Status InstallReplica(MdsId holder, MdsId owner, const BloomFilter& filter)
      GHBA_REQUIRES(mu_);

  /// Member of `g` holding the fewest replicas.
  MdsId LightestMember(const GroupInfo& g) const;
  /// Group index with room, or SIZE_MAX.
  std::size_t GroupWithRoom() const GHBA_REQUIRES(mu_);
  Status EnsureCoverage(GroupInfo& g) GHBA_REQUIRES(mu_);

  /// Split group `victim` in two (tail half forms a new group), rebuild
  /// coverage for both halves and push the new views (kSplit). Callers
  /// hold the in_failover_ flag.
  Status SplitGroupLocked(std::size_t victim) GHBA_REQUIRES(mu_);

  /// Bump the routing epoch and push each of `targets` its new group view
  /// via kMembershipUpdate. A change of the whole topology targets every
  /// live server; a change confined to one group targets its members.
  /// Best-effort: an unreachable peer catches up on the next push (or at
  /// rejoin); until then its stale view costs routing efficiency only —
  /// the exact L4 level keeps answers correct.
  void PushMembershipLocked(ReconfigReason reason, std::vector<MdsId> targets)
      GHBA_REQUIRES(mu_);

  /// kGetMembership round-trip (locked body of MembershipOf).
  Result<MembershipResp> FetchMembership(MdsId id) GHBA_REQUIRES(mu_);

  /// Simulated power loss at a migration phase boundary: stop `victim`'s
  /// event loop abruptly, keep every piece of orchestrator bookkeeping
  /// (as CrashServer does), and report the aborted migration. The caller's
  /// test restarts the victim and asserts where recovery landed.
  Status CrashMigrationLocked(MdsId victim, const char* phase)
      GHBA_REQUIRES(mu_);

  /// A TxnDriver over Call(), with TxnStepLocked as its after-step hook
  /// (resolution sends no hooked messages). Each of its functions takes
  /// mu_ for exactly one exchange or check, so a drive holds no lock
  /// between messages — lookups, inserts and even fail-overs interleave
  /// with an in-flight transaction, the same concurrency real daemons see.
  TxnDriver NewTxnDriver();
  /// After-step hook body: consume txn.<phase>[.<k>] (crash the server
  /// that just processed message k of that phase, bookkeeping kept) and
  /// txnhalt.<phase>[.<k>] (halt the driver — the client dies at that
  /// boundary) crash points armed on the injector. Returns false to halt.
  bool TxnStepLocked(TxnPhase phase, MdsId target) GHBA_REQUIRES(mu_);
  /// Power loss at a txn phase boundary: same semantics as
  /// CrashMigrationLocked — the event loop stops, every piece of
  /// orchestrator bookkeeping stays, detection happens via failed calls.
  void CrashTxnLocked(MdsId victim) GHBA_REQUIRES(mu_);
  /// Next client-side transaction id. Lazily seeded from rng_ so a fresh
  /// orchestrator over an old data_dir cannot collide with txn ids a
  /// durable coordinator already journaled (ids must be unique per
  /// coordinator table, which survives restarts).
  std::uint64_t NextTxnIdLocked() GHBA_REQUIRES(mu_);
  /// Locked body of RestartServer (everything up to the rejoin push); the
  /// public wrapper then resolves in-doubt prepares with mu_ released
  /// between messages, as every txn drive runs.
  Result<RecoveryInfoResp> RestartServerLocked(MdsId id) GHBA_REQUIRES(mu_);

  Result<bool> VerifyAt(MdsId candidate, const std::string& path)
      GHBA_REQUIRES(mu_);
  /// Verifies `candidate` at most once per lookup (`q.verified` is the
  /// per-lookup memo). A verify that answers "not here" marks the trace as
  /// a false route and rules the candidate out of L4. Named helpers
  /// instead of lambdas so the thread-safety analysis sees the
  /// REQUIRES(mu_) contract: Clang analyzes a lambda body as a separate
  /// unannotated function, losing the caller's held-lock set.
  bool TryVerifyOnce(QueryCtx& q, MdsId candidate, const std::string& path)
      GHBA_REQUIRES(mu_);
  /// Record that `id` answered in this lookup that it does not store the
  /// path, so L4 skips it. Only a definite answer counts: a probe whose
  /// `hits` omit the replier's own id (its local counting filter has no
  /// false negatives), or a verify that returned ok + false. A failed,
  /// timed-out or shed call rules nothing out, so L4 stays exact.
  void RuleOut(const QueryCtx& q, MdsId id) GHBA_REQUIRES(mu_);
  bool RuledOut(const QueryCtx& q, MdsId id) const GHBA_REQUIRES(mu_);
  /// Completes a LookupOutcome: closes the serving level, seals the trace,
  /// accounts the query into the client metrics, fire-and-forgets a
  /// kReportOutcome to the entry server (Fig. 13 accounting lives
  /// server-side) and, on a hit, a kTouchLru so the entry's L1 cache
  /// learns the answer (unless `q.teach_l1` is off).
  LookupOutcome FinishLookup(const std::string& path, QueryCtx& q, int level,
                             bool found, MdsId home) GHBA_REQUIRES(mu_);

  // Locked bodies of the public entry points that other operations reuse
  // (Unlink locates via a lookup; RemoveServer republishes filters).
  /// The four-level cascade. L4 probes only the live servers that L1–L3
  /// did not rule out (see RuleOut). `teach_l1` is off for the locate of a
  /// mutation that is about to void the placement it finds (Unlink, the
  /// src of a Rename): the entry's L1 would only learn a stale hint.
  Result<LookupOutcome> LookupLocked(const std::string& path,
                                     bool teach_l1 = true)
      GHBA_REQUIRES(mu_);
  Status PublishAllLocked() GHBA_REQUIRES(mu_);
  std::vector<MdsId> AliveServersLocked() const GHBA_REQUIRES(mu_);
  std::uint64_t TotalFramesInLocked() const GHBA_REQUIRES(mu_);
  void StopLocked() GHBA_REQUIRES(mu_);

  const ClusterConfig config_;
  const ProtoScheme scheme_;

  /// Serializes every client/orchestrator operation. One lock is enough:
  /// the prototype client is a coordinator, not a throughput path, and a
  /// single capability keeps the fail-over reasoning tractable. Highest
  /// rank: Start/Stop/RestartServer reach directly into server internals
  /// (and everything else) while holding it.
  mutable Mutex mu_{LockRank::kCluster};
  Rng rng_ GHBA_GUARDED_BY(mu_);
  bool started_ GHBA_GUARDED_BY(mu_) = false;

  // index = MdsId
  std::vector<std::unique_ptr<MdsServer>> servers_ GHBA_GUARDED_BY(mu_);
  std::unordered_map<MdsId, TcpConnection> conns_ GHBA_GUARDED_BY(mu_);
  std::vector<GroupInfo> groups_ GHBA_GUARDED_BY(mu_);  // G-HBA only
  std::unordered_map<MdsId, std::size_t> group_of_ GHBA_GUARDED_BY(mu_);
  /// Routing epoch of the last membership push. Strictly increasing;
  /// Start/RestartServer fold in the epochs durable servers recovered, so
  /// a new orchestrator incarnation never pushes an epoch the survivors
  /// would reject as stale.
  std::uint64_t routing_epoch_ GHBA_GUARDED_BY(mu_) = 0;
  /// L4 skip list without a per-lookup allocation: indexed by MdsId, the
  /// serial of the last lookup that ruled that server out. A server is
  /// skipped only when the entry carries the current lookup's serial, so a
  /// stale or overwritten entry can only cost an extra probe.
  std::vector<std::uint64_t> ruled_out_in_ GHBA_GUARDED_BY(mu_);
  std::uint64_t lookup_serial_ GHBA_GUARDED_BY(mu_) = 0;
  /// Txn id allocator; 0 means "not yet seeded" (NextTxnIdLocked draws a
  /// random base — txn id 0 itself is reserved by the wire codecs).
  std::uint64_t next_txn_id_ GHBA_GUARDED_BY(mu_) = 0;
  /// Per-drive message counters, one per TxnPhase: position k within a
  /// phase names the crash point txn.<phase>.<k>. Reset at drive start.
  std::array<std::uint32_t, 5> txn_step_seq_ GHBA_GUARDED_BY(mu_){};

  PeerHealthTracker health_;  // internally synchronized
  /// Client-side accounting. Internally synchronized (atomic counters,
  /// striped histograms); all writes happen under mu_ anyway.
  ClusterMetrics metrics_;
  // rpc.* mirrors of health_.TotalCounts(), refreshed by ClientSnapshot().
  MetricsRegistry::Counter rpc_retries_;
  MetricsRegistry::Counter rpc_timeouts_;
  MetricsRegistry::Counter rpc_failures_;
  MetricsRegistry::Counter rpc_suspected_;
  MetricsRegistry::Counter rpc_failovers_;
  FaultInjector* injector_ GHBA_GUARDED_BY(mu_) = nullptr;
  /// Reconfiguration guard against recursive fail-over: the repair traffic
  /// itself may hit slow peers, which must only be accounted, not chased.
  bool in_failover_ GHBA_GUARDED_BY(mu_) = false;
};

}  // namespace ghba
