// The three socket workloads: ghba::Client on a live in-process cluster of
// 30 MdsServers (groups of 6) over loopback TCP.
//
//   hot-read    4 closed-loop threads share one Client; Zipf-skewed lookups
//               of existing paths whose hot set fits the client cache.
//   cold-read   1 thread; uniform lookups over a namespace far larger than
//               the client cache and every server's L1, 1/8 of them absent.
//   mutate-mix  1 thread on a durable cluster (WAL, fsync=always): lookups
//               beside Insert, Unlink, Rename, CreateExclusive and a
//               MigrateReplica per round, as one fixed seeded sequence.
//
// Every operation's answer is checked against the benchmark's own model of
// the namespace; a violation throws CheckFailure.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "bloom/counting_bloom_filter.hpp"
#include "client/client.hpp"
#include "core/metrics.hpp"
#include "probes.hpp"
#include "storage/engine.hpp"

namespace perfbench {
namespace {

using ghba::Client;
using ghba::ClusterConfig;
using ghba::FileMetadata;
using ghba::kInvalidMds;
using ghba::MdsId;
using ghba::PrototypeCluster;

/// Shadow calls use paths under this prefix, which no workload stores, so
/// they change no state the workload reads.
const std::string kShadowPrefix = "/perfbench-shadow/p";

/// The lease clock: it advances one millisecond per `ops_per_ms` completed
/// operations, so a lease (2000 ms) expires after the same number of
/// operations in every run. cold-read and mutate-mix set `ops_per_ms` to
/// their own rate on the reference host, so a lease lasts about as many
/// operations as it would on the wall clock there; hot-read cannot (see it).
struct OpClock {
  explicit OpClock(std::uint64_t rate) : ops_per_ms(rate) {}
  const std::uint64_t ops_per_ms;
  std::atomic<std::uint64_t> ops{0};
  void Tick() { ops.fetch_add(1, std::memory_order_relaxed); }
};

ghba::ClientOptions ClientOptionsFor(OpClock* clock) {
  ghba::ClientOptions options;
  options.clock_ms = [clock] {
    return clock->ops.load(std::memory_order_relaxed) / clock->ops_per_ms;
  };
  return options;
}

/// Records kept per worker are reserved up front (address space only), so
/// the resident set grows with the op count instead of jumping when a
/// vector doubles.
constexpr std::size_t kReservedOps = std::size_t{1} << 21;

/// The program's defaults, except: the seed is the run's, and each local
/// filter is sized for twice the files a server actually stores, as the
/// repository's simulation benches size theirs (the default is sized for
/// 50000 files per MDS, which leaves every filter nearly empty).
ClusterConfig ConfigFor(const Args& args, std::size_t files) {
  ClusterConfig config;
  config.seed = args.seed;
  config.expected_files_per_mds = 2 * files / config.num_mds;
  return config;
}

std::vector<std::string> MakePaths(const std::string& prefix,
                                   std::size_t count, std::size_t dirs) {
  std::vector<std::string> paths;
  paths.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    paths.push_back(prefix + "/d" + std::to_string(i % dirs) + "/f" +
                    std::to_string(i));
  }
  return paths;
}

std::unique_ptr<Client> StartPopulated(const ClusterConfig& config,
                                       const std::vector<std::string>& paths,
                                       OpClock* clock) {
  auto opened =
      Client::Open(config, ghba::ProtoScheme::kGhba, ClientOptionsFor(clock));
  Check(opened.ok(), "cluster start: " + opened.status().ToString());
  std::unique_ptr<Client> client = std::move(*opened);
  std::vector<std::pair<std::string, FileMetadata>> batch;
  for (std::size_t i = 0; i < paths.size(); ++i) {
    FileMetadata md;
    md.inode = i + 1;
    batch.emplace_back(paths[i], md);
    if (batch.size() == 4096 || i + 1 == paths.size()) {
      const auto s = client->InsertBatch(batch);
      Check(s.ok(), "populate: " + s.ToString());
      batch.clear();
    }
  }
  const auto s = client->cluster().PublishAll();
  Check(s.ok(), "publish: " + s.ToString());
  return client;
}

/// Set the cluster up kSetupsPerPhase times, each from nothing, timing
/// each into `secs`, and keep the last. A durable cluster gets a fresh data
/// directory.
std::unique_ptr<Client> SetUp(ClusterConfig config,
                              const std::vector<std::string>& paths,
                              OpClock* clock, const std::string& data_dir,
                              std::vector<double>& secs) {
  std::unique_ptr<Client> client;
  for (std::uint32_t k = 0; k < kSetupsPerPhase; ++k) {
    client.reset();
    if (!data_dir.empty()) {
      std::filesystem::remove_all(data_dir);
      config.storage.data_dir = data_dir;
    }
    const std::uint64_t t0 = NowNs();
    client = StartPopulated(config, paths, clock);
    secs.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  return client;
}

/// The second set-up phase, once the measured cluster is gone: setup_s is
/// the median over both phases.
void SetUpAgain(std::unique_ptr<Client>& client, const ClusterConfig& config,
                const std::vector<std::string>& paths, OpClock* clock,
                const std::string& data_dir, std::vector<double>& secs,
                Report& report) {
  client.reset();
  SetUp(config, paths, clock, data_dir, secs);
  ReportSetup(report, secs);
}

/// One finished Client::Lookup as the benchmark saw it.
struct LookupRec {
  std::uint32_t ns = 0;
  bool from_cache = false;
  bool absent = false;  ///< the model says the path does not exist
};

/// Per-thread state of a workload thread.
struct Worker {
  std::size_t thread = 0;
  SpanLog::Buffer* spans = nullptr;  ///< set in the traced run
  std::vector<LookupRec> lookups;
  /// Traced run: the LookupTrace of each cascade (non-cached) lookup.
  std::vector<ghba::LookupTrace> traces;
  Timeline timeline;
  /// Traced single-threaded runs: count the frames each lookup causes.
  PrototypeCluster* count_frames = nullptr;
  std::vector<double> lookup_frames;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Every worker's records, merged after the window.
struct Merged {
  std::vector<LookupRec> lookups;
  std::vector<ghba::LookupTrace> traces;  ///< traced run, cascades only
  Timeline timeline;
};

/// Client::Lookup checked against the model: `expect_found` says whether
/// the path exists. Returns the resolved home (kInvalidMds when absent or
/// when the call failed).
MdsId CheckedLookup(Client& client, const std::string& path,
                    bool expect_found, Worker& w, OpClock& clock) {
  const std::uint64_t f0 = w.count_frames ? w.count_frames->TotalFramesIn() : 0;
  Interval at;
  auto r = Timed(w.spans, w.thread, "client", "Client.Lookup", &at,
                 [&] { return client.Lookup(path); });
  clock.Tick();
  if (w.count_frames != nullptr) {
    w.lookup_frames.push_back(
        static_cast<double>(w.count_frames->TotalFramesIn() - f0));
  }
  ++w.attempted;
  if (!r.ok()) {
    ++w.failed;
    w.timeline.Op(at.end_ns);
    return kInvalidMds;
  }
  Check(r->found == expect_found,
        "lookup of " + path + (expect_found ? " missed a live file"
                                            : " found an absent file"));
  if (w.spans != nullptr) {
    if (!w.spans->spans.empty() &&
        w.spans->spans.back().start_ns == at.start_ns) {
      auto& span = w.spans->spans.back();
      span.level = r->from_cache ? 0 : r->trace.level;
      span.level_ns = r->trace.level_elapsed_ns;
    }
    if (!r->from_cache) w.traces.push_back(r->trace);
  }
  w.lookups.push_back(LookupRec{
      static_cast<std::uint32_t>(std::min<std::uint64_t>(at.ns(), UINT32_MAX)),
      r->from_cache, !expect_found});
  w.timeline.Lookup(at.end_ns, at.ns());
  return r->found ? r->home : kInvalidMds;
}

/// The model's home for path `i` is the first home observed; every later
/// answer must agree. Safe to call from several threads.
void CheckHome(std::vector<std::atomic<MdsId>>& homes, std::size_t i,
               MdsId home, const std::string& path) {
  if (home == kInvalidMds) return;  // the call failed; counted already
  MdsId expected = kInvalidMds;
  if (homes[i].compare_exchange_strong(expected, home)) return;
  Check(expected == home, "path " + path + " resolved to MDS " +
                              std::to_string(home) + " after MDS " +
                              std::to_string(expected));
}

/// The storage.* counters summed over every live server (one
/// kStatsSnapshot per server).
struct StorageTotals {
  double appends = 0, fsyncs = 0, bytes = 0, checkpoints = 0,
         checkpoint_ns = 0;

  static StorageTotals Of(PrototypeCluster& cluster) {
    namespace n = ghba::metrics_names;
    StorageTotals t;
    for (const MdsId id : cluster.AliveServers()) {
      const auto stats = cluster.FetchStats(id);
      Check(stats.ok(), "stats of MDS " + std::to_string(id));
      const auto& m = stats->metrics;
      t.appends += static_cast<double>(m.CounterOr(n::kStorageWalAppends));
      t.fsyncs += static_cast<double>(m.CounterOr(n::kStorageWalFsyncs));
      t.bytes += static_cast<double>(m.CounterOr(n::kStorageWalBytes));
      t.checkpoints +=
          static_cast<double>(m.CounterOr(n::kStorageCheckpoints));
      t.checkpoint_ns +=
          static_cast<double>(m.CounterOr(n::kStorageCheckpointDurationNs));
    }
    return t;
  }

  StorageTotals operator-(const StorageTotals& o) const {
    return {appends - o.appends, fsyncs - o.fsyncs, bytes - o.bytes,
            checkpoints - o.checkpoints, checkpoint_ns - o.checkpoint_ns};
  }
  StorageTotals& operator+=(const StorageTotals& o) {
    appends += o.appends;
    fsyncs += o.fsyncs;
    bytes += o.bytes;
    checkpoints += o.checkpoints;
    checkpoint_ns += o.checkpoint_ns;
    return *this;
  }
};

/// Every server-side store together must hold exactly the model's files.
void CheckFiles(PrototypeCluster& cluster, std::uint64_t model_files) {
  std::uint64_t files = 0;
  for (const MdsId id : cluster.AliveServers()) {
    const auto stats = cluster.FetchStats(id);
    Check(stats.ok(), "stats of MDS " + std::to_string(id));
    files += stats->files;
  }
  Check(files == model_files, "servers store " + std::to_string(files) +
                                  " files, the model " +
                                  std::to_string(model_files));
}

/// state_kib_per_mds: mean lookup_state_bytes per server. It grows with
/// the L1 entries lookups teach the servers, so it is read once the run
/// has completed a fixed number of operations (or at the end of a window
/// too short to reach it), not after a speed-dependent count.
struct StateAt {
  std::uint64_t ops = 0;
  bool taken = false;
  double kib = 0;

  void Take(PrototypeCluster& cluster) {
    double bytes = 0;
    const auto alive = cluster.AliveServers();
    for (const MdsId id : alive) {
      const auto stats = cluster.FetchStats(id);
      Check(stats.ok(), "stats of MDS " + std::to_string(id));
      bytes += static_cast<double>(stats->lookup_state_bytes);
    }
    kib = bytes / static_cast<double>(alive.size()) / 1024.0;
    taken = true;
  }
  void Maybe(PrototypeCluster& cluster, std::uint64_t done) {
    if (!taken && done >= ops) Take(cluster);
  }
  void Report(PrototypeCluster& cluster, perfbench::Report& report) {
    if (!taken) Take(cluster);
    report.end_to_end["state_kib_per_mds"] = {kib, "KiB"};
  }
};

/// VerifyOn(home, path) must confirm every sampled (path, home).
void CheckVerifySample(PrototypeCluster& cluster,
                       const std::vector<std::string>& paths,
                       const std::vector<std::atomic<MdsId>>& homes,
                       std::size_t stride) {
  for (std::size_t i = 0; i < paths.size(); i += stride) {
    const MdsId home = homes[i].load();
    if (home == kInvalidMds) continue;  // never looked up in this run
    const auto v = cluster.VerifyOn(home, paths[i]);
    Check(v.ok() && *v, "VerifyOn(" + std::to_string(home) + ", " +
                            paths[i] + ") does not confirm the home");
  }
}

/// Latencies (us) of the lookups of absent paths.
std::vector<double> MissUs(const std::vector<LookupRec>& recs) {
  std::vector<double> us;
  for (const auto& r : recs) {
    if (r.absent) us.push_back(static_cast<double>(r.ns) / 1e3);
  }
  return us;
}

/// End-to-end metrics shared by the socket workloads: ops_per_s,
/// lookup_p50_us and lookup_p99_us of the window, and miss_p50_us.
void LookupEndToEnd(Merged& m, const Interval& window, double slice_s,
                    Report& report) {
  WindowEndToEnd(m.timeline, window.start_ns, window.end_ns, slice_s, report);
  auto miss = MissUs(m.lookups);
  if (!miss.empty()) report.extra["miss_p50_us"] = {Quantile(miss, 0.5), "us"};
  report.notes.push_back("lookups " + std::to_string(m.lookups.size()) +
                         ", absent " + std::to_string(miss.size()));
}

/// Per-layer metrics derived from the lookups' own LookupTraces.
void LookupLayers(const Merged& m, Report& report) {
  auto& out = report.per_layer;
  std::vector<double> hit_us, self_us;
  std::array<std::vector<double>, 4> level_us;
  std::array<double, 4> served{};
  double cascades = 0, peers = 0, false_routes = 0, retries = 0;
  std::size_t next_trace = 0;
  for (const LookupRec& r : m.lookups) {
    const double us = static_cast<double>(r.ns) / 1e3;
    if (r.from_cache) {
      hit_us.push_back(us);
      continue;
    }
    const ghba::LookupTrace& trace = m.traces[next_trace++];
    cascades += 1;
    self_us.push_back(us - static_cast<double>(trace.TotalElapsedNs()) / 1e3);
    if (trace.level >= 1 && trace.level <= 4) served[trace.level - 1] += 1;
    for (int l = 0; l < 4 && l < trace.level; ++l) {
      level_us[l].push_back(static_cast<double>(trace.level_elapsed_ns[l]) /
                            1e3);
    }
    peers += trace.peers_contacted;
    false_routes += trace.false_route ? 1 : 0;
    retries += trace.retries;
  }
  out["client.hit_us"] = {Median(hit_us), "us"};
  out["client.self_us"] = {Median(self_us), "us"};
  for (int l = 0; l < 4; ++l) {
    const std::string n = std::to_string(l + 1);
    out["rpc.l" + n + "_share"] = {Ratio(served[l], cascades), "ratio"};
    out["rpc.l" + n + "_us"] = {Median(level_us[l]), "us"};
  }
  out["rpc.peers_per_lookup"] = {Ratio(peers, cascades), "peers"};
  out["rpc.false_route_ratio"] = {Ratio(false_routes, cascades), "ratio"};
  out["rpc.retries"] = {retries, "count"};
}

/// Client-side cache counters (ClientSnapshot) as a before/after pair.
struct CacheCounters {
  std::uint64_t hits = 0, misses = 0, promotions = 0;
  static CacheCounters Of(PrototypeCluster& cluster) {
    const auto snap = cluster.ClientSnapshot();
    return {snap.CounterOr(ghba::metrics_names::kCacheHits),
            snap.CounterOr(ghba::metrics_names::kCacheMisses),
            snap.CounterOr(ghba::metrics_names::kCacheHotPromotions)};
  }
};

void CacheLayers(const CacheCounters& before, const CacheCounters& after,
                 Report& report) {
  const double hits = static_cast<double>(after.hits - before.hits);
  const double misses = static_cast<double>(after.misses - before.misses);
  report.per_layer["client.cache_hit_ratio"] = {Ratio(hits, hits + misses),
                                                "ratio"};
  report.per_layer["client.hot_promotions"] = {
      static_cast<double>(after.promotions - before.promotions), "count"};
}

/// p50 of `calls` shadow calls of `fn(i)`, in microseconds.
template <typename Fn>
double ShadowP50Us(SpanLog::Buffer* spans, const char* layer,
                   const char* name, std::size_t calls, Fn&& fn) {
  std::vector<double> us;
  for (std::size_t i = 0; i < calls; ++i) {
    Interval at;
    const bool ok = Timed(spans, 0, layer, name, &at, [&] { return fn(i); });
    Check(ok, std::string("shadow call ") + name + " failed");
    us.push_back(static_cast<double>(at.ns()) / 1e3);
  }
  return Median(us);
}

/// The traced run's shadow calls over the wire: one round trip (VerifyOn),
/// a refused lease (RequestLease) and an invalidation broadcast, each on a
/// path no workload stores.
void ShadowRpcProbes(PrototypeCluster& cluster, Report& report,
                     SpanLog::Buffer* spans) {
  const auto alive = cluster.AliveServers();
  const auto server = [&](std::size_t i) { return alive[i % alive.size()]; };
  report.per_layer["rpc.rtt_us"] = {
      ShadowP50Us(spans, "rpc", "PrototypeCluster.VerifyOn", 600,
                  [&](std::size_t i) {
                    const auto v = cluster.VerifyOn(
                        server(i), kShadowPrefix + std::to_string(i));
                    return v.ok() && !*v;
                  }),
      "us"};
  report.per_layer["client.lease_us"] = {
      ShadowP50Us(spans, "client", "PrototypeCluster.RequestLease", 600,
                  [&](std::size_t i) {
                    const auto l = cluster.RequestLease(
                        server(i), kShadowPrefix + std::to_string(i));
                    return l.ok() && !l->granted;
                  }),
      "us"};
  report.per_layer["client.invalidate_us"] = {
      ShadowP50Us(spans, "client", "PrototypeCluster.InvalidatePath", 100,
                  [&](std::size_t i) {
                    return cluster
                        .InvalidatePath(kShadowPrefix + std::to_string(i))
                        .ok();
                  }),
      "us"};
}

/// Transport-free probes (digest, Bloom, LRU, codec) on the live filters.
void LiveMicroProbes(PrototypeCluster& cluster, const ClusterConfig& config,
                     const std::vector<std::string>& paths,
                     const std::vector<std::atomic<MdsId>>& homes,
                     Report& report, SpanLog::Buffer* spans) {
  ProbeInputs in;
  for (const MdsId id : cluster.AliveServers()) {
    auto f = cluster.FilterOf(id);
    Check(f.ok(), "FilterOf(" + std::to_string(id) + ")");
    in.filters.push_back(std::move(*f));
  }
  for (std::size_t i = 0; i < paths.size() && in.live.size() < 4096; ++i) {
    const MdsId home = homes[i].load();
    if (home == kInvalidMds) continue;
    in.live.push_back(paths[i]);
    in.homes.push_back(home);
  }
  for (std::size_t i = 0; i < 2048; ++i) {
    in.absent.push_back(kShadowPrefix + std::to_string(i));
  }
  in.theta = (config.num_mds + config.max_group_size - 1) /
             config.max_group_size;
  in.lru_capacity = config.lru_capacity;
  MicroProbes(in, report, spans);
}

/// Layers this workload does not exercise report 0 (see README).
void FillUnexercised(Report& report) {
  for (const auto& [name, unit] : PerLayerSchema()) {
    report.per_layer.try_emplace(name, Metric{0, unit});
  }
}

/// Fold per-thread workers into one record set and the op counts.
Merged Merge(const std::vector<Worker>& workers, Report& report) {
  Merged m;
  std::size_t ops = 0;
  for (const auto& w : workers) ops += w.timeline.op_end_ns.size();
  m.lookups.reserve(ops);
  m.timeline.Reserve(ops);
  for (const auto& w : workers) {
    m.lookups.insert(m.lookups.end(), w.lookups.begin(), w.lookups.end());
    m.traces.insert(m.traces.end(), w.traces.begin(), w.traces.end());
    m.timeline.Append(w.timeline);
    report.attempted += w.attempted;
    report.failed += w.failed;
  }
  return m;
}

/// Run one thread per worker, each doing whole rounds of `round(w)` until
/// the window closes. Returns the window's start and end.
template <typename Round>
Interval RunWindow(double seconds, std::vector<Worker>& workers,
                   Round&& round) {
  const std::uint64_t t0 = NowNs();
  const std::uint64_t deadline = t0 + static_cast<std::uint64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  std::mutex err_mu;
  std::string error;
  std::atomic<bool> stop{false};
  for (auto& w : workers) {
    threads.emplace_back([&, wp = &w] {
      try {
        while (!stop.load() && NowNs() < deadline) round(*wp);
      } catch (const CheckFailure& e) {
        std::lock_guard<std::mutex> lock(err_mu);
        if (error.empty()) error = e.what();
        stop.store(true);
      }
    });
  }
  for (auto& t : threads) t.join();
  if (!error.empty()) throw CheckFailure(error);
  return Interval{t0, NowNs()};
}

std::vector<Worker> MakeWorkers(std::size_t n, SpanLog& log) {
  std::vector<Worker> workers(n);
  for (std::size_t t = 0; t < n; ++t) {
    workers[t].thread = t;
    workers[t].spans = log.enabled() ? &log.buffer(t) : nullptr;
    workers[t].lookups.reserve(kReservedOps);
    workers[t].timeline.Reserve(kReservedOps);
  }
  return workers;
}

}  // namespace

int RunHotRead(const Args& args, Report& report) {
  constexpr std::size_t kFiles = 2048;
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kRound = 256;
  constexpr std::size_t kStream = 1 << 15;
  constexpr double kSkew = 1.2;
  constexpr double kSliceS = 1;
  // Not hot-read's own rate (~90k lookups/s on one CPU): its rate rises with
  // the lease length (220 ops/ms gave 444k/s, 450 gave 806k/s) until every
  // hot file is cached, and a record per lookup would then need over 1 GB.
  // At 16 a lease lasts 32000 lookups, ~0.35 s of the run (see README).
  constexpr std::uint64_t kOpsPerMs = 16;

  const auto paths = MakePaths("/hot", kFiles, 48);
  Gen gen(args.seed);
  // Popularity rank -> file, shuffled per seed.
  std::vector<std::uint32_t> by_rank(kFiles);
  for (std::size_t i = 0; i < kFiles; ++i) by_rank[i] = static_cast<std::uint32_t>(i);
  for (std::size_t i = kFiles - 1; i > 0; --i) {
    std::swap(by_rank[i], by_rank[gen.Below(i + 1)]);
  }
  const Zipf zipf(kFiles, kSkew);
  std::vector<std::vector<std::uint32_t>> streams(kThreads);
  for (auto& s : streams) {
    s.reserve(kStream);
    for (std::size_t i = 0; i < kStream; ++i) s.push_back(by_rank[zipf.Sample(gen)]);
  }

  OpClock clock(kOpsPerMs);
  const ClusterConfig config = ConfigFor(args, kFiles);
  std::vector<double> setups;
  auto client = SetUp(config, paths, &clock, "", setups);
  PrototypeCluster& cluster = client->cluster();

  SpanLog log(args.trace);
  auto workers = MakeWorkers(kThreads, log);
  std::vector<std::atomic<MdsId>> homes(kFiles);
  for (auto& h : homes) h.store(kInvalidMds);
  std::vector<std::size_t> cursor(kThreads, 0);
  StateAt state{16384};

  const auto cache0 = CacheCounters::Of(cluster);
  const std::uint64_t frames0 = cluster.TotalFramesIn();
  const Interval window = RunWindow(args.seconds, workers, [&](Worker& w) {
    if (w.thread == 0) state.Maybe(cluster, clock.ops.load());
    auto& pos = cursor[w.thread];
    const auto& stream = streams[w.thread];
    for (std::size_t k = 0; k < kRound; ++k) {
      const std::uint32_t f = stream[pos++ % kStream];
      CheckHome(homes, f, CheckedLookup(*client, paths[f], true, w, clock),
                paths[f]);
    }
  });
  const std::uint64_t frames1 = cluster.TotalFramesIn();
  const auto cache1 = CacheCounters::Of(cluster);

  Merged merged = Merge(workers, report);
  LookupEndToEnd(merged, window, kSliceS, report);
  CheckVerifySample(cluster, paths, homes, 8);
  CheckFiles(cluster, kFiles);
  state.Report(cluster, report);
  if (args.trace) {
    LookupLayers(merged, report);
    CacheLayers(cache0, cache1, report);
    report.per_layer["rpc.msgs_per_lookup"] = {
        Ratio(static_cast<double>(frames1 - frames0),
              static_cast<double>(merged.lookups.size())),
        "msgs"};
    ShadowRpcProbes(cluster, report, &log.buffer(0));
    LiveMicroProbes(cluster, config, paths, homes, report, &log.buffer(0));
    FillUnexercised(report);
    log.WriteJsonLines(args.spans_out);
  }
  SetUpAgain(client, config, paths, &clock, "", setups, report);
  return 0;
}

int RunColdRead(const Args& args, Report& report) {
  constexpr std::size_t kFiles = 65536;
  constexpr std::size_t kAbsent = 8192;
  constexpr std::size_t kRound = 256;
  constexpr std::size_t kAbsentPerRound = kRound / 8;
  constexpr std::size_t kStreamRounds = 256;
  constexpr double kSliceS = 1;
  constexpr std::uint64_t kOpsPerMs = 2;  // ~2100 lookups/s on one CPU

  const auto paths = MakePaths("/cold", kFiles, 256);
  std::vector<std::string> absent;
  absent.reserve(kAbsent);
  for (std::size_t i = 0; i < kAbsent; ++i) {
    absent.push_back("/cold/d" + std::to_string(i % 256) + "/g" +
                     std::to_string(i));
  }
  // Each round: exactly kAbsentPerRound absent paths among uniform live
  // ones, shuffled. An entry >= kFiles names absent[entry - kFiles].
  Gen gen(args.seed);
  std::vector<std::uint32_t> stream;
  stream.reserve(kRound * kStreamRounds);
  for (std::size_t r = 0; r < kStreamRounds; ++r) {
    const std::size_t base = stream.size();
    for (std::size_t k = 0; k < kRound; ++k) {
      stream.push_back(static_cast<std::uint32_t>(
          k < kAbsentPerRound ? kFiles + gen.Below(kAbsent)
                              : gen.Below(kFiles)));
    }
    for (std::size_t k = kRound - 1; k > 0; --k) {
      std::swap(stream[base + k], stream[base + gen.Below(k + 1)]);
    }
  }

  OpClock clock(kOpsPerMs);
  const ClusterConfig config = ConfigFor(args, kFiles);
  std::vector<double> setups;
  auto client = SetUp(config, paths, &clock, "", setups);
  PrototypeCluster& cluster = client->cluster();

  SpanLog log(args.trace);
  auto workers = MakeWorkers(1, log);
  std::vector<std::atomic<MdsId>> homes(kFiles);
  for (auto& h : homes) h.store(kInvalidMds);
  std::size_t pos = 0;
  StateAt state{4096};

  const auto cache0 = CacheCounters::Of(cluster);
  const std::uint64_t frames0 = cluster.TotalFramesIn();
  const Interval window = RunWindow(args.seconds, workers, [&](Worker& w) {
    state.Maybe(cluster, w.attempted);
    for (std::size_t k = 0; k < kRound; ++k) {
      const std::uint32_t e = stream[pos++ % stream.size()];
      if (e >= kFiles) {
        CheckedLookup(*client, absent[e - kFiles], false, w, clock);
      } else {
        CheckHome(homes, e, CheckedLookup(*client, paths[e], true, w, clock),
                  paths[e]);
      }
    }
  });
  const std::uint64_t frames1 = cluster.TotalFramesIn();
  const auto cache1 = CacheCounters::Of(cluster);

  Merged merged = Merge(workers, report);
  LookupEndToEnd(merged, window, kSliceS, report);
  CheckVerifySample(cluster, paths, homes, 97);
  CheckFiles(cluster, kFiles);
  state.Report(cluster, report);
  if (args.trace) {
    LookupLayers(merged, report);
    CacheLayers(cache0, cache1, report);
    report.per_layer["rpc.msgs_per_lookup"] = {
        Ratio(static_cast<double>(frames1 - frames0),
              static_cast<double>(merged.lookups.size())),
        "msgs"};
    ShadowRpcProbes(cluster, report, &log.buffer(0));
    LiveMicroProbes(cluster, config, paths, homes, report, &log.buffer(0));
    FillUnexercised(report);
    log.WriteJsonLines(args.spans_out);
  }
  SetUpAgain(client, config, paths, &clock, "", setups, report);
  return 0;
}

int RunMutateMix(const Args& args, Report& report) {
  constexpr std::size_t kFiles = 2048;
  constexpr std::size_t kBaseLookups = 32;
  constexpr std::size_t kNew = 4;  // Insert per round
  constexpr std::size_t kExcl = 2;  // CreateExclusive per round
  // Two-second slices hold over 1000 lookups each on the reference host.
  constexpr double kSliceS = 2;
  constexpr std::uint64_t kOpsPerMs = 1;  // ~900-1000 ops/s on one CPU
  Check(!args.data_dir.empty(), "mutate-mix needs --data-dir");

  const auto paths = MakePaths("/mm/base", kFiles, 32);
  Gen gen(args.seed);

  OpClock clock(kOpsPerMs);
  const ClusterConfig config = ConfigFor(args, kFiles);
  std::vector<double> setups;
  auto client = SetUp(config, paths, &clock, args.data_dir, setups);
  PrototypeCluster& cluster = client->cluster();
  const auto alive = cluster.AliveServers();

  SpanLog log(args.trace);
  auto workers = MakeWorkers(1, log);
  Worker& w = workers[0];
  if (args.trace) w.count_frames = &cluster;
  std::vector<std::atomic<MdsId>> homes(kFiles);
  for (auto& h : homes) h.store(kInvalidMds);

  // Mutation latencies by operation, and (traced) per-call frame deltas.
  std::map<std::string, std::vector<double>> mut_us;
  std::map<std::string, std::vector<double>> mut_frames;
  std::vector<double> migrate_ms, migrate_wal, rename_wal;
  StorageTotals migrate_storage;  ///< traced: what the migrations wrote
  std::uint64_t mutations = 0;
  std::uint64_t round_no = 0;

  // One mutation through the Client, timed, checked ok, frames counted when
  // tracing (the counter read sits outside the timed call).
  const auto mutate = [&](const char* op, auto&& fn) {
    const std::uint64_t f0 = args.trace ? cluster.TotalFramesIn() : 0;
    Interval at;
    const ghba::Status s = Timed(w.spans, 0, "client", op, &at, fn);
    clock.Tick();
    w.timeline.Op(at.end_ns);
    ++w.attempted;
    ++mutations;
    if (!s.ok()) {
      ++w.failed;
      return false;
    }
    mut_us[op].push_back(static_cast<double>(at.ns()) / 1e3);
    if (args.trace) {
      mut_frames[op].push_back(
          static_cast<double>(cluster.TotalFramesIn() - f0));
    }
    return true;
  };
  const auto expect = [&](const std::string& path, bool found) {
    CheckedLookup(*client, path, found, w, clock);
  };

  const StorageTotals storage0 =
      args.trace ? StorageTotals::Of(cluster) : StorageTotals{};
  const auto cache0 = CacheCounters::Of(cluster);

  StateAt state{2048};
  const Interval window = RunWindow(args.seconds, workers, [&](Worker&) {
    state.Maybe(cluster, w.attempted);
    const std::string dir = "/mm/r" + std::to_string(round_no++) + "/";
    FileMetadata md;
    md.inode = 1'000'000 + round_no;
    // Lookups of the base namespace.
    for (std::size_t k = 0; k < kBaseLookups; ++k) {
      const std::size_t f = gen.Below(kFiles);
      CheckHome(homes, f, CheckedLookup(*client, paths[f], true, w, clock),
                paths[f]);
    }
    // Creates: Insert and CreateExclusive, each read back.
    std::vector<std::string> fresh;
    for (std::size_t k = 0; k < kNew; ++k) {
      fresh.push_back(dir + "n" + std::to_string(k));
      if (mutate("Client.Insert",
                 [&] { return client->Insert(fresh.back(), md); })) {
        expect(fresh.back(), true);
      }
    }
    for (std::size_t k = 0; k < kExcl; ++k) {
      fresh.push_back(dir + "x" + std::to_string(k));
      if (mutate("Client.CreateExclusive",
                 [&] { return client->CreateExclusive(fresh.back(), md); })) {
        expect(fresh.back(), true);
      }
    }
    // Renames of one Insert-ed and one CreateExclusive-d file: the file is
    // at dst afterwards and no longer at src. In the traced run the first
    // rename of a round also counts the WAL appends it caused.
    for (const std::size_t src_idx : {std::size_t{0}, kNew}) {
      const std::string src = fresh[src_idx];
      const std::string dst = src + ".moved";
      const bool count_wal = args.trace && src_idx == 0;
      const StorageTotals before =
          count_wal ? StorageTotals::Of(cluster) : StorageTotals{};
      if (mutate("Client.Rename", [&] { return client->Rename(src, dst); })) {
        if (count_wal) {
          rename_wal.push_back((StorageTotals::Of(cluster) - before).appends);
        }
        expect(src, false);
        expect(dst, true);
        fresh[src_idx] = dst;
      }
    }
    // Unlink everything the round created: the namespace returns to the
    // base set, and no unlinked path may be served (from the cache either).
    for (const auto& p : fresh) {
      if (mutate("Client.Unlink", [&] { return client->Unlink(p); })) {
        expect(p, false);
      }
    }
    // One replica migration inside a random group.
    const MdsId to = alive[gen.Below(alive.size())];
    std::vector<std::pair<MdsId, MdsId>> movable;  // (owner, old holder)
    for (const MdsId owner : alive) {
      const auto h = cluster.HolderOf(to, owner);
      if (h.ok() && *h != to) movable.emplace_back(owner, *h);
    }
    Check(!movable.empty(), "no replica can move onto MDS " + std::to_string(to));
    const auto [owner, from] = movable[gen.Below(movable.size())];
    const StorageTotals before =
        args.trace ? StorageTotals::Of(cluster) : StorageTotals{};
    const std::uint64_t f0 = args.trace ? cluster.TotalFramesIn() : 0;
    Interval at;
    const auto s = Timed(w.spans, 0, "rpc", "PrototypeCluster.MigrateReplica",
                         &at, [&] { return cluster.MigrateReplica(owner, to); });
    clock.Tick();
    w.timeline.Op(at.end_ns);
    ++w.attempted;
    if (!s.ok()) {
      ++w.failed;
      return;
    }
    migrate_ms.push_back(static_cast<double>(at.ns()) / 1e6);
    if (args.trace) {
      mut_frames["migrate"].push_back(
          static_cast<double>(cluster.TotalFramesIn() - f0));
      const StorageTotals delta = StorageTotals::Of(cluster) - before;
      migrate_wal.push_back(delta.appends);
      migrate_storage += delta;
    }
    const auto holder = cluster.HolderOf(to, owner);
    Check(holder.ok() && *holder == to,
          "after MigrateReplica the holder map does not name the new holder");
    const auto on_new = cluster.HoldsReplica(to, owner);
    const auto on_old = cluster.HoldsReplica(from, owner);
    Check(on_new.ok() && *on_new, "new holder lacks the migrated replica");
    Check(on_old.ok() && !*on_old, "old holder still holds the replica");
  });
  const auto cache1 = CacheCounters::Of(cluster);

  Merged merged = Merge(workers, report);
  LookupEndToEnd(merged, window, kSliceS, report);
  CheckVerifySample(cluster, paths, homes, 7);
  CheckFiles(cluster, kFiles);
  state.Report(cluster, report);

  std::vector<double> pooled;
  for (const char* op : {"Client.Insert", "Client.Unlink", "Client.Rename",
                         "Client.CreateExclusive"}) {
    pooled.insert(pooled.end(), mut_us[op].begin(), mut_us[op].end());
  }
  report.extra["insert_p50_us"] = {Median(mut_us["Client.Insert"]), "us"};
  report.extra["unlink_p50_us"] = {Median(mut_us["Client.Unlink"]), "us"};
  report.extra["rename_p50_us"] = {Median(mut_us["Client.Rename"]), "us"};
  report.extra["create_excl_p50_us"] = {
      Median(mut_us["Client.CreateExclusive"]), "us"};
  report.extra["mutate_p99_us"] = {Quantile(pooled, 0.99), "us"};
  report.extra["migrate_p50_ms"] = {Median(migrate_ms), "ms"};
  report.notes.push_back("rounds " + std::to_string(round_no) +
                         ", mutations " + std::to_string(mutations) +
                         ", migrations " + std::to_string(migrate_ms.size()));

  if (args.trace) {
    auto& out = report.per_layer;
    LookupLayers(merged, report);
    std::vector<double> mut_frames_all;
    for (const char* op : {"Client.Insert", "Client.Unlink", "Client.Rename",
                           "Client.CreateExclusive"}) {
      mut_frames_all.insert(mut_frames_all.end(), mut_frames[op].begin(),
                            mut_frames[op].end());
    }
    out["rpc.msgs_per_lookup"] = {Mean(w.lookup_frames), "msgs"};
    out["rpc.frames_per_mutation"] = {Mean(mut_frames_all), "msgs"};
    out["rpc.msgs_per_migrate"] = {Mean(mut_frames["migrate"]), "msgs"};
    out["txn.msgs_per_rename"] = {Mean(mut_frames["Client.Rename"]), "msgs"};
    out["txn.msgs_per_create"] = {Mean(mut_frames["Client.CreateExclusive"]),
                                  "msgs"};
    out["txn.wal_appends_per_rename"] = {Mean(rename_wal), "count"};
    out["storage.wal_appends_per_migrate"] = {Mean(migrate_wal), "count"};

    // Window totals, less what the migrations wrote.
    const double muts = static_cast<double>(mutations);
    const StorageTotals wrote =
        StorageTotals::Of(cluster) - storage0 - migrate_storage;
    out["storage.wal_appends_per_mutation"] = {Ratio(wrote.appends, muts),
                                               "count"};
    out["storage.fsyncs_per_mutation"] = {Ratio(wrote.fsyncs, muts), "count"};
    out["storage.wal_bytes_per_mutation"] = {Ratio(wrote.bytes, muts),
                                             "bytes"};
    const StorageTotals all = StorageTotals::Of(cluster) - storage0;
    out["storage.checkpoints"] = {all.checkpoints, "count"};
    out["storage.checkpoint_ms"] = {
        Ratio(all.checkpoint_ns / 1e6, all.checkpoints), "ms"};

    // A shadow engine with the workload's storage options and directory.
    ghba::StorageOptions options = config.storage;
    options.data_dir = args.data_dir + "/shadow-engine";
    auto engine = ghba::StorageEngine::Open(
        options,
        ghba::CountingBloomFilter::ForCapacity(config.expected_files_per_mds,
                                               config.bits_per_file,
                                               config.seed ^ 0x5151),
        nullptr);
    Check(engine.ok(), "shadow storage engine: " + engine.status().ToString());
    FileMetadata md;
    out["storage.append_us"] = {
        ShadowP50Us(&log.buffer(0), "storage", "StorageEngine.LogInsert", 300,
                    [&](std::size_t i) {
                      return (*engine)
                          ->LogInsert(kShadowPrefix + std::to_string(i), md)
                          .ok();
                    }),
        "us"};

    CacheLayers(cache0, cache1, report);
    ShadowRpcProbes(cluster, report, &log.buffer(0));
    LiveMicroProbes(cluster, config, paths, homes, report, &log.buffer(0));
    FillUnexercised(report);
    log.WriteJsonLines(args.spans_out);
  }
  SetUpAgain(client, config, paths, &clock, args.data_dir, setups, report);
  return 0;
}

}  // namespace perfbench
