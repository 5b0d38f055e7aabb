// sim-replay: an HP-calibrated intensified trace replayed through the
// simulator's GhbaCluster (N=100, M=9) in this thread, with no sockets. The
// engine behind the paper's Figs. 8-13, and the only workload where hash,
// bloom, core and trace do nearly all of the work.
//
// The benchmark keeps its own model of the namespace (the initial files
// plus the trace's creates minus its unlinks) and checks every lookup's
// found/absent verdict and every create/unlink status against it.
#include <algorithm>
#include <string>
#include <unordered_set>
#include <vector>

#include "bench.hpp"
#include "core/ghba_cluster.hpp"
#include "probes.hpp"
#include "trace/generator.hpp"
#include "trace/profile.hpp"

namespace perfbench {
namespace {

constexpr std::uint32_t kMds = 100;
constexpr std::uint32_t kGroup = 9;
constexpr std::uint32_t kTif = 4;
constexpr std::uint64_t kInitialFiles = 20000;
constexpr std::uint64_t kWarmupRecords = 20000;
constexpr std::size_t kRound = 1024;
/// state_kib_per_mds grows with the L1 entries the replay teaches, so it is
/// read after a fixed number of records, not at a speed-dependent end.
constexpr std::uint64_t kStateRecords = 65536;
constexpr double kSliceS = 1;
/// Traced run: per-call spans for the first records of every round only,
/// so the span log stays small; the metrics use every call's timing.
constexpr std::size_t kSpansPerRound = 32;

/// The HP profile scaled so the cluster starts with about kInitialFiles
/// files over kTif subtraces, keeping its active/total ratio.
ghba::WorkloadProfile ScaledHp() {
  ghba::WorkloadProfile p = ghba::HpProfile();
  const double shrink = static_cast<double>(kInitialFiles) /
                        (static_cast<double>(p.total_files) * kTif);
  const double active = static_cast<double>(p.active_files) /
                        static_cast<double>(p.total_files);
  p.total_files = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(static_cast<double>(p.total_files) * shrink));
  p.active_files = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(static_cast<double>(p.total_files) * active));
  return p;
}

/// Cluster, trace and model of one set-up.
struct Replay {
  std::unique_ptr<ghba::GhbaCluster> cluster;
  std::unique_ptr<ghba::IntensifiedTrace> trace;
  std::unordered_set<std::string> model;
  std::uint64_t inode = 1;

  // Window accounting.
  std::uint64_t walks = 0;         ///< Lookup + CloseFile calls
  std::uint64_t absent_walks = 0;  ///< ... of paths the model lacks
  Timeline timeline;               ///< records, and Lookup wall times
  std::vector<double> create_ns;
  std::vector<double> gen_ns;
  double model_latency_ms = 0;
  std::uint64_t model_lookups = 0;

  void ResetWindow() {
    walks = absent_walks = model_lookups = 0;
    model_latency_ms = 0;
    // Address space only: the resident set follows the record count
    // instead of jumping when a vector doubles.
    timeline = Timeline{};
    timeline.Reserve(std::size_t{1} << 22);
    create_ns.clear();
    gen_ns.clear();
    cluster->metrics().Reset();
  }

  /// Apply one record, checked against the model. `spans` is non-null for
  /// the records whose calls are logged as spans.
  void Apply(const ghba::TraceRecord& rec, SpanLog::Buffer* spans) {
    const double now_ms = rec.timestamp * 1000.0;
    const bool present = model.count(rec.path) != 0;
    Interval at;
    switch (rec.op) {
      case ghba::OpType::kOpen:
      case ghba::OpType::kStat: {
        const auto r = Timed(spans, 0, "core", "GhbaCluster.Lookup", &at,
                             [&] { return cluster->Lookup(rec.path, now_ms); });
        Check(r.found == present, "simulated lookup of " + rec.path +
                                      (present ? " missed a live file"
                                               : " found an absent file"));
        if (spans != nullptr) spans->spans.back().level = r.trace.level;
        timeline.Lookup(at.end_ns, at.ns());
        model_latency_ms += r.latency_ms;
        ++model_lookups;
        ++walks;
        absent_walks += present ? 0 : 1;
        break;
      }
      case ghba::OpType::kClose: {
        const auto r =
            Timed(spans, 0, "core", "GhbaCluster.CloseFile", &at,
                  [&] { return cluster->CloseFile(rec.path, now_ms, 4096); });
        Check(r.found == present, "simulated close of " + rec.path +
                                      " disagrees with the model");
        ++walks;
        absent_walks += present ? 0 : 1;
        break;
      }
      case ghba::OpType::kCreate: {
        ghba::FileMetadata md;
        md.inode = inode++;
        const auto s =
            Timed(spans, 0, "core", "GhbaCluster.CreateFile", &at,
                  [&] { return cluster->CreateFile(rec.path, md, now_ms); });
        Check(s.ok() != present, "create of " + rec.path + ": " + s.ToString());
        if (s.ok()) model.insert(rec.path);
        create_ns.push_back(static_cast<double>(at.ns()));
        break;
      }
      case ghba::OpType::kUnlink: {
        const auto s =
            Timed(spans, 0, "core", "GhbaCluster.UnlinkFile", &at,
                  [&] { return cluster->UnlinkFile(rec.path, now_ms); });
        Check(s.ok() == present, "unlink of " + rec.path + ": " + s.ToString());
        if (s.ok()) model.erase(rec.path);
        break;
      }
    }
    if (rec.op != ghba::OpType::kOpen && rec.op != ghba::OpType::kStat) {
      timeline.Op(at.end_ns);
    }
  }

  /// Next record; in traced runs its generation time is kept.
  ghba::TraceRecord Next(bool timed, SpanLog::Buffer* spans) {
    Interval at;
    auto rec = timed ? Timed(spans, 0, "trace", "IntensifiedTrace.Next", &at,
                             [&] { return trace->Next(); })
                     : trace->Next();
    Check(rec.has_value(), "the intensified trace ran dry");
    if (timed) gen_ns.push_back(static_cast<double>(at.ns()));
    return *std::move(rec);
  }
};

Replay SetUpOnce(const ghba::ClusterConfig& config,
                 const ghba::WorkloadProfile& profile, std::uint64_t seed) {
  Replay r;
  r.cluster = std::make_unique<ghba::GhbaCluster>(config);
  r.trace = std::make_unique<ghba::IntensifiedTrace>(profile, kTif, seed);
  r.trace->ForEachInitialFile([&](const std::string& path) {
    ghba::FileMetadata md;
    md.inode = r.inode++;
    const auto s = r.cluster->CreateFile(path, md, 0);
    Check(s.ok(), "populate " + path + ": " + s.ToString());
    r.model.insert(path);
  });
  r.cluster->FlushReplicas(0);
  // Warm the L1 LRU arrays, as the paper's long replays run warm.
  for (std::uint64_t i = 0; i < kWarmupRecords; ++i) {
    r.Apply(r.Next(false, nullptr), nullptr);
  }
  return r;
}

}  // namespace

int RunSimReplay(const Args& args, Report& report) {
  ghba::ClusterConfig config;
  config.num_mds = kMds;
  config.max_group_size = kGroup;
  // Filters sized for the population, as the repository's simulation
  // benches size them (the default is for 50000 files per MDS).
  config.expected_files_per_mds = 2 * kInitialFiles / kMds;
  config.seed = args.seed;
  const auto profile = ScaledHp();

  // Set up kSetupsPerPhase times before the window (keeping the last) and
  // as many times after it; setup_s is the median over both phases.
  std::vector<double> setups;
  Replay r;
  const auto set_up = [&] {
    for (std::uint32_t k = 0; k < kSetupsPerPhase; ++k) {
      r = Replay{};
      const std::uint64_t t0 = NowNs();
      r = SetUpOnce(config, profile, args.seed);
      setups.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    }
  };
  set_up();
  r.ResetWindow();

  SpanLog log(args.trace);
  SpanLog::Buffer* buf = args.trace ? &log.buffer(0) : nullptr;
  const std::uint64_t t0 = NowNs();
  const std::uint64_t deadline =
      t0 + static_cast<std::uint64_t>(args.seconds * 1e9);
  std::uint64_t records = 0;
  double state_kib = -1;
  const auto mean_state_kib = [&] {
    double state = 0;
    for (const ghba::MdsId id : r.cluster->alive()) {
      state += static_cast<double>(r.cluster->LookupStateBytes(id));
    }
    return state / static_cast<double>(r.cluster->alive().size()) / 1024.0;
  };
  while (NowNs() < deadline) {
    if (state_kib < 0 && records >= kStateRecords) state_kib = mean_state_kib();
    for (std::size_t k = 0; k < kRound; ++k) {
      SpanLog::Buffer* spans = k < kSpansPerRound ? buf : nullptr;
      r.Apply(r.Next(args.trace, spans), spans);
      ++records;
    }
  }
  const std::uint64_t t1 = NowNs();
  report.attempted = records;

  // Levels plus misses equal the lookups; misses equal the model's absent
  // lookups (L4 is exact).
  const auto levels = r.cluster->metrics().levels.Values();
  Check(levels.total() == r.walks,
        "level counters sum to " + std::to_string(levels.total()) + ", " +
            std::to_string(r.walks) + " lookups ran");
  Check(levels.miss == r.absent_walks,
        "simulator counted " + std::to_string(levels.miss) + " misses, the model " +
            std::to_string(r.absent_walks));

  WindowEndToEnd(r.timeline, t0, t1, kSliceS, report);
  if (state_kib < 0) state_kib = mean_state_kib();
  report.end_to_end["state_kib_per_mds"] = {state_kib, "KiB"};
  report.notes.push_back("records " + std::to_string(records) + ", lookups " +
                         std::to_string(r.walks) + ", absent " +
                         std::to_string(r.absent_walks));

  if (args.trace) {
    auto& out = report.per_layer;
    std::vector<double> lookup_ns(r.timeline.lookup_us.begin(),
                                  r.timeline.lookup_us.end());
    out["core.lookup_ns"] = {Median(lookup_ns) * 1e3, "ns"};
    out["core.create_ns"] = {Median(r.create_ns), "ns"};
    const double served = static_cast<double>(levels.total());
    out["core.l1_share"] = {Ratio(static_cast<double>(levels.l1), served), "ratio"};
    out["core.l2_share"] = {Ratio(static_cast<double>(levels.l2), served), "ratio"};
    out["core.l3_share"] = {Ratio(static_cast<double>(levels.l3), served), "ratio"};
    out["core.l4_share"] = {
        Ratio(static_cast<double>(levels.l4 + levels.miss), served), "ratio"};
    out["core.msgs_per_lookup"] = {
        Ratio(static_cast<double>(r.cluster->metrics().lookup_messages),
              served),
        "msgs"};
    out["core.publishes"] = {
        static_cast<double>(r.cluster->metrics().publishes), "count"};
    out["core.model_latency_ms"] = {
        Ratio(r.model_latency_ms, static_cast<double>(r.model_lookups)), "ms"};
    out["trace.gen_ns"] = {Median(r.gen_ns), "ns"};

    ProbeInputs in;
    for (const ghba::MdsId id : r.cluster->alive()) {
      in.filters.push_back(r.cluster->node(id).SnapshotLocalFilter());
      in.theta = std::max(in.theta, r.cluster->ThetaOf(id));
    }
    for (const auto& path : r.model) {
      if (in.live.size() >= 4096) break;
      in.live.push_back(path);
      in.homes.push_back(r.cluster->OracleHome(path));
    }
    for (std::size_t i = 0; i < 2048; ++i) {
      in.absent.push_back("/perfbench-shadow/p" + std::to_string(i));
    }
    in.lru_capacity = config.lru_capacity;
    in.with_codec = false;
    MicroProbes(in, report, buf);
    for (const auto& [name, unit] : PerLayerSchema()) {
      report.per_layer.try_emplace(name, Metric{0, unit});
    }
    log.WriteJsonLines(args.spans_out);
  }
  set_up();
  ReportSetup(report, setups);
  return 0;
}

}  // namespace perfbench
