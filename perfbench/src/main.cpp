// ghba_perfbench — one run of one workload of the G-HBA benchmark.
//
//   ghba_perfbench --workload <hot-read|cold-read|mutate-mix|sim-replay>
//                  --seed N --seconds S --trace 0|1
//                  [--data-dir DIR] [--spans-out FILE]
//
// Prints "# ..." notes and one "e2e|extra|layer <name> <value> <unit>" line
// per metric, then, as the last line, one JSON object:
//   {"correct": true, "attempted": N, "failed": F, "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). A failed model or property check prints correct=false and
// exits 1. perfbench/run.py builds this binary and is the usual entry point.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.hpp"

namespace perfbench {

namespace {

void PrintMetrics(const char* kind, const std::map<std::string, Metric>& m) {
  for (const auto& [name, metric] : m) {
    std::printf("%s %s %.10g %s\n", kind, name.c_str(), metric.value,
                metric.unit.c_str());
  }
}

void PrintResult(bool correct, const Report& r,
                 const std::map<std::string, Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));
  bool first = true;
  for (const auto& [name, metric] : metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), metric.value,
                metric.unit.c_str());
    first = false;
  }
  std::printf("}}\n");
}

int Usage() {
  std::fprintf(stderr,
               "usage: ghba_perfbench --workload W --seed N --seconds S "
               "--trace 0|1 [--data-dir DIR] [--spans-out FILE]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--data-dir") {
      args.data_dir = value;
    } else if (flag == "--spans-out") {
      args.spans_out = value;
    } else {
      return Usage();
    }
  }
  if (args.seconds <= 0) return Usage();

  int (*run)(const Args&, Report&) = nullptr;
  if (args.workload == "hot-read") run = RunHotRead;
  if (args.workload == "cold-read") run = RunColdRead;
  if (args.workload == "mutate-mix") run = RunMutateMix;
  if (args.workload == "sim-replay") run = RunSimReplay;
  if (run == nullptr) return Usage();

  std::printf("# workload %s seed %llu seconds %g trace %d build %s\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, PERFBENCH_BUILD_TYPE);
  Report report;
  try {
    run(args, report);
  } catch (const CheckFailure& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "CHECK FAILED: %s\n", e.what());
    if (report.attempted == 0) report.attempted = 1;
    PrintResult(false, report, {});
    return 1;
  }
  report.end_to_end["peak_rss_mib"] = {PeakRssMib(), "MiB"};

  for (const auto& note : report.notes) std::printf("# %s\n", note.c_str());
  PrintMetrics("e2e", report.end_to_end);
  PrintMetrics("extra", report.extra);
  PrintMetrics("layer", report.per_layer);
  PrintResult(true, report,
              args.trace ? report.per_layer : report.end_to_end);
  return 0;
}
