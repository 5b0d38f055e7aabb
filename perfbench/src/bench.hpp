// Shared plumbing of the G-HBA benchmark binary: arguments, the input
// generator, timing, the in-memory span log, percentiles and the metric
// report. Nothing here calls into the program; the workloads do.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string data_dir;   ///< working directory for durable workloads
  std::string spans_out;  ///< where the traced run writes its spans
};

/// A model or property check failed: the run ends with a non-zero exit.
struct CheckFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

inline void Check(bool ok, const std::string& what) {
  if (!ok) throw CheckFailure(what);
}

inline std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// splitmix64: the benchmark's own generator, so its inputs depend only on
/// the seed and never on the program's Rng.
class Gen {
 public:
  explicit Gen(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, bound).
  std::uint64_t Below(std::uint64_t bound) { return Next() % bound; }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

/// Zipf(s) over ranks [0, n) by inverse CDF on a precomputed table.
class Zipf {
 public:
  Zipf(std::size_t n, double s) : cdf_(n) {
    double sum = 0;
    for (std::size_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = sum;
    }
    for (auto& c : cdf_) c /= sum;
  }
  std::size_t Sample(Gen& gen) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), gen.Unit());
    return std::min<std::size_t>(it - cdf_.begin(), cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

/// Nearest-rank quantile of `v` (sorted in place); 0 for an empty set.
inline double Quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      std::llround(q * static_cast<double>(v.size() - 1)));
  return v[idx];
}

inline double Median(std::vector<double> v) { return Quantile(v, 0.5); }

inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

inline double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// One span: a call the benchmark made into a layer's public function.
struct Span {
  const char* layer;
  const char* name;
  std::uint64_t start_ns;
  std::uint64_t end_ns;
  std::uint64_t id;
  /// Lookup spans only: the program's own LookupTrace for the call.
  std::uint8_t level = 0;  ///< served level, 0 = answered from the cache
  std::array<std::uint64_t, 4> level_ns{};
};

/// In-memory span log. Enabled only in the traced run; each thread records
/// into its own buffer (no lock on the hot path) and the buffers are merged
/// when the run writes them out. A buffer keeps its thread's first kMaxSpans
/// spans, which bounds the log's memory and file; the metrics use every
/// call's timing whether or not its span was kept.
class SpanLog {
 public:
  static constexpr std::size_t kMaxSpans = std::size_t{1} << 17;

  struct Buffer {
    std::vector<Span> spans;
    std::uint64_t next_id = 0;
  };

  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// A per-thread buffer; thread `t` owns buffer `t`.
  Buffer& buffer(std::size_t t) {
    std::lock_guard<std::mutex> lock(mu_);
    while (buffers_.size() <= t) buffers_.emplace_back(new Buffer);
    return *buffers_[t];
  }

  /// Write every span as one JSON object per line.
  void WriteJsonLines(const std::string& path) const;

 private:
  bool enabled_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// When a timed call started and ended (steady clock).
struct Interval {
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint64_t ns() const { return end_ns - start_ns; }
};

/// Time `fn()` into `*at` and, when `buf` is set (the traced run), record
/// it as a span. Returns fn()'s value.
template <typename Fn>
auto Timed(SpanLog::Buffer* buf, std::size_t thread, const char* layer,
           const char* name, Interval* at, Fn&& fn) {
  at->start_ns = NowNs();
  auto out = fn();
  at->end_ns = NowNs();
  if (buf != nullptr && buf->spans.size() < SpanLog::kMaxSpans) {
    const std::uint64_t id = (static_cast<std::uint64_t>(thread) << 48) |
                             ++buf->next_id;
    buf->spans.push_back(Span{layer, name, at->start_ns, at->end_ns, id});
  }
  return out;
}

/// A metric as reported: value and unit.
struct Metric {
  double value = 0;
  std::string unit;
};

/// Everything one run measured. `end_to_end` feeds the untraced result,
/// `per_layer` the traced one; `extra` holds workload-specific end-to-end
/// figures that are printed but are not part of the common result schema.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> extra;
  std::map<std::string, Metric> per_layer;
  std::vector<std::string> notes;  ///< printed as "# ..." lines
};

/// Peak resident set of this process in MiB.
double PeakRssMib();

/// When each operation of the window ended, and each lookup's latency.
struct Timeline {
  std::vector<std::uint64_t> op_end_ns;  ///< every operation
  std::vector<std::uint64_t> lookup_end_ns;
  std::vector<float> lookup_us;

  void Op(std::uint64_t end_ns) { op_end_ns.push_back(end_ns); }
  void Lookup(std::uint64_t end_ns, std::uint64_t ns) {
    op_end_ns.push_back(end_ns);
    lookup_end_ns.push_back(end_ns);
    lookup_us.push_back(static_cast<float>(static_cast<double>(ns) / 1e3));
  }
  void Append(const Timeline& o);
  void Reserve(std::size_t n) {
    op_end_ns.reserve(n);
    lookup_end_ns.reserve(n);
    lookup_us.reserve(n);
  }
};

/// ops_per_s, lookup_p50_us and lookup_p99_us of the window [t0, t1): every
/// operation over the window's length, and the quantiles over every lookup
/// of the window, so that a cost the program pays only now and then shows.
/// As a noise diagnostic, the same figures are also computed per slice of
/// `slice_s` and their medians over the slices printed as extra lines
/// (slice_*). Sorts `tl.lookup_us` in place.
void WindowEndToEnd(Timeline& tl, std::uint64_t t0, std::uint64_t t1,
                    double slice_s, Report& report);

/// Set-ups per phase: each run sets up this many times before its window
/// and as many times after it, so that setup_s samples the host at two
/// times; the host's speed drifts in episodes longer than one set-up burst.
constexpr std::uint32_t kSetupsPerPhase = 5;

/// The median of `setups` (the mean of the two middle values of an even
/// count), as the setup_s metric.
inline void ReportSetup(Report& r, std::vector<double> setups) {
  std::string each = "set-ups (s):";
  for (const double s : setups) each += " " + std::to_string(s);
  r.notes.push_back(each);
  std::sort(setups.begin(), setups.end());
  const std::size_t n = setups.size();
  r.end_to_end["setup_s"] = {
      n == 0 ? 0 : (setups[(n - 1) / 2] + setups[n / 2]) / 2, "s"};
}

int RunHotRead(const Args& args, Report& report);
int RunColdRead(const Args& args, Report& report);
int RunMutateMix(const Args& args, Report& report);
int RunSimReplay(const Args& args, Report& report);

}  // namespace perfbench
