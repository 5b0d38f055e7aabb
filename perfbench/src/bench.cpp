#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

double PeakRssMib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void SpanLog::WriteJsonLines(const std::string& path) const {
  if (path.empty()) return;
  std::ofstream out(path, std::ios::trunc);
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& b : buffers_) {
    for (const Span& s : b->spans) {
      out << "{\"layer\":\"" << s.layer << "\",\"name\":\"" << s.name
          << "\",\"id\":" << s.id << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns;
      if (s.level != 0 || s.level_ns[0] != 0) {
        out << ",\"level\":" << static_cast<int>(s.level) << ",\"level_ns\":["
            << s.level_ns[0] << "," << s.level_ns[1] << "," << s.level_ns[2]
            << "," << s.level_ns[3] << "]";
      }
      out << "}\n";
    }
  }
}

void Timeline::Append(const Timeline& o) {
  op_end_ns.insert(op_end_ns.end(), o.op_end_ns.begin(), o.op_end_ns.end());
  lookup_end_ns.insert(lookup_end_ns.end(), o.lookup_end_ns.begin(),
                       o.lookup_end_ns.end());
  lookup_us.insert(lookup_us.end(), o.lookup_us.begin(), o.lookup_us.end());
}

void WindowEndToEnd(Timeline& tl, std::uint64_t t0, std::uint64_t t1,
                    double slice_s, Report& report) {
  // Diagnostics first: the window cut into slices, each figure per full
  // slice, the median over the slices.
  auto slice_ns = static_cast<std::uint64_t>(slice_s * 1e9);
  std::uint64_t slices = (t1 - t0) / slice_ns;
  if (slices == 0) {  // a window shorter than one slice is one slice
    slices = 1;
    slice_ns = t1 - t0;
  }
  const auto slice_of = [&](std::uint64_t end_ns) {
    return end_ns < t0 ? slices : (end_ns - t0) / slice_ns;
  };
  std::vector<double> ops(slices, 0);
  for (const std::uint64_t e : tl.op_end_ns) {
    if (const auto k = slice_of(e); k < slices) ops[k] += 1;
  }
  std::vector<std::vector<double>> lat(slices);
  for (std::size_t i = 0; i < tl.lookup_end_ns.size(); ++i) {
    if (const auto k = slice_of(tl.lookup_end_ns[i]); k < slices) {
      lat[k].push_back(tl.lookup_us[i]);
    }
  }
  std::vector<double> rate, p50, p99;
  for (std::uint64_t k = 0; k < slices; ++k) {
    rate.push_back(ops[k] / (static_cast<double>(slice_ns) / 1e9));
    if (lat[k].empty()) continue;
    p50.push_back(Quantile(lat[k], 0.5));
    p99.push_back(Quantile(lat[k], 0.99));
  }
  report.extra["slice_ops_per_s"] = {Median(rate), "1/s"};
  report.extra["slice_lookup_p50_us"] = {Median(p50), "us"};
  report.extra["slice_lookup_p99_us"] = {Median(p99), "us"};

  // The bounded figures: every operation and every lookup of the window.
  const double window_s = static_cast<double>(t1 - t0) / 1e9;
  report.end_to_end["ops_per_s"] = {
      static_cast<double>(tl.op_end_ns.size()) / window_s, "1/s"};
  auto& us = tl.lookup_us;  // sorted in place; the end times no longer match
  std::sort(us.begin(), us.end());
  const auto rank = [&](double q) {
    return static_cast<std::size_t>(
        std::llround(q * static_cast<double>(us.size() - 1)));
  };
  const double p50_us = us.empty() ? 0 : us[rank(0.5)];
  const double p99_us = us.empty() ? 0 : us[rank(0.99)];
  report.end_to_end["lookup_p50_us"] = {p50_us, "us"};
  report.end_to_end["lookup_p99_us"] = {p99_us, "us"};
  report.notes.push_back(
      "window " + std::to_string(window_s) + " s, " +
      std::to_string(slices) + " slices; lookups " +
      std::to_string(us.size()) + ", " +
      std::to_string(us.empty() ? 0 : us.size() - 1 - rank(0.99)) +
      " beyond the p99");
}

}  // namespace perfbench
