// Per-layer probes of the traced run that do not depend on a transport:
// digest, Bloom probes, the replica array, the L1 LRU array, the wire codec
// and the false-positive rate of the live local filters. Each is timed as a
// batch over the workload's own paths and reported as a median of batches.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"
#include "bloom/bloom_filter.hpp"
#include "common/lookup_outcome.hpp"

namespace perfbench {

struct ProbeInputs {
  std::vector<ghba::BloomFilter> filters;  ///< live local filter per MDS
  std::vector<std::string> live;           ///< paths the workload reads
  std::vector<ghba::MdsId> homes;          ///< home of each `live` path
  std::vector<std::string> absent;         ///< paths no server stores
  std::size_t theta = 1;         ///< replicas per server (segment size)
  std::size_t lru_capacity = 0;  ///< L1 entries per server
  bool with_codec = true;        ///< the workload talks over the wire
};

/// hash.digest_ns, bloom.probe_ns, bloom.array_query_ns, bloom.lru_query_ns,
/// bloom.fp_rate and rpc.codec_ns into `report.per_layer`.
void MicroProbes(const ProbeInputs& in, Report& report, SpanLog::Buffer* spans);

/// Every per-layer metric name the traced run reports, with its unit. A
/// workload that does not exercise a layer reports 0 for its metrics.
const std::vector<std::pair<const char*, const char*>>& PerLayerSchema();

}  // namespace perfbench
