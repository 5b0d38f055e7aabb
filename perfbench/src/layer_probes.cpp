#include <cstdint>
#include <string>
#include <vector>

#include "bloom/bloom_filter_array.hpp"
#include "bloom/lru_bloom_array.hpp"
#include "common/bytes.hpp"
#include "hash/query_digest.hpp"
#include "probes.hpp"
#include "rpc/protocol.hpp"

namespace perfbench {
namespace {

constexpr int kBatches = 5;

/// Median over kBatches of (batch time / items) for `body`, which runs one
/// pass over its inputs and returns the number of items it processed. One
/// span per batch goes to `spans`.
template <typename Body>
double NsPerItem(SpanLog::Buffer* spans, const char* layer, const char* name,
                 Body&& body) {
  std::vector<double> per_item;
  for (int b = 0; b < kBatches; ++b) {
    Interval at;
    const std::uint64_t items =
        Timed(spans, 0, layer, name, &at, [&] { return body(); });
    per_item.push_back(Ratio(static_cast<double>(at.ns()),
                             static_cast<double>(items)));
  }
  return Median(per_item);
}

}  // namespace

void MicroProbes(const ProbeInputs& in, Report& report,
                 SpanLog::Buffer* spans) {
  auto& out = report.per_layer;
  volatile std::uint64_t sink = 0;
  const std::uint64_t seed =
      in.filters.empty() ? 0 : in.filters.front().seed();

  out["hash.digest_ns"] = {
      NsPerItem(spans, "hash", "QueryDigest.For",
                [&] {
                  for (const auto& p : in.live) {
                    ghba::QueryDigest d(p);
                    sink = sink + d.For(seed).lo;
                  }
                  return in.live.size();
                }),
      "ns"};

  out["bloom.probe_ns"] = {
      NsPerItem(spans, "bloom", "BloomFilter.MayContain",
                [&] {
                  std::uint64_t n = 0;
                  for (const auto& f : in.filters) {
                    for (const auto& p : in.absent) {
                      sink = sink + (f.MayContain(p) ? 1 : 0);
                      ++n;
                    }
                  }
                  return n;
                }),
      "ns"};

  std::uint64_t admitted = 0;
  for (const auto& f : in.filters) {
    for (const auto& p : in.absent) admitted += f.MayContain(p) ? 1 : 0;
  }
  out["bloom.fp_rate"] = {
      Ratio(static_cast<double>(admitted),
            static_cast<double>(in.filters.size() * in.absent.size())),
      "ratio"};

  ghba::BloomFilterArray array;
  for (std::size_t i = 0; i < in.filters.size() && i < in.theta; ++i) {
    (void)array.AddEntry(static_cast<ghba::MdsId>(i), in.filters[i]);
  }
  std::vector<ghba::MdsId> hits;
  out["bloom.array_query_ns"] = {
      NsPerItem(spans, "bloom", "BloomFilterArray.QuerySharedInto",
                [&] {
                  for (const auto& p : in.live) {
                    ghba::QueryDigest d(p);
                    hits.clear();
                    sink = sink + array.QuerySharedInto(d, hits);
                  }
                  return in.live.size();
                }),
      "ns"};

  ghba::LruBloomArray::Options lru_options;
  lru_options.capacity = in.lru_capacity;
  ghba::LruBloomArray lru(lru_options);
  for (std::size_t i = 0; i < in.live.size() && i < in.lru_capacity; ++i) {
    lru.Touch(in.live[i], in.homes[i]);
  }
  ghba::ArrayQueryResult lru_out;
  out["bloom.lru_query_ns"] = {
      NsPerItem(spans, "bloom", "LruBloomArray.Query",
                [&] {
                  for (const auto& p : in.live) {
                    ghba::QueryDigest d(p);
                    lru.Query(d, lru_out);
                    sink = sink + lru_out.all_hits.size();
                  }
                  return in.live.size();
                }),
      "ns"};

  double codec_ns = 0;
  if (in.with_codec) {
    codec_ns = NsPerItem(spans, "rpc", "codec", [&] {
      for (std::size_t i = 0; i < in.live.size(); ++i) {
        const auto req = ghba::EncodePathRequest(
            ghba::MsgType::kLookupLocal, in.live[i]);
        ghba::LocalLookupResp resp;
        resp.hits.push_back(in.homes[i]);
        const auto bytes = ghba::EncodeLocalLookupResp(resp);
        ghba::ByteReader reader(bytes);
        const auto env = ghba::OpenEnvelope(reader);
        const auto decoded = ghba::DecodeLocalLookupResp(reader);
        Check(env.ok() && decoded.ok() && decoded->hits.size() == 1,
              "codec round trip of a lookup response failed");
        sink = sink + req.size() + decoded->hits.front();
      }
      return in.live.size();
    });
  }
  out["rpc.codec_ns"] = {codec_ns, "ns"};
  (void)sink;
}

const std::vector<std::pair<const char*, const char*>>& PerLayerSchema() {
  static const std::vector<std::pair<const char*, const char*>> kSchema = {
      {"client.cache_hit_ratio", "ratio"},
      {"client.hit_us", "us"},
      {"client.self_us", "us"},
      {"client.lease_us", "us"},
      {"client.invalidate_us", "us"},
      {"client.hot_promotions", "count"},
      {"rpc.rtt_us", "us"},
      {"rpc.msgs_per_lookup", "msgs"},
      {"rpc.peers_per_lookup", "peers"},
      {"rpc.l1_share", "ratio"},
      {"rpc.l2_share", "ratio"},
      {"rpc.l3_share", "ratio"},
      {"rpc.l4_share", "ratio"},
      {"rpc.l1_us", "us"},
      {"rpc.l2_us", "us"},
      {"rpc.l3_us", "us"},
      {"rpc.l4_us", "us"},
      {"rpc.false_route_ratio", "ratio"},
      {"rpc.retries", "count"},
      {"rpc.codec_ns", "ns"},
      {"rpc.frames_per_mutation", "msgs"},
      {"rpc.msgs_per_migrate", "msgs"},
      {"hash.digest_ns", "ns"},
      {"bloom.probe_ns", "ns"},
      {"bloom.array_query_ns", "ns"},
      {"bloom.lru_query_ns", "ns"},
      {"bloom.fp_rate", "ratio"},
      {"storage.wal_appends_per_mutation", "count"},
      {"storage.fsyncs_per_mutation", "count"},
      {"storage.wal_bytes_per_mutation", "bytes"},
      {"storage.append_us", "us"},
      {"storage.checkpoints", "count"},
      {"storage.checkpoint_ms", "ms"},
      {"storage.wal_appends_per_migrate", "count"},
      {"txn.msgs_per_rename", "msgs"},
      {"txn.wal_appends_per_rename", "count"},
      {"txn.msgs_per_create", "msgs"},
      {"core.lookup_ns", "ns"},
      {"core.create_ns", "ns"},
      {"core.l1_share", "ratio"},
      {"core.l2_share", "ratio"},
      {"core.l3_share", "ratio"},
      {"core.l4_share", "ratio"},
      {"core.msgs_per_lookup", "msgs"},
      {"core.publishes", "count"},
      {"core.model_latency_ms", "ms"},
      {"trace.gen_ns", "ns"},
  };
  return kSchema;
}

}  // namespace perfbench
