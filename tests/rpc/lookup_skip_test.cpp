// L4 skips the servers the cascade already ruled out: the entry's local
// lookup, the group probes and failed verifies all read a server's own
// authoritative answer, so a global probe of that server again can only
// repeat it. The skip must keep L4 exact: a server whose probe or verify
// was lost or shed answered nothing and is probed again.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "rpc/prototype_cluster.hpp"

namespace ghba {
namespace {

ClusterConfig SkipConfig(std::uint32_t n, std::uint32_t m) {
  ClusterConfig c;
  c.num_mds = n;
  c.max_group_size = m;
  c.expected_files_per_mds = 500;
  c.lru_capacity = 64;
  c.memory_budget_bytes = 64ULL << 20;
  c.seed = 15;
  c.rpc.connect_timeout_ms = 150;
  c.rpc.attempt_timeout_ms = 150;
  c.rpc.call_budget_ms = 450;
  c.rpc.max_attempts = 3;
  c.rpc.retry_backoff_ms = 2;
  c.rpc.server_io_timeout_ms = 150;
  c.rpc.suspect_after = 3;
  c.rpc.ping_attempts = 3;
  c.rpc.ping_timeout_ms = 100;
  return c;
}

/// One serve.* counter of every live server, by id.
std::map<MdsId, std::uint64_t> ServeCounter(PrototypeCluster& cluster,
                                            const char* name) {
  std::map<MdsId, std::uint64_t> out;
  for (const MdsId id : cluster.AliveServers()) {
    const auto snap = cluster.FetchStats(id);
    EXPECT_TRUE(snap.ok()) << snap.status().ToString();
    if (snap.ok()) out[id] = snap->metrics.CounterOr(name);
  }
  return out;
}

/// Insert `path` and return the home the cascade finds it on.
MdsId InsertAndLocate(PrototypeCluster& cluster, const std::string& path) {
  FileMetadata md;
  md.inode = 1;
  EXPECT_TRUE(cluster.Insert(path, md).ok());
  EXPECT_TRUE(cluster.PublishAll().ok());
  const auto r = cluster.Lookup(path);
  EXPECT_TRUE(r.ok() && r->found);
  return r.ok() ? r->home : kInvalidMds;
}

TEST(L4SkipTest, GhbaMissProbesOnlyTheServersOutsideTheEntryGroup) {
  constexpr std::uint32_t kN = 30;
  constexpr std::uint32_t kM = 6;
  PrototypeCluster cluster(SkipConfig(kN, kM), ProtoScheme::kGhba);
  ASSERT_TRUE(cluster.Start().ok());
  for (int i = 0; i < 60; ++i) {
    FileMetadata md;
    md.inode = static_cast<std::uint64_t>(i);
    ASSERT_TRUE(cluster.Insert("/skip/f" + std::to_string(i), md).ok());
  }
  ASSERT_TRUE(cluster.PublishAll().ok());

  const auto local_before =
      ServeCounter(cluster, metrics_names::kServeLocalLookups);
  const auto global_before =
      ServeCounter(cluster, metrics_names::kServeGlobalProbes);
  const auto r = cluster.Lookup("/skip/absent");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(r->found);
  EXPECT_EQ(r->served_level, 4);
  const auto local_after =
      ServeCounter(cluster, metrics_names::kServeLocalLookups);
  const auto global_after =
      ServeCounter(cluster, metrics_names::kServeGlobalProbes);

  // The entry is the one server that ran the lookup's L1/L2.
  MdsId entry = kInvalidMds;
  for (const auto& [id, n] : local_after) {
    if (n != local_before.at(id)) {
      EXPECT_EQ(entry, kInvalidMds) << "two entries";
      entry = id;
    }
  }
  ASSERT_NE(entry, kInvalidMds);
  const auto view = cluster.MembershipOf(entry);
  ASSERT_TRUE(view.ok());
  ASSERT_EQ(view->members.size(), kM);

  std::uint64_t probes = 0;
  for (const auto& [id, n] : global_after) {
    const std::uint64_t delta = n - global_before.at(id);
    probes += delta;
    const bool in_group = std::find(view->members.begin(), view->members.end(),
                                    id) != view->members.end();
    // The entry and its group answered for themselves at L1-L3.
    EXPECT_EQ(delta, in_group ? 0u : 1u) << "server " << id;
  }
  EXPECT_EQ(probes, kN - kM);
}

/// How the injected fault answers: a lost frame (the attempt times out) or
/// a RETRY_AFTER, the reply of a server that sheds the request.
class L4SkipFaultTest : public ::testing::TestWithParam<bool> {
 protected:
  Status Reply() const {
    return GetParam() ? Status::RetryAfter("shed by test") : Status::Ok();
  }
};

TEST_P(L4SkipFaultTest, FailedGroupProbeToTheHomeLeavesItForL4) {
  FaultInjector injector;
  PrototypeCluster cluster(SkipConfig(6, 3), ProtoScheme::kGhba);
  cluster.set_fault_injector(&injector);
  ASSERT_TRUE(cluster.Start().ok());
  const MdsId home = InsertAndLocate(cluster, "/skip/x");
  ASSERT_NE(home, kInvalidMds);

  // The home's group siblings hold no replica of its filter, so an entry
  // among them reaches the home only through its group probe, and with
  // that probe failed only through L4.
  injector.FailRequests(home, MsgType::kGroupProbe, Reply());
  int at_l4 = 0;
  for (int i = 0; i < 64 && at_l4 == 0; ++i) {
    const auto r = cluster.Lookup("/skip/x");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_TRUE(r->found) << "lookup " << i << " lost the path";
    EXPECT_EQ(r->home, home);
    at_l4 += r->served_level == 4;
  }
  EXPECT_EQ(at_l4, 1) << "no entry in the home's group was drawn";
}

TEST_P(L4SkipFaultTest, FailedVerifyNeverRulesItsServerOut) {
  FaultInjector injector;
  PrototypeCluster cluster(SkipConfig(6, 3), ProtoScheme::kGhba);
  cluster.set_fault_injector(&injector);
  ASSERT_TRUE(cluster.Start().ok());
  const MdsId home = InsertAndLocate(cluster, "/skip/y");
  ASSERT_NE(home, kInvalidMds);

  // Every level above L4 ends in a verify on the home; with each of them
  // failing, every lookup must still find the path with its global probe.
  injector.FailRequests(home, MsgType::kVerify, Reply());
  for (int i = 0; i < 12; ++i) {
    const auto r = cluster.Lookup("/skip/y");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_TRUE(r->found) << "lookup " << i << " lost the path";
    EXPECT_EQ(r->home, home);
    EXPECT_EQ(r->served_level, 4);
  }
  injector.ClearRequestFaults();
  const auto r = cluster.Lookup("/skip/y");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->found);
  EXPECT_LT(r->served_level, 4);  // answered verifies settle it above L4
}

INSTANTIATE_TEST_SUITE_P(LostOrShed, L4SkipFaultTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Shed" : "Lost";
                         });

}  // namespace
}  // namespace ghba
