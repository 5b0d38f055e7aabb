// Cluster-view plumbing for online reconfiguration: routing epochs are
// strictly increasing and pushed to every live server on each topology
// change; stale pushes are rejected server-side; a recycled MdsId starts
// with clean health/version state (the RemoveServer/KillServer regression);
// durable servers journal the view and rejoin with it; and membership
// churn under live lookups never serves a wrong answer.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "rpc/prototype_cluster.hpp"

namespace ghba {
namespace {

ClusterConfig SmallConfig() {
  ClusterConfig c;
  c.num_mds = 6;
  c.max_group_size = 3;
  c.expected_files_per_mds = 500;
  c.lru_capacity = 64;
  c.memory_budget_bytes = 64ULL << 20;
  c.seed = 11;
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

TEST(MembershipTest, StartPushesAnInitialViewToEveryServer) {
  PrototypeCluster cluster(SmallConfig(), ProtoScheme::kGhba);
  ASSERT_TRUE(cluster.Start().ok());
  const std::uint64_t epoch = cluster.RoutingEpoch();
  EXPECT_GE(epoch, 1u);
  for (const MdsId id : cluster.AliveServers()) {
    const auto view = cluster.MembershipOf(id);
    ASSERT_TRUE(view.ok()) << id;
    EXPECT_EQ(view->epoch, epoch) << id;
    EXPECT_NE(std::find(view->members.begin(), view->members.end(), id),
              view->members.end())
        << "server " << id << " missing from its own view";
  }
}

TEST(MembershipTest, TopologyChangesBumpTheEpoch) {
  PrototypeCluster cluster(SmallConfig(), ProtoScheme::kGhba);
  ASSERT_TRUE(cluster.Start().ok());
  std::uint64_t last = cluster.RoutingEpoch();

  const auto added = cluster.AddServer();
  ASSERT_TRUE(added.ok());
  EXPECT_GT(added->messages, 0u);
  EXPECT_GT(cluster.RoutingEpoch(), last);
  last = cluster.RoutingEpoch();

  ASSERT_TRUE(cluster.RemoveServer(added->id).ok());
  EXPECT_GT(cluster.RoutingEpoch(), last);
  last = cluster.RoutingEpoch();

  ASSERT_TRUE(cluster.SplitLargestGroup().ok());
  EXPECT_GT(cluster.RoutingEpoch(), last);
  EXPECT_GT(cluster.metrics().reconfig_messages.value(), 0u);
}

TEST(MembershipTest, ServersRejectStaleOrMalformedUpdates) {
  PrototypeCluster cluster(SmallConfig(), ProtoScheme::kGhba);
  ASSERT_TRUE(cluster.Start().ok());
  const auto ports = cluster.ServerPorts();
  auto conn = TcpConnection::Connect(ports[0]);
  ASSERT_TRUE(conn.ok());
  const auto deadline = [] {
    return Deadline::After(std::chrono::milliseconds(2000));
  };
  const auto exchange = [&](const MembershipUpdate& update) {
    EXPECT_TRUE(
        conn->SendFrame(EncodeMembershipUpdate(update), deadline()).ok());
    auto resp = conn->RecvFrame(deadline());
    EXPECT_TRUE(resp.ok());
    ByteReader in(*resp);
    auto env = OpenEnvelope(in);
    EXPECT_TRUE(env.ok());
    EXPECT_FALSE(env->has_payload);
    return env->status;
  };

  const auto view = cluster.MembershipOf(0);
  ASSERT_TRUE(view.ok());

  // Replaying the server's current epoch must not be adopted again.
  MembershipUpdate stale;
  stale.epoch = view->epoch;
  stale.reason = ReconfigReason::kJoin;
  stale.members = {0};
  EXPECT_EQ(exchange(stale).code(), StatusCode::kInvalidArgument);

  // Epoch 0 is the unset sentinel; the codec rejects it outright.
  MembershipUpdate zero;
  zero.epoch = 0;
  zero.members = {0};
  EXPECT_EQ(exchange(zero).code(), StatusCode::kCorruption);

  // A genuinely newer view is adopted and visible via kGetMembership.
  MembershipUpdate fresh;
  fresh.epoch = view->epoch + 1;
  fresh.reason = ReconfigReason::kMigrate;
  fresh.members = {0, 1};
  EXPECT_TRUE(exchange(fresh).ok());
  const auto after = cluster.MembershipOf(0);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->epoch, view->epoch + 1);
  EXPECT_EQ(after->members, (std::vector<MdsId>{0, 1}));
}

TEST(MembershipTest, RecycledIdStartsWithCleanHealthState) {
  PrototypeCluster cluster(SmallConfig(), ProtoScheme::kGhba);
  ASSERT_TRUE(cluster.Start().ok());

  // Crash-style death: the victim's kDead verdict survives fail-over (it
  // documents why the files vanished)...
  const MdsId victim = 1;
  ASSERT_TRUE(cluster.KillServer(victim).ok());
  EXPECT_EQ(cluster.health().state(victim), PeerState::kDead);

  // ...but the next AddServer recycles the freed slot and must not inherit
  // the corpse's verdict or cached connection.
  const auto added = cluster.AddServer();
  ASSERT_TRUE(added.ok());
  EXPECT_EQ(added->id, victim) << "lowest free id is recycled";
  EXPECT_EQ(cluster.health().state(victim), PeerState::kHealthy);

  // The recycled server serves traffic immediately.
  FileMetadata md;
  md.inode = 77;
  ASSERT_TRUE(cluster.Insert("/recycled/probe", md).ok());
  ASSERT_TRUE(cluster.PublishAll().ok());
  const auto r = cluster.Lookup("/recycled/probe");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->found);

  // Graceful leave clears the verdict immediately: RemoveServer is an
  // administrative action, not a failure.
  ASSERT_TRUE(cluster.RemoveServer(victim).ok());
  EXPECT_EQ(cluster.health().state(victim), PeerState::kHealthy);
}

TEST(MembershipTest, DurableServersRejoinAndRestartWithTheJournaledView) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "ghba_membership_durable";
  fs::remove_all(dir);
  ClusterConfig config = SmallConfig();
  config.num_mds = 4;
  config.max_group_size = 2;
  config.storage.data_dir = dir.string();
  config.storage.fsync = FsyncPolicy::kAlways;

  std::uint64_t epoch_before = 0;
  {
    PrototypeCluster cluster(config, ProtoScheme::kGhba);
    ASSERT_TRUE(cluster.Start().ok());
    ASSERT_TRUE(cluster.AddServer().ok());  // raise the epoch

    // A killed durable server journaled the view it last acked; restart
    // recovers it and the orchestrator folds it into its own epoch line.
    ASSERT_TRUE(cluster.KillServer(1).ok());
    const auto info = cluster.RestartServer(1);
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    EXPECT_TRUE(info->durable);
    EXPECT_GT(info->epoch, 0u);
    EXPECT_LE(info->epoch, cluster.RoutingEpoch());

    // After rejoin the server is back on the current epoch.
    const auto view = cluster.MembershipOf(1);
    ASSERT_TRUE(view.ok());
    EXPECT_EQ(view->epoch, cluster.RoutingEpoch());
    epoch_before = cluster.RoutingEpoch();
    cluster.Stop();
  }

  // A whole new orchestrator incarnation over the same data dir must come
  // up *past* the recovered epochs — its first push would otherwise be
  // rejected as stale by every surviving server.
  {
    PrototypeCluster cluster(config, ProtoScheme::kGhba);
    ASSERT_TRUE(cluster.Start().ok());
    EXPECT_GT(cluster.RoutingEpoch(), epoch_before);
    for (const MdsId id : cluster.AliveServers()) {
      const auto view = cluster.MembershipOf(id);
      ASSERT_TRUE(view.ok()) << id;
      EXPECT_EQ(view->epoch, cluster.RoutingEpoch()) << id;
    }
    cluster.Stop();
  }
  fs::remove_all(dir);
}

TEST(MembershipTest, AdaptivityTickSamplesAndActsOnTheLiveCluster) {
  PrototypeCluster cluster(SmallConfig(), ProtoScheme::kGhba);
  ASSERT_TRUE(cluster.Start().ok());
  FileMetadata md;
  md.inode = 1;
  ASSERT_TRUE(cluster.Insert("/adapt/f", md).ok());
  ASSERT_TRUE(cluster.PublishAll().ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(cluster.Lookup("/adapt/f").ok());  // warm the counters
  }

  {
    AdaptivityController disabled{AdaptivityOptions{}};
    const auto decision = cluster.AdaptivityTick(disabled);
    ASSERT_TRUE(decision.ok());
    EXPECT_EQ(decision->action, AdaptiveAction::kNone);
    EXPECT_EQ(cluster.NumServers(), 6u);
  }
  {
    AdaptivityOptions options;
    options.enabled = true;
    options.min_lookup_samples = 1u << 30;  // cold-counter gate holds
    AdaptivityController gated{options};
    const auto decision = cluster.AdaptivityTick(gated);
    ASSERT_TRUE(decision.ok());
    EXPECT_EQ(decision->action, AdaptiveAction::kNone);
    EXPECT_EQ(decision->reason, "too few lookup samples");
  }
  {
    // A barely-loaded six-server cluster is reconfigurable: the controller
    // either shrinks it (underload) or tightens groups toward the measured
    // optimum — and the tick must have *applied* whichever it chose.
    AdaptivityOptions options;
    options.enabled = true;
    options.min_lookup_samples = 1;
    options.min_servers = 2;
    AdaptivityController controller{options};
    const std::size_t alive_before = cluster.AliveServers().size();
    const std::size_t groups_before = cluster.NumGroups();
    const auto decision = cluster.AdaptivityTick(controller);
    ASSERT_TRUE(decision.ok());
    EXPECT_NE(decision->action, AdaptiveAction::kNone) << decision->reason;
    EXPECT_TRUE(cluster.AliveServers().size() != alive_before ||
                cluster.NumGroups() != groups_before)
        << decision->reason;
    // Lookups stay correct across the applied reconfiguration.
    const auto r = cluster.Lookup("/adapt/f");
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->found);
  }
}

// The acceptance scenario: MDSs join and leave every few churn rounds
// while a client thread keeps firing lookups. Graceful leaves drain files
// to survivors, so every lookup must come back found — a not-found (or a
// transport error other than the bounded kUnavailable verdict) is a wrong
// answer and fails the test.
TEST(MembershipTest, ChurnUnderLiveLookupsServesEveryFile) {
  PrototypeCluster cluster(SmallConfig(), ProtoScheme::kGhba);
  ASSERT_TRUE(cluster.Start().ok());

  const int kFiles = 30;
  const auto path_of = [](int i) { return "/churn/f" + std::to_string(i); };
  for (int i = 0; i < kFiles; ++i) {
    FileMetadata md;
    md.inode = static_cast<std::uint64_t>(i);
    ASSERT_TRUE(cluster.Insert(path_of(i), md).ok());
  }
  ASSERT_TRUE(cluster.PublishAll().ok());

  std::atomic<bool> stop{false};
  std::atomic<int> wrong{0};
  std::atomic<int> transient{0};
  std::atomic<int> lookups{0};
  std::thread load([&] {
    int i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      const auto r = cluster.Lookup(path_of(i % kFiles));
      ++i;
      ++lookups;
      if (!r.ok()) {
        // Bounded degradation is legal under churn; anything else is not.
        if (r.status().code() != StatusCode::kUnavailable) ++wrong;
        ++transient;
        continue;
      }
      if (!r->found) ++wrong;
    }
  });

  // Membership churn: every round one server leaves gracefully (files
  // drain) and one joins, while the load thread keeps interleaving.
  for (int round = 0; round < 3; ++round) {
    const auto alive = cluster.AliveServers();
    ASSERT_GT(alive.size(), 1u);
    ASSERT_TRUE(cluster.RemoveServer(alive.back()).ok()) << round;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    ASSERT_TRUE(cluster.AddServer().ok()) << round;
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  stop.store(true, std::memory_order_relaxed);
  load.join();

  EXPECT_EQ(wrong.load(), 0) << "wrong lookups under membership churn";
  EXPECT_GT(lookups.load(), 0);
  EXPECT_GT(cluster.metrics().reconfig_messages.value(), 0u);
  EXPECT_GT(cluster.RoutingEpoch(), 1u);

  // Steady state after the storm: everything is served first try.
  for (int i = 0; i < kFiles; ++i) {
    const auto r = cluster.Lookup(path_of(i));
    ASSERT_TRUE(r.ok()) << path_of(i) << ": " << r.status().ToString();
    EXPECT_TRUE(r->found) << path_of(i);
  }
}

}  // namespace
}  // namespace ghba
