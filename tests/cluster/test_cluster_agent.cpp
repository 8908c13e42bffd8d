// In-process cluster integration: two real QosServerNodes with their
// ClusterAgents, driven by a ClusterCoordinator — the full epoch-flip and
// migration protocol on real sockets, but inside one process so sanitizers
// instrument every byte and FaultInjector points (cluster.migrate.stall,
// net.tcp.reset) hit the actual control-plane paths. The process-level
// chaos rounds (test_cluster_chaos.cpp) cover the same protocol across
// forked janusd processes; this suite is where the sharp edges live.
#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/coordinator.hpp"
#include "cluster/frame_io.hpp"
#include "cluster/shard_map.hpp"
#include "../support/temp_rules.hpp"
#include "router/udp_qos_client.hpp"
#include "server/cluster_agent.hpp"
#include "server/qos_server_node.hpp"
#include "../server/server_model.hpp"
#include "testing/fault_injector.hpp"
#include "wire/cluster_codec.hpp"

namespace janus::server {
namespace {

struct NodeBundle {
  std::unique_ptr<QosServerNode> node;
  std::unique_ptr<ClusterAgent> agent;

  cluster::MemberSpec spec(const std::string& name) const {
    cluster::MemberSpec out;
    out.member = {.name = name,
                  .udp_addr = node->addr(),
                  .cluster_addr = agent->local_addr()};
    return out;
  }

  /// Agent first (it drives migration passes over the node's table).
  void shutdown() {
    if (agent) agent->stop();
    if (node) node->stop();
  }
};

class ClusterAgentTest : public ::testing::Test {
 protected:
  void SetUp() override {
    testing::FaultInjector::instance().disarm_all();
    // Closed economy: zero refill, so credit can only move, never grow.
    // Every node loads the same rules file into its own table.
    for (int i = 0; i < 16; ++i) {
      rules_.put({.key = "t-" + std::to_string(i),
                  .refill_per_sec = 0,
                  .capacity = 100,
                  .credit = 100});
    }
  }

  void TearDown() override {
    if (coordinator_) coordinator_->stop();
    for (auto& b : bundles_) b->shutdown();
    testing::FaultInjector::instance().disarm_all();
  }

  NodeBundle& start_node(Duration window = millis(250)) {
    QosServerConfig cfg;
    cfg.sync_interval = Duration{0};
    cfg.checkpoint_interval = Duration{0};
    auto node = start_in_model(server_model_, {"127.0.0.1", 0}, rules_.path(),
                               cfg);
    EXPECT_TRUE(node.ok()) << node.error().message;
    auto bundle = std::make_unique<NodeBundle>();
    bundle->node = std::move(node).take();
    ClusterAgentOptions aopts;
    aopts.migrate_window = window;
    auto agent =
        ClusterAgent::start({"127.0.0.1", 0}, *bundle->node, aopts);
    EXPECT_TRUE(agent.ok()) << agent.error().message;
    bundle->agent = std::move(agent).take();
    bundles_.push_back(std::move(bundle));
    return *bundles_.back();
  }

  void start_coordinator(std::vector<cluster::MemberSpec> members) {
    cluster::CoordinatorOptions copts;
    copts.enable_bfd = false;  // liveness has its own suite
    coordinator_ = std::make_unique<cluster::ClusterCoordinator>(
        holder_, copts, SteadyClock::instance());
    auto epoch = coordinator_->bootstrap(std::move(members));
    ASSERT_TRUE(epoch.ok()) << epoch.error().message;
  }

  /// Direct UDP call stamped with `epoch` (what the router does).
  wire::QosResponse call(const net::SockAddr& addr, const std::string& key,
                         std::uint64_t epoch) {
    router::UdpClientConfig ccfg;
    ccfg.timeout = millis(500);
    ccfg.max_retries = 5;
    router::UdpQosClient client(ccfg);
    wire::QosRequest req;
    req.key = key;
    req.cost = 1;
    req.epoch = epoch;
    auto resp = client.call(addr, req);
    EXPECT_TRUE(resp.ok()) << (resp.ok() ? "" : resp.error().message);
    return resp.ok() ? resp.value() : wire::QosResponse{};
  }

  /// Spend through the shard map until denied; returns TRUE count.
  int spend_until_denied(const std::string& key, int max_tries = 300) {
    int admitted = 0;
    for (int i = 0; i < max_tries; ++i) {
      auto map = holder_.snapshot();
      const auto& owner = map->members[map->owner_of(key)];
      const auto resp = call(owner.udp_addr, key, map->epoch);
      if (resp.status == wire::ResponseStatus::kOk && resp.allowed) {
        ++admitted;
      } else if (resp.status == wire::ResponseStatus::kOk) {
        return admitted;
      }
      // kStaleEpoch / timeout: loop re-snapshots, like the router
    }
    return admitted;
  }

  /// Execution-model variant of every node start_node() launches.
  ServerModel server_model_ = ServerModel::kSharedQueue;
  test_support::TempRules rules_;
  std::vector<std::unique_ptr<NodeBundle>> bundles_;
  cluster::ShardMapHolder holder_;
  std::unique_ptr<cluster::ClusterCoordinator> coordinator_;
};

TEST_F(ClusterAgentTest, BootstrapSetsEpochOnEveryMember) {
  NodeBundle& a = start_node();
  NodeBundle& b = start_node();
  start_coordinator({a.spec("qos-0"), b.spec("qos-1")});
  if (HasFatalFailure()) return;
  EXPECT_EQ(holder_.epoch(), 1u);
  EXPECT_EQ(a.node->cluster_epoch(), 1u);
  EXPECT_EQ(b.node->cluster_epoch(), 1u);
  EXPECT_EQ(a.agent->epoch_updates(), 1u);
  EXPECT_EQ(b.agent->epoch_updates(), 1u);
}

TEST_F(ClusterAgentTest, StaleEpochFrameIsNackedWithCurrentEpoch) {
  NodeBundle& a = start_node();
  start_coordinator({a.spec("qos-0")});
  if (HasFatalFailure()) return;
  // A frame stamped with a bygone epoch bounces with the live one attached.
  const auto resp = call(a.node->addr(), "t-0", /*epoch=*/999);
  EXPECT_EQ(resp.status, wire::ResponseStatus::kStaleEpoch);
  EXPECT_EQ(resp.epoch, 1u);
  EXPECT_GE(a.node->stale_epoch_nacks(), 1u);
  // Correctly-stamped traffic is admitted.
  const auto ok = call(a.node->addr(), "t-0", 1);
  EXPECT_EQ(ok.status, wire::ResponseStatus::kOk);
  EXPECT_TRUE(ok.allowed);
}

TEST_F(ClusterAgentTest, MigratedEntryNoBucketCanHoldIsRefused) {
  // A peer's batch with a NaN rate and an infinite capacity beside a good
  // entry: the bad entries are never installed and nothing is thrown out
  // of the agent's thread; the ack says the batch was refused.
  NodeBundle& a = start_node();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  wire::MigrationBatch batch;
  batch.epoch = 1;
  batch.from_index = 1;
  batch.final_batch = true;
  batch.entries = {
      {.key = "nan-rate", .capacity = 10, .refill_per_sec = nan, .credit = 5},
      {.key = "good", .capacity = 10, .refill_per_sec = 1, .credit = 5},
      {.key = "inf-capacity",
       .capacity = std::numeric_limits<double>::infinity(),
       .refill_per_sec = 1,
       .credit = 5},
  };
  auto stream = net::TcpStream::connect(a.agent->local_addr(), seconds(5));
  ASSERT_TRUE(stream.ok()) << stream.error().message;
  ASSERT_TRUE(stream.value().write_all(wire::encode_frame(batch)).ok());
  auto reply = cluster::read_cluster_frame(stream.value(), seconds(5));
  ASSERT_TRUE(reply.ok()) << reply.error().message;
  const auto* ack = std::get_if<wire::ClusterAck>(&reply.value());
  ASSERT_NE(ack, nullptr);
  EXPECT_EQ(ack->status, wire::ClusterAckStatus::kError);
  auto& table = a.node->admission().table();
  EXPECT_FALSE(table.contains("nan-rate"));
  EXPECT_FALSE(table.contains("inf-capacity"));
  EXPECT_TRUE(table.contains("good"));
  EXPECT_EQ(a.node->migrated_in(), 1u);
}

/// Migration in each variant of the execution model (server_model.hpp).
class ClusterAgentModeTest
    : public ClusterAgentTest,
      public ::testing::WithParamInterface<ServerModel> {
 protected:
  void SetUp() override {
    server_model_ = GetParam();
    ClusterAgentTest::SetUp();
  }
};

TEST_P(ClusterAgentModeTest, ReshardMigratesSpentCreditExactlyOnce) {
  NodeBundle& a = start_node();
  NodeBundle& b = start_node();
  NodeBundle& c = start_node();
  start_coordinator({a.spec("qos-0"), b.spec("qos-1")});
  if (HasFatalFailure()) return;

  // Spend 40 credits of every key at its epoch-1 owner.
  for (int i = 0; i < 16; ++i) {
    const std::string key = "t-" + std::to_string(i);
    for (int j = 0; j < 40; ++j) {
      const auto map = holder_.snapshot();
      const auto resp =
          call(map->members[map->owner_of(key)].udp_addr, key, 1);
      ASSERT_TRUE(resp.allowed) << key << " spend " << j;
    }
  }

  // Grow to three members; migrating buckets carry their remaining 60.
  auto epoch =
      coordinator_->reshard({a.spec("qos-0"), b.spec("qos-1"), c.spec("qos-2")});
  ASSERT_TRUE(epoch.ok()) << epoch.error().message;
  EXPECT_EQ(holder_.epoch(), 2u);

  // ClusterAgent::apply_epoch_update extracts, acks, and only then streams
  // the buckets, so reshard() can return while batches are still in
  // flight: wait (bounded) until every extracted entry has landed.
  std::uint64_t extracted = 0;
  for (auto& bundle : bundles_) extracted += bundle->node->migrated_out();
  std::uint64_t moved = 0;
  for (int i = 0; i < 500; ++i) {
    moved = 0;
    for (auto& bundle : bundles_) moved += bundle->node->migrated_in();
    if (moved > 0 && moved >= extracted) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GT(moved, 0u) << "a 2->3 reshard must migrate some keys";

  // Exactly 60 more admissions per key, wherever it lives now: migrated
  // credit was transferred, not duplicated — and never left behind.
  for (int i = 0; i < 16; ++i) {
    const std::string key = "t-" + std::to_string(i);
    EXPECT_EQ(spend_until_denied(key), 60) << key;
  }
}

TEST_P(ClusterAgentModeTest, LeavingMemberStreamsEverythingAway) {
  NodeBundle& a = start_node();
  NodeBundle& b = start_node();
  start_coordinator({a.spec("qos-0"), b.spec("qos-1")});
  if (HasFatalFailure()) return;

  for (int i = 0; i < 16; ++i) {
    const std::string key = "t-" + std::to_string(i);
    for (int j = 0; j < 25; ++j) {
      const auto map = holder_.snapshot();
      ASSERT_TRUE(call(map->members[map->owner_of(key)].udp_addr, key, 1)
                      .allowed);
    }
  }

  // Shrink to one member: qos-1 leaves and must stream its whole table to
  // qos-0 (kNotAMember semantics).
  auto epoch = coordinator_->reshard({a.spec("qos-0")});
  ASSERT_TRUE(epoch.ok()) << epoch.error().message;
  EXPECT_GT(b.node->migrated_out(), 0u);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(spend_until_denied("t-" + std::to_string(i)), 75);
  }
}

TEST_P(ClusterAgentModeTest, StalledMigrationDefersInsteadOfOverAdmitting) {
  // cluster.migrate.stall delays every outgoing batch by 150ms — inside the
  // 400ms inbound window, so deferral (not fresh buckets) bridges the gap.
  NodeBundle& a = start_node(/*window=*/millis(400));
  NodeBundle& b = start_node(/*window=*/millis(400));
  start_coordinator({a.spec("qos-0")});
  if (HasFatalFailure()) return;

  for (int i = 0; i < 16; ++i) {
    const std::string key = "t-" + std::to_string(i);
    for (int j = 0; j < 30; ++j) {
      ASSERT_TRUE(call(a.node->addr(), key, 1).allowed) << key;
    }
  }

  testing::ScopedFault stall(testing::FaultPoint::kClusterMigrateStall,
                             {.param = 150'000});  // µs
  auto epoch = coordinator_->reshard({a.spec("qos-0"), b.spec("qos-1")});
  ASSERT_TRUE(epoch.ok()) << epoch.error().message;

  // Spend through the new map immediately: requests racing the stalled
  // batch are deferred (the UDP client retries through them), and the
  // total admitted across the stall can never exceed the 70 that remained.
  // Keys that stayed on qos-0 are the control group; keys that moved prove
  // deferral bridged the stall without fresh full-credit buckets.
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(spend_until_denied("t-" + std::to_string(i)), 70) << i;
  }
  EXPECT_GT(b.node->migrated_in(), 0u) << "no key moved; stall untested";
}

INSTANTIATE_TEST_SUITE_P(
    Modes, ClusterAgentModeTest,
    ::testing::ValuesIn(kAllServerModels),
    [](const ::testing::TestParamInfo<ServerModel>& tpi) {
      return server_model_name(tpi.param);
    });

}  // namespace
}  // namespace janus::server
