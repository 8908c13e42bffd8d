// Full-stack integration on real sockets: database -> QoS servers ->
// request routers -> gateway balancer -> ab workload client / app wrapper.
#include <gtest/gtest.h>

#include "app/qos_client.hpp"
#include "db/rule_store.hpp"
#include "lb/gateway_balancer.hpp"
#include "router/router_node.hpp"
#include "server/qos_server_node.hpp"
#include "workload/ab_client.hpp"
#include "workload/rule_corpus.hpp"

namespace janus {
namespace {

/// The whole stack must behave identically under every gateway routing
/// policy — RR, least-connections, and Prequal (whose probe pool runs
/// against the routers' real /probez endpoints here) — so the full suite
/// is value-parameterized over the policy (DESIGN.md §14).
class EndToEndTest : public ::testing::TestWithParam<lb::RoutingPolicy> {
 protected:
  void SetUp() override {
    store_ = std::make_unique<db::RuleStore>(db_);

    // Two QoS servers.
    for (int i = 0; i < 2; ++i) {
      server::QosServerConfig cfg;
      cfg.sync_interval = Duration{0};
      cfg.checkpoint_interval = Duration{0};
      auto server = server::QosServerNode::start({"127.0.0.1", 0}, *store_,
                                                 cfg);
      ASSERT_TRUE(server.ok()) << server.error().message;
      servers_.push_back(std::move(server).take());
    }

    // Two router nodes over the same ordered backend list.
    auto resolver = std::make_shared<router::StaticResolver>();
    std::vector<std::string> backends;
    for (std::size_t i = 0; i < servers_.size(); ++i) {
      const std::string name = "qos-" + std::to_string(i) + ".janus";
      resolver->add(name, servers_[i]->addr());
      backends.push_back(name);
    }
    router::RouterConfig rcfg;
    rcfg.udp.timeout = millis(50);
    for (int i = 0; i < 2; ++i) {
      auto router = router::RouterNode::start({"127.0.0.1", 0}, backends,
                                              resolver, rcfg);
      ASSERT_TRUE(router.ok()) << router.error().message;
      routers_.push_back(std::move(router).take());
    }

    // Gateway balancer in front (the paper's ELB).
    lb::GatewayConfig gcfg;
    gcfg.policy = GetParam();
    gcfg.prequal.probe_interval = millis(5);
    auto gateway = lb::GatewayBalancer::start(
        {"127.0.0.1", 0}, {routers_[0]->addr(), routers_[1]->addr()}, gcfg);
    ASSERT_TRUE(gateway.ok()) << gateway.error().message;
    gateway_ = std::move(gateway).take();
  }

  db::Database db_;
  std::unique_ptr<db::RuleStore> store_;
  std::vector<std::unique_ptr<server::QosServerNode>> servers_;
  std::vector<std::unique_ptr<router::RouterNode>> routers_;
  std::unique_ptr<lb::GatewayBalancer> gateway_;
};

TEST_P(EndToEndTest, QuotaEnforcedThroughFullStack) {
  ASSERT_TRUE(store_->put({.key = "alice", .refill_per_sec = 0,
                           .capacity = 10, .credit = 10}).ok());
  net::HttpClient client(gateway_->addr());
  int allowed = 0, denied = 0;
  for (int i = 0; i < 20; ++i) {
    auto resp = client.get("/qos?key=alice");
    ASSERT_TRUE(resp.ok()) << resp.error().message;
    (resp.value().body == "TRUE" ? allowed : denied)++;
  }
  EXPECT_EQ(allowed, 10);
  EXPECT_EQ(denied, 10);
}

TEST_P(EndToEndTest, QuotaSharedAcrossRouterNodes) {
  // The same key through *different* routers hits the same bucket — the
  // architecture's central consistency property (§II-B).
  ASSERT_TRUE(store_->put({.key = "shared", .refill_per_sec = 0,
                           .capacity = 6, .credit = 6}).ok());
  net::HttpClient via_r0(routers_[0]->addr());
  net::HttpClient via_r1(routers_[1]->addr());
  int allowed = 0;
  for (int i = 0; i < 5; ++i) {
    auto a = via_r0.get("/qos?key=shared");
    auto b = via_r1.get("/qos?key=shared");
    ASSERT_TRUE(a.ok() && b.ok());
    allowed += (a.value().body == "TRUE") + (b.value().body == "TRUE");
  }
  EXPECT_EQ(allowed, 6);
}

TEST_P(EndToEndTest, AbWorkloadDrivesTheStack) {
  workload::RuleCorpusConfig corpus;
  corpus.rule_count = 200;
  workload::SequentialKeys keys;
  ASSERT_EQ(workload::provision_rules(*store_, keys, corpus), 200u);

  workload::AbConfig ab;
  ab.threads = 2;
  ab.total_requests = 400;
  ab.key_space = 200;
  auto report = workload::run_ab(gateway_->addr(), keys, ab);

  EXPECT_EQ(report.errors, 0u);
  EXPECT_EQ(report.completed, 400u);
  // Freshly provisioned buckets are full, so nearly everything is admitted.
  EXPECT_GT(report.allowed, 350u);
  EXPECT_GT(report.throughput(), 10.0);
  EXPECT_GT(report.latency.percentile(0.90), 0);
}

TEST_P(EndToEndTest, PhpStyleWrapperIntegration) {
  // The §IV use case: wrap an existing app with qos_check(REMOTE_ADDR).
  ASSERT_TRUE(store_->put({.key = "198.51.100.7", .refill_per_sec = 0,
                           .capacity = 3, .credit = 3}).ok());
  app::QosClient qos(gateway_->addr());
  int served = 0, throttled = 0;
  for (int i = 0; i < 6; ++i) {
    if (qos.qos_check("198.51.100.7")) {
      ++served;  // include("original_index.php")
    } else {
      ++throttled;  // HTTP/1.1 403 Forbidden
    }
  }
  EXPECT_EQ(served, 3);
  EXPECT_EQ(throttled, 3);
  EXPECT_EQ(qos.transport_errors(), 0u);
}

TEST_P(EndToEndTest, RuleChangesPropagateViaSync) {
  ASSERT_TRUE(store_->put({.key = "upgraded", .refill_per_sec = 0,
                           .capacity = 1, .credit = 1}).ok());
  net::HttpClient client(gateway_->addr());
  ASSERT_TRUE(client.get("/qos?key=upgraded").ok());
  auto denied = client.get("/qos?key=upgraded");
  ASSERT_TRUE(denied.ok());
  EXPECT_EQ(denied.value().body, "FALSE");

  // Tenant buys a bigger plan; servers re-read rules on their sync tick.
  ASSERT_TRUE(store_->put({.key = "upgraded", .refill_per_sec = 0,
                           .capacity = 100, .credit = 100}).ok());
  for (auto& server : servers_) server->sync_now();
  auto after = client.get("/qos?key=upgraded");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().body, "TRUE");
}

TEST_P(EndToEndTest, CheckpointPersistsCreditsToDatabase) {
  ASSERT_TRUE(store_->put({.key = "ckpt", .refill_per_sec = 0,
                           .capacity = 10, .credit = 10}).ok());
  net::HttpClient client(gateway_->addr());
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(client.get("/qos?key=ckpt").ok());
  for (auto& server : servers_) server->checkpoint_now();
  EXPECT_DOUBLE_EQ(store_->get("ckpt")->credit, 6.0);
}

TEST_P(EndToEndTest, BurstCreditSemanticsEndToEnd) {
  // §II-C's burst example scaled down: rate 5/s, capacity 20.
  ASSERT_TRUE(store_->put({.key = "burst", .refill_per_sec = 5,
                           .capacity = 20, .credit = 20}).ok());
  net::HttpClient client(gateway_->addr());
  int initial_burst = 0;
  for (int i = 0; i < 25; ++i) {
    auto resp = client.get("/qos?key=burst");
    ASSERT_TRUE(resp.ok());
    if (resp.value().body == "TRUE") ++initial_burst;
  }
  // ~20 credits plus whatever refilled during the loop.
  EXPECT_GE(initial_burst, 20);
  EXPECT_LE(initial_burst, 23);
}

INSTANTIATE_TEST_SUITE_P(
    Policies, EndToEndTest,
    ::testing::Values(lb::RoutingPolicy::kRoundRobin,
                      lb::RoutingPolicy::kLeastConnections,
                      lb::RoutingPolicy::kPrequal),
    [](const ::testing::TestParamInfo<lb::RoutingPolicy>& tpi) {
      switch (tpi.param) {
        case lb::RoutingPolicy::kRoundRobin: return std::string("RoundRobin");
        case lb::RoutingPolicy::kLeastConnections:
          return std::string("LeastConnections");
        case lb::RoutingPolicy::kPrequal: return std::string("Prequal");
      }
      return std::string("Unknown");
    });

}  // namespace
}  // namespace janus
