// Full-stack integration on real sockets: database -> QoS servers ->
// request routers -> gateway balancer -> ab workload client / app wrapper.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "app/qos_client.hpp"
#include "../support/temp_rules.hpp"
#include "db/wal.hpp"
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
    // Two QoS servers, each loading the rules file into its own table and
    // logging to its own WAL.
    for (int i = 0; i < 2; ++i) {
      server::QosServerConfig cfg;
      cfg.sync_interval = Duration{0};
      cfg.checkpoint_interval = Duration{0};
      cfg.wal_path = wal_path(i);
      std::remove(cfg.wal_path.c_str());
      auto server = server::QosServerNode::start({"127.0.0.1", 0},
                                                 rules_.path(), cfg);
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

  void TearDown() override {
    for (std::size_t i = 0; i < servers_.size(); ++i) {
      servers_[i]->stop();
      std::remove(wal_path(i).c_str());
    }
  }

  static std::string wal_path(std::size_t server) {
    return ::testing::TempDir() + "janus_e2e_" + std::to_string(::getpid()) +
           "_" + std::to_string(server) + ".wal";
  }

  /// Write `rule` to the rules file; each server's sync pass reloads it.
  void put_rule(const db::RuleRow& rule) {
    rules_.put(rule);
    for (auto& server : servers_) server->sync_now();
  }

  test_support::TempRules rules_;
  std::vector<std::unique_ptr<server::QosServerNode>> servers_;
  std::vector<std::unique_ptr<router::RouterNode>> routers_;
  std::unique_ptr<lb::GatewayBalancer> gateway_;
};

TEST_P(EndToEndTest, QuotaEnforcedThroughFullStack) {
  put_rule({.key = "alice", .refill_per_sec = 0, .capacity = 10,
            .credit = 10});
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
  put_rule({.key = "shared", .refill_per_sec = 0, .capacity = 6,
            .credit = 6});
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
  std::vector<db::RuleRow> corpus_rules;
  for (std::uint64_t i = 0; i < corpus.rule_count; ++i) {
    corpus_rules.push_back(workload::make_rule(keys, i, corpus));
  }
  rules_.put_many(corpus_rules);
  for (auto& server : servers_) server->sync_now();
  for (auto& server : servers_) ASSERT_EQ(server->rule_count(), 200u);

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
  put_rule({.key = "198.51.100.7", .refill_per_sec = 0, .capacity = 3,
            .credit = 3});
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
  put_rule({.key = "upgraded", .refill_per_sec = 0, .capacity = 1,
            .credit = 1});
  net::HttpClient client(gateway_->addr());
  ASSERT_TRUE(client.get("/qos?key=upgraded").ok());
  auto denied = client.get("/qos?key=upgraded");
  ASSERT_TRUE(denied.ok());
  EXPECT_EQ(denied.value().body, "FALSE");

  // Tenant buys a bigger plan: a higher rate. Servers reload the edited
  // rules file on their sync tick; the spent credit is kept (a reload never
  // hands a held key a new credit) and the new rate refills it.
  put_rule({.key = "upgraded", .refill_per_sec = 1000, .capacity = 100,
            .credit = 100});
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  auto after = client.get("/qos?key=upgraded");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().body, "TRUE");
}

TEST_P(EndToEndTest, CheckpointPersistsCreditsToDatabase) {
  // The server that owns the key logs its spent credit to its WAL; the
  // other never touched it, so its WAL holds only the loaded rule.
  put_rule({.key = "ckpt", .refill_per_sec = 0, .capacity = 10,
            .credit = 10});
  net::HttpClient client(gateway_->addr());
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(client.get("/qos?key=ckpt").ok());
  for (auto& server : servers_) server->checkpoint_now();
  std::vector<double> last;
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    double credit = -1;
    ASSERT_TRUE(db::Wal::replay(wal_path(i), [&](const db::LogRecord& rec) {
                  if (rec.rule.key == "ckpt") credit = rec.rule.credit;
                }).ok());
    last.push_back(credit);
  }
  std::sort(last.begin(), last.end());
  EXPECT_EQ(last, (std::vector<double>{6.0, 10.0}));
}

TEST_P(EndToEndTest, BurstCreditSemanticsEndToEnd) {
  // §II-C's burst example scaled down: rate 5/s, capacity 20.
  put_rule({.key = "burst", .refill_per_sec = 5, .capacity = 20,
            .credit = 20});
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
