#include "router/router_node.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <thread>

#include "../support/temp_rules.hpp"
#include "net/http.hpp"
#include "server/qos_server_node.hpp"
#include "wire/http_codec.hpp"

namespace janus::router {
namespace {

/// Full router -> QoS server fixture on loopback.
class RouterNodeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    server::QosServerConfig server_cfg;
    server_cfg.sync_interval = Duration{0};        // no background threads
    server_cfg.checkpoint_interval = Duration{0};  // in unit tests
    auto server = server::QosServerNode::start({"127.0.0.1", 0},
                                               rules_.path(), server_cfg);
    ASSERT_TRUE(server.ok()) << server.error().message;
    server_ = std::move(server).take();

    auto resolver = std::make_shared<StaticResolver>();
    resolver->add("qos-0.janus", server_->addr());

    RouterConfig router_cfg;
    router_cfg.udp.timeout = millis(50);  // generous for loopback CI
    auto router = RouterNode::start({"127.0.0.1", 0}, {"qos-0.janus"},
                                    resolver, router_cfg);
    ASSERT_TRUE(router.ok()) << router.error().message;
    router_ = std::move(router).take();
  }

  test_support::TempRules rules_{{{.key = "alice", .refill_per_sec = 0,
                                   .capacity = 5, .credit = 5}}};
  /// Shard map a test may attach to router_; declared first so it outlives
  /// the router.
  cluster::ShardMapHolder shard_map_;
  std::unique_ptr<server::QosServerNode> server_;
  std::unique_ptr<RouterNode> router_;
};

TEST_F(RouterNodeTest, AllowsWithinQuota) {
  net::HttpClient client(router_->addr());
  auto resp = client.get("/qos?key=alice");
  ASSERT_TRUE(resp.ok()) << resp.error().message;
  EXPECT_EQ(resp.value().status, 200);
  EXPECT_EQ(resp.value().body, "TRUE");
  EXPECT_EQ(resp.value().header("X-Janus-Status"), "ok");
}

TEST_F(RouterNodeTest, DeniesWhenQuotaExhausted) {
  net::HttpClient client(router_->addr());
  int allowed = 0;
  for (int i = 0; i < 8; ++i) {
    auto resp = client.get("/qos?key=alice");
    ASSERT_TRUE(resp.ok());
    if (resp.value().body == "TRUE") ++allowed;
  }
  EXPECT_EQ(allowed, 5);  // capacity 5, refill 0
}

TEST_F(RouterNodeTest, UnknownKeyDeniedByDefaultRule) {
  net::HttpClient client(router_->addr());
  auto resp = client.get("/qos?key=stranger");
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.value().body, "FALSE");
  EXPECT_EQ(resp.value().header("X-Janus-Status"), "ok");
}

TEST_F(RouterNodeTest, CostParameterConsumesMultipleCredits) {
  net::HttpClient client(router_->addr());
  auto resp = client.get("/qos?key=alice&cost=5");
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.value().body, "TRUE");
  resp = client.get("/qos?key=alice");
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.value().body, "FALSE");
}

TEST_F(RouterNodeTest, ProbeDoesNotConsume) {
  net::HttpClient client(router_->addr());
  for (int i = 0; i < 10; ++i) {
    auto resp = client.get("/qos?key=alice&probe=1");
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp.value().body, "TRUE");
  }
  auto resp = client.get("/qos?key=alice");
  EXPECT_EQ(resp.value().body, "TRUE");  // credits still there
}

TEST_F(RouterNodeTest, MalformedTargetRejectedWith400) {
  net::HttpClient client(router_->addr());
  auto resp = client.get("/qos");  // missing key
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.value().status, 400);
  EXPECT_EQ(resp.value().header("X-Janus-Status"), "malformed");
  resp = client.get("/other?key=x");
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.value().status, 400);
}

TEST_F(RouterNodeTest, CreditsHeaderExposed) {
  net::HttpClient client(router_->addr());
  auto resp = client.get("/qos?key=alice");
  ASSERT_TRUE(resp.ok());
  auto credits = resp.value().header("X-Janus-Credits");
  ASSERT_TRUE(credits.has_value());
  EXPECT_EQ(*credits, "4000");  // 4 credits left, in millicredits
}

TEST_F(RouterNodeTest, DeadBackendYieldsDefaultReply) {
  server_->stop();  // QoS server gone; router must not hang
  RouterConfig cfg;
  cfg.udp.timeout = millis(2);
  cfg.udp.max_retries = 3;
  auto resolver = std::make_shared<StaticResolver>();
  resolver->add("qos-0.janus", server_->addr());
  auto router = RouterNode::start({"127.0.0.1", 0}, {"qos-0.janus"},
                                  resolver, cfg);
  ASSERT_TRUE(router.ok());
  net::HttpClient client(router.value()->addr());
  auto resp = client.get("/qos?key=alice");
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.value().body, "FALSE");  // default deny
  EXPECT_EQ(resp.value().header("X-Janus-Status"), "default-reply");
  EXPECT_GE(router.value()->metrics().snapshot().at("router.default_replies"),
            1);
}

TEST_F(RouterNodeTest, UnconvergedStaleEpochCountsOneDefaultReply) {
  // The router's map stays at epoch 1 while the server is at epoch 2, so
  // the first attempt and its one re-route are both NACKed. The request
  // ends in exactly one default reply.
  cluster::ShardMap map;
  map.epoch = 1;
  map.members.push_back(cluster::Member{
      .name = "qos-0", .udp_addr = server_->addr(), .cluster_addr = {}});
  ASSERT_TRUE(shard_map_.publish(map));
  router_->attach_shard_map(&shard_map_);
  server_->set_cluster_epoch(2);

  net::HttpClient client(router_->addr());
  auto resp = client.get("/qos?key=alice");
  ASSERT_TRUE(resp.ok()) << resp.error().message;
  EXPECT_EQ(resp.value().body, "FALSE");
  EXPECT_EQ(resp.value().header("X-Janus-Status"), "default-reply");
  auto snap = router_->metrics().snapshot();
  EXPECT_EQ(snap.at("router.stale_epoch_reroutes"), 1);
  EXPECT_EQ(snap.at("router.default_replies"), 1);
  EXPECT_EQ(snap.at("router.forwarded"), 0);
  EXPECT_EQ(server_->stale_epoch_nacks(), 2u);
}

TEST_F(RouterNodeTest, UnresolvableBackendYields503Default) {
  auto resolver = std::make_shared<StaticResolver>();  // empty: no hosts
  auto router = RouterNode::start({"127.0.0.1", 0}, {"ghost.janus"},
                                  resolver, RouterConfig{});
  ASSERT_TRUE(router.ok());
  net::HttpClient client(router.value()->addr());
  auto resp = client.get("/qos?key=alice");
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.value().status, 503);
  EXPECT_EQ(resp.value().header("X-Janus-Status"), "default-reply");
}

TEST_F(RouterNodeTest, StartRejectsEmptyBackends) {
  auto resolver = std::make_shared<StaticResolver>();
  EXPECT_FALSE(RouterNode::start({"127.0.0.1", 0}, {}, resolver).ok());
  EXPECT_FALSE(
      RouterNode::start({"127.0.0.1", 0}, {"a"}, nullptr).ok());
}

TEST_F(RouterNodeTest, MetricsCountTraffic) {
  net::HttpClient client(router_->addr());
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(client.get("/qos?key=alice").ok());
  ASSERT_TRUE(client.get("/bad").ok());
  auto snap = router_->metrics().snapshot();
  EXPECT_EQ(snap.at("router.requests"), 4);
  EXPECT_EQ(snap.at("router.forwarded"), 3);
  EXPECT_EQ(snap.at("router.bad_requests"), 1);
}

TEST_F(RouterNodeTest, TwoServersPartitionKeys) {
  // Second server with a different rule set; keys split by CRC32 mod 2.
  test_support::TempRules rules2;
  server::QosServerConfig cfg;
  cfg.sync_interval = Duration{0};
  cfg.checkpoint_interval = Duration{0};
  auto server2 = server::QosServerNode::start({"127.0.0.1", 0}, rules2.path(),
                                              cfg);
  ASSERT_TRUE(server2.ok());

  auto resolver = std::make_shared<StaticResolver>();
  resolver->add("qos-0.janus", server_->addr());
  resolver->add("qos-1.janus", server2.value()->addr());
  RouterConfig rcfg;
  rcfg.udp.timeout = millis(50);
  auto router = RouterNode::start({"127.0.0.1", 0},
                                  {"qos-0.janus", "qos-1.janus"}, resolver,
                                  rcfg);
  ASSERT_TRUE(router.ok());

  net::HttpClient client(router.value()->addr());
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(client.get("/qos?key=k" + std::to_string(i)).ok());
  }
  // Both servers saw traffic, and each key landed deterministically.
  const auto s1 = server_->metrics().snapshot().at("server.received");
  const auto s2 = server2.value()->metrics().snapshot().at("server.received");
  EXPECT_GT(s1, 0);
  EXPECT_GT(s2, 0);
  EXPECT_GE(s1 + s2, 40);  // >= because a slow response can cause a retry
}

TEST_F(RouterNodeTest, ManyKeepAliveConnectionsEachUnderTenMs) {
  // The router's side of HttpMultiplexTest's 1,000-connection case: with
  // 256 keep-alive connections open, each request on any of them crosses
  // the UDP leg and is answered at once; an idle connection holds nothing.
  constexpr int kConnections = 256;
  constexpr int kRounds = 3;
  // Grow the fd table (client and server ends, 2 per connection) before
  // timing anything: growing it in a multi-threaded process waits out an
  // RCU grace period, tens of ms, on whichever connect needs it first.
  const int high = ::fcntl(STDERR_FILENO, F_DUPFD, 4 * kConnections);
  if (high >= 0) ::close(high);
  std::vector<db::RuleRow> rules;
  for (int c = 0; c < kConnections; ++c) {
    rules.push_back({.key = "conn" + std::to_string(c),
                     .refill_per_sec = 0,
                     .capacity = kRounds,
                     .credit = kRounds});
  }
  rules_.put_many(rules);
  server_->sync_now();
  std::vector<std::unique_ptr<net::HttpClient>> clients;
  for (int c = 0; c < kConnections; ++c) {
    clients.push_back(
        std::make_unique<net::HttpClient>(router_->addr(), seconds(5)));
  }
  for (int round = 0; round < kRounds; ++round) {
    for (int c = 0; c < kConnections; ++c) {
      const auto start = std::chrono::steady_clock::now();
      auto resp = clients[c]->get("/qos?key=conn" + std::to_string(c));
      const auto took = std::chrono::steady_clock::now() - start;
      ASSERT_TRUE(resp.ok()) << "connection " << c << " round " << round
                             << ": " << resp.error().message;
      EXPECT_EQ(resp.value().body, "TRUE")
          << "connection " << c << " round " << round;
      EXPECT_LT(took, std::chrono::milliseconds(10))
          << "connection " << c << " round " << round;
    }
  }
  EXPECT_EQ(router_->metrics().snapshot().at("router.forwarded"),
            kConnections * kRounds);
}

TEST_F(RouterNodeTest, ConcurrentRequestsGetTheirOwnVerdicts) {
  // Request-id isolation: 32 connections share the loops' UDP legs, each
  // asking for its own key. Key i holds i+1 credits (the refill is too slow
  // to matter), so a verdict delivered to the wrong pending request shows up
  // as a wrong TRUE count. The window is wide so no slow reply is retried
  // (a retry charges twice until the server dedupes).
  constexpr int kKeys = 32;
  constexpr int kRequestsPerKey = 40;
  std::vector<db::RuleRow> rules;
  for (int i = 0; i < kKeys; ++i) {
    rules.push_back({.key = "iso" + std::to_string(i),
                     .refill_per_sec = 0.001,
                     .capacity = static_cast<double>(i + 1),
                     .credit = static_cast<double>(i + 1)});
  }
  rules_.put_many(rules);
  server_->sync_now();
  auto resolver = std::make_shared<StaticResolver>();
  resolver->add("qos-0.janus", server_->addr());
  RouterConfig cfg;
  cfg.udp.timeout = seconds(2);
  auto router = RouterNode::start({"127.0.0.1", 0}, {"qos-0.janus"},
                                  resolver, cfg);
  ASSERT_TRUE(router.ok()) << router.error().message;

  std::vector<int> admitted(kKeys, 0);
  std::vector<int> answered(kKeys, 0);
  std::vector<std::thread> threads;
  for (int i = 0; i < kKeys; ++i) {
    threads.emplace_back([&, i] {
      net::HttpClient client(router.value()->addr(), seconds(10));
      for (int r = 0; r < kRequestsPerKey; ++r) {
        auto resp = client.get("/qos?key=iso" + std::to_string(i));
        if (!resp.ok() || resp.value().header("X-Janus-Status") != "ok") {
          continue;
        }
        ++answered[i];
        if (resp.value().body == "TRUE") ++admitted[i];
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int i = 0; i < kKeys; ++i) {
    EXPECT_EQ(answered[i], kRequestsPerKey) << "key iso" << i;
    EXPECT_EQ(admitted[i], i + 1) << "key iso" << i;
  }
  EXPECT_EQ(router.value()->metrics().snapshot().at("router.udp_retries"), 0);
}

}  // namespace
}  // namespace janus::router
