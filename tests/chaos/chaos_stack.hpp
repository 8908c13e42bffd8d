// Shared mini-deployment for the chaos suite: rules file -> QoS server ->
// request router -> gateway balancer on real sockets, with every fault
// point disarmed before and after each test so no schedule leaks across
// cases. Kept to one node per layer so per-layer counters are exact.
#pragma once

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "../support/temp_rules.hpp"
#include "cluster/shard_map.hpp"
#include "lb/gateway_balancer.hpp"
#include "router/router_node.hpp"
#include "server/qos_server_node.hpp"
#include "../server/server_model.hpp"
#include "testing/fault_injector.hpp"

namespace janus::chaos {

/// How the stack routes to its QoS server. kCluster runs the same pipeline
/// through the epoch-stamped v3 path: a one-member shard map attached to
/// the router, the server flipped to epoch 1 — so every chaos invariant is
/// also proven with the cluster epoch gate in the hot path (DESIGN.md §11).
enum class Topology { kSingleProcess, kCluster };

/// Variants of the QoS server's one execution model (DESIGN.md §9.1).
using server::ServerModel;

class ChaosStackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    testing::FaultInjector::instance().disarm_all();

    server::QosServerConfig scfg;
    scfg.sync_interval = Duration{0};
    scfg.checkpoint_interval = Duration{0};
    auto server = server::start_in_model(server_model_, {"127.0.0.1", 0},
                                         rules_.path(), scfg);
    ASSERT_TRUE(server.ok()) << server.error().message;
    server_ = std::move(server).take();

    auto resolver = std::make_shared<router::StaticResolver>();
    resolver->add("qos-0.janus", server_->addr());
    router::RouterConfig rcfg;
    rcfg.udp.timeout = millis(10);
    rcfg.udp.max_retries = 5;
    auto router = router::RouterNode::start({"127.0.0.1", 0}, {"qos-0.janus"},
                                            resolver, rcfg);
    ASSERT_TRUE(router.ok()) << router.error().message;
    router_ = std::move(router).take();

    if (topology_ == Topology::kCluster) {
      cluster::ShardMap map;
      map.epoch = 1;
      map.members.push_back(cluster::Member{.name = "qos-0",
                                            .udp_addr = server_->addr(),
                                            .cluster_addr = {}});
      ASSERT_TRUE(holder_.publish(map));
      router_->attach_shard_map(&holder_);
      server_->set_cluster_epoch(1);
    }

    lb::GatewayConfig gcfg;
    gcfg.policy = gateway_policy_;
    gcfg.prequal.probe_interval = millis(5);
    auto gateway =
        lb::GatewayBalancer::start({"127.0.0.1", 0}, {router_->addr()}, gcfg);
    ASSERT_TRUE(gateway.ok()) << gateway.error().message;
    gateway_ = std::move(gateway).take();
  }

  void TearDown() override {
    // A leaked armed point would silently reshape every later test in this
    // binary; disarm first, then let members tear the stack down in reverse
    // declaration order.
    testing::FaultInjector::instance().disarm_all();
  }

  /// Give `key` a rule in the server's rules file, and reload it.
  void provision(const std::string& key, double capacity) {
    rules_.put({.key = key, .refill_per_sec = 0, .capacity = capacity,
                .credit = capacity});
    server_->sync_now();
  }

  /// GET /qos?key=... against `addr`; returns the body ("TRUE"/"FALSE").
  std::string ask(const net::SockAddr& addr, const std::string& key) {
    net::HttpClient client(addr, millis(5000));
    auto resp = client.get("/qos?key=" + key);
    EXPECT_TRUE(resp.ok()) << (resp.ok() ? "" : resp.error().message);
    return resp.ok() ? resp.value().body : std::string();
  }

  /// Execution-model variant. Subclasses set this before
  /// ChaosStackTest::SetUp() runs (it is baked into the server at start).
  ServerModel server_model_ = ServerModel::kSharedQueue;
  /// Routing topology; subclasses set before SetUp(), like server_model_.
  Topology topology_ = Topology::kSingleProcess;
  /// Gateway routing policy; subclasses set before SetUp(). Every chaos
  /// invariant — including PR 2's per-request fault semantics — must hold
  /// under RR, least-connections, and Prequal alike (DESIGN.md §14).
  lb::RoutingPolicy gateway_policy_ = lb::RoutingPolicy::kRoundRobin;
  cluster::ShardMapHolder holder_;

  test_support::TempRules rules_;
  std::unique_ptr<server::QosServerNode> server_;
  std::unique_ptr<router::RouterNode> router_;
  std::unique_ptr<lb::GatewayBalancer> gateway_;
};

}  // namespace janus::chaos
