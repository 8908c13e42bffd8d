// Failure-injection integration tests: QoS-server master/slave failover via
// DNS health checks (§III-C), database master/standby promotion (§III-D),
// and replacement-server warm-up from check-points (§II-D). Every server
// loads its rules from a file into its own table; none shares rules with
// another.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <string>
#include <vector>

#include "../support/temp_rules.hpp"
#include "db/rule_store.hpp"
#include "lb/dns_balancer.hpp"
#include "router/router_node.hpp"
#include "server/ha.hpp"
#include "server/qos_server_node.hpp"

namespace janus {
namespace {

server::QosServerConfig quiet_server_config() {
  server::QosServerConfig cfg;
  cfg.sync_interval = Duration{0};
  cfg.checkpoint_interval = Duration{0};
  return cfg;
}

/// Resolver that consults the DNS balancer live (no client cache) so a
/// failover is visible on the next request — the effect of TTL expiry.
class LiveDnsResolver final : public router::Resolver {
 public:
  explicit LiveDnsResolver(lb::DnsBalancer& dns) : dns_(dns) {}
  Result<net::SockAddr> resolve(const std::string& name) override {
    auto answer = dns_.query(name);
    if (!answer.ok()) return Error(answer.error().message);
    if (answer.value().addrs.empty()) return Error("empty answer");
    return answer.value().addrs.front();
  }

 private:
  lb::DnsBalancer& dns_;
};

TEST(FailoverTest, QosServerMasterSlaveFailover) {
  // Master and slave each load the same rules file.
  test_support::TempRules rules({{.key = "alice", .refill_per_sec = 0,
                                  .capacity = 10, .credit = 10}});
  auto master = server::QosServerNode::start({"127.0.0.1", 0}, rules.path(),
                                             quiet_server_config());
  ASSERT_TRUE(master.ok());
  auto slave = server::QosServerNode::start({"127.0.0.1", 0}, rules.path(),
                                            quiet_server_config());
  ASSERT_TRUE(slave.ok());

  // Slave replicates the master's local table over TCP (§III-C).
  auto ha = server::HaSnapshotServer::start({"127.0.0.1", 0},
                                            master.value()->admission());
  ASSERT_TRUE(ha.ok());

  // DNS failover record: resolves to the master while healthy.
  lb::DnsBalancer dns;
  dns.set_failover_record("qos-0.janus", master.value()->addr(),
                          slave.value()->addr());
  auto resolver = std::make_shared<LiveDnsResolver>(dns);
  router::RouterConfig rcfg;
  rcfg.udp.timeout = millis(50);
  auto router = router::RouterNode::start({"127.0.0.1", 0}, {"qos-0.janus"},
                                          resolver, rcfg);
  ASSERT_TRUE(router.ok());

  // Consume 4 credits through the master.
  net::HttpClient client(router.value()->addr());
  for (int i = 0; i < 4; ++i) {
    auto resp = client.get("/qos?key=alice");
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp.value().body, "TRUE");
  }

  // Replicate, then kill the master.
  server::HaReplicaClient replica(ha.value()->addr(),
                                  slave.value()->admission(),
                                  SteadyClock::instance(), seconds(3600));
  ASSERT_TRUE(replica.replicate_once().ok());
  replica.stop();
  master.value()->stop();

  // Health checks flip the DNS record to the slave.
  auto probe = [&](const net::SockAddr& addr) {
    return addr == slave.value()->addr();  // master unreachable
  };
  for (int i = 0; i < 3; ++i) dns.run_health_checks(probe, 3);
  ASSERT_TRUE(dns.failed_over("qos-0.janus"));

  // The promoted slave continues from the replicated water level:
  // 6 credits remain.
  int allowed = 0;
  for (int i = 0; i < 10; ++i) {
    auto resp = client.get("/qos?key=alice");
    ASSERT_TRUE(resp.ok());
    if (resp.value().body == "TRUE") ++allowed;
  }
  EXPECT_EQ(allowed, 6);
}

TEST(FailoverTest, ReplacementServerWarmsFromCheckpoint) {
  // §II-D: without HA, a replacement server starts each bucket at its last
  // check-pointed credit: it restores the WAL the original logged to, then
  // loads the same rules file over it.
  test_support::TempRules rules({{.key = "alice", .refill_per_sec = 0,
                                  .capacity = 10, .credit = 10}});
  const std::string wal = ::testing::TempDir() + "janus_replacement_" +
                          std::to_string(::getpid()) + ".wal";
  std::remove(wal.c_str());
  server::QosServerConfig cfg = quiet_server_config();
  cfg.wal_path = wal;

  auto original =
      server::QosServerNode::start({"127.0.0.1", 0}, rules.path(), cfg);
  ASSERT_TRUE(original.ok());
  auto resolver = std::make_shared<router::StaticResolver>();
  resolver->add("qos-0.janus", original.value()->addr());
  router::RouterConfig rcfg;
  rcfg.udp.timeout = millis(50);
  auto router = router::RouterNode::start({"127.0.0.1", 0}, {"qos-0.janus"},
                                          resolver, rcfg);
  ASSERT_TRUE(router.ok());

  net::HttpClient client(router.value()->addr());
  for (int i = 0; i < 7; ++i) {
    ASSERT_TRUE(client.get("/qos?key=alice").ok());
  }
  original.value()->checkpoint_now();  // credit 3 persisted
  original.value()->stop();

  // Replacement takes over the same DNS name (new address).
  auto replacement =
      server::QosServerNode::start({"127.0.0.1", 0}, rules.path(), cfg);
  ASSERT_TRUE(replacement.ok());
  auto resolver2 = std::make_shared<router::StaticResolver>();
  resolver2->add("qos-0.janus", replacement.value()->addr());
  auto router2 = router::RouterNode::start({"127.0.0.1", 0}, {"qos-0.janus"},
                                           resolver2, rcfg);
  ASSERT_TRUE(router2.ok());

  net::HttpClient client2(router2.value()->addr());
  int allowed = 0;
  for (int i = 0; i < 6; ++i) {
    auto resp = client2.get("/qos?key=alice");
    ASSERT_TRUE(resp.ok());
    if (resp.value().body == "TRUE") ++allowed;
  }
  EXPECT_EQ(allowed, 3);  // exactly the check-pointed credits
  replacement.value()->stop();
  std::remove(wal.c_str());
}

TEST(FailoverTest, DatabasePromotionKeepsRulesAvailable) {
  // §III-D: RDS Multi-AZ master/standby. The standby is promoted by
  // recovering the master's snapshot, then the WAL written since.
  const std::string base = ::testing::TempDir() + "janus_promote_" +
                           std::to_string(::getpid());
  const std::string wal = base + ".wal";
  const std::string snapshot = base + ".snap";
  std::remove(wal.c_str());
  {
    db::Database master;
    db::RuleStore master_store(master);
    ASSERT_TRUE(master.enable_wal(wal).ok());
    ASSERT_TRUE(master_store.put({.key = "alice", .refill_per_sec = 50,
                                  .capacity = 500, .credit = 500}).ok());
    ASSERT_TRUE(master.compact_wal(snapshot).ok());
    ASSERT_TRUE(master_store.put({.key = "bob", .refill_per_sec = 5,
                                  .capacity = 50, .credit = 50}).ok());
  }  // the master dies

  db::Database standby;
  db::RuleStore standby_store(standby);
  ASSERT_TRUE(standby.load_snapshot(snapshot).ok());
  ASSERT_TRUE(standby.recover(wal).ok());
  auto rule = standby_store.get("alice");
  ASSERT_TRUE(rule.has_value());
  EXPECT_DOUBLE_EQ(rule->capacity, 500.0);

  // A QoS server restoring the same files works immediately: its table
  // reads the database's snapshot and WAL formats.
  test_support::TempRules no_rules;
  server::QosServerConfig cfg = quiet_server_config();
  cfg.snapshot_path = snapshot;
  cfg.wal_path = wal;
  auto server =
      server::QosServerNode::start({"127.0.0.1", 0}, no_rules.path(), cfg);
  ASSERT_TRUE(server.ok());
  auto resolver = std::make_shared<router::StaticResolver>();
  resolver->add("qos-0.janus", server.value()->addr());
  router::RouterConfig rcfg;
  rcfg.udp.timeout = millis(50);
  auto router = router::RouterNode::start({"127.0.0.1", 0}, {"qos-0.janus"},
                                          resolver, rcfg);
  ASSERT_TRUE(router.ok());
  net::HttpClient client(router.value()->addr());
  for (const char* key : {"alice", "bob"}) {
    auto resp = client.get(std::string("/qos?key=") + key);
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp.value().body, "TRUE") << key;
  }
  EXPECT_EQ(server.value()->rule_count(), 2u);
  server.value()->stop();
  std::remove(wal.c_str());
  std::remove(snapshot.c_str());
}

TEST(FailoverTest, LocalizedServerFailureDoesNotAffectOtherPartitions) {
  // §II-D: "a failed QoS server is a localized failure."
  std::vector<db::RuleRow> keys;
  for (int i = 0; i < 50; ++i) {
    keys.push_back({.key = "k" + std::to_string(i), .refill_per_sec = 0,
                    .capacity = 100, .credit = 100});
  }
  test_support::TempRules rules(keys);

  auto s0 = server::QosServerNode::start({"127.0.0.1", 0}, rules.path(),
                                         quiet_server_config());
  auto s1 = server::QosServerNode::start({"127.0.0.1", 0}, rules.path(),
                                         quiet_server_config());
  ASSERT_TRUE(s0.ok() && s1.ok());
  auto resolver = std::make_shared<router::StaticResolver>();
  resolver->add("qos-0.janus", s0.value()->addr());
  resolver->add("qos-1.janus", s1.value()->addr());
  router::RouterConfig rcfg;
  rcfg.udp.timeout = millis(5);
  rcfg.udp.max_retries = 2;
  auto router = router::RouterNode::start(
      {"127.0.0.1", 0}, {"qos-0.janus", "qos-1.janus"}, resolver, rcfg);
  ASSERT_TRUE(router.ok());

  s0.value()->stop();  // kill partition 0

  core::KeyRouter partitioner(2);
  net::HttpClient client(router.value()->addr());
  int live_ok = 0, live_total = 0, dead_defaults = 0, dead_total = 0;
  for (int i = 0; i < 50; ++i) {
    const std::string key = "k" + std::to_string(i);
    auto resp = client.get("/qos?key=" + key);
    ASSERT_TRUE(resp.ok());
    if (partitioner.index_for(key) == 1) {
      ++live_total;
      if (resp.value().body == "TRUE" &&
          resp.value().header("X-Janus-Status") == "ok") {
        ++live_ok;
      }
    } else {
      ++dead_total;
      if (resp.value().header("X-Janus-Status") == "default-reply") {
        ++dead_defaults;
      }
    }
  }
  EXPECT_GT(live_total, 0);
  EXPECT_GT(dead_total, 0);
  EXPECT_EQ(live_ok, live_total);        // healthy partition unaffected
  EXPECT_EQ(dead_defaults, dead_total);  // dead partition degrades to default
}

}  // namespace
}  // namespace janus
