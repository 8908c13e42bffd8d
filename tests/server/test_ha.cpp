#include "server/ha.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "../support/temp_rules.hpp"
#include "core/table_rules.hpp"
#include "db/serialize.hpp"

namespace janus::server {
namespace {

/// A master and a replica, each loading the same rules file into its own
/// table, as two janusd servers do.
class HaTest : public ::testing::Test {
 protected:
  HaTest()
      : master_(clock_, core::AdmissionConfig{}),
        slave_(clock_, core::AdmissionConfig{}),
        master_rules_(master_.table(), clock_),
        slave_rules_(slave_.table(), clock_) {}

  /// Give `key` a rule in the file, and load the file into both tables.
  void provision(const std::string& key, double capacity, double rate) {
    rules_.put({.key = key, .refill_per_sec = rate, .capacity = capacity,
                .credit = capacity});
    ASSERT_TRUE(master_rules_.load(rules_.path()).ok());
    ASSERT_TRUE(slave_rules_.load(rules_.path()).ok());
  }

  ManualClock clock_;
  test_support::TempRules rules_;
  core::AdmissionController master_;
  core::AdmissionController slave_;
  core::TableRules master_rules_;
  core::TableRules slave_rules_;
};

TEST_F(HaTest, SerializeRestoreRoundTrip) {
  provision("alice", 100, 10);
  provision("bob", 50, 5);
  master_.check("alice");
  master_.check("alice");
  master_.check("bob");
  master_.check("unknown");  // default entry replicates too

  auto bytes = serialize_table(master_.table());
  auto restored = restore_table(slave_.table(), bytes, clock_.now());
  ASSERT_TRUE(restored.ok()) << restored.error().message;
  EXPECT_EQ(restored.value(), 3u);
  EXPECT_EQ(slave_.table_size(), 3u);

  // The slave continues from the master's water levels.
  auto credit = slave_.table().with_entry(
      "alice", [](core::QosEntry& e) { return e.bucket.credit(); });
  ASSERT_TRUE(credit.has_value());
  EXPECT_DOUBLE_EQ(*credit, 98.0);

  auto is_default = slave_.table().with_entry(
      "unknown", [](core::QosEntry& e) { return e.is_default(); });
  ASSERT_TRUE(is_default.has_value());
  EXPECT_TRUE(*is_default);
}

TEST_F(HaTest, RestoreRejectsCorruptSnapshots) {
  provision("alice", 100, 10);
  master_.check("alice");
  auto bytes = serialize_table(master_.table());

  // Bad magic.
  auto corrupt = bytes;
  corrupt[0] ^= 0xFF;
  EXPECT_FALSE(restore_table(slave_.table(), corrupt, clock_.now()).ok());

  // Truncation at every boundary.
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(restore_table(slave_.table(),
                               std::span(bytes.data(), len), clock_.now())
                     .ok());
  }

  // Trailing garbage.
  auto extended = bytes;
  extended.push_back(0xAA);
  EXPECT_FALSE(restore_table(slave_.table(), extended, clock_.now()).ok());
}

TEST_F(HaTest, RestoreRefusesRowsNoBucketCanHold) {
  // A row a good snapshot never holds: refused as a whole, nothing thrown,
  // nothing installed.
  provision("alice", 100, 10);
  master_.check("alice");
  ASSERT_TRUE(restore_table(slave_.table(), serialize_table(master_.table()),
                            clock_.now())
                  .ok());
  ASSERT_EQ(slave_.table_size(), 1u);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double rows[][3] = {{10, nan, 5}, {nan, 1, 5},  {10, 1, -nan},
                            {inf, 1, 5},  {10, -inf, 5}, {-1, 1, 0},
                            {10, -1, 5}};
  for (const auto& row : rows) {
    db::ByteWriter w;
    w.u32(0x4A534E50);  // "JSNP"
    w.u32(2);
    w.str("good");
    w.f64(10);
    w.f64(1);
    w.f64(5);
    w.u8(0);
    w.str("bad");
    w.f64(row[0]);
    w.f64(row[1]);
    w.f64(row[2]);
    w.u8(0);
    auto restored = restore_table(slave_.table(), w.take(), clock_.now());
    ASSERT_FALSE(restored.ok()) << row[0] << " " << row[1] << " " << row[2];
    EXPECT_EQ(restored.error().message, "snapshot: bad entry value");
  }
  // The last good restore stands.
  EXPECT_EQ(slave_.table_size(), 1u);
  EXPECT_TRUE(slave_.table().contains("alice"));
}

TEST_F(HaTest, EmptyTableRoundTrips) {
  auto bytes = serialize_table(master_.table());
  auto restored = restore_table(slave_.table(), bytes, clock_.now());
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored.value(), 0u);
  EXPECT_EQ(slave_.table_size(), 0u);
}

TEST_F(HaTest, SnapshotServerServesOverTcp) {
  provision("alice", 100, 10);
  master_.check("alice");

  auto ha_server = HaSnapshotServer::start({"127.0.0.1", 0}, master_);
  ASSERT_TRUE(ha_server.ok()) << ha_server.error().message;

  HaReplicaClient replica(ha_server.value()->addr(), slave_, clock_,
                          seconds(3600));
  auto n = replica.replicate_once();
  ASSERT_TRUE(n.ok()) << n.error().message;
  EXPECT_EQ(n.value(), 1u);
  EXPECT_EQ(ha_server.value()->snapshots_served(), 1u);

  auto credit = slave_.table().with_entry(
      "alice", [](core::QosEntry& e) { return e.bucket.credit(); });
  ASSERT_TRUE(credit.has_value());
  EXPECT_DOUBLE_EQ(*credit, 99.0);
  replica.stop();
}

TEST_F(HaTest, ReplicaTracksMasterAcrossRounds) {
  provision("alice", 100, 0);
  auto ha_server = HaSnapshotServer::start({"127.0.0.1", 0}, master_);
  ASSERT_TRUE(ha_server.ok());
  HaReplicaClient replica(ha_server.value()->addr(), slave_, clock_,
                          seconds(3600));

  master_.check("alice");
  ASSERT_TRUE(replica.replicate_once().ok());
  auto credit1 = slave_.table().with_entry(
      "alice", [](core::QosEntry& e) { return e.bucket.credit(); });
  EXPECT_DOUBLE_EQ(*credit1, 99.0);

  master_.check("alice");
  master_.check("alice");
  ASSERT_TRUE(replica.replicate_once().ok());
  auto credit2 = slave_.table().with_entry(
      "alice", [](core::QosEntry& e) { return e.bucket.credit(); });
  EXPECT_DOUBLE_EQ(*credit2, 97.0);
  replica.stop();
}

TEST_F(HaTest, ReplicaReportsUnreachableMaster) {
  // Find a dead port.
  std::uint16_t port;
  {
    auto temp = net::TcpListener::listen({"127.0.0.1", 0});
    ASSERT_TRUE(temp.ok());
    port = temp.value().local_addr().value().port;
  }
  HaReplicaClient replica({"127.0.0.1", port}, slave_, clock_, seconds(3600));
  EXPECT_FALSE(replica.replicate_once().ok());
  replica.stop();
}

TEST_F(HaTest, PromotedSlaveServesDecisionsFromReplicatedState) {
  // The failover scenario of §III-C: the slave has an up-to-date table and
  // continues admission with minimum interruption.
  provision("alice", 3, 0);
  master_.check("alice");  // 2 credits left

  auto bytes = serialize_table(master_.table());
  ASSERT_TRUE(restore_table(slave_.table(), bytes, clock_.now()).ok());

  // Master dies; slave (new master) picks up exactly where it left off.
  EXPECT_TRUE(slave_.check("alice").allowed);
  EXPECT_TRUE(slave_.check("alice").allowed);
  EXPECT_FALSE(slave_.check("alice").allowed);
}

TEST_F(HaTest, SlimEntriesRoundTripExactly) {
  // Capacity and rate with more decimals than the bucket's millicredits
  // hold, a spent bucket and a default entry: every field a QosEntry keeps
  // must come back as it left.
  provision("fine", 12.34567, 0.123456);
  provision("spent", 5, 0.5);
  master_.check("fine");
  for (int i = 0; i < 5; ++i) master_.check("spent");
  master_.check("unknown");

  auto bytes = serialize_table(master_.table());
  ASSERT_TRUE(restore_table(slave_.table(), bytes, clock_.now()).ok());
  ASSERT_EQ(slave_.table_size(), 3u);
  master_.table().for_each([&](std::string_view key, core::QosEntry& e) {
    auto same = slave_.table().with_entry(key, [&](core::QosEntry& r) {
      EXPECT_EQ(r.capacity(), e.capacity()) << key;
      EXPECT_EQ(r.refill_per_sec(), e.refill_per_sec()) << key;
      EXPECT_EQ(r.is_default(), e.is_default()) << key;
      EXPECT_EQ(r.bucket.millicredits(), e.bucket.millicredits()) << key;
      EXPECT_EQ(r.bucket.capacity(), e.bucket.capacity()) << key;
      return true;
    });
    EXPECT_TRUE(same.has_value()) << key << " missing on the slave";
  });
  // Loading the file again on the slave changes no rule: the exact rule
  // survived.
  auto reloaded = slave_rules_.load(rules_.path());
  ASSERT_TRUE(reloaded.ok());
  EXPECT_EQ(reloaded.value(), 0u);
}

TEST_F(HaTest, ReplicaKeepsItsRulesForKeysTheMasterNeverTouched) {
  // The master ships its live entries only; the replica's restore replaces
  // its live entries and keeps its own loaded rules, so after a failover a
  // key the master never touched is decided by its file rule, not by the
  // default rule (deny-all here).
  provision("alice", 100, 0);
  provision("bob", 2, 0);
  master_.check("alice");
  master_.check("unknown");
  slave_.check("bob");  // a replica's own live entry is replaced

  const auto bytes = serialize_table(master_.table());
  auto restored = restore_table(slave_.table(), bytes, clock_.now());
  ASSERT_TRUE(restored.ok()) << restored.error().message;
  EXPECT_EQ(restored.value(), master_.table_size());
  EXPECT_EQ(restored.value(), 2u);
  EXPECT_FALSE(slave_.table().contains("bob"));
  EXPECT_EQ(slave_.table().rule_count(), 2u);

  const auto bob = slave_.check("bob");
  EXPECT_TRUE(bob.allowed);
  EXPECT_EQ(bob.origin, core::Decision::Origin::kFetched);
  EXPECT_EQ(bob.remaining_millicredits, 0);  // the replica's spent credit
  const auto alice = slave_.check("alice");
  EXPECT_TRUE(alice.allowed);
  EXPECT_EQ(alice.remaining_millicredits, 98'000);
}

}  // namespace
}  // namespace janus::server
