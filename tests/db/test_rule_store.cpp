#include "db/rule_store.hpp"

#include <gtest/gtest.h>

#include <limits>

#include <unistd.h>

#include <cstdio>
#include <string>

#include "db/serialize.hpp"

namespace janus::db {
namespace {

RuleRow sample_rule() {
  return RuleRow{
      .key = "alice", .refill_per_sec = 100.0, .capacity = 1000.0,
      .credit = 1000.0};
}

TEST(RuleStoreTest, ReusesExistingTable) {
  Database db;
  RuleStore first(db);
  ASSERT_TRUE(first.put(sample_rule()).ok());
  RuleStore second(db);  // the same rules, not a second table
  EXPECT_EQ(second.size(), 1u);
}

TEST(RuleStoreTest, PutGetRoundTrip) {
  Database db;
  RuleStore store(db);
  const RuleRow rule = sample_rule();
  ASSERT_TRUE(store.put(rule).ok());
  auto got = store.get("alice");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, rule);
}

TEST(RuleStoreTest, GetMissingKeyIsEmpty) {
  Database db;
  RuleStore store(db);
  EXPECT_EQ(store.get("ghost"), std::nullopt);
}

TEST(RuleStoreTest, PutValidatesRule) {
  Database db;
  RuleStore store(db);
  RuleRow bad = sample_rule();
  bad.key.clear();
  EXPECT_FALSE(store.put(bad).ok());
  bad = sample_rule();
  bad.capacity = -1;
  EXPECT_FALSE(store.put(bad).ok());
  bad = sample_rule();
  bad.refill_per_sec = -5;
  EXPECT_FALSE(store.put(bad).ok());
  bad = sample_rule();
  bad.credit = bad.capacity + 1;  // credit beyond capacity
  EXPECT_FALSE(store.put(bad).ok());
  bad = sample_rule();
  bad.credit = -0.5;
  EXPECT_FALSE(store.put(bad).ok());
  // NaN passes `x < 0`, so these used to load.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double value : {nan, -nan, inf, -inf}) {
    for (double RuleRow::*field :
         {&RuleRow::refill_per_sec, &RuleRow::capacity, &RuleRow::credit}) {
      bad = sample_rule();
      bad.*field = value;
      const Status s = store.put(bad);
      ASSERT_FALSE(s.ok()) << value;
      EXPECT_EQ(s.error().message,
                "rule: refill rate, capacity and credit must be finite");
    }
  }
  EXPECT_EQ(store.size(), 0u);
}

TEST(RuleStoreTest, ZeroRuleIsValidDenyAll) {
  Database db;
  RuleStore store(db);
  // "zero capacity and zero refill rate to deny access" (§II-D).
  RuleRow deny{.key = "blocked", .refill_per_sec = 0, .capacity = 0,
               .credit = 0};
  EXPECT_TRUE(store.put(deny).ok());
  EXPECT_EQ(store.get("blocked")->capacity, 0.0);
}

TEST(RuleStoreTest, PutOverwrites) {
  Database db;
  RuleStore store(db);
  ASSERT_TRUE(store.put(sample_rule()).ok());
  RuleRow updated = sample_rule();
  updated.refill_per_sec = 500.0;
  ASSERT_TRUE(store.put(updated).ok());
  EXPECT_EQ(store.size(), 1u);
  EXPECT_DOUBLE_EQ(store.get("alice")->refill_per_sec, 500.0);
}

TEST(RuleStoreTest, CheckpointCreditUpdatesOnlyCredit) {
  Database db;
  RuleStore store(db);
  ASSERT_TRUE(store.put(sample_rule()).ok());
  ASSERT_TRUE(store.checkpoint_credit("alice", 123.5).ok());
  auto got = store.get("alice");
  ASSERT_TRUE(got.has_value());
  EXPECT_DOUBLE_EQ(got->credit, 123.5);
  EXPECT_DOUBLE_EQ(got->capacity, 1000.0);
  EXPECT_DOUBLE_EQ(got->refill_per_sec, 100.0);
}

TEST(RuleStoreTest, CheckpointMissingKeyFails) {
  Database db;
  RuleStore store(db);
  EXPECT_FALSE(store.checkpoint_credit("ghost", 1.0).ok());
}

TEST(RuleStoreTest, RemoveReportsExistence) {
  Database db;
  RuleStore store(db);
  ASSERT_TRUE(store.put(sample_rule()).ok());
  EXPECT_TRUE(store.remove("alice"));
  EXPECT_FALSE(store.remove("alice"));
  EXPECT_EQ(store.get("alice"), std::nullopt);
}

TEST(RuleStoreTest, ScanVisitsEveryRule) {
  Database db;
  RuleStore store(db);
  for (int i = 0; i < 30; ++i) {
    RuleRow r = sample_rule();
    r.key = "k" + std::to_string(i);
    r.refill_per_sec = i;
    r.credit = 0;
    ASSERT_TRUE(store.put(r).ok());
  }
  double rate_sum = 0;
  store.scan([&](const RuleRow& r) { rate_sum += r.refill_per_sec; });
  EXPECT_DOUBLE_EQ(rate_sum, 29.0 * 30 / 2);
}

TEST(RuleStoreTest, ReserveKeepsALoadFromRehashing) {
  constexpr std::size_t kRules = 100'000;
  Database db;
  RuleStore store(db);
  store.reserve(kRules);
  const Table& table = db.table();
  const std::size_t buckets = table.bucket_count();
  std::vector<RuleRow> chunk;
  for (std::size_t i = 0; i < kRules; ++i) {
    chunk.push_back({.key = std::to_string(1'500'000'000 + i),
                     .refill_per_sec = 1.0, .capacity = 2.0, .credit = 2.0});
    if (chunk.size() == Database::kWriteChunkRows || i + 1 == kRules) {
      ASSERT_TRUE(store.put_many(chunk).ok());
      chunk.clear();
    }
  }
  EXPECT_EQ(store.size(), kRules);
  EXPECT_EQ(table.bucket_count(), buckets);
}

TEST(RuleStoreTest, SchemaMatchesPaperColumns) {
  // §III-D: "four columns — the QoS key, the refill rate, the capacity of
  // the leaky bucket, and the remaining credit in the bucket." A rule is
  // stored as that row, in that order: a string, then three doubles.
  ByteWriter w;
  w.rule(sample_rule().view());
  ByteReader r(w.bytes());
  std::uint32_t columns = 0;
  std::uint8_t tag = 0;
  std::string key;
  ASSERT_TRUE(r.u32(columns));
  EXPECT_EQ(columns, 4u);
  ASSERT_TRUE(r.u8(tag) && r.str(key));
  EXPECT_EQ(tag, 2);  // a string
  EXPECT_EQ(key, "alice");
  for (const double expected : {100.0, 1000.0, 1000.0}) {
    double value = 0;
    ASSERT_TRUE(r.u8(tag) && r.f64(value));
    EXPECT_EQ(tag, 1);  // a double
    EXPECT_EQ(value, expected);
  }
  EXPECT_TRUE(r.at_end());
}

TEST(RuleStoreTest, WorksThroughReplicatedDatabase) {
  // A standby takes over by recovering the master's snapshot and WAL.
  const std::string base = ::testing::TempDir() + "janus_rule_store_" +
                           std::to_string(::getpid());
  const std::string wal = base + ".wal";
  const std::string snapshot = base + ".snap";
  std::remove(wal.c_str());
  Database master;
  RuleStore master_store(master);
  ASSERT_TRUE(master.enable_wal(wal).ok());
  ASSERT_TRUE(master_store.put(sample_rule()).ok());
  ASSERT_TRUE(master.compact_wal(snapshot).ok());
  ASSERT_TRUE(master_store.checkpoint_credit("alice", 5.0).ok());

  Database standby;
  RuleStore standby_store(standby);
  ASSERT_TRUE(standby.load_snapshot(snapshot).ok());
  ASSERT_TRUE(standby.recover(wal).ok());
  RuleRow expected = sample_rule();
  expected.credit = 5.0;
  EXPECT_EQ(standby_store.get("alice"), expected);
  std::remove(wal.c_str());
  std::remove(snapshot.c_str());
}

}  // namespace
}  // namespace janus::db
