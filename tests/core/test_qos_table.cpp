#include "core/qos_table.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>

namespace janus::core {
namespace {

QosEntry make_entry(double capacity, double rate, TimePoint now = kTimeZero) {
  return QosEntry::make(capacity, rate, capacity, now, /*is_default=*/false);
}

TEST(ShardedQosTableTest, RejectsZeroShards) {
  EXPECT_THROW(ShardedQosTable(0), std::invalid_argument);
}

TEST(ShardedQosTableTest, CreateThenLookup) {
  ShardedQosTable table(4);
  auto created = table.with_entry_or_create(
      "alice", [] { return make_entry(10, 1); },
      [](QosEntry& e) { return e.bucket.capacity(); });
  EXPECT_DOUBLE_EQ(created, 10.0);
  EXPECT_TRUE(table.contains("alice"));
  EXPECT_EQ(table.size(), 1u);

  auto credit = table.with_entry(
      "alice", [](QosEntry& e) { return e.bucket.credit(); });
  ASSERT_TRUE(credit.has_value());
  EXPECT_DOUBLE_EQ(*credit, 10.0);
}

TEST(ShardedQosTableTest, MissingKeyGivesNullopt) {
  ShardedQosTable table(4);
  auto result = table.with_entry("ghost", [](QosEntry&) { return 1; });
  EXPECT_EQ(result, std::nullopt);
  EXPECT_FALSE(table.contains("ghost"));
}

TEST(ShardedQosTableTest, FactoryCalledOnlyOnFirstTouch) {
  ShardedQosTable table(4);
  int factory_calls = 0;
  for (int i = 0; i < 5; ++i) {
    table.with_entry_or_create(
        "key",
        [&] {
          ++factory_calls;
          return make_entry(1, 1);
        },
        [](QosEntry&) { return 0; });
  }
  EXPECT_EQ(factory_calls, 1);
}

TEST(ShardedQosTableTest, EraseRemovesEntry) {
  ShardedQosTable table(4);
  table.with_entry_or_create("a", [] { return make_entry(1, 1); },
                             [](QosEntry&) { return 0; });
  EXPECT_TRUE(table.erase("a"));
  EXPECT_FALSE(table.erase("a"));
  EXPECT_EQ(table.size(), 0u);
}

TEST(ShardedQosTableTest, ClearEmptiesAllShards) {
  ShardedQosTable table(8);
  for (int i = 0; i < 100; ++i) {
    table.with_entry_or_create("k" + std::to_string(i),
                               [] { return make_entry(1, 1); },
                               [](QosEntry&) { return 0; });
  }
  table.clear();
  EXPECT_EQ(table.size(), 0u);
}

TEST(ShardedQosTableTest, ForEachVisitsEveryEntryOnce) {
  ShardedQosTable table(8);
  constexpr int kKeys = 200;
  for (int i = 0; i < kKeys; ++i) {
    table.with_entry_or_create("k" + std::to_string(i),
                               [] { return make_entry(1, 1); },
                               [](QosEntry&) { return 0; });
  }
  std::set<std::string> seen;
  table.for_each([&](const std::string& key, QosEntry&) {
    EXPECT_TRUE(seen.insert(key).second) << "visited twice: " << key;
  });
  EXPECT_EQ(seen.size(), static_cast<std::size_t>(kKeys));
}

TEST(ShardedQosTableTest, SnapshotRestoreRoundTrip) {
  ShardedQosTable table(4);
  for (int i = 0; i < 50; ++i) {
    table.with_entry_or_create(
        "k" + std::to_string(i), [i] { return make_entry(100 + i, i); },
        [](QosEntry& e) {
          e.bucket.try_consume_no_refill(10);
          return 0;
        });
  }
  auto snap = table.snapshot();
  EXPECT_EQ(snap.size(), 50u);

  ShardedQosTable replica(16);  // different shard count is fine
  replica.restore(std::move(snap));
  EXPECT_EQ(replica.size(), 50u);
  auto credit = replica.with_entry(
      "k7", [](QosEntry& e) { return e.bucket.credit(); });
  ASSERT_TRUE(credit.has_value());
  EXPECT_DOUBLE_EQ(*credit, 107.0 - 10.0);
}

TEST(ShardedQosTableTest, SingleShardMatchesPaperConfiguration) {
  // shards=1 == the paper's one synchronized hash map.
  ShardedQosTable table(1);
  for (int i = 0; i < 64; ++i) {
    table.with_entry_or_create("k" + std::to_string(i),
                               [] { return make_entry(1, 1); },
                               [](QosEntry&) { return 0; });
  }
  EXPECT_EQ(table.size(), 64u);
  EXPECT_TRUE(table.contains("k63"));
}

TEST(ShardedQosTableTest, ConcurrentMixedOperationsKeepConsistency) {
  ShardedQosTable table(16);
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 10000;
  std::atomic<std::int64_t> admitted{0};

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&table, &admitted, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        const std::string key = "k" + std::to_string((t * 31 + i) % 50);
        bool ok = table.with_entry_or_create(
            key, [] { return make_entry(1e9, 0); },
            [](QosEntry& e) { return e.bucket.try_consume_no_refill(1); });
        if (ok) admitted.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();

  // Every admission removed exactly one credit from some bucket.
  double consumed = 0;
  table.for_each([&](const std::string&, QosEntry& e) {
    consumed += 1e9 - e.bucket.credit();
  });
  EXPECT_EQ(table.size(), 50u);
  EXPECT_DOUBLE_EQ(consumed, static_cast<double>(admitted.load()));
  EXPECT_EQ(admitted.load(), kThreads * kOpsPerThread);
}

}  // namespace
}  // namespace janus::core
