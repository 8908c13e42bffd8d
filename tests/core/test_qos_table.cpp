#include "core/qos_table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"

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
  table.for_each([&](std::string_view key, QosEntry&) {
    EXPECT_TRUE(seen.emplace(key).second) << "visited twice: " << key;
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
  table.for_each([&](std::string_view, QosEntry& e) {
    consumed += 1e9 - e.bucket.credit();
  });
  EXPECT_EQ(table.size(), 50u);
  EXPECT_DOUBLE_EQ(consumed, static_cast<double>(admitted.load()));
  EXPECT_EQ(admitted.load(), kThreads * kOpsPerThread);
}

TEST(ShardedQosTableTest, KeysWithTheSameStoredHashStayApart) {
  // Two keys of one length whose hashes agree in the low 32 bits, the bits
  // a node stores and its bucket comes from (found by a search over
  // "tenant-%07u"): only their bytes tell them apart.
  const std::string a = "tenant-0040541";
  const std::string b = "tenant-0041546";
  ASSERT_EQ(static_cast<std::uint32_t>(TransparentStringHash::hash_bytes(a)),
            static_cast<std::uint32_t>(TransparentStringHash::hash_bytes(b)));
  ShardedQosTable table(1);
  table.with_entry_or_create(a, [] { return make_entry(1, 0); },
                             [](QosEntry&) { return 0; });
  EXPECT_FALSE(table.contains(b));
  table.with_entry_or_create(b, [] { return make_entry(2, 0); },
                             [](QosEntry&) { return 0; });
  EXPECT_EQ(table.with_entry(a, [](QosEntry& e) { return e.capacity(); }), 1.0);
  EXPECT_EQ(table.with_entry(b, [](QosEntry& e) { return e.capacity(); }), 2.0);
  EXPECT_TRUE(table.erase(b));
  EXPECT_FALSE(table.contains(b));
  EXPECT_EQ(table.with_entry(a, [](QosEntry& e) { return e.capacity(); }), 1.0);
}

// ------------------------------------------- the table against a plain map

/// What a caller can observe of an entry.
using Fields = std::tuple<double, double, bool, std::int64_t, double>;
Fields fields(const QosEntry& e) {
  return {e.capacity(), e.refill_per_sec(), e.is_default(),
          e.bucket.millicredits(), e.bucket.capacity()};
}

using Visit = std::vector<std::pair<std::string, Fields>>;
Visit sorted(Visit v) {
  std::sort(v.begin(), v.end());
  return v;
}

/// Keys of 0, 1, 15, 16, 17, 255 and 4096 random bytes (NUL included).
std::vector<std::string> key_pool(Rng& rng) {
  std::vector<std::string> keys;
  for (std::size_t len : {0u, 1u, 15u, 16u, 17u, 255u, 4096u}) {
    const int copies = len == 0 ? 1 : len == 1 ? 40 : 60;
    for (int i = 0; i < copies; ++i) {
      std::string key(len, '\0');
      for (char& c : key) c = static_cast<char>(rng.next_below(256));
      keys.push_back(std::move(key));
    }
  }
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  return keys;
}

class QosTablePropertyTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::uint64_t>> {
};

TEST_P(QosTablePropertyTest, TableMatchesAMapOfEntries) {
  const auto [shards, seed] = GetParam();
  Rng rng(seed);
  const std::vector<std::string> keys = key_pool(rng);
  ShardedQosTable table(shards);
  std::unordered_map<std::string, QosEntry> oracle;
  TimePoint now = kTimeZero;

  auto random_entry = [&] {
    const double capacity = rng.uniform(0.0, 50.0);
    return QosEntry::make(capacity, rng.uniform(0.0, 20.0),
                          rng.uniform(-1.0, capacity + 1.0), now,
                          rng.chance(0.3));
  };
  // Charges the bucket a random cost; what the caller sees of it.
  auto charge = [&](QosEntry& e, std::uint32_t cost) {
    e.bucket.refill(now);
    const bool allowed = e.bucket.try_consume_no_refill(cost);
    return std::make_pair(allowed, fields(e));
  };
  // The live entries, the ones visits, contains, size and snapshots see.
  auto oracle_visit = [&](std::size_t shard) {
    Visit out;
    for (auto& [key, entry] : oracle) {
      if (entry.provisioned()) continue;
      if (shard == shards ||
          table.shard_index_of(TransparentStringHash::hash_bytes(key)) ==
              shard) {
        out.emplace_back(key, fields(entry));
      }
    }
    return sorted(std::move(out));
  };
  auto oracle_live = [&](const std::string& key) {
    const auto it = oracle.find(key);
    return it != oracle.end() && !it->second.provisioned();
  };

  for (int step = 0; step < 6000; ++step) {
    now += Duration{static_cast<std::int64_t>(rng.next_below(50'000'000))};
    const std::string& key = keys[rng.next_below(keys.size())];
    const auto cost = static_cast<std::uint32_t>(rng.next_below(3));
    SCOPED_TRACE(::testing::Message() << "step " << step << " key of "
                                      << key.size() << " bytes");
    switch (rng.next_below(22)) {
      case 0: case 1: case 2: case 3: case 4: case 5: {
        const QosEntry fresh = random_entry();
        bool made = false;
        const auto got = table.with_entry_or_create(
            key,
            [&] {
              made = true;
              return fresh;
            },
            [&](QosEntry& e) { return charge(e, cost); });
        const bool absent = !oracle.contains(key);
        if (absent) oracle.emplace(key, fresh);
        ASSERT_EQ(made, absent);
        ASSERT_EQ(got, charge(oracle.at(key), cost));
        break;
      }
      case 6: case 7: case 8: case 9: {
        const auto got = table.with_entry(
            key, [&](QosEntry& e) { return charge(e, cost); });
        const auto it = oracle.find(key);
        ASSERT_EQ(got.has_value(), it != oracle.end());
        if (got) {
          ASSERT_EQ(*got, charge(it->second, cost));
        }
        break;
      }
      case 10: case 11:
        ASSERT_EQ(table.contains(key), oracle_live(key));
        break;
      case 12: case 13:
        ASSERT_EQ(table.erase(key), oracle.erase(key) == 1);
        break;
      case 14: {  // a visit that also writes, as the house-keeping passes do
        const std::size_t shard = rng.next_below(shards);
        const bool demote = rng.chance(0.5);
        Visit seen;
        table.for_each_in_shard(shard, [&](std::string_view k, QosEntry& e) {
          if (demote) e.set_default(!e.is_default());
          e.bucket.refill(now);
          seen.emplace_back(std::string(k), fields(e));
        });
        for (auto& [k, entry] : oracle) {
          if (entry.provisioned() ||
              table.shard_index_of(TransparentStringHash::hash_bytes(k)) !=
                  shard) {
            continue;
          }
          if (demote) entry.set_default(!entry.is_default());
          entry.bucket.refill(now);
        }
        ASSERT_EQ(sorted(std::move(seen)), oracle_visit(shard));
        break;
      }
      case 15: {
        Visit snap;
        for (const auto& [k, e] : table.snapshot()) {
          snap.emplace_back(k, fields(e));
        }
        ASSERT_EQ(sorted(std::move(snap)), oracle_visit(shards));
        break;
      }
      case 16: {  // restore a changed copy of the state, duplicates included
        // The live entries are replaced: a default one goes, a rule's
        // turns back to provisioned; provisioned rules stay.
        std::erase_if(oracle, [](const auto& kv) {
          return !kv.second.provisioned() && kv.second.is_default();
        });
        for (auto& [k, entry] : oracle) entry.set_provisioned();
        std::vector<std::pair<std::string, QosEntry>> entries;
        for (int i = 0; i < 40; ++i) {
          const std::string& k = keys[rng.next_below(keys.size())];
          const QosEntry e = random_entry();
          entries.emplace_back(k, e);
          oracle.insert_or_assign(k, e);
        }
        table.restore(std::move(entries));
        break;
      }
      case 17: {
        ASSERT_EQ(table.size(), oracle_visit(shards).size());
        std::size_t rules = 0;
        for (const auto& [k, entry] : oracle) rules += !entry.is_default();
        ASSERT_EQ(table.rule_count(), rules);
        ASSERT_EQ(table.node_count(), oracle.size());
        break;
      }
      case 18:
        if (rng.chance(0.05)) {
          table.clear();
          oracle.clear();
        }
        break;
      case 19: {  // assign through the reference, as migration does
        const QosEntry replacement = random_entry();
        const auto got = table.with_entry(key, [&](QosEntry& e) {
          e = replacement;
          return fields(e);
        });
        const auto it = oracle.find(key);
        ASSERT_EQ(got.has_value(), it != oracle.end());
        if (got) {
          it->second = replacement;
          ASSERT_EQ(*got, fields(it->second));
        }
        break;
      }
      case 20: {  // a key migrating out
        const auto it = oracle.find(key);
        ASSERT_EQ(table.retire(key), it != oracle.end());
        if (it == oracle.end()) break;
        if (it->second.is_default()) {
          oracle.erase(it);
        } else {
          it->second.set_provisioned();
        }
        break;
      }
      case 21: {  // a rule restored from a snapshot or a WAL record
        const double capacity = rng.uniform(0.0, 50.0);
        const double rate = rng.uniform(0.0, 20.0);
        const double credit = rng.uniform(0.0, capacity);
        table.provision(key, capacity, rate, credit, now);
        oracle.insert_or_assign(
            key, QosEntry::provision(capacity, rate, credit, now));
        break;
      }
    }
  }
  ASSERT_EQ(table.size(), oracle_visit(shards).size());
  Visit all;
  table.for_each([&](std::string_view k, QosEntry& e) {
    all.emplace_back(std::string(k), fields(e));
  });
  EXPECT_EQ(sorted(std::move(all)), oracle_visit(shards));
}

INSTANTIATE_TEST_SUITE_P(
    ShardsAndSeeds, QosTablePropertyTest,
    ::testing::Combine(::testing::Values(std::size_t{1}, std::size_t{16}),
                       ::testing::Values(std::uint64_t{1}, std::uint64_t{2},
                                         std::uint64_t{0xC0FFEE})));

}  // namespace
}  // namespace janus::core
