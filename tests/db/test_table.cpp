#include "db/table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

namespace janus::db {
namespace {

RuleRow rule(const std::string& key, double rate, double capacity,
             double credit) {
  return RuleRow{.key = key, .refill_per_sec = rate, .capacity = capacity,
                 .credit = credit};
}

void put(Table& t, const RuleRow& r) {
  const PackedRow row(r.view());
  t.put(std::span(&row, 1), [](const RuleView&) {});
}

std::optional<RuleRow> get(const Table& t, std::string_view key) {
  std::optional<RuleRow> out;
  t.read(key, [&](const RuleView& r) {
    out = rule(std::string(r.key), r.refill_per_sec, r.capacity, r.credit);
  });
  return out;
}

std::size_t write_credit(Table& t, std::string_view key, double credit) {
  const CreditWrite w{key, credit};
  return t.write_credits(std::span(&w, 1), [](const RuleView&) {});
}

TEST(TableTest, InsertAndGet) {
  Table t;
  put(t, rule("a", 1.5, 10, 4));
  EXPECT_EQ(get(t, "a"), rule("a", 1.5, 10, 4));
  EXPECT_EQ(get(t, "missing"), std::nullopt);
}

TEST(TableTest, UpsertOverwrites) {
  Table t;
  put(t, rule("a", 1.0, 1, 1));
  put(t, rule("a", 2.0, 2, 2));
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(get(t, "a"), rule("a", 2.0, 2, 2));
}

TEST(TableTest, UpdateColumn) {
  Table t;
  put(t, rule("a", 1.0, 10, 10));
  EXPECT_EQ(write_credit(t, "a", 9.5), 1u);
  EXPECT_EQ(get(t, "a"), rule("a", 1.0, 10, 9.5));  // only the credit moved
}

TEST(TableTest, UpdateColumnErrors) {
  // The one credit write that cannot be made, to a key with no rule, is
  // skipped and creates none.
  Table t;
  put(t, rule("a", 1.0, 10, 1));
  EXPECT_EQ(write_credit(t, "missing", 2.0), 0u);
  EXPECT_EQ(get(t, "missing"), std::nullopt);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(get(t, "a"), rule("a", 1.0, 10, 1));
}

TEST(TableTest, CreditWritesSkipUnchangedCredits) {
  Table t;
  put(t, rule("a", 1.0, 10, 0.0));
  put(t, rule("b", 1.0, 10, 3.0));
  const CreditWrite writes[] = {
      {"missing", 1.0}, {"a", 0.0}, {"b", 3.0}, {"a", -0.0}, {"b", 4.0}};
  std::vector<std::string> seen;
  const std::size_t written =
      t.write_credits(writes, [&](const RuleView& r) {
        seen.emplace_back(r.key);
      });
  // -0.0 differs from 0.0 in its bits, so it is written.
  EXPECT_EQ(written, 2u);
  EXPECT_EQ(seen, (std::vector<std::string>{"a", "b"}));
  EXPECT_TRUE(std::signbit(get(t, "a")->credit));
  EXPECT_EQ(get(t, "b")->credit, 4.0);
  EXPECT_EQ(get(t, "missing"), std::nullopt);
}

TEST(TableTest, RemoveReportsExistence) {
  Table t;
  put(t, rule("a", 1.0, 1, 1));
  EXPECT_TRUE(t.remove("a"));
  EXPECT_FALSE(t.remove("a"));
  EXPECT_EQ(get(t, "a"), std::nullopt);
}

TEST(TableTest, ScanVisitsAllRows) {
  Table t;
  for (int i = 0; i < 50; ++i) {
    put(t, rule("k" + std::to_string(i), i * 1.0, 100, 1));
  }
  double sum = 0;
  std::size_t visits = 0;
  t.scan([&](const RuleView& r) {
    sum += r.refill_per_sec;
    ++visits;
  });
  EXPECT_EQ(visits, 50u);
  EXPECT_EQ(sum, 49 * 50 / 2);
}

TEST(TableTest, DumpAndLoadRoundTrip) {
  // A snapshot restore fills a fresh table and swaps it in whole.
  Table a;
  for (int i = 0; i < 20; ++i) {
    put(a, rule("k" + std::to_string(i), i * 0.5, 10, 1));
  }
  Table b;
  put(b, rule("stale", 0, 0, 0));
  b.swap(a);
  EXPECT_EQ(b.size(), 20u);
  EXPECT_EQ(get(b, "stale"), std::nullopt);  // the swap replaces wholesale
  EXPECT_EQ(get(b, "k3"), rule("k3", 1.5, 10, 1));
  EXPECT_EQ(a.size(), 1u);
  EXPECT_TRUE(get(a, "stale").has_value());
}

TEST(TableTest, ReserveSizesTheIndexForTheLoad) {
  constexpr std::size_t kRows = 100'000;
  Table t;
  EXPECT_EQ(t.bucket_count(), 0u);
  t.reserve(kRows);
  const std::size_t buckets = t.bucket_count();
  EXPECT_GE(buckets, kRows);
  std::vector<RuleRow> rules;
  for (std::size_t i = 0; i < kRows; ++i) {
    rules.push_back(rule("k" + std::to_string(i), 0.5, 1, 1));
  }
  std::vector<PackedRow> rows;
  for (const RuleRow& r : rules) rows.emplace_back(r.view());
  for (std::size_t at = 0; at < kRows; at += 256) {
    t.put(std::span(rows).subspan(at, std::min<std::size_t>(256, kRows - at)),
          [](const RuleView&) {});
  }
  EXPECT_EQ(t.size(), kRows);
  EXPECT_EQ(t.bucket_count(), buckets);  // the load rehashed nothing
  t.reserve(10);  // never shrinks
  EXPECT_EQ(t.bucket_count(), buckets);
}

TEST(TableTest, ConcurrentReadersAndWriters) {
  Table t;
  for (int i = 0; i < 100; ++i) {
    put(t, rule("k" + std::to_string(i), 0, 1e9, 0));
  }
  std::atomic<bool> stop{false};
  std::atomic<int> read_errors{0};
  std::vector<std::thread> threads;
  for (int r = 0; r < 3; ++r) {
    threads.emplace_back([&] {
      while (!stop.load()) {
        if (!get(t, "k50")) read_errors.fetch_add(1);
      }
    });
  }
  threads.emplace_back([&] {
    for (int i = 0; i < 5000; ++i) (void)write_credit(t, "k50", i);
    stop.store(true);
  });
  for (auto& th : threads) th.join();
  EXPECT_EQ(read_errors.load(), 0);
  EXPECT_EQ(get(t, "k50")->credit, 4999);
}

}  // namespace
}  // namespace janus::db
