#include "db/table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <span>
#include <thread>

namespace janus::db {
namespace {

Schema test_schema() {
  return Schema{{{"key", ColumnType::kString},
                 {"rate", ColumnType::kDouble},
                 {"count", ColumnType::kInt64}}};
}

Row row(const std::string& key, double rate, std::int64_t count) {
  return Row{key, rate, count};
}

TEST(SchemaTest, ColumnIndexLookup) {
  Schema s = test_schema();
  EXPECT_EQ(s.column_index("key"), 0u);
  EXPECT_EQ(s.column_index("rate"), 1u);
  EXPECT_EQ(s.column_index("count"), 2u);
  EXPECT_THROW(s.column_index("missing"), std::out_of_range);
}

TEST(SchemaTest, MatchesValidatesArityAndTypes) {
  Schema s = test_schema();
  EXPECT_TRUE(s.matches(row("a", 1.0, 2)));
  EXPECT_FALSE(s.matches(Row{std::string("a"), 1.0}));            // too short
  EXPECT_FALSE(s.matches(Row{std::string("a"), std::int64_t{1},  // wrong type
                             std::int64_t{2}}));
  EXPECT_FALSE(s.matches(Row{}));
}

TEST(TableTest, RequiresStringPrimaryKey) {
  EXPECT_THROW(Table("bad", Schema{{{"id", ColumnType::kInt64}}}),
               std::invalid_argument);
  EXPECT_THROW(Table("empty", Schema{}), std::invalid_argument);
}

TEST(TableTest, InsertAndGet) {
  Table t("t", test_schema());
  ASSERT_TRUE(t.insert(row("a", 1.5, 10)).ok());
  auto got = t.get("a");
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(std::get<double>((*got)[1]), 1.5);
  EXPECT_EQ(std::get<std::int64_t>((*got)[2]), 10);
  EXPECT_EQ(t.get("missing"), std::nullopt);
}

TEST(TableTest, InsertRejectsDuplicateKey) {
  Table t("t", test_schema());
  ASSERT_TRUE(t.insert(row("a", 1.0, 1)).ok());
  auto s = t.insert(row("a", 2.0, 2));
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.error().message.find("duplicate"), std::string::npos);
  // Original row unchanged.
  EXPECT_EQ(std::get<double>((*t.get("a"))[1]), 1.0);
}

TEST(TableTest, InsertRejectsSchemaViolation) {
  Table t("t", test_schema());
  EXPECT_FALSE(t.insert(Row{std::string("a"), std::string("oops"),
                            std::int64_t{1}}).ok());
  EXPECT_EQ(t.size(), 0u);
}

TEST(TableTest, UpsertOverwrites) {
  Table t("t", test_schema());
  ASSERT_TRUE(t.upsert(row("a", 1.0, 1)).ok());
  ASSERT_TRUE(t.upsert(row("a", 2.0, 2)).ok());
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(std::get<double>((*t.get("a"))[1]), 2.0);
}

TEST(TableTest, UpdateColumn) {
  Table t("t", test_schema());
  ASSERT_TRUE(t.insert(row("a", 1.0, 1)).ok());
  ASSERT_TRUE(t.update_column("a", "rate", 9.5).ok());
  EXPECT_EQ(std::get<double>((*t.get("a"))[1]), 9.5);
  EXPECT_EQ(std::get<std::int64_t>((*t.get("a"))[2]), 1);  // untouched
}

TEST(TableTest, UpdateColumnErrors) {
  Table t("t", test_schema());
  ASSERT_TRUE(t.insert(row("a", 1.0, 1)).ok());
  EXPECT_FALSE(t.update_column("missing", "rate", 2.0).ok());
  EXPECT_FALSE(t.update_column("a", "nocolumn", 2.0).ok());
  EXPECT_FALSE(t.update_column("a", "rate", std::int64_t{2}).ok());  // type
  EXPECT_FALSE(t.update_column("a", "key", std::string("b")).ok());  // pk
}

TEST(TableTest, RemoveReportsExistence) {
  Table t("t", test_schema());
  ASSERT_TRUE(t.insert(row("a", 1.0, 1)).ok());
  EXPECT_TRUE(t.remove("a"));
  EXPECT_FALSE(t.remove("a"));
  EXPECT_EQ(t.get("a"), std::nullopt);
}

TEST(TableTest, ScanVisitsAllRows) {
  Table t("t", test_schema());
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(t.insert(row("k" + std::to_string(i), i * 1.0, i)).ok());
  }
  std::int64_t sum = 0;
  std::size_t visits = 0;
  t.scan([&](const RowView& r) {
    sum += r.int64(2);
    ++visits;
  });
  EXPECT_EQ(visits, 50u);
  EXPECT_EQ(sum, 49 * 50 / 2);
}

TEST(TableTest, DumpAndLoadRoundTrip) {
  Table a("a", test_schema());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(a.insert(row("k" + std::to_string(i), i * 0.5, i)).ok());
  }
  Table b("b", test_schema());
  ASSERT_TRUE(b.insert(row("stale", 0.0, 0)).ok());
  ASSERT_TRUE(b.load(a.dump()).ok());
  EXPECT_EQ(b.size(), 20u);
  EXPECT_EQ(b.get("stale"), std::nullopt);  // load replaces wholesale
  EXPECT_EQ(std::get<double>((*b.get("k3"))[1]), 1.5);
}

TEST(TableTest, ReserveSizesTheIndexForTheLoad) {
  constexpr std::size_t kRows = 100'000;
  Table t("t", test_schema());
  EXPECT_EQ(t.bucket_count(), 0u);
  t.reserve(kRows);
  const std::size_t buckets = t.bucket_count();
  EXPECT_GE(buckets, kRows);
  std::vector<Row> rows;
  for (std::size_t i = 0; i < kRows; ++i) {
    rows.push_back(row("k" + std::to_string(i), 0.5, 1));
  }
  const PackedRows packed(rows);
  for (std::size_t at = 0; at < kRows; at += 256) {
    t.upsert_rows(packed.rows().subspan(at, std::min<std::size_t>(
                                                256, kRows - at)),
                  [](const RowView&) {});
  }
  EXPECT_EQ(t.size(), kRows);
  EXPECT_EQ(t.bucket_count(), buckets);  // the load rehashed nothing
  t.reserve(10);  // never shrinks
  EXPECT_EQ(t.bucket_count(), buckets);
}

TEST(TableTest, LoadValidatesSchema) {
  Table t("t", test_schema());
  std::vector<Row> bad{{std::string("x"), std::string("wrong"),
                        std::int64_t{0}}};
  EXPECT_FALSE(t.load(std::move(bad)).ok());
}

TEST(TableTest, ConcurrentReadersAndWriters) {
  Table t("t", test_schema());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(t.insert(row("k" + std::to_string(i), 0.0, 0)).ok());
  }
  std::atomic<bool> stop{false};
  std::atomic<int> read_errors{0};
  std::vector<std::thread> threads;
  for (int r = 0; r < 3; ++r) {
    threads.emplace_back([&] {
      while (!stop.load()) {
        auto got = t.get("k50");
        if (!got) read_errors.fetch_add(1);
      }
    });
  }
  threads.emplace_back([&] {
    for (int i = 0; i < 5000; ++i) {
      (void)t.update_column("k50", "count", static_cast<std::int64_t>(i));
    }
    stop.store(true);
  });
  for (auto& th : threads) th.join();
  EXPECT_EQ(read_errors.load(), 0);
  EXPECT_EQ(std::get<std::int64_t>((*t.get("k50"))[2]), 4999);
}

}  // namespace
}  // namespace janus::db
