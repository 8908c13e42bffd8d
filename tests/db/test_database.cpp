#include "db/database.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/crc32.hpp"

namespace janus::db {
namespace {

RuleRow rule(const std::string& key, double rate, double credit = 1.0) {
  return RuleRow{.key = key, .refill_per_sec = rate, .capacity = 100.0,
                 .credit = credit};
}

Status put(Database& db, const RuleRow& r) {
  const PackedRow row(r.view());
  return db.put(std::span(&row, 1));
}

std::optional<RuleRow> get(const Database& db, std::string_view key) {
  std::optional<RuleRow> out;
  db.table().read(key, [&](const RuleView& r) {
    out = RuleRow{.key = std::string(r.key), .refill_per_sec = r.refill_per_sec,
                  .capacity = r.capacity, .credit = r.credit};
  });
  return out;
}

Result<std::size_t> write_credit(Database& db, std::string_view key,
                                 double credit) {
  const CreditWrite w{key, credit};
  return db.write_credits(std::span(&w, 1));
}

TEST(DatabaseTest, UpsertGetRemove) {
  Database db;
  ASSERT_TRUE(put(db, rule("a", 1.0)).ok());
  EXPECT_EQ(get(db, "a"), rule("a", 1.0));
  ASSERT_TRUE(db.remove("a").ok());
  EXPECT_EQ(get(db, "a"), std::nullopt);
}

TEST(DatabaseTest, LsnAdvancesPerCommit) {
  Database db;
  EXPECT_EQ(db.lsn(), 0u);
  ASSERT_TRUE(put(db, rule("a", 1.0)).ok());
  EXPECT_EQ(db.lsn(), 1u);
  ASSERT_TRUE(db.remove("a").ok());
  EXPECT_EQ(db.lsn(), 2u);
  // Writes that write nothing don't advance: a credit for a missing key,
  // and a credit a rule already holds.
  ASSERT_TRUE(put(db, rule("b", 1.0, 5.0)).ok());
  EXPECT_EQ(db.lsn(), 3u);
  EXPECT_EQ(write_credit(db, "a", 2.0).value(), 0u);
  EXPECT_EQ(write_credit(db, "b", 5.0).value(), 0u);
  EXPECT_EQ(db.lsn(), 3u);
  EXPECT_EQ(write_credit(db, "b", 4.0).value(), 1u);
  EXPECT_EQ(db.lsn(), 4u);
}

TEST(DatabaseTest, UpdateColumnCommitsFullRow) {
  const std::string wal = ::testing::TempDir() + "janus_dbrow_" +
                          std::to_string(::getpid()) + ".log";
  std::remove(wal.c_str());
  Database db;
  ASSERT_TRUE(db.enable_wal(wal).ok());
  ASSERT_TRUE(put(db, rule("a", 1.0)).ok());
  ASSERT_EQ(write_credit(db, "a", 7.5).value(), 1u);
  std::vector<LogRecord> logged;
  ASSERT_TRUE(
      Wal::replay(wal, [&](const LogRecord& r) { logged.push_back(r); }).ok());
  ASSERT_EQ(logged.size(), 2u);
  EXPECT_EQ(logged[1].lsn, 2u);
  EXPECT_EQ(logged[1].op, LogRecord::Op::kUpsert);
  EXPECT_EQ(logged[1].rule, rule("a", 1.0, 7.5));
  EXPECT_EQ(get(db, "a"), rule("a", 1.0, 7.5));
  std::remove(wal.c_str());
}

TEST(DatabaseTest, UpdateColumnErrors) {
  // The one credit write that cannot be made, to a key with no rule, is
  // skipped: nothing written, no LSN, no rule created.
  Database db;
  EXPECT_EQ(write_credit(db, "missing", 1.0).value(), 0u);
  EXPECT_EQ(db.lsn(), 0u);
  ASSERT_TRUE(put(db, rule("a", 1.0)).ok());
  EXPECT_EQ(write_credit(db, "missing", 1.0).value(), 0u);
  EXPECT_EQ(db.lsn(), 1u);
  EXPECT_EQ(get(db, "missing"), std::nullopt);
  EXPECT_EQ(db.table().size(), 1u);
}

TEST(DatabaseTest, ScanAndSize) {
  Database db;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(put(db, rule("k" + std::to_string(i), 1.0)).ok());
  }
  EXPECT_EQ(db.table().size(), 10u);
  std::size_t visited = 0;
  db.table().scan([&](const RuleView&) { ++visited; });
  EXPECT_EQ(visited, 10u);
}

class DatabaseWalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "janus_dbwal_" + std::to_string(::getpid()) +
            "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".log";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
};

TEST_F(DatabaseWalTest, RecoverRebuildsState) {
  {
    Database db;
    ASSERT_TRUE(db.enable_wal(path_).ok());
    ASSERT_TRUE(put(db, rule("a", 1.0)).ok());
    ASSERT_TRUE(put(db, rule("b", 2.0)).ok());
    ASSERT_TRUE(write_credit(db, "a", 9.0).ok());
    ASSERT_TRUE(db.remove("b").ok());
  }
  Database recovered;
  auto n = recovered.recover(path_);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 4u);
  EXPECT_EQ(recovered.lsn(), 4u);
  EXPECT_EQ(get(recovered, "a"), rule("a", 1.0, 9.0));
  EXPECT_EQ(get(recovered, "b"), std::nullopt);
}

TEST_F(DatabaseWalTest, RecoverThenContinueAppending) {
  {
    Database db;
    ASSERT_TRUE(db.enable_wal(path_).ok());
    ASSERT_TRUE(put(db, rule("a", 1.0)).ok());
  }
  {
    Database db;
    ASSERT_TRUE(db.recover(path_).ok());
    ASSERT_TRUE(db.enable_wal(path_).ok());
    ASSERT_TRUE(put(db, rule("b", 2.0)).ok());
    EXPECT_EQ(db.lsn(), 2u);
  }
  Database final_db;
  auto n = final_db.recover(path_);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 2u);
  EXPECT_TRUE(get(final_db, "a").has_value());
  EXPECT_TRUE(get(final_db, "b").has_value());
}

TEST_F(DatabaseWalTest, RecoverSkipsRecordsOfAnotherTable) {
  {
    Database db;
    ASSERT_TRUE(db.enable_wal(path_).ok());
    ASSERT_TRUE(put(db, rule("a", 1.0)).ok());
  }
  {
    // A record the store's first, generic encoder could write for another
    // table: lsn, op, table, then a two-value row (string, int64).
    ByteWriter payload;
    payload.u64(2);
    payload.u8(static_cast<std::uint8_t>(LogRecord::Op::kUpsert));
    payload.str("counts");
    payload.u32(2);
    payload.u8(2);
    payload.str("a");
    payload.u8(0);
    payload.u64(7);
    const std::vector<std::uint8_t>& bytes = payload.bytes();
    const std::uint32_t crc = crc32(std::string_view(
        reinterpret_cast<const char*>(bytes.data()), bytes.size()));
    ByteWriter frame;
    frame.u32(static_cast<std::uint32_t>(bytes.size()));
    frame.u32(crc);
    std::FILE* f = std::fopen(path_.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    std::fwrite(frame.bytes().data(), 1, frame.bytes().size(), f);
    std::fwrite(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
  }
  {
    Database db;
    ASSERT_TRUE(db.recover(path_).ok());
    ASSERT_TRUE(db.enable_wal(path_).ok());
    ASSERT_TRUE(write_credit(db, "a", 3.0).ok());
  }
  Database recovered;
  auto n = recovered.recover(path_);
  ASSERT_TRUE(n.ok()) << n.error().message;
  EXPECT_EQ(n.value(), 3u);  // every intact record counts
  EXPECT_EQ(recovered.table().size(), 1u);
  EXPECT_EQ(get(recovered, "a"), rule("a", 1.0, 3.0));
}

}  // namespace
}  // namespace janus::db
