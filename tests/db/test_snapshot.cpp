#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>

#include "db/database.hpp"
#include "db/rule_store.hpp"

namespace janus::db {
namespace {

class SnapshotTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::string base =
        ::testing::TempDir() + "janus_snap_" + std::to_string(::getpid()) +
        "_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    snap_path_ = base + ".snap";
    wal_path_ = base + ".wal";
    std::remove(snap_path_.c_str());
    std::remove(wal_path_.c_str());
  }
  void TearDown() override {
    std::remove(snap_path_.c_str());
    std::remove(wal_path_.c_str());
    std::remove((snap_path_ + ".tmp").c_str());
  }

  std::string snap_path_;
  std::string wal_path_;
};

TEST_F(SnapshotTest, SnapshotAndLoadRoundTrip) {
  Database source;
  RuleStore rules(source);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(rules.put({.key = "k" + std::to_string(i),
                           .refill_per_sec = i * 1.0, .capacity = 100,
                           .credit = 100.0 - i}).ok());
  }
  ASSERT_TRUE(source.snapshot_to(snap_path_).ok());

  Database restored;
  RuleStore restored_rules(restored);
  ASSERT_TRUE(restored.load_snapshot(snap_path_).ok());
  EXPECT_EQ(restored_rules.size(), 50u);
  auto rule = restored_rules.get("k7");
  ASSERT_TRUE(rule.has_value());
  EXPECT_DOUBLE_EQ(rule->refill_per_sec, 7.0);
  EXPECT_DOUBLE_EQ(rule->credit, 93.0);
}

TEST_F(SnapshotTest, LoadIntoMissingTableFails) {
  Database source;
  RuleStore rules(source);
  ASSERT_TRUE(rules.put({.key = "a", .refill_per_sec = 1, .capacity = 1,
                         .credit = 1}).ok());
  ASSERT_TRUE(source.snapshot_to(snap_path_).ok());

  Database empty;  // no qos_rules table created
  auto s = empty.load_snapshot(snap_path_);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.error().message.find("qos_rules"), std::string::npos);
}

TEST_F(SnapshotTest, LoadMissingFileFails) {
  Database db;
  EXPECT_FALSE(db.load_snapshot("/nonexistent/none.snap").ok());
}

TEST_F(SnapshotTest, LoadRejectsCorruptFile) {
  Database source;
  RuleStore rules(source);
  ASSERT_TRUE(rules.put({.key = "a", .refill_per_sec = 1, .capacity = 1,
                         .credit = 1}).ok());
  ASSERT_TRUE(source.snapshot_to(snap_path_).ok());
  {
    std::FILE* f = std::fopen(snap_path_.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fputc(0x7F, f);  // clobber the magic
    std::fclose(f);
  }
  Database restored;
  RuleStore restored_rules(restored);
  EXPECT_FALSE(restored.load_snapshot(snap_path_).ok());
}

TEST_F(SnapshotTest, CompactWalTruncatesLogAndPreservesState) {
  {
    Database db;
    RuleStore rules(db);
    ASSERT_TRUE(db.enable_wal(wal_path_).ok());
    // Simulate check-point churn: many credit updates on few keys.
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(rules.put({.key = "k" + std::to_string(i),
                             .refill_per_sec = 10, .capacity = 100,
                             .credit = 100}).ok());
    }
    for (int round = 0; round < 50; ++round) {
      for (int i = 0; i < 10; ++i) {
        ASSERT_TRUE(
            rules.checkpoint_credit("k" + std::to_string(i), 100.0 - round)
                .ok());
      }
    }
    const auto wal_before = std::filesystem::file_size(wal_path_);
    ASSERT_TRUE(db.compact_wal(snap_path_).ok());
    const auto wal_after = std::filesystem::file_size(wal_path_);
    EXPECT_LT(wal_after, wal_before / 10);

    // Post-compaction commits still land in the (fresh) WAL.
    ASSERT_TRUE(rules.checkpoint_credit("k0", 1.5).ok());
  }

  // Recovery = snapshot + fresh WAL tail.
  Database recovered;
  RuleStore recovered_rules(recovered);
  ASSERT_TRUE(recovered.load_snapshot(snap_path_).ok());
  ASSERT_TRUE(recovered.recover(wal_path_).ok());
  EXPECT_EQ(recovered_rules.size(), 10u);
  EXPECT_DOUBLE_EQ(recovered_rules.get("k0")->credit, 1.5);
  EXPECT_DOUBLE_EQ(recovered_rules.get("k9")->credit, 51.0);
}

TEST_F(SnapshotTest, CompactWithoutWalFails) {
  Database db;
  EXPECT_FALSE(db.compact_wal(snap_path_).ok());
}

TEST_F(SnapshotTest, SnapshotOverwritesAtomically) {
  Database db;
  RuleStore rules(db);
  ASSERT_TRUE(rules.put({.key = "v1", .refill_per_sec = 1, .capacity = 1,
                         .credit = 1}).ok());
  ASSERT_TRUE(db.snapshot_to(snap_path_).ok());
  ASSERT_TRUE(rules.put({.key = "v2", .refill_per_sec = 2, .capacity = 2,
                         .credit = 2}).ok());
  ASSERT_TRUE(db.snapshot_to(snap_path_).ok());  // second snapshot, same path

  Database restored;
  RuleStore restored_rules(restored);
  ASSERT_TRUE(restored.load_snapshot(snap_path_).ok());
  EXPECT_EQ(restored_rules.size(), 2u);
  EXPECT_FALSE(
      std::filesystem::exists(snap_path_ + ".tmp"));  // no litter left
}

}  // namespace
}  // namespace janus::db
