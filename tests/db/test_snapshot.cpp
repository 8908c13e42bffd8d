#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>

#include <fstream>
#include <iterator>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "db/database.hpp"
#include "db/rule_store.hpp"
#include "testing/fault_injector.hpp"

namespace janus::db {
namespace {

using testing::FaultInjector;
using testing::FaultPoint;
using testing::ScopedFault;

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, std::span<const std::uint8_t> bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

/// Every rule in `store`, by key.
std::map<std::string, RuleRow> rules_of(const RuleStore& store) {
  std::map<std::string, RuleRow> out;
  store.scan([&](const RuleRow& rule) { out[rule.key] = rule; });
  return out;
}

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
    FaultInjector::instance().disarm_all();
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
  // A snapshot of a table this database does not have: the store's first,
  // generic encoder could write one.
  ByteWriter w;
  w.u32(0x4A444253);  // "JDBS"
  w.u32(1);
  w.str("counts");
  w.u32(0);
  write_file(snap_path_, w.bytes());
  Database db;
  RuleStore rules(db);
  ASSERT_TRUE(rules.put({.key = "a", .refill_per_sec = 1, .capacity = 1,
                         .credit = 1}).ok());
  auto s = db.load_snapshot(snap_path_);
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.error().message.find("counts"), std::string::npos);
  EXPECT_EQ(rules.size(), 1u);  // the table is as it was
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

TEST_F(SnapshotTest, RulesLargerThanABlockRoundTrip) {
  // More bytes than one read block, with keys up to 255 bytes, so rows
  // straddle the block boundaries.
  Database source;
  RuleStore rules(source);
  for (int i = 0; i < 3000; ++i) {
    ASSERT_TRUE(rules.put({.key = std::string(i % 256, 'k') +
                                  std::to_string(i),
                           .refill_per_sec = i * 0.25, .capacity = 1e9,
                           .credit = i * 0.5}).ok());
  }
  ASSERT_TRUE(source.snapshot_to(snap_path_).ok());
  ASSERT_GT(std::filesystem::file_size(snap_path_), 3u * 64 * 1024);
  Database restored;
  RuleStore restored_rules(restored);
  ASSERT_TRUE(restored.load_snapshot(snap_path_).ok());
  EXPECT_EQ(rules_of(restored_rules), rules_of(rules));
}

TEST_F(SnapshotTest, TruncatedSnapshotLeavesTheTableAsItWas) {
  Database source;
  RuleStore rules(source);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(rules.put({.key = "k" + std::to_string(i),
                           .refill_per_sec = 1, .capacity = 10,
                           .credit = 1.0 * i}).ok());
  }
  ASSERT_TRUE(source.snapshot_to(snap_path_).ok());
  const std::vector<std::uint8_t> whole = read_file(snap_path_);

  Database db;
  RuleStore held(db);
  ASSERT_TRUE(held.put({.key = "held", .refill_per_sec = 2, .capacity = 4,
                        .credit = 3}).ok());
  const auto before = rules_of(held);
  for (std::size_t size = 0; size < whole.size(); ++size) {
    write_file(snap_path_, std::span(whole).first(size));
    EXPECT_FALSE(db.load_snapshot(snap_path_).ok()) << size << " bytes";
    ASSERT_EQ(rules_of(held), before) << size << " bytes";
  }
  // A row that is not a qos_rules row: the first value's tag turned from a
  // string's into a double's.
  std::vector<std::uint8_t> foreign = whole;
  const std::size_t first_row = 4 + 4 + 4 + 9 + 4;  // header, name, count
  foreign[first_row + 4] = 1;
  write_file(snap_path_, foreign);
  EXPECT_FALSE(db.load_snapshot(snap_path_).ok());
  EXPECT_EQ(rules_of(held), before);
  // The whole file replaces the table.
  write_file(snap_path_, whole);
  ASSERT_TRUE(db.load_snapshot(snap_path_).ok());
  EXPECT_EQ(rules_of(held), rules_of(rules));
}

TEST_F(SnapshotTest, CompactionWhoseSnapshotSyncFailsKeepsTheWal) {
  {
    Database db;
    RuleStore rules(db);
    ASSERT_TRUE(db.enable_wal(wal_path_).ok());
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(rules.put({.key = "k" + std::to_string(i),
                             .refill_per_sec = 0, .capacity = 10,
                             .credit = 10}).ok());
      ASSERT_TRUE(
          rules.checkpoint_credit("k" + std::to_string(i), 1.0 * i).ok());
    }
    const std::vector<std::uint8_t> wal_before = read_file(wal_path_);
    {
      FaultInjector::ArmSpec spec;
      spec.max_fires = 1;
      ScopedFault sync_fails(FaultPoint::kDbSnapshotSyncFail, spec);
      auto s = db.compact_wal(snap_path_);
      ASSERT_FALSE(s.ok());
      EXPECT_NE(s.error().message.find("fsync"), std::string::npos);
    }
    EXPECT_EQ(read_file(wal_path_), wal_before);
    EXPECT_FALSE(std::filesystem::exists(snap_path_));
    EXPECT_FALSE(std::filesystem::exists(snap_path_ + ".tmp"));
    // The WAL still takes writes after the failed compaction.
    ASSERT_TRUE(rules.checkpoint_credit("k0", 7.5).ok());
  }
  // A restart from the files recovers every credit.
  Database recovered;
  RuleStore recovered_rules(recovered);
  ASSERT_FALSE(std::filesystem::exists(snap_path_));
  ASSERT_TRUE(recovered.recover(wal_path_).ok());
  ASSERT_EQ(recovered_rules.size(), 5u);
  EXPECT_EQ(recovered_rules.get("k0")->credit, 7.5);
  for (int i = 1; i < 5; ++i) {
    EXPECT_EQ(recovered_rules.get("k" + std::to_string(i))->credit, 1.0 * i);
  }
}

}  // namespace
}  // namespace janus::db
