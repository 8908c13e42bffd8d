// The database's one write path (DESIGN.md §15.2): rows are written in place
// in chunks of Database::kWriteChunkRows, each chunk's records appended to
// the WAL with one write. These tests hold it to what the per-row path did:
// the same records, byte for byte, in the same LSN order, one LSN per row
// written, every row replayed by a standby that recovers the WAL, and a
// torn chunk replaying only its whole records.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
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

// Three full chunks and a partial one.
constexpr std::size_t kRows = 3 * Database::kWriteChunkRows + 17;

std::string key_of(std::size_t i) { return "tenant-" + std::to_string(i); }

/// Every row's key, kept alive for the CreditWrite views into them.
const std::vector<std::string>& all_keys() {
  static const std::vector<std::string> keys = [] {
    std::vector<std::string> out;
    for (std::size_t i = 0; i < kRows; ++i) out.push_back(key_of(i));
    return out;
  }();
  return keys;
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Every record the WAL at `path` holds, in order.
std::vector<LogRecord> records_of(const std::string& path) {
  std::vector<LogRecord> out;
  auto replayed =
      Wal::replay(path, [&](const LogRecord& rec) { out.push_back(rec); });
  EXPECT_TRUE(replayed.ok()) << replayed.error().message;
  return out;
}

class ChunkedWriteTest : public ::testing::Test {
 protected:
  void TearDown() override {
    FaultInjector::instance().disarm_all();
    for (const auto& p : paths_) std::remove(p.c_str());
  }

  std::string temp_path(const std::string& tag) {
    std::string p = ::testing::TempDir() + "janus_chunked_" +
                    std::to_string(::getpid()) + "_" +
                    ::testing::UnitTest::GetInstance()->current_test_info()->name() +
                    "_" + tag + ".wal";
    std::remove(p.c_str());
    paths_.push_back(p);
    return p;
  }

  /// A WAL-backed database holding kRows rules.
  struct Node {
    Database db;
    std::unique_ptr<RuleStore> store;
  };

  void open(Node& node, const std::string& wal) {
    ASSERT_TRUE(node.db.enable_wal(wal).ok());
    node.store = std::make_unique<RuleStore>(node.db);
    std::vector<RuleRow> rules;
    for (std::size_t i = 0; i < kRows; ++i) {
      rules.push_back({.key = key_of(i), .refill_per_sec = 1.0 + i,
                       .capacity = 100.0 + i, .credit = 100.0 + i});
    }
    ASSERT_TRUE(node.store->put_many(rules).ok());
  }

  std::vector<std::string> paths_;
};

TEST_F(ChunkedWriteTest, ChunkedCheckpointMatchesPerRowWrites) {
  // The check-point list names every row and two keys with no row, which
  // both paths skip without consuming an LSN.
  std::vector<std::string> keys;
  for (std::size_t i = 0; i < kRows; ++i) keys.push_back(key_of(kRows - 1 - i));
  keys.insert(keys.begin() + 5, "ghost-a");
  keys.push_back("ghost-b");

  Node per_row;
  Node chunked;
  open(per_row, temp_path("per_row"));
  open(chunked, temp_path("chunked"));
  ASSERT_EQ(records_of(paths_[0]), records_of(paths_[1]))
      << "loading must match before the test";

  const std::uint64_t lsn_before = chunked.db.lsn();
  std::vector<CreditWrite> writes;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    // Never a rule's loaded credit, so every row that exists is written.
    const double credit = 0.5 * static_cast<double>(i) + 0.25;
    (void)per_row.store->checkpoint_credit(keys[i], credit);
    writes.push_back({keys[i], credit});
  }
  auto written = chunked.store->checkpoint_credits(writes);
  ASSERT_TRUE(written.ok()) << written.error().message;
  EXPECT_EQ(written.value(), kRows);

  // One LSN per row written, in the order the writes were given.
  EXPECT_EQ(chunked.db.lsn(), lsn_before + kRows);
  EXPECT_EQ(chunked.db.lsn(), per_row.db.lsn());
  const std::vector<LogRecord> logged = records_of(paths_[1]);
  EXPECT_EQ(logged, records_of(paths_[0]));
  ASSERT_EQ(logged.size(), 2 * kRows);
  for (std::size_t i = 1; i < logged.size(); ++i) {
    ASSERT_EQ(logged[i].lsn, logged[i - 1].lsn + 1);
  }
  // The same credits, and the same log, byte for byte.
  for (std::size_t i = 0; i < kRows; ++i) {
    EXPECT_EQ(chunked.store->get(key_of(i)), per_row.store->get(key_of(i)));
  }
  EXPECT_EQ(read_file(paths_[0]), read_file(paths_[1]));
}

TEST_F(ChunkedWriteTest, StandbySeesEveryChunkedRowInOrder) {
  // A standby is promoted by recovering the master's WAL (§III-D).
  const std::string wal = temp_path("master");
  Database master;
  RuleStore master_store(master);
  ASSERT_TRUE(master.enable_wal(wal).ok());

  std::vector<RuleRow> rules;
  for (std::size_t i = 0; i < kRows; ++i) {
    rules.push_back({.key = key_of(i), .refill_per_sec = 2.0,
                     .capacity = 50.0, .credit = 50.0});
  }
  ASSERT_TRUE(master_store.put_many(rules).ok());
  std::vector<CreditWrite> writes;
  for (std::size_t i = 0; i < kRows; ++i) {
    writes.push_back({rules[i].key, static_cast<double>(i % 50)});
  }
  ASSERT_TRUE(master_store.checkpoint_credits(writes).ok());

  const std::vector<LogRecord> logged = records_of(wal);
  ASSERT_EQ(logged.size(), 2 * kRows);
  for (std::size_t i = 0; i < logged.size(); ++i) {
    ASSERT_EQ(logged[i].lsn, i + 1);
  }
  Database standby;
  RuleStore standby_store(standby);
  auto replayed = standby.recover(wal);
  ASSERT_TRUE(replayed.ok()) << replayed.error().message;
  EXPECT_EQ(replayed.value(), 2 * kRows);
  EXPECT_EQ(standby.lsn(), master.lsn());
  for (std::size_t i = 0; i < kRows; ++i) {
    EXPECT_EQ(standby_store.get(key_of(i)), master_store.get(key_of(i)));
  }
}

TEST_F(ChunkedWriteTest, WalWrittenInChunksReplaysEveryRow) {
  const std::string wal = temp_path("replay");
  Node node;
  open(node, wal);
  std::vector<CreditWrite> writes;
  for (std::size_t i = 0; i < kRows; ++i) {
    writes.push_back({all_keys()[i], static_cast<double>(i % 100)});
  }
  ASSERT_TRUE(node.store->checkpoint_credits(writes).ok());

  Database recovered;
  RuleStore recovered_store(recovered);
  auto replayed = recovered.recover(wal);
  ASSERT_TRUE(replayed.ok()) << replayed.error().message;
  EXPECT_EQ(replayed.value(), 2 * kRows);
  EXPECT_EQ(recovered.lsn(), node.db.lsn());
  ASSERT_EQ(recovered_store.size(), kRows);
  for (std::size_t i = 0; i < kRows; ++i) {
    EXPECT_EQ(recovered_store.get(key_of(i)), node.store->get(key_of(i)));
  }
}

TEST_F(ChunkedWriteTest, TornChunkReplaysOnlyItsWholePrefix) {
  const std::string wal = temp_path("torn");
  Node node;
  open(node, wal);
  const std::uint64_t lsn_before = node.db.lsn();

  // Tear the 100th record of the second chunk.
  constexpr std::size_t kTornAt = Database::kWriteChunkRows + 99;
  std::vector<CreditWrite> writes;
  for (std::size_t i = 0; i < kRows; ++i) {
    writes.push_back({all_keys()[i], 7.0});
  }
  {
    FaultInjector::ArmSpec spec;
    spec.skip_first = kTornAt;
    spec.max_fires = 1;
    ScopedFault torn(FaultPoint::kDbWalPartialWrite, spec);
    auto written = node.store->checkpoint_credits(writes);
    ASSERT_FALSE(written.ok());
    EXPECT_NE(written.error().message.find("torn"), std::string::npos);
  }
  // Only the records the log holds whole were published.
  EXPECT_EQ(node.db.lsn(), lsn_before + kTornAt);

  Database recovered;
  RuleStore recovered_store(recovered);
  auto replayed = recovered.recover(wal);
  ASSERT_TRUE(replayed.ok()) << replayed.error().message;
  EXPECT_EQ(replayed.value(), kRows + kTornAt);
  EXPECT_EQ(recovered.lsn(), lsn_before + kTornAt);
  EXPECT_DOUBLE_EQ(recovered_store.get(key_of(kTornAt - 1))->credit, 7.0);
  EXPECT_DOUBLE_EQ(recovered_store.get(key_of(kTornAt))->credit,
                   100.0 + kTornAt);
}

TEST_F(ChunkedWriteTest, BadColumnOrValueWritesNothing) {
  Node node;
  open(node, temp_path("bad"));
  const std::uint64_t lsn_before = node.db.lsn();
  std::vector<RuleRow> rules{{.key = "fine", .refill_per_sec = 1,
                              .capacity = 1, .credit = 1},
                             {.key = "bad", .refill_per_sec = 1,
                              .capacity = 1, .credit = 2}};
  EXPECT_FALSE(node.store->put_many(rules).ok());
  rules[1].credit = std::numeric_limits<double>::quiet_NaN();
  EXPECT_FALSE(node.store->put_many(rules).ok());
  EXPECT_FALSE(node.store->get("fine").has_value());
  EXPECT_EQ(node.db.lsn(), lsn_before);
}

}  // namespace
}  // namespace janus::db
