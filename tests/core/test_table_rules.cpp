// The QoS server's rules in its QoS table (DESIGN.md §15.2): loading the
// rules file into provisioned entries, the first decision of a loaded rule,
// the merge a reload applies to held keys, and the WAL and snapshot written
// from the table and read back by a restart.
#include "core/table_rules.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "../support/temp_rules.hpp"
#include "core/admission.hpp"
#include "db/rule_store.hpp"
#include "db/wal.hpp"

namespace janus::core {
namespace {

class TableRulesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::string base =
        ::testing::TempDir() + "janus_table_rules_" +
        std::to_string(::getpid()) + "_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    wal_ = base + ".wal";
    snapshot_ = base + ".snap";
    remove_files();
  }
  void TearDown() override { remove_files(); }

  void remove_files() {
    for (const std::string* p : {&wal_, &snapshot_}) std::remove(p->c_str());
    std::remove((snapshot_ + ".tmp").c_str());
  }

  static AdmissionConfig config() {
    AdmissionConfig cfg;
    cfg.table_shards = 4;
    return cfg;
  }

  /// Every record in the WAL, in order.
  std::vector<db::LogRecord> records() const {
    std::vector<db::LogRecord> out;
    EXPECT_TRUE(db::Wal::replay(wal_, [&](const db::LogRecord& rec) {
                  out.push_back(rec);
                }).ok());
    return out;
  }

  /// The millicredits of `key`'s bucket, without deciding.
  static std::optional<std::int64_t> millicredits(AdmissionController& ac,
                                                  const std::string& key) {
    return ac.table().with_entry(
        key, [](QosEntry& e) { return e.bucket.millicredits(); });
  }

  ManualClock clock_;
  std::string wal_;
  std::string snapshot_;
};

TEST_F(TableRulesTest, LoadedRulesAreProvisionedUntilTheirFirstDecision) {
  test_support::TempRules file({
      {.key = "a", .refill_per_sec = 0, .capacity = 3, .credit = 3},
      {.key = "b", .refill_per_sec = 1, .capacity = 5, .credit = 2},
  });
  AdmissionController ac(clock_, config());
  TableRules rules(ac.table(), clock_);
  auto loaded = rules.load(file.path());
  ASSERT_TRUE(loaded.ok()) << loaded.error().message;
  EXPECT_EQ(loaded.value(), 2u);

  // Held, but not live: no count, no visit, no contains.
  EXPECT_EQ(ac.table().rule_count(), 2u);
  EXPECT_EQ(ac.table_size(), 0u);
  EXPECT_FALSE(ac.table().contains("a"));
  int visited = 0;
  ac.table().for_each([&](std::string_view, QosEntry&) { ++visited; });
  EXPECT_EQ(visited, 0);
  EXPECT_TRUE(ac.table().snapshot().empty());

  const Decision first = ac.check("a");
  EXPECT_TRUE(first.allowed);
  EXPECT_EQ(first.origin, Decision::Origin::kFetched);
  EXPECT_EQ(first.remaining_millicredits, 2000);
  EXPECT_EQ(ac.check("a").origin, Decision::Origin::kCached);
  EXPECT_EQ(ac.table_size(), 1u);
  EXPECT_TRUE(ac.table().contains("a"));

  // An unknown key still gets the default rule in a new entry.
  const Decision unknown = ac.check("nobody");
  EXPECT_FALSE(unknown.allowed);
  EXPECT_EQ(unknown.origin, Decision::Origin::kDefault);
  const auto m = ac.metrics().snapshot();
  EXPECT_EQ(m.at("admission.db_fetches"), 2);
  EXPECT_EQ(m.at("admission.default_rules"), 1);
  EXPECT_EQ(ac.table().rule_count(), 2u);
  EXPECT_EQ(ac.table().node_count(), 3u);
}

TEST_F(TableRulesTest, FirstDecisionStartsTheRefillClock) {
  // Loaded below its capacity with a non-zero rate: the time between the
  // load and the key's first decision refills nothing.
  test_support::TempRules file(
      {{.key = "k", .refill_per_sec = 10, .capacity = 100, .credit = 5}});
  AdmissionController ac(clock_, config());
  TableRules rules(ac.table(), clock_);
  ASSERT_TRUE(rules.load(file.path()).ok());
  clock_.advance(seconds(3));
  EXPECT_EQ(ac.check("k").remaining_millicredits, 4000);
  clock_.advance(seconds(1));  // from here the bucket refills
  EXPECT_EQ(ac.check("k").remaining_millicredits, 13000);
}

TEST_F(TableRulesTest, FirstDecisionOfEveryModeStartsTheClock) {
  // A probe is a first touch too, and the periodic refill pass visits live
  // entries only, so neither refills a rule no decision touched.
  test_support::TempRules file(
      {{.key = "k", .refill_per_sec = 10, .capacity = 100, .credit = 5}});
  AdmissionConfig cfg = config();
  cfg.refill_mode = RefillMode::kPeriodic;
  AdmissionController ac(clock_, cfg);
  TableRules rules(ac.table(), clock_);
  ASSERT_TRUE(rules.load(file.path()).ok());
  clock_.advance(seconds(3));
  ac.refill_all();
  EXPECT_EQ(millicredits(ac, "k"), 5000);
  const Decision probed = ac.probe("k");
  EXPECT_EQ(probed.origin, Decision::Origin::kFetched);
  EXPECT_EQ(probed.remaining_millicredits, 5000);
  clock_.advance(seconds(1));
  ac.refill_all();
  EXPECT_EQ(millicredits(ac, "k"), 15000);
}

TEST_F(TableRulesTest, AFreshLoadTakesTheLastLineOfAKey) {
  test_support::TempRules file({
      {.key = "k", .refill_per_sec = 0, .capacity = 10, .credit = 2},
      {.key = "j", .refill_per_sec = 0, .capacity = 1, .credit = 1},
  });
  // The second line of k, written by hand after the writer's lines.
  {
    std::FILE* f = std::fopen(file.path().c_str(), "a");
    ASSERT_NE(f, nullptr);
    std::fputs("k = 0 20 15\n", f);
    std::fclose(f);
  }
  AdmissionController ac(clock_, config());
  TableRules rules(ac.table(), clock_);
  ASSERT_TRUE(rules.load(file.path()).ok());
  EXPECT_EQ(millicredits(ac, "k"), 15000);
  EXPECT_EQ(ac.table().rule_count(), 2u);
}

TEST_F(TableRulesTest, AReloadKeepsHeldCreditsClampedToTheNewCapacity) {
  test_support::TempRules file({
      {.key = "live", .refill_per_sec = 0, .capacity = 10, .credit = 10},
      {.key = "loaded", .refill_per_sec = 0, .capacity = 10, .credit = 8},
      {.key = "same", .refill_per_sec = 0, .capacity = 10, .credit = 10},
  });
  AdmissionController ac(clock_, config());
  TableRules rules(ac.table(), clock_);
  ASSERT_TRUE(rules.load(file.path()).ok());
  for (int i = 0; i < 3; ++i) ac.check("live");
  for (int i = 0; i < 4; ++i) ac.check("same");
  EXPECT_FALSE(ac.check("later").allowed);  // default entry

  file.put_many({
      {.key = "live", .refill_per_sec = 0, .capacity = 5, .credit = 5},
      {.key = "loaded", .refill_per_sec = 0, .capacity = 4, .credit = 4},
      {.key = "same", .refill_per_sec = 0, .capacity = 10, .credit = 10},
      {.key = "later", .refill_per_sec = 0, .capacity = 3, .credit = 2},
  });
  auto reloaded = rules.reload(file.path());
  ASSERT_TRUE(reloaded.ok());
  EXPECT_TRUE(reloaded.value());
  EXPECT_EQ(millicredits(ac, "live"), 5000);    // 7 clamped to 5
  EXPECT_EQ(millicredits(ac, "loaded"), 4000);  // 8 clamped to 4
  EXPECT_EQ(millicredits(ac, "same"), 6000);    // unchanged rule, kept
  EXPECT_EQ(millicredits(ac, "later"), 2000);   // its first rule's credit
  EXPECT_FALSE(ac.table().contains("loaded"));  // still provisioned
  EXPECT_EQ(ac.check("loaded").origin, Decision::Origin::kFetched);
  EXPECT_EQ(ac.check("later").origin, Decision::Origin::kCached);
  EXPECT_EQ(ac.table().rule_count(), 4u);

  // The same file again is no change: nothing is loaded.
  auto again = rules.reload(file.path());
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again.value());
}

TEST_F(TableRulesTest, TheLoaderAndTheCheckpointLogTheSameRecords) {
  test_support::TempRules file({
      {.key = "a", .refill_per_sec = 0, .capacity = 10, .credit = 10},
      {.key = "b", .refill_per_sec = 0, .capacity = 5, .credit = 5},
      {.key = "c", .refill_per_sec = 0, .capacity = 1, .credit = 1},
  });
  AdmissionController ac(clock_, config());
  TableRules rules(ac.table(), clock_);
  ASSERT_TRUE(rules.restore(snapshot_, wal_).ok());
  ASSERT_TRUE(rules.load(file.path()).ok());
  auto logged = records();
  ASSERT_EQ(logged.size(), 3u);
  std::map<std::string, double> credits;
  for (std::size_t i = 0; i < logged.size(); ++i) {
    EXPECT_EQ(logged[i].lsn, i + 1);
    EXPECT_EQ(logged[i].op, db::LogRecord::Op::kUpsert);
    credits[logged[i].rule.key] = logged[i].rule.credit;
  }
  EXPECT_EQ(credits, (std::map<std::string, double>{
                         {"a", 10}, {"b", 5}, {"c", 1}}));

  // Nothing live: the check-point writes nothing.
  EXPECT_EQ(rules.checkpoint(), 0u);
  ac.check("a", 4);
  ac.check("b");  // b only becomes live; its credit changed
  ac.check("ghost");  // a default entry is never written
  EXPECT_EQ(rules.checkpoint(), 2u);
  logged = records();
  ASSERT_EQ(logged.size(), 5u);
  EXPECT_EQ(logged[3].lsn, 4u);
  EXPECT_EQ(logged[4].lsn, 5u);
  const auto bytes = std::filesystem::file_size(wal_);
  EXPECT_EQ(rules.checkpoint(), 0u) << "an idle pass wrote";
  EXPECT_EQ(std::filesystem::file_size(wal_), bytes);
  ac.check("c");
  ac.check("c");  // denied: spent by the first
  EXPECT_EQ(rules.checkpoint(), 1u);
  EXPECT_EQ(records().back().rule.credit, 0.0);
}

TEST_F(TableRulesTest, ARestartRestoresTheSnapshotThenTheWalThenTheFile) {
  test_support::TempRules file({
      {.key = "k", .refill_per_sec = 0, .capacity = 10, .credit = 10},
      {.key = "j", .refill_per_sec = 0, .capacity = 10, .credit = 10},
  });
  {
    AdmissionController ac(clock_, config());
    TableRules rules(ac.table(), clock_);
    ASSERT_TRUE(rules.restore(snapshot_, wal_).ok());
    ASSERT_TRUE(rules.load(file.path()).ok());
    for (int i = 0; i < 10; ++i) ac.check("k");
    rules.checkpoint();
    ASSERT_TRUE(rules.compact(snapshot_).ok());
    EXPECT_EQ(std::filesystem::file_size(wal_), 0u);
    for (int i = 0; i < 4; ++i) ac.check("j");
    rules.checkpoint();
  }
  AdmissionController ac(clock_, config());
  TableRules rules(ac.table(), clock_);
  ASSERT_TRUE(rules.restore(snapshot_, wal_).ok());
  const auto wal_bytes = std::filesystem::file_size(wal_);
  ASSERT_TRUE(rules.load(file.path()).ok());
  EXPECT_EQ(std::filesystem::file_size(wal_), wal_bytes)
      << "loading the same rules on restart wrote the WAL";
  EXPECT_FALSE(ac.check("k").allowed) << "k's credit came back";
  int j = 0;
  for (int i = 0; i < 10; ++i) j += ac.check("j").allowed;
  EXPECT_EQ(j, 6);
}

TEST_F(TableRulesTest, RestoresFilesTheDatabaseWrote) {
  // The table reads the WAL and snapshot formats db::Database writes: each
  // rule comes back exact, and each credit to the millicredit, as the
  // bucket keeps it.
  const std::vector<db::RuleRow> rows = {
      {.key = "fine", .refill_per_sec = 0.123456, .capacity = 12.34567,
       .credit = 7.654321},
      {.key = "gone", .refill_per_sec = 1, .capacity = 2, .credit = 2},
      {.key = std::string(40, 'x'), .refill_per_sec = 1e6, .capacity = 5e6,
       .credit = 1e-3},
  };
  {
    db::Database db;
    db::RuleStore store(db);
    ASSERT_TRUE(db.enable_wal(wal_).ok());
    ASSERT_TRUE(store.put(rows[0]).ok());
    ASSERT_TRUE(db.compact_wal(snapshot_).ok());
    ASSERT_TRUE(store.put(rows[1]).ok());
    ASSERT_TRUE(store.put(rows[2]).ok());
    ASSERT_TRUE(store.remove("gone"));
  }
  AdmissionController ac(clock_, config());
  TableRules rules(ac.table(), clock_);
  ASSERT_TRUE(rules.restore(snapshot_, wal_).ok());
  EXPECT_EQ(ac.table().rule_count(), 2u);
  EXPECT_FALSE(millicredits(ac, "gone").has_value());
  for (const db::RuleRow& row : {rows[0], rows[2]}) {
    auto held = ac.table().with_entry(row.key, [&](QosEntry& e) {
      EXPECT_TRUE(e.provisioned()) << row.key;
      EXPECT_EQ(e.capacity(), row.capacity) << row.key;
      EXPECT_EQ(e.refill_per_sec(), row.refill_per_sec) << row.key;
      EXPECT_EQ(e.bucket.millicredits(),
                static_cast<std::int64_t>(row.credit * 1000 + 0.5))
          << row.key;
      return true;
    });
    EXPECT_TRUE(held.has_value()) << row.key;
  }
}

TEST_F(TableRulesTest, CompactionWritesTheDatabasesSnapshotFormat) {
  test_support::TempRules file({
      {.key = "a", .refill_per_sec = 0.5, .capacity = 10, .credit = 10},
      {.key = "b", .refill_per_sec = 0, .capacity = 5, .credit = 3},
  });
  AdmissionController ac(clock_, config());
  TableRules rules(ac.table(), clock_);
  ASSERT_TRUE(rules.restore(snapshot_, wal_).ok());
  ASSERT_TRUE(rules.load(file.path()).ok());
  ac.check("a", 4);
  ac.check("nobody");  // the default rule is not a rule to keep
  ASSERT_TRUE(rules.compact(snapshot_).ok());

  db::Database db;
  db::RuleStore store(db);
  ASSERT_TRUE(db.load_snapshot(snapshot_).ok());
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.get("a"), (db::RuleRow{.key = "a", .refill_per_sec = 0.5,
                                         .capacity = 10, .credit = 6}));
  EXPECT_EQ(store.get("b"), (db::RuleRow{.key = "b", .refill_per_sec = 0,
                                         .capacity = 5, .credit = 3}));
}

TEST_F(TableRulesTest, AFailedReloadChangesNeitherTheTableNorTheWal) {
  // The file edited into a bad line past its first two chunks: the reload
  // names the line and applies none of the file, so no held credit is
  // clamped and the WAL is not written. The same file is not tried again;
  // the mended file loads.
  static_assert(db::kRulesChunk == 256);
  const std::string path = ::testing::TempDir() + "janus_bad_rules_" +
                           std::to_string(::getpid()) + ".conf";
  auto rewrite = [&](int capacity, bool bad) {
    std::string text;
    for (int i = 0; i < 600; ++i) {
      text += "t" + std::to_string(i) + " = 0 " + std::to_string(capacity) +
              "\n";
    }
    if (bad) text += "bad = 1\n";
    text += "late = 0 1\n";
    const std::string tmp = path + ".tmp";
    std::FILE* f = std::fopen(tmp.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(text.c_str(), f);
    std::fclose(f);
    ASSERT_EQ(std::rename(tmp.c_str(), path.c_str()), 0);
  };
  rewrite(10, false);
  AdmissionController ac(clock_, config());
  TableRules rules(ac.table(), clock_);
  ASSERT_TRUE(rules.restore(snapshot_, wal_).ok());
  ASSERT_TRUE(rules.load(path).ok());
  for (int i = 0; i < 3; ++i) ac.check("t0");
  ASSERT_EQ(rules.checkpoint(), 1u);
  const auto wal_bytes = std::filesystem::file_size(wal_);

  rewrite(5, true);
  auto reloaded = rules.reload(path);
  ASSERT_FALSE(reloaded.ok());
  EXPECT_EQ(reloaded.error().message, "rules line 601: bad format");
  EXPECT_EQ(millicredits(ac, "t0"), 7000);
  EXPECT_EQ(millicredits(ac, "t599"), 10000);
  EXPECT_EQ(ac.table().rule_count(), 601u);
  EXPECT_EQ(std::filesystem::file_size(wal_), wal_bytes);
  auto again = rules.reload(path);
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again.value()) << "a bad file is tried once";

  rewrite(5, false);
  reloaded = rules.reload(path);
  std::remove(path.c_str());
  ASSERT_TRUE(reloaded.ok()) << reloaded.error().message;
  EXPECT_TRUE(reloaded.value());
  EXPECT_EQ(millicredits(ac, "t0"), 5000);
  EXPECT_EQ(millicredits(ac, "t599"), 5000);
  EXPECT_EQ(records().size(), 1u + 601u + 600u);
}

TEST_F(TableRulesTest, AMissingFileFailsTheLoad) {
  const std::string path = ::testing::TempDir() + "janus_no_such_rules_" +
                           std::to_string(::getpid()) + ".conf";
  std::remove(path.c_str());
  AdmissionController ac(clock_, config());
  TableRules rules(ac.table(), clock_);
  auto loaded = rules.load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.error().message, "cannot open rules file: " + path);
}

}  // namespace
}  // namespace janus::core
