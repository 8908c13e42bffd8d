// A QoS server's lives over one WAL and one snapshot, in process (§II-D,
// DESIGN.md §15.2). Each life restores a new QoS table as the server does
// (TableRules: the snapshot when its file exists, then the WAL, then the
// rules file over them) and spends credit through its AdmissionController,
// with check-points and compactions at random. Rules refill nothing, so only the credit a
// life starts with can admit: over all lives a key admits at most its
// capacity, plus what an abruptly ended life admitted after its last
// check-point (the window the paper's design gives up by construction).
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "common/rng.hpp"
#include "core/admission.hpp"
#include "core/table_rules.hpp"

namespace janus::core {
namespace {

constexpr double kCapacity = 10;
const std::vector<std::string> kKeys = {"a", "b", "c"};

class RestartLivesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::string base =
        ::testing::TempDir() + "janus_lives_" + std::to_string(::getpid()) +
        "_" + ::testing::UnitTest::GetInstance()->current_test_info()->name();
    rules_ = base + ".rules";
    wal_ = base + ".wal";
    snapshot_ = base + ".snap";
    wal_copy_ = base + ".wal.copy";
    remove_files();
    std::FILE* f = std::fopen(rules_.c_str(), "w");
    ASSERT_NE(f, nullptr) << rules_;
    for (const std::string& key : kKeys) {
      std::fprintf(f, "%s = 0 %g\n", key.c_str(), kCapacity);
    }
    std::fclose(f);
  }

  void TearDown() override {
    remove_files();
    std::remove(rules_.c_str());
  }

  void remove_files() {
    for (const std::string* p : {&wal_, &snapshot_, &wal_copy_}) {
      std::remove(p->c_str());
    }
    std::remove((snapshot_ + ".tmp").c_str());
  }

  /// Restore `rules`' table from the files as the server's start does.
  void restore(TableRules& rules) {
    ASSERT_TRUE(rules.restore(snapshot_, wal_).ok());
    ASSERT_TRUE(rules.load(rules_).ok());
  }

  static AdmissionConfig config() {
    AdmissionConfig cfg;
    cfg.table_shards = 2;
    return cfg;
  }

  std::string rules_;
  std::string wal_;
  std::string snapshot_;
  std::string wal_copy_;
  ManualClock clock_;
};

TEST_F(RestartLivesTest, IdleCheckpointAppendsNoWalBytes) {
  AdmissionController ac(clock_, config());
  TableRules rules(ac.table(), clock_);
  restore(rules);
  for (const std::string& key : kKeys) ac.check(key, 3);
  EXPECT_EQ(rules.checkpoint(), kKeys.size());
  const auto written = std::filesystem::file_size(wal_);
  ASSERT_GT(written, 0u);
  for (int pass = 0; pass < 3; ++pass) {
    // No credit changed: nothing is written.
    EXPECT_EQ(rules.checkpoint(), 0u);
    EXPECT_EQ(std::filesystem::file_size(wal_), written) << "pass " << pass;
  }
  ac.check("a", 1);
  EXPECT_EQ(rules.checkpoint(), 1u);
  EXPECT_GT(std::filesystem::file_size(wal_), written);
}

TEST_F(RestartLivesTest, CreditNeverOutlivesItsCapacityAcrossLives) {
  enum class End { kClean, kAbrupt, kCrashMidCompaction };
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    remove_files();
    Rng rng(seed);
    std::map<std::string, int> admitted;  // TRUE over all lives
    std::map<std::string, int> lost;      // TRUE no check-point recorded
    const int lives = 3 + static_cast<int>(rng.next_below(4));
    for (int life = 0; life < lives; ++life) {
      AdmissionController ac(clock_, config());
      TableRules rules(ac.table(), clock_);
      restore(rules);
      std::map<std::string, int> since_checkpoint;
      auto checkpoint = [&] {
        rules.checkpoint();
        since_checkpoint.clear();
      };
      for (int op = 4 + static_cast<int>(rng.next_below(12)); op > 0; --op) {
        const std::uint64_t roll = rng.next_below(10);
        if (roll < 7) {
          const std::string& key = kKeys[rng.next_below(kKeys.size())];
          if (ac.check(key, 1).allowed) {
            ++admitted[key];
            ++since_checkpoint[key];
          }
        } else if (roll < 9) {
          checkpoint();
        } else {
          ASSERT_TRUE(rules.compact(snapshot_).ok());
        }
      }
      switch (static_cast<End>(rng.next_below(3))) {
        case End::kClean:  // SIGTERM's final check-point
          checkpoint();
          break;
        case End::kAbrupt:  // killed: the spends since the last check-point
                            // are not in the files
          for (const auto& [key, n] : since_checkpoint) lost[key] += n;
          break;
        case End::kCrashMidCompaction:
          // A crash between the snapshot's rename and the WAL's removal:
          // the new snapshot and the whole old WAL are on disk.
          checkpoint();
          std::filesystem::copy_file(
              wal_, wal_copy_,
              std::filesystem::copy_options::overwrite_existing);
          ASSERT_TRUE(rules.compact(snapshot_).ok());
          std::filesystem::rename(wal_copy_, wal_);
          break;
      }
    }
    for (const std::string& key : kKeys) {
      EXPECT_LE(admitted[key], kCapacity + lost[key]) << key;
    }
  }
}

}  // namespace
}  // namespace janus::core
