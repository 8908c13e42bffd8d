#include "db/wal.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <vector>

namespace janus::db {
namespace {

class WalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "janus_wal_" +
            std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".log";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  LogRecord upsert(std::uint64_t lsn, const std::string& key) {
    return LogRecord{.lsn = lsn,
                     .op = LogRecord::Op::kUpsert,
                     .rule = RuleRow{.key = key,
                                     .refill_per_sec = static_cast<double>(lsn),
                                     .capacity = 10.0,
                                     .credit = 5.0}};
  }

  std::string path_;
};

TEST_F(WalTest, AppendAndReplay) {
  {
    auto wal = Wal::open(path_);
    ASSERT_TRUE(wal.ok());
    for (std::uint64_t i = 1; i <= 10; ++i) {
      ASSERT_TRUE(wal.value().append(upsert(i, "k" + std::to_string(i))).ok());
    }
  }
  std::vector<std::uint64_t> lsns;
  auto replayed = Wal::replay(path_, [&](const LogRecord& rec) {
    lsns.push_back(rec.lsn);
  });
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(replayed.value(), 10u);
  for (std::uint64_t i = 0; i < 10; ++i) EXPECT_EQ(lsns[i], i + 1);
}

TEST_F(WalTest, ReplayMissingFileIsEmpty) {
  auto replayed = Wal::replay(path_, [](const LogRecord&) { FAIL(); });
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(replayed.value(), 0u);
}

TEST_F(WalTest, AppendIsDurableAcrossReopen) {
  {
    auto wal = Wal::open(path_);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal.value().append(upsert(1, "a")).ok());
    ASSERT_TRUE(wal.value().sync().ok());
  }
  {
    auto wal = Wal::open(path_);  // reopen appends, not truncates
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal.value().append(upsert(2, "b")).ok());
  }
  auto replayed = Wal::replay(path_, [](const LogRecord&) {});
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(replayed.value(), 2u);
}

TEST_F(WalTest, TornTailIsTolerated) {
  {
    auto wal = Wal::open(path_);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal.value().append(upsert(1, "a")).ok());
    ASSERT_TRUE(wal.value().append(upsert(2, "b")).ok());
  }
  // Chop bytes off the end (simulated crash mid-write).
  const auto full_size = std::filesystem::file_size(path_);
  std::filesystem::resize_file(path_, full_size - 5);

  auto replayed = Wal::replay(path_, [](const LogRecord&) {});
  ASSERT_TRUE(replayed.ok());
  EXPECT_EQ(replayed.value(), 1u);  // record 1 intact, torn record 2 skipped
}

TEST_F(WalTest, MidFileCorruptionIsAnError) {
  {
    auto wal = Wal::open(path_);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal.value().append(upsert(1, "aaaaaaaaaa")).ok());
    ASSERT_TRUE(wal.value().append(upsert(2, "b")).ok());
  }
  // Flip a payload byte of the first record (offset 8+ is payload).
  {
    std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(20);
    char c = 0x5A;
    f.write(&c, 1);
  }
  auto replayed = Wal::replay(path_, [](const LogRecord&) {});
  EXPECT_FALSE(replayed.ok());
  EXPECT_NE(replayed.error().message.find("CRC"), std::string::npos);
}

TEST_F(WalTest, ImplausibleLengthRejected) {
  {
    std::ofstream f(path_, std::ios::binary);
    // 0xFFFFFFFF length header.
    const char bytes[8] = {'\xFF', '\xFF', '\xFF', '\xFF', 0, 0, 0, 0};
    f.write(bytes, 8);
  }
  auto replayed = Wal::replay(path_, [](const LogRecord&) {});
  EXPECT_FALSE(replayed.ok());
}

TEST_F(WalTest, OpenOnUnwritablePathFails) {
  EXPECT_FALSE(Wal::open("/nonexistent-dir/janus.wal").ok());
}

TEST_F(WalTest, RemoveRecordsReplayInOrder) {
  {
    auto wal = Wal::open(path_);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal.value().append(upsert(1, "a")).ok());
    LogRecord rm{.lsn = 2,
                 .op = LogRecord::Op::kRemove,
                 .rule = RuleRow{.key = "a"}};
    ASSERT_TRUE(wal.value().append(rm).ok());
  }
  std::vector<LogRecord::Op> ops;
  auto replayed = Wal::replay(path_, [&](const LogRecord& rec) {
    ops.push_back(rec.op);
  });
  ASSERT_TRUE(replayed.ok());
  ASSERT_EQ(ops.size(), 2u);
  EXPECT_EQ(ops[0], LogRecord::Op::kUpsert);
  EXPECT_EQ(ops[1], LogRecord::Op::kRemove);
}

}  // namespace
}  // namespace janus::db
