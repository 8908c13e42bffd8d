// WAL behavior under injected storage faults: torn appends, silent CRC
// corruption, and fsync failure, all provoked through janus::testing rather
// than by editing log files from outside. Asserts exactly the contract
// wal.hpp documents: a trailing torn record is tolerated, mid-file
// corruption is an error.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>

#include "db/wal.hpp"
#include "testing/fault_injector.hpp"

namespace janus::db {
namespace {

using testing::FaultInjector;
using testing::FaultPoint;
using testing::ScopedFault;

class WalFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "janus_wal_fault_" +
            std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".log";
    std::remove(path_.c_str());
  }
  void TearDown() override {
    FaultInjector::instance().disarm_all();
    std::remove(path_.c_str());
  }

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

TEST_F(WalFaultTest, TornWriteIsReportedAndReplayTolerantAtTail) {
  {
    auto wal = Wal::open(path_);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal.value().append(upsert(1, "a")).ok());
    ASSERT_TRUE(wal.value().append(upsert(2, "b")).ok());
    FaultInjector::ArmSpec spec;
    spec.max_fires = 1;
    ScopedFault torn(FaultPoint::kDbWalPartialWrite, spec);
    auto s = wal.value().append(upsert(3, "c"));
    EXPECT_FALSE(s.ok());
    EXPECT_NE(s.error().message.find("torn"), std::string::npos);
  }
  // The torn frame is a strict prefix: replay applies records 1-2 and stops
  // cleanly at the tail, as after a crash mid-append.
  std::size_t seen = 0;
  auto replayed = Wal::replay(path_, [&](const LogRecord&) { ++seen; });
  ASSERT_TRUE(replayed.ok()) << replayed.error().message;
  EXPECT_EQ(replayed.value(), 2u);
  EXPECT_EQ(seen, 2u);
}

TEST_F(WalFaultTest, TornWriteParamControlsBytesKept) {
  {
    auto wal = Wal::open(path_);
    ASSERT_TRUE(wal.ok());
    FaultInjector::ArmSpec spec;
    spec.max_fires = 1;
    spec.param = 3;  // keep only 3 bytes of the frame
    ScopedFault torn(FaultPoint::kDbWalPartialWrite, spec);
    EXPECT_FALSE(wal.value().append(upsert(1, "a")).ok());
  }
  EXPECT_EQ(std::filesystem::file_size(path_), 3u);
  auto replayed = Wal::replay(path_, [](const LogRecord&) { FAIL(); });
  ASSERT_TRUE(replayed.ok());  // 3 bytes < header: torn header, tolerated
  EXPECT_EQ(replayed.value(), 0u);
}

TEST_F(WalFaultTest, MidFileCrcCorruptionIsAnError) {
  {
    auto wal = Wal::open(path_);
    ASSERT_TRUE(wal.ok());
    {
      FaultInjector::ArmSpec spec;
      spec.max_fires = 1;
      ScopedFault corrupt(FaultPoint::kDbWalCorruptCrc, spec);
      // Silent corruption: append itself still reports success.
      ASSERT_TRUE(wal.value().append(upsert(1, "rotten")).ok());
    }
    ASSERT_TRUE(wal.value().append(upsert(2, "fine")).ok());
  }
  auto replayed = Wal::replay(path_, [](const LogRecord&) {});
  ASSERT_FALSE(replayed.ok());
  EXPECT_NE(replayed.error().message.find("CRC"), std::string::npos);
}

TEST_F(WalFaultTest, CorruptTailAloneAlsoFailsReplay) {
  // A bad CRC is *not* a torn record: the frame is complete, so replay must
  // flag it even when it is the last record in the file.
  {
    auto wal = Wal::open(path_);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal.value().append(upsert(1, "fine")).ok());
    FaultInjector::ArmSpec spec;
    spec.max_fires = 1;
    ScopedFault corrupt(FaultPoint::kDbWalCorruptCrc, spec);
    ASSERT_TRUE(wal.value().append(upsert(2, "rotten")).ok());
  }
  auto replayed = Wal::replay(path_, [](const LogRecord&) {});
  ASSERT_FALSE(replayed.ok());
  EXPECT_NE(replayed.error().message.find("CRC"), std::string::npos);
}

TEST_F(WalFaultTest, InjectedFsyncFailureSurfacesFromSync) {
  auto wal = Wal::open(path_);
  ASSERT_TRUE(wal.ok());
  ASSERT_TRUE(wal.value().append(upsert(1, "a")).ok());
  {
    ScopedFault fail(FaultPoint::kDbWalSyncFail);
    auto s = wal.value().sync();
    ASSERT_FALSE(s.ok());
    EXPECT_NE(s.error().message.find("fsync"), std::string::npos);
  }
  EXPECT_TRUE(wal.value().sync().ok());  // disarmed: healthy again
}

TEST_F(WalFaultTest, AppendAfterTornWriteKeepsLogUnrecoverableOnlyAtTear) {
  // A torn frame mid-file followed by more appends: the torn frame's length
  // prefix now frames *garbage* (the next record's bytes), so replay stops
  // or errors at the tear but never yields phantom records beyond it.
  {
    auto wal = Wal::open(path_);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE(wal.value().append(upsert(1, "a")).ok());
    {
      FaultInjector::ArmSpec spec;
      spec.max_fires = 1;
      ScopedFault torn(FaultPoint::kDbWalPartialWrite, spec);
      EXPECT_FALSE(wal.value().append(upsert(2, "bbbbbbbbbbbbbbbb")).ok());
    }
    ASSERT_TRUE(wal.value().append(upsert(3, "c")).ok());
  }
  std::vector<std::uint64_t> lsns;
  auto replayed = Wal::replay(path_, [&](const LogRecord& rec) {
    lsns.push_back(rec.lsn);
  });
  // Whether replay reports the tear as corruption or as a torn tail, record
  // 1 must be recovered and record 3 must never appear as intact data.
  ASSERT_GE(lsns.size(), 1u);
  EXPECT_EQ(lsns[0], 1u);
  for (auto lsn : lsns) EXPECT_NE(lsn, 3u);
  if (replayed.ok()) {
    EXPECT_LE(replayed.value(), 2u);
  }
}

}  // namespace
}  // namespace janus::db
