// Tests for the annotated lock layer (common/sync.hpp): the runtime
// lock-rank deadlock detector, the release-build zero-cost contract, and the
// RAII guards / CondVar plumbing. Death tests drive the RankTracker directly
// so they run in every build type; the Mutex-level ones additionally verify
// the wrappers call into the tracker when JANUS_SYNC_RANK_CHECKS is on.
#include "common/sync.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

namespace janus {
namespace {

using sync_detail::RankTracker;

// ---------------------------------------------------------------------------
// RankTracker semantics (build-type independent).
// ---------------------------------------------------------------------------

TEST(RankTrackerTest, InOrderAcquisitionIsAccepted) {
  RankTracker t;
  int a = 0, b = 0, c = 0;
  t.on_acquire(&a, 10, "outer");
  t.on_acquire(&b, 20, "middle");
  t.on_acquire(&c, 100, "inner");
  EXPECT_EQ(t.depth(), 3u);
  t.on_release(&c);
  t.on_release(&b);
  t.on_release(&a);
  EXPECT_EQ(t.depth(), 0u);
}

TEST(RankTrackerTest, SameRankDistinctLocksAreAccepted) {
  // The leaf-shard case: two distinct locks of equal rank held together.
  RankTracker t;
  int shard_a = 0, shard_b = 0;
  t.on_acquire(&shard_a, 50, "core.qos_shard");
  t.on_acquire(&shard_b, 50, "core.qos_shard");
  EXPECT_EQ(t.depth(), 2u);
  t.on_release(&shard_b);
  t.on_release(&shard_a);
  EXPECT_EQ(t.depth(), 0u);
}

TEST(RankTrackerDeathTest, RankInversionAbortsNamingBothLocks) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  RankTracker t;
  int inner = 0, outer = 0;
  t.on_acquire(&inner, 100, "common.logging");
  // Acquiring a lower rank while holding a higher one must abort, and the
  // diagnostic must name both locks and their ranks.
  EXPECT_DEATH(t.on_acquire(&outer, 10, "db.commit"),
               "LOCK-RANK VIOLATION.*\"db.commit\" \\(rank 10\\).*"
               "\"common.logging\" \\(rank 100\\)");
}

TEST(RankTrackerDeathTest, SelfDeadlockAbortsNamingTheLock) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  RankTracker t;
  int mu = 0;
  t.on_acquire(&mu, 50, "core.qos_shard");
  EXPECT_DEATH(t.on_acquire(&mu, 50, "core.qos_shard"),
               "SELF-DEADLOCK.*\"core.qos_shard\" \\(rank 50\\)");
}

TEST(RankTrackerDeathTest, TryAcquireOfHeldLockAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  // try_lock of a std::mutex the thread already holds is UB, so the tracker
  // treats it as a self-deadlock even though try_lock "would just fail".
  RankTracker t;
  int mu = 0;
  t.on_acquire(&mu, 50, "core.qos_shard");
  EXPECT_DEATH(t.on_try_acquire(&mu, 50, "core.qos_shard", false),
               "SELF-DEADLOCK");
}

TEST(RankTrackerTest, FailedTryAcquireIsNotRecorded) {
  RankTracker t;
  int a = 0;
  t.on_try_acquire(&a, 50, "core.qos_shard", false);
  EXPECT_EQ(t.depth(), 0u);
  t.on_try_acquire(&a, 50, "core.qos_shard", true);
  EXPECT_EQ(t.depth(), 1u);
  t.on_release(&a);
}

TEST(RankTrackerTest, OutOfOrderReleaseErasesByAddress) {
  // A CondVar wait can release a lock that is not the most recent guard.
  RankTracker t;
  int a = 0, b = 0;
  t.on_acquire(&a, 10, "outer");
  t.on_acquire(&b, 20, "inner");
  t.on_release(&a);  // out of LIFO order
  EXPECT_EQ(t.depth(), 1u);
  // The remaining entry must still be `b`: re-acquiring `a` (rank 10) while
  // holding `b` (rank 20) is an inversion, which proves `b` survived.
  t.on_release(&b);
  EXPECT_EQ(t.depth(), 0u);
}

// ---------------------------------------------------------------------------
// Mutex/SharedMutex wrappers. The detector fires only in debug builds
// (JANUS_SYNC_RANK_CHECKS), so the abort tests skip themselves in release.
// ---------------------------------------------------------------------------

TEST(SyncMutexDeathTest, MutexRankInversionAborts) {
  if (!kSyncRankChecksEnabled) {
    GTEST_SKIP() << "rank checks compiled out (NDEBUG build)";
  }
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Mutex inner(LockRank::kLogging, "common.logging");
        Mutex outer(LockRank::kDbCommit, "db.commit");
        MutexLock hold_inner(inner);
        MutexLock hold_outer(outer);  // rank 10 under rank 100: abort
      },
      "LOCK-RANK VIOLATION");
}

TEST(SyncMutexDeathTest, MutexSelfDeadlockAborts) {
  if (!kSyncRankChecksEnabled) {
    GTEST_SKIP() << "rank checks compiled out (NDEBUG build)";
  }
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Mutex mu(LockRank::kPeriodic, "common.periodic");
        MutexLock first(mu);
        mu.lock();  // second acquisition on the same thread
      },
      "SELF-DEADLOCK");
}

TEST(SyncMutexTest, SameRankDistinctMutexesNest) {
  Mutex a(LockRank::kQosShard, "core.qos_shard");
  Mutex b(LockRank::kQosShard, "core.qos_shard");
  MutexLock la(a);
  MutexLock lb(b);  // equal rank, different object: allowed
  SUCCEED();
}

TEST(SyncMutexTest, AscendingRankNestingWorksAcrossTheGlobalOrder) {
  Mutex commit(LockRank::kDbCommit, "db.commit");
  SharedMutex table(LockRank::kDbTable, "db.table");
  Mutex wal(LockRank::kDbWal, "db.wal");
  Mutex log(LockRank::kLogging, "common.logging");
  MutexLock l1(commit);
  WriterLock l2(table);
  MutexLock l3(wal);
  MutexLock l4(log);
  SUCCEED();
}

TEST(SyncMutexTest, ReaderLocksShareAcrossThreads) {
  SharedMutex mu(LockRank::kDbTable, "db.table");
  std::atomic<int> concurrent{0};
  std::atomic<int> peak{0};
  std::vector<std::thread> readers;
  for (int i = 0; i < 4; ++i) {
    readers.emplace_back([&] {
      ReaderLock lock(mu);
      int now = concurrent.fetch_add(1) + 1;
      int prev = peak.load();
      while (prev < now && !peak.compare_exchange_weak(prev, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      concurrent.fetch_sub(1);
    });
  }
  for (auto& th : readers) th.join();
  EXPECT_GE(peak.load(), 2) << "readers should overlap under a SharedMutex";
}

TEST(SyncMutexTest, TryLockReportsContention) {
  Mutex mu(LockRank::kPeriodic, "common.periodic");
  ASSERT_TRUE(mu.try_lock());
  std::thread other([&] { EXPECT_FALSE(mu.try_lock()); });
  other.join();
  mu.unlock();
}

TEST(SyncCondVarTest, WaitWakesOnNotifyAndKeepsTrackerBalanced) {
  Mutex mu(LockRank::kPeriodic, "common.periodic");
  CondVar cv;
  bool ready = false;
  std::thread waiter([&] {
    MutexLock lock(mu);
    while (!ready) cv.wait(mu);
    if (kSyncRankChecksEnabled) {
      // The wait's unlock/relock went through the instrumented Mutex; the
      // lock must still be registered exactly once.
      EXPECT_EQ(RankTracker::current().depth(), 1u);
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  {
    MutexLock lock(mu);
    ready = true;
  }
  cv.notify_all();
  waiter.join();
  if (kSyncRankChecksEnabled) {
    EXPECT_EQ(RankTracker::current().depth(), 0u);
  }
}

TEST(SyncCondVarTest, WaitUntilTimesOut) {
  Mutex mu(LockRank::kPeriodic, "common.periodic");
  CondVar cv;
  MutexLock lock(mu);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(10);
  EXPECT_EQ(cv.wait_until(mu, deadline), std::cv_status::timeout);
}

#ifdef NDEBUG
// The release-build zero-cost contract (satellite of bench_micro_hotpath):
// the wrapper is layout-identical to the raw primitive.
static_assert(sizeof(Mutex) == sizeof(std::mutex),
              "release janus::Mutex must add no state over std::mutex");
static_assert(sizeof(SharedMutex) == sizeof(std::shared_mutex),
              "release janus::SharedMutex must add no state");
#endif

}  // namespace
}  // namespace janus
