#include "common/periodic.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

namespace janus {
namespace {

TEST(PeriodicTaskTest, FiresRepeatedly) {
  std::atomic<int> fired{0};
  PeriodicTask task(millis(5), [&fired] { fired.fetch_add(1); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  task.stop();
  EXPECT_GE(fired.load(), 3);
}

TEST(PeriodicTaskTest, StopPreventsFurtherRuns) {
  std::atomic<int> fired{0};
  PeriodicTask task(millis(5), [&fired] { fired.fetch_add(1); });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  task.stop();
  const int after_stop = fired.load();
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ(fired.load(), after_stop);
}

TEST(PeriodicTaskTest, StopIsIdempotentAndFastForLongIntervals) {
  std::atomic<int> fired{0};
  const auto start = std::chrono::steady_clock::now();
  {
    PeriodicTask task(seconds(3600), [&fired] { fired.fetch_add(1); });
    task.stop();
    task.stop();
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::seconds(2));
  EXPECT_EQ(fired.load(), 0);
}

TEST(PeriodicTaskTest, TriggerNowRunsInline) {
  std::atomic<int> fired{0};
  PeriodicTask task(seconds(3600), [&fired] { fired.fetch_add(1); });
  task.trigger_now();
  EXPECT_EQ(fired.load(), 1);
  task.stop();
}

}  // namespace
}  // namespace janus
