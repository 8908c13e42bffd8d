#include "common/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

namespace janus {
namespace {

TEST(ThreadPoolTest, ExecutesAllTasks) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 1000; ++i) {
      ASSERT_TRUE(pool.submit([&count] { count.fetch_add(1); }));
    }
    pool.shutdown();
  }
  EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPoolTest, ZeroThreadsClampedToOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
  std::atomic<bool> ran{false};
  pool.submit([&ran] { ran = true; });
  pool.shutdown();
  EXPECT_TRUE(ran.load());
}

TEST(ThreadPoolTest, SubmitAfterShutdownFails) {
  ThreadPool pool(2);
  pool.shutdown();
  EXPECT_FALSE(pool.submit([] {}));
}

TEST(ThreadPoolTest, ShutdownIsIdempotent) {
  ThreadPool pool(2);
  pool.shutdown();
  pool.shutdown();  // must not hang or crash
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 100; ++i) {
      pool.submit([&count] { count.fetch_add(1); });
    }
  }  // destructor joins
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, TasksRunConcurrently) {
  ThreadPool pool(4);
  std::atomic<int> concurrent{0};
  std::atomic<int> peak{0};
  for (int i = 0; i < 8; ++i) {
    pool.submit([&] {
      int cur = concurrent.fetch_add(1) + 1;
      int expected = peak.load();
      while (cur > expected && !peak.compare_exchange_weak(expected, cur)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      concurrent.fetch_sub(1);
    });
  }
  pool.shutdown();
  EXPECT_GE(peak.load(), 2);
}

}  // namespace
}  // namespace janus
