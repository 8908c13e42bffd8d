#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "common/blocking_queue.hpp"

namespace janus {
namespace {

// ------------------------------------------------------------ BlockingQueue

TEST(BlockingQueueTest, PopBlocksUntilPush) {
  BlockingQueue<int> q;
  std::thread producer([&q] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    q.try_push(42);
  });
  auto v = q.pop();
  producer.join();
  EXPECT_EQ(v, std::optional<int>(42));
}

TEST(BlockingQueueTest, BoundedCapacityRejects) {
  BlockingQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3));
}

TEST(BlockingQueueTest, ShutdownDrainsThenReturnsNull) {
  BlockingQueue<int> q;
  q.try_push(1);
  q.try_push(2);
  q.shutdown();
  EXPECT_FALSE(q.try_push(3));  // rejected after shutdown
  EXPECT_EQ(q.pop(), std::optional<int>(1));
  EXPECT_EQ(q.pop(), std::optional<int>(2));
  EXPECT_EQ(q.pop(), std::nullopt);  // drained: unblocked forever
}

TEST(BlockingQueueTest, ShutdownWakesBlockedConsumers) {
  BlockingQueue<int> q;
  std::atomic<int> woken{0};
  std::vector<std::thread> consumers;
  for (int i = 0; i < 3; ++i) {
    consumers.emplace_back([&] {
      EXPECT_EQ(q.pop(), std::nullopt);
      woken.fetch_add(1);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.shutdown();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(woken.load(), 3);
}

TEST(BlockingQueueTest, PopForTimesOut) {
  BlockingQueue<int> q;
  auto v = q.pop_for(millis(10));
  EXPECT_EQ(v, std::nullopt);
}

TEST(BlockingQueueTest, PopForReturnsAvailableItem) {
  BlockingQueue<int> q;
  q.try_push(5);
  EXPECT_EQ(q.pop_for(millis(10)), std::optional<int>(5));
}

TEST(BlockingQueueTest, SizeTracksContents) {
  BlockingQueue<int> q;
  EXPECT_EQ(q.size(), 0u);
  q.try_push(1);
  q.try_push(2);
  EXPECT_EQ(q.size(), 2u);
  q.try_pop();
  EXPECT_EQ(q.size(), 1u);
}

TEST(BlockingQueueTest, FifoOrderPreserved) {
  BlockingQueue<int> q;
  for (int i = 0; i < 1000; ++i) ASSERT_TRUE(q.try_push(i));
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(q.try_pop(), std::optional<int>(i));
  EXPECT_EQ(q.try_pop(), std::nullopt);
}

TEST(BlockingQueueTest, MovesNonCopyableTypes) {
  BlockingQueue<std::unique_ptr<int>> q;
  ASSERT_TRUE(q.try_push(std::make_unique<int>(7)));
  auto v = q.pop();
  ASSERT_TRUE(v.has_value());
  ASSERT_NE(*v, nullptr);
  EXPECT_EQ(**v, 7);
}

TEST(BlockingQueueTest, BoundedQueueAcceptsAgainAfterPop) {
  BlockingQueue<int> q(1);
  ASSERT_TRUE(q.try_push(1));
  EXPECT_FALSE(q.try_push(2));
  EXPECT_EQ(q.pop(), std::optional<int>(1));
  EXPECT_TRUE(q.try_push(3));
  EXPECT_EQ(q.pop(), std::optional<int>(3));
}

TEST(BlockingQueueTest, ConcurrentProducersConsumersConserveSum) {
  // Bounded, so producers also meet a full queue; consumers block in pop()
  // and leave only once shutdown has drained the queue.
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 5000;
  BlockingQueue<int> q(64);
  std::atomic<long long> consumed_sum{0};
  std::atomic<int> consumed_count{0};

  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&q, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const int value = p * kPerProducer + i;
        while (!q.try_push(value)) std::this_thread::yield();
      }
    });
  }
  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      while (auto v = q.pop()) {
        consumed_sum.fetch_add(*v);
        consumed_count.fetch_add(1);
      }
    });
  }
  for (auto& t : producers) t.join();
  q.shutdown();
  for (auto& t : consumers) t.join();

  const long long n = static_cast<long long>(kProducers) * kPerProducer;
  EXPECT_EQ(consumed_count.load(), n);
  EXPECT_EQ(consumed_sum.load(), n * (n - 1) / 2);
}

}  // namespace
}  // namespace janus
