// Fixed-size worker pool over a BlockingQueue — mirrors the QoS server's
// "N worker threads polling the FIFO" design (paper §III-C) and is reused by
// tests and benches for fan-out work.
//
// Concurrency (DESIGN.md §8): all synchronization is the queue's
// `common.queue` mutex/condvar; submitted tasks run with no pool lock held,
// so they may acquire any application lock.
#pragma once

#include <functional>
#include <thread>
#include <vector>

#include "common/blocking_queue.hpp"

namespace janus {

class ThreadPool {
 public:
  explicit ThreadPool(std::size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task; returns false after shutdown.
  bool submit(std::function<void()> task);

  /// Stop accepting work, drain the queue, join all workers. Idempotent.
  void shutdown();

  std::size_t size() const { return workers_.size(); }

 private:
  BlockingQueue<std::function<void()>> tasks_;
  std::vector<std::thread> workers_;
};

}  // namespace janus
