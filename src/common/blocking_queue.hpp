// BlockingQueue: a multi-producer/multi-consumer FIFO, a mutex+condvar
// wrapper with blocking pop, shutdown support, and optional bounded
// capacity (the HTTP server's connection queue, the replication feed, the
// thread pool).
#pragma once

#include <chrono>
#include <cstddef>
#include <deque>
#include <optional>
#include <utility>

#include "common/clock.hpp"
#include "common/sync.hpp"

namespace janus {

template <typename T>
class BlockingQueue {
 public:
  /// capacity == 0 means unbounded.
  explicit BlockingQueue(std::size_t capacity = 0) : capacity_(capacity) {}

  /// Returns false if the queue is shut down or full (bounded).
  bool try_push(T value) {
    {
      MutexLock lock(mu_);
      if (shutdown_) return false;
      if (capacity_ != 0 && items_.size() >= capacity_) return false;
      items_.push_back(std::move(value));
    }
    cv_.notify_one();
    return true;
  }

  /// Blocks until the queue is non-empty or shut down. Returns nullopt only
  /// after shutdown once the queue has drained.
  std::optional<T> pop() {
    MutexLock lock(mu_);
    while (items_.empty() && !shutdown_) cv_.wait(mu_);
    if (items_.empty()) return std::nullopt;
    T out = std::move(items_.front());
    items_.pop_front();
    return out;
  }

  /// Blocks up to `timeout`; nullopt on timeout or drained shutdown.
  std::optional<T> pop_for(Duration timeout) {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    MutexLock lock(mu_);
    while (items_.empty() && !shutdown_) {
      if (cv_.wait_until(mu_, deadline) == std::cv_status::timeout) break;
    }
    if (items_.empty()) return std::nullopt;
    T out = std::move(items_.front());
    items_.pop_front();
    return out;
  }

  std::optional<T> try_pop() {
    MutexLock lock(mu_);
    if (items_.empty()) return std::nullopt;
    T out = std::move(items_.front());
    items_.pop_front();
    return out;
  }

  /// After shutdown, pushes fail; pops drain remaining items then return
  /// nullopt.
  void shutdown() {
    {
      MutexLock lock(mu_);
      shutdown_ = true;
    }
    cv_.notify_all();
  }

  bool is_shutdown() const {
    MutexLock lock(mu_);
    return shutdown_;
  }

  std::size_t size() const {
    MutexLock lock(mu_);
    return items_.size();
  }

 private:
  mutable Mutex mu_{LockRank::kQueue, "common.queue"};
  CondVar cv_;
  std::deque<T> items_ JANUS_GUARDED_BY(mu_);
  std::size_t capacity_;
  bool shutdown_ JANUS_GUARDED_BY(mu_) = false;
};

}  // namespace janus
