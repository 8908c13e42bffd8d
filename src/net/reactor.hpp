// The event core of the HTTP tier (DESIGN.md §9.2): one non-blocking epoll
// loop on one thread, plus the buffered non-blocking TCP stream its
// watchers read and write through.
//
// Watchers receive readiness for the fds they register. Timers sit on one
// deadline list kept in deadline order; its head sets each epoll_wait
// timeout, rounded up to whole milliseconds. So there is no timerfd, no
// timer syscall per request and no busy polling. Inserting walks back from
// the tail, which is O(1) for the loop's users: each arms its timers at
// "now + one fixed window".
//
// Concurrency: everything except stop() runs on the loop's own thread, so
// the loop takes no lock. stop() is an atomic flag plus an eventfd write.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.hpp"
#include "common/result.hpp"
#include "net/socket.hpp"

namespace janus::net {

class Reactor {
 public:
  /// Receives the epoll event bits for one registered fd. Destroying a
  /// registered watcher unregisters it, so it must die before its loop.
  class Watcher {
   public:
    Watcher() = default;
    Watcher(const Watcher&) = delete;
    Watcher& operator=(const Watcher&) = delete;
    virtual ~Watcher();

    virtual void on_ready(std::uint32_t events) = 0;

   private:
    friend class Reactor;
    Reactor* loop_ = nullptr;
    std::uint32_t slot_ = 0;
  };

  /// One entry on the deadline list. Destroying an armed timer disarms it.
  class Timer {
   public:
    Timer() = default;
    Timer(const Timer&) = delete;
    Timer& operator=(const Timer&) = delete;
    virtual ~Timer() { cancel(); }

    void cancel();

    /// Runs on the loop once the deadline has passed; the timer is already
    /// disarmed, so it may re-arm itself.
    virtual void on_deadline() = 0;

   private:
    friend class Reactor;
    Reactor* loop_ = nullptr;
    TimePoint when_{};
    Timer* prev_ = nullptr;
    Timer* next_ = nullptr;
  };

  static Result<std::unique_ptr<Reactor>> create();
  ~Reactor();
  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Register `fd` for `events` (EPOLLIN, EPOLLOUT, EPOLLET, ...).
  Status add(int fd, std::uint32_t events, Watcher& watcher);
  /// Unregister; a no-op for a watcher that is not registered. Events for
  /// it already fetched in the current pass are discarded.
  void remove(Watcher& watcher);

  /// Arm (or move) `timer` to fire at `when` on the steady clock.
  void arm(Timer& timer, TimePoint when);

  /// Dispatch events and deadlines until stop(). Call on the loop thread.
  void run();
  /// Thread-safe: run() returns at its next wakeup.
  void stop();

 private:
  explicit Reactor(Fd epoll, Fd wake);
  int next_timeout_ms() const;
  void fire_deadlines();
  void unlink(Timer& timer);

  struct Slot {
    Watcher* watcher = nullptr;
    int fd = -1;
    std::uint32_t gen = 0;
  };

  Fd epoll_;
  Fd wake_;  // eventfd: stop() writes it to end epoll_wait
  std::atomic<bool> stopping_{false};
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  Timer* head_ = nullptr;  // earliest deadline
  Timer* tail_ = nullptr;  // latest deadline
};

/// A non-blocking TCP stream for an edge-triggered watcher. Reads append to
/// an input buffer; writes drain an output buffer. Every read syscall
/// consults net.tcp.reset and net.tcp.short_read once each, and every write
/// syscall consults net.tcp.reset (DESIGN.md §7).
class NbStream {
 public:
  enum class Io { kOk, kWouldBlock, kClosed, kError };

  NbStream() = default;
  explicit NbStream(Fd fd) : fd_(std::move(fd)) {}

  int fd() const { return fd_.get(); }
  /// Close the socket and drop buffered bytes (buffers keep their memory
  /// for the next connection unless it grew past one read chunk's worth).
  void reset(Fd fd = Fd{});

  /// One recv into the input buffer. kOk = bytes appended; kClosed = the
  /// peer shut its write side. Clears `readable` once the socket is
  /// drained (a short read or EAGAIN): edge-triggered epoll reports the
  /// next arrival.
  Io read_once();
  /// Write buffered output until it is all written (kOk) or the socket is
  /// full (kWouldBlock; clears `writable`).
  Io flush();

  std::string_view input() const {
    return {in_.get() + in_begin_, in_end_ - in_begin_};
  }
  void consume(std::size_t n);
  /// Append here, then flush().
  std::string& output() { return out_; }

  /// Edge-triggered readiness the owner has been told about and not yet
  /// used up.
  bool readable = false;
  bool writable = false;

 private:
  static constexpr std::size_t kReadChunk = 16 * 1024;

  Fd fd_;
  std::unique_ptr<char[]> in_;
  std::size_t in_cap_ = 0;
  std::size_t in_begin_ = 0;
  std::size_t in_end_ = 0;
  std::string out_;
  std::size_t out_off_ = 0;
};

}  // namespace janus::net
