#include "net/reactor.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstring>

#include "common/logging.hpp"
#include "testing/fault_injector.hpp"

namespace janus::net {

namespace {

constexpr int kMaxEvents = 64;
// epoll data for the wake eventfd; watcher tokens never reach it (the
// generation half of a token starts at 0 and slot indexes stay small).
constexpr std::uint64_t kWakeToken = ~std::uint64_t{0};

std::uint64_t token(std::uint32_t slot, std::uint32_t gen) {
  return (std::uint64_t{gen} << 32) | slot;
}

}  // namespace

Reactor::Watcher::~Watcher() {
  if (loop_ != nullptr) loop_->remove(*this);
}

void Reactor::Timer::cancel() {
  if (loop_ != nullptr) loop_->unlink(*this);
}

Result<std::unique_ptr<Reactor>> Reactor::create() {
  Fd epoll(::epoll_create1(EPOLL_CLOEXEC));
  if (!epoll.valid()) {
    return Error(std::string("epoll_create1: ") + std::strerror(errno));
  }
  Fd wake(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC));
  if (!wake.valid()) {
    return Error(std::string("eventfd: ") + std::strerror(errno));
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.u64 = kWakeToken;
  if (::epoll_ctl(epoll.get(), EPOLL_CTL_ADD, wake.get(), &ev) != 0) {
    return Error(std::string("epoll_ctl: ") + std::strerror(errno));
  }
  return std::unique_ptr<Reactor>(new Reactor(std::move(epoll), std::move(wake)));
}

Reactor::Reactor(Fd epoll, Fd wake)
    : epoll_(std::move(epoll)), wake_(std::move(wake)) {}

Reactor::~Reactor() {
  // Owners destroy their watchers and timers first; detach any stragglers
  // so their destructors do not reach back into a dead loop.
  for (Slot& s : slots_) {
    if (s.watcher != nullptr) s.watcher->loop_ = nullptr;
  }
  while (head_ != nullptr) unlink(*head_);
}

Status Reactor::add(int fd, std::uint32_t events, Watcher& watcher) {
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& s = slots_[slot];
  epoll_event ev{};
  ev.events = events;
  ev.data.u64 = token(slot, s.gen);
  if (::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, fd, &ev) != 0) {
    free_slots_.push_back(slot);
    return Error(std::string("epoll_ctl add: ") + std::strerror(errno));
  }
  s.watcher = &watcher;
  s.fd = fd;
  watcher.loop_ = this;
  watcher.slot_ = slot;
  return Status::success();
}

void Reactor::remove(Watcher& watcher) {
  if (watcher.loop_ != this) return;
  Slot& s = slots_[watcher.slot_];
  ::epoll_ctl(epoll_.get(), EPOLL_CTL_DEL, s.fd, nullptr);
  s.watcher = nullptr;
  s.fd = -1;
  ++s.gen;  // stale events still in this pass's batch no longer match
  free_slots_.push_back(watcher.slot_);
  watcher.loop_ = nullptr;
}

void Reactor::arm(Timer& timer, TimePoint when) {
  if (timer.loop_ != nullptr) timer.loop_->unlink(timer);
  timer.loop_ = this;
  timer.when_ = when;
  // Walk back from the tail: callers arm at now + a fixed window, so the
  // new deadline almost always belongs at the end.
  Timer* after = tail_;
  while (after != nullptr && after->when_ > when) after = after->prev_;
  timer.prev_ = after;
  timer.next_ = after != nullptr ? after->next_ : head_;
  if (timer.next_ != nullptr) {
    timer.next_->prev_ = &timer;
  } else {
    tail_ = &timer;
  }
  if (after != nullptr) {
    after->next_ = &timer;
  } else {
    head_ = &timer;
  }
}

void Reactor::unlink(Timer& timer) {
  if (timer.prev_ != nullptr) {
    timer.prev_->next_ = timer.next_;
  } else {
    head_ = timer.next_;
  }
  if (timer.next_ != nullptr) {
    timer.next_->prev_ = timer.prev_;
  } else {
    tail_ = timer.prev_;
  }
  timer.prev_ = timer.next_ = nullptr;
  timer.loop_ = nullptr;
}

int Reactor::next_timeout_ms() const {
  if (head_ == nullptr) return -1;
  const std::int64_t left =
      (head_->when_ - SteadyClock::instance().now()).count();
  if (left <= 0) return 0;
  // Round up: waking before the deadline would only spin back here.
  const std::int64_t ms = (left + 999'999) / 1'000'000;
  return static_cast<int>(std::min<std::int64_t>(ms, INT_MAX));
}

void Reactor::fire_deadlines() {
  if (head_ == nullptr) return;
  const TimePoint now = SteadyClock::instance().now();
  while (head_ != nullptr && head_->when_ <= now) {
    Timer& t = *head_;
    unlink(t);
    t.on_deadline();
  }
}

void Reactor::run() {
  epoll_event events[kMaxEvents];
  while (!stopping_.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(epoll_.get(), events, kMaxEvents,
                               next_timeout_ms());
    if (n < 0) {
      if (errno == EINTR) continue;
      JLOG_ERROR("reactor: epoll_wait: %s", std::strerror(errno));
      return;
    }
    for (int i = 0; i < n; ++i) {
      const std::uint64_t tok = events[i].data.u64;
      if (tok == kWakeToken) continue;  // stop(): the loop condition exits
      const auto slot = static_cast<std::uint32_t>(tok);
      const Slot& s = slots_[slot];
      if (s.watcher == nullptr || s.gen != static_cast<std::uint32_t>(tok >> 32)) {
        continue;  // removed earlier in this pass
      }
      s.watcher->on_ready(events[i].events);
    }
    fire_deadlines();
  }
}

void Reactor::stop() {
  stopping_.store(true, std::memory_order_release);
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t w = ::write(wake_.get(), &one, sizeof(one));
}

// ---------------------------------------------------------------- NbStream

void NbStream::reset(Fd fd) {
  fd_ = std::move(fd);
  in_begin_ = in_end_ = 0;
  if (in_cap_ > kReadChunk) {
    in_.reset();
    in_cap_ = 0;
  }
  out_.clear();
  if (out_.capacity() > kReadChunk) out_.shrink_to_fit();
  out_off_ = 0;
  readable = false;
  writable = false;
}

void NbStream::consume(std::size_t n) {
  in_begin_ += n;
  if (in_begin_ == in_end_) in_begin_ = in_end_ = 0;
}

NbStream::Io NbStream::read_once() {
  // Make room for one chunk: slide unparsed bytes to the front, or grow.
  if (in_cap_ - in_end_ < kReadChunk / 2) {
    const std::size_t held = in_end_ - in_begin_;
    if (in_begin_ > 0 && in_cap_ - held >= kReadChunk / 2) {
      std::memmove(in_.get(), in_.get() + in_begin_, held);
    } else {
      const std::size_t cap = std::max(kReadChunk, in_cap_ * 2);
      std::unique_ptr<char[]> grown(new char[cap]);
      if (held > 0) std::memcpy(grown.get(), in_.get() + in_begin_, held);
      in_ = std::move(grown);
      in_cap_ = cap;
    }
    in_begin_ = 0;
    in_end_ = held;
  }

  auto& faults = testing::FaultInjector::instance();
  if (faults.should_fire(testing::FaultPoint::kNetTcpReset)) {
    errno = ECONNRESET;
    return Io::kError;
  }
  std::size_t cap = in_cap_ - in_end_;
  if (faults.should_fire(testing::FaultPoint::kNetTcpShortRead)) {
    const std::int64_t limit =
        faults.param(testing::FaultPoint::kNetTcpShortRead);
    cap = std::min(cap, static_cast<std::size_t>(limit > 0 ? limit : 1));
  }
  for (;;) {
    const ssize_t n = ::recv(fd_.get(), in_.get() + in_end_, cap, 0);
    if (n > 0) {
      in_end_ += static_cast<std::size_t>(n);
      // A short read emptied the receive queue; the next arrival raises a
      // fresh edge, so there is no need to spend a recv on EAGAIN.
      if (static_cast<std::size_t>(n) < cap) readable = false;
      return Io::kOk;
    }
    if (n == 0) return Io::kClosed;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      readable = false;
      return Io::kWouldBlock;
    }
    return Io::kError;
  }
}

NbStream::Io NbStream::flush() {
  auto& faults = testing::FaultInjector::instance();
  while (out_off_ < out_.size()) {
    if (faults.should_fire(testing::FaultPoint::kNetTcpReset)) {
      errno = ECONNRESET;
      return Io::kError;
    }
    const ssize_t n = ::send(fd_.get(), out_.data() + out_off_,
                             out_.size() - out_off_, MSG_NOSIGNAL);
    if (n >= 0) {
      out_off_ += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      writable = false;
      return Io::kWouldBlock;
    }
    return Io::kError;
  }
  out_.clear();
  out_off_ = 0;
  return Io::kOk;
}

}  // namespace janus::net
