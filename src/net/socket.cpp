#include "net/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#if defined(__linux__)
#include <linux/sock_diag.h>
#endif

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "testing/fault_injector.hpp"

namespace janus::net {

namespace {

std::string errno_msg(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

/// poll() one fd for readability. Returns: 1 ready, 0 timeout, -1 error.
/// timeout < 0 blocks indefinitely. Sub-millisecond timeouts round up to
/// 1 ms (poll granularity) — matching how a PHP client's socket timeout
/// actually behaves.
int wait_readable(int fd, Duration timeout) {
  pollfd pfd{fd, POLLIN, 0};
  int ms;
  if (timeout.count() < 0) {
    ms = -1;
  } else {
    auto t = timeout.count();
    ms = static_cast<int>((t + 999'999) / 1'000'000);
  }
  for (;;) {
    int rc = ::poll(&pfd, 1, ms);
    if (rc >= 0) return rc > 0 ? 1 : 0;
    if (errno != EINTR) return -1;
  }
}

}  // namespace

Result<sockaddr_in> SockAddr::to_native() const {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port);
  if (::inet_pton(AF_INET, ip.c_str(), &sa.sin_addr) != 1) {
    return Error("bad IPv4 address: " + ip);
  }
  return sa;
}

SockAddr SockAddr::from_native(const sockaddr_in& sa) {
  // inet_ntop's "%u.%u.%u.%u", written digit by digit: s_addr holds the
  // octets in network (memory) order.
  unsigned char octets[4];
  std::memcpy(octets, &sa.sin_addr.s_addr, sizeof(octets));
  char text[INET_ADDRSTRLEN];
  char* p = text;
  for (int i = 0; i < 4; ++i) {
    const unsigned v = octets[i];
    if (v >= 100) *p++ = static_cast<char>('0' + v / 100);
    if (v >= 10) *p++ = static_cast<char>('0' + v / 10 % 10);
    *p++ = static_cast<char>('0' + v % 10);
    if (i < 3) *p++ = '.';
  }
  // At most 15 characters: the string's inline buffer holds them.
  return SockAddr{{text, static_cast<std::size_t>(p - text)},
                  ntohs(sa.sin_port)};
}

Result<SockAddr> SockAddr::parse(std::string_view text) {
  const std::size_t colon = text.rfind(':');
  if (colon == std::string_view::npos || colon == 0) {
    return Error("expected ip:port, got " + std::string(text));
  }
  std::uint32_t port = 0;
  const std::string_view digits = text.substr(colon + 1);
  if (digits.empty() || digits.size() > 5) {
    return Error("bad port in " + std::string(text));
  }
  for (char c : digits) {
    if (c < '0' || c > '9') return Error("bad port in " + std::string(text));
    port = port * 10 + static_cast<std::uint32_t>(c - '0');
  }
  if (port > 65535) return Error("bad port in " + std::string(text));
  return SockAddr{std::string(text.substr(0, colon)),
                  static_cast<std::uint16_t>(port)};
}

Fd::~Fd() { reset(); }

Fd& Fd::operator=(Fd&& other) noexcept {
  if (this != &other) {
    reset();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void Fd::reset() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

UdpSocket::UdpSocket(UdpSocket&& other) noexcept
    : fd_(std::move(other.fd_)),
      rcvtimeo_us_(other.rcvtimeo_us_.load(std::memory_order_relaxed)),
      recv_buf_(std::move(other.recv_buf_)) {}

UdpSocket& UdpSocket::operator=(UdpSocket&& other) noexcept {
  if (this != &other) {
    fd_ = std::move(other.fd_);
    rcvtimeo_us_.store(other.rcvtimeo_us_.load(std::memory_order_relaxed),
                       std::memory_order_relaxed);
    recv_buf_ = std::move(other.recv_buf_);
  }
  return *this;
}

Result<UdpSocket> UdpSocket::bind(const SockAddr& addr) {
  Fd fd(::socket(AF_INET, SOCK_DGRAM, 0));
  if (!fd.valid()) return Error(errno_msg("udp socket"));
  auto native = addr.to_native();
  if (!native.ok()) return Error(native.error().message);
  auto sa = native.value();
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
    return Error(errno_msg("udp bind"));
  }
  return UdpSocket(std::move(fd));
}

Result<UdpSocket> UdpSocket::create() {
  Fd fd(::socket(AF_INET, SOCK_DGRAM, 0));
  if (!fd.valid()) return Error(errno_msg("udp socket"));
  return UdpSocket(std::move(fd));
}

Status UdpSocket::send_to(const SockAddr& dest,
                          std::span<const std::uint8_t> data) {
  auto& faults = testing::FaultInjector::instance();
  if (faults.should_fire(testing::FaultPoint::kNetUdpDelayUs)) {
    std::this_thread::sleep_for(std::chrono::microseconds(
        faults.param(testing::FaultPoint::kNetUdpDelayUs)));
  }
  if (faults.should_fire(testing::FaultPoint::kNetUdpDropTx)) {
    // The datagram vanishes in flight: the sender sees success (UDP gives
    // no delivery signal), the peer sees nothing.
    return Status::success();
  }
  auto native = dest.to_native();
  if (!native.ok()) return Error(native.error().message);
  auto sa = native.value();
  ssize_t sent = ::sendto(fd_.get(), data.data(), data.size(), 0,
                          reinterpret_cast<sockaddr*>(&sa), sizeof(sa));
  if (sent < 0) return Error(errno_msg("udp sendto"));
  if (static_cast<std::size_t>(sent) != data.size()) {
    return Error("udp sendto: short write");
  }
  return Status::success();
}

Result<bool> UdpSocket::try_send_to(const SockAddr& dest,
                                    std::span<const std::uint8_t> data) {
  auto& faults = testing::FaultInjector::instance();
  if (faults.should_fire(testing::FaultPoint::kNetUdpDelayUs)) {
    std::this_thread::sleep_for(std::chrono::microseconds(
        faults.param(testing::FaultPoint::kNetUdpDelayUs)));
  }
  if (faults.should_fire(testing::FaultPoint::kNetUdpDropTx)) {
    return true;  // lost in flight: the sender cannot tell
  }
  auto native = dest.to_native();
  if (!native.ok()) return Error(native.error().message);
  auto sa = native.value();
  for (;;) {
    const ssize_t sent =
        ::sendto(fd_.get(), data.data(), data.size(), 0,
                 reinterpret_cast<sockaddr*>(&sa), sizeof(sa));
    if (sent >= 0) {
      if (static_cast<std::size_t>(sent) != data.size()) {
        return Error("udp sendto: short write");
      }
      return true;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return false;
    return Error(errno_msg("udp sendto"));
  }
}

Result<std::optional<UdpSocket::Datagram>> UdpSocket::recv(Duration timeout) {
  int ready = wait_readable(fd_.get(), timeout);
  if (ready < 0) return Error(errno_msg("udp poll"));
  if (ready == 0) return std::optional<Datagram>{};

  // Default-initialized: the kernel writes what is read back, so the
  // buffer is never zero-filled.
  if (!recv_buf_) {
    recv_buf_ = std::make_unique_for_overwrite<std::uint8_t[]>(kRecvBufferBytes);
  }
  sockaddr_in sa{};
  socklen_t salen = sizeof(sa);
  ssize_t n = ::recvfrom(fd_.get(), recv_buf_.get(), kRecvBufferBytes, 0,
                         reinterpret_cast<sockaddr*>(&sa), &salen);
  if (n < 0) return Error(errno_msg("udp recvfrom"));
  if (testing::FaultInjector::instance().should_fire(
          testing::FaultPoint::kNetUdpDropRx)) {
    // Drop after the kernel handed it over, as if it never arrived; the
    // caller observes an ordinary timeout.
    return std::optional<Datagram>{};
  }
  const std::uint8_t* const data = recv_buf_.get();
  return std::optional<Datagram>{
      Datagram{.data = std::vector<std::uint8_t>(data, data + n),
               .from = SockAddr::from_native(sa)}};
}

UdpSocket::RecvBatch::RecvBatch(std::size_t capacity, std::size_t slot_bytes)
    : capacity_(std::min(std::max<std::size_t>(1, capacity), kMaxBatch)),
      slot_bytes_(slot_bytes) {
  arena_.resize(capacity_ * slot_bytes_);
  addrs_.resize(capacity_);
  iovs_.resize(capacity_);
  hdrs_.resize(capacity_);  // value-initialized: every other field is 0
  lens_.resize(capacity_);
  slots_.resize(capacity_);
  for (std::size_t i = 0; i < capacity_; ++i) {
    iovs_[i] = {arena_.data() + i * slot_bytes_, slot_bytes_};
    hdrs_[i].msg_hdr.msg_iov = &iovs_[i];
    hdrs_[i].msg_hdr.msg_iovlen = 1;
    hdrs_[i].msg_hdr.msg_name = &addrs_[i];
    hdrs_[i].msg_hdr.msg_namelen = sizeof(sockaddr_in);
  }
}

std::span<const std::uint8_t> UdpSocket::RecvBatch::data(std::size_t i) const {
  return {arena_.data() + slots_[i] * slot_bytes_, lens_[i]};
}

bool UdpSocket::set_recv_timeout(Duration timeout) {
  // Whole microseconds, rounded up so a positive wait never becomes the
  // kernel's "no limit" encoding (0); the kernel rounds on to a jiffy.
  const std::int64_t us =
      timeout.count() < 0 ? 0 : (timeout.count() + 999) / 1000;
  if (rcvtimeo_us_.load(std::memory_order_relaxed) == us) return true;
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(us / 1'000'000);
  tv.tv_usec = static_cast<suseconds_t>(us % 1'000'000);
  if (::setsockopt(fd_.get(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0) {
    return false;
  }
  rcvtimeo_us_.store(us, std::memory_order_relaxed);
  return true;
}

Result<std::size_t> UdpSocket::recv_many(RecvBatch& batch, Duration timeout) {
  batch.count_ = 0;
  // The wait happens inside the first receive syscall, bounded by
  // SO_RCVTIMEO; a timeout surfaces as EAGAIN with nothing received.
  const bool wait = timeout.count() != 0;
  if (wait && !set_recv_timeout(timeout)) {
    return Error(errno_msg("udp SO_RCVTIMEO"));  // purity-ok: error path
  }

  // Raw receive into the arena slots with one recvmmsg, over the batch's
  // prebuilt headers. For each datagram the kernel writes back msg_len,
  // msg_flags, msg_controllen (0 again: there is no control buffer) and
  // msg_namelen: the sender's address length, or 0 for the end-of-stream
  // entry after shutdown_read. Only msg_namelen is also an input, so it is
  // the one field reset, on the headers the last call wrote.
  ::mmsghdr* const hdrs = batch.hdrs_.data();
  for (std::size_t i = 0; i < batch.written_; ++i) {
    hdrs[i].msg_hdr.msg_namelen = sizeof(sockaddr_in);
  }
  batch.written_ = 0;
  // MSG_WAITFORONE blocks for the first datagram only, then drains what is
  // already queued without waiting. A signal landing mid-drain makes
  // recvmmsg report EINTR only when nothing was received yet (a partial
  // batch returns its count), so the correct reaction is to retry —
  // surfacing an error here used to tear down callers on a harmless
  // SIGPROF/SIGCHLD. net.udp.eintr injects that signal deterministically.
  const int flags = wait ? MSG_WAITFORONE : MSG_DONTWAIT;
  int n;
  for (;;) {
    if (testing::FaultInjector::instance().should_fire(
            testing::FaultPoint::kNetUdpEintr)) {
      n = -1;
      errno = EINTR;
    } else {
      n = ::recvmmsg(fd_.get(), hdrs,
                     static_cast<unsigned int>(batch.capacity_), flags,
                     nullptr);
    }
    if (n >= 0) break;
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return std::size_t{0};
    return Error(errno_msg("udp recvmmsg"));  // purity-ok: error path
  }
  batch.written_ = static_cast<std::size_t>(n);

  // Fault filtering, per datagram — a batch of N consults net.udp.drop_rx
  // exactly N times, so seeded chaos schedules see the same per-datagram
  // decision stream as the single recv() path. Senders stay in the kernel's
  // form until from() asks for text.
  auto& faults = testing::FaultInjector::instance();
  for (std::size_t i = 0; i < static_cast<std::size_t>(n); ++i) {
    // Empty and without a sender: not a datagram (every datagram, even an
    // empty one, carries its source address) but the end-of-stream entry a
    // blocked receive returns after shutdown_read.
    if (hdrs[i].msg_len == 0 && hdrs[i].msg_hdr.msg_namelen == 0) continue;
    // Longer than a slot: drop, as if lost.
    if ((hdrs[i].msg_hdr.msg_flags & MSG_TRUNC) != 0) continue;
    if (faults.should_fire(testing::FaultPoint::kNetUdpDropRx)) continue;
    const std::size_t out = batch.count_++;
    batch.slots_[out] = static_cast<std::uint32_t>(i);
    batch.lens_[out] = hdrs[i].msg_len;
  }
  return batch.count_;
}

void UdpSocket::shutdown_read() {
  // On an unconnected socket the kernel answers ENOTCONN, but it still marks
  // the receive side shut and wakes every blocked receiver.
  (void)::shutdown(fd_.get(), SHUT_RD);
}

namespace {

/// send_many's body for either datagram form: `native(dg, sa)` writes dg's
/// destination into `sa`, or fails on an address it cannot convert.
template <typename Datagram, typename Native>
Status send_batch(int fd, std::span<const Datagram> batch, Native&& native) {
  auto& faults = testing::FaultInjector::instance();

  // Per-datagram fault pass, exactly mirroring send_to(): each datagram
  // consults delay_us then drop_tx independently of its batch-mates.
  std::size_t keep[UdpSocket::kMaxBatch];
  sockaddr_in natives[UdpSocket::kMaxBatch];
  std::size_t pos = 0;
  while (pos < batch.size()) {
    const std::size_t chunk =
        std::min(batch.size() - pos, UdpSocket::kMaxBatch);
    std::size_t kept = 0;
    for (std::size_t i = 0; i < chunk; ++i) {
      const Datagram& dg = batch[pos + i];
      if (faults.should_fire(testing::FaultPoint::kNetUdpDelayUs)) {
        // purity-ok: fault-injection delay, chaos builds only
        std::this_thread::sleep_for(std::chrono::microseconds(
            faults.param(testing::FaultPoint::kNetUdpDelayUs)));
      }
      if (faults.should_fire(testing::FaultPoint::kNetUdpDropTx)) {
        continue;  // vanishes in flight; sender still sees success
      }
      if (Status s = native(dg, natives[kept]); !s.ok()) return s;
      keep[kept] = pos + i;
      ++kept;
    }

    ::mmsghdr hdrs[UdpSocket::kMaxBatch];
    ::iovec iovs[UdpSocket::kMaxBatch];
    std::memset(hdrs, 0, sizeof(::mmsghdr) * kept);
    for (std::size_t i = 0; i < kept; ++i) {
      const Datagram& dg = batch[keep[i]];
      iovs[i] = {const_cast<std::uint8_t*>(dg.data.data()), dg.data.size()};
      hdrs[i].msg_hdr.msg_iov = &iovs[i];
      hdrs[i].msg_hdr.msg_iovlen = 1;
      hdrs[i].msg_hdr.msg_name = &natives[i];
      hdrs[i].msg_hdr.msg_namelen = sizeof(sockaddr_in);
    }
    std::size_t sent = 0;
    while (sent < kept) {
      // UDP sendmmsg queues into socket buffers and returns — it does not
      // wait for the network.
      // purity-ok: non-waiting datagram enqueue
      int n = ::sendmmsg(fd, hdrs + sent,
                         static_cast<unsigned int>(kept - sent), 0);
      if (n < 0) {
        if (errno == EINTR) continue;
        return Error(errno_msg("udp sendmmsg"));  // purity-ok: error path
      }
      sent += static_cast<std::size_t>(n);
    }
    pos += chunk;
  }
  return Status::success();
}

}  // namespace

Status UdpSocket::send_many(std::span<const OutDatagram> batch) {
  return send_batch(fd_.get(), batch,
                    [](const OutDatagram& dg, sockaddr_in& sa) -> Status {
                      auto native = dg.to.to_native();  // purity-ok: error-path alloc inside
                      if (!native.ok()) return Error(native.error().message);  // purity-ok: error path
                      sa = native.value();
                      return Status::success();
                    });
}

Status UdpSocket::send_many_native(std::span<const NativeDatagram> batch) {
  return send_batch(fd_.get(), batch,
                    [](const NativeDatagram& dg, sockaddr_in& sa) {
                      sa = dg.to;
                      return Status::success();
                    });
}

Result<SockAddr> UdpSocket::local_addr() const {
  sockaddr_in sa{};
  socklen_t salen = sizeof(sa);
  if (::getsockname(fd_.get(), reinterpret_cast<sockaddr*>(&sa), &salen) != 0) {
    return Error(errno_msg("getsockname"));
  }
  return SockAddr::from_native(sa);
}

std::size_t UdpSocket::pending_bytes() const {
  int bytes = 0;
  if (::ioctl(fd_.get(), FIONREAD, &bytes) != 0 || bytes < 0) return 0;
  return static_cast<std::size_t>(bytes);
}

std::uint32_t UdpSocket::receive_drops() const {
#if defined(__linux__) && defined(SO_MEMINFO)
  std::uint32_t mem[SK_MEMINFO_VARS] = {};
  socklen_t len = sizeof(mem);
  if (::getsockopt(fd_.get(), SOL_SOCKET, SO_MEMINFO, mem, &len) == 0 &&
      len > SK_MEMINFO_DROPS * sizeof(std::uint32_t)) {
    return mem[SK_MEMINFO_DROPS];
  }
#endif
  return 0;
}

Result<TcpStream> TcpStream::connect(const SockAddr& addr, Duration timeout) {
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return Error(errno_msg("tcp socket"));
  auto native = addr.to_native();
  if (!native.ok()) return Error(native.error().message);
  auto sa = native.value();

  // Non-blocking connect with poll so a dead backend fails fast.
  int flags = ::fcntl(fd.get(), F_GETFL, 0);
  ::fcntl(fd.get(), F_SETFL, flags | O_NONBLOCK);
  int rc = ::connect(fd.get(), reinterpret_cast<sockaddr*>(&sa), sizeof(sa));
  if (rc != 0 && errno != EINPROGRESS) return Error(errno_msg("tcp connect"));
  if (rc != 0) {
    pollfd pfd{fd.get(), POLLOUT, 0};
    int ms = static_cast<int>((timeout.count() + 999'999) / 1'000'000);
    int pr = ::poll(&pfd, 1, ms > 0 ? ms : 1);
    if (pr <= 0) return Error("tcp connect: timeout");
    int err = 0;
    socklen_t len = sizeof(err);
    ::getsockopt(fd.get(), SOL_SOCKET, SO_ERROR, &err, &len);
    if (err != 0) {
      return Error(std::string("tcp connect: ") + std::strerror(err));
    }
  }
  ::fcntl(fd.get(), F_SETFL, flags);  // back to blocking

  int one = 1;
  ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return TcpStream(std::move(fd));
}

Status TcpStream::write_all(std::span<const std::uint8_t> data) {
  if (testing::FaultInjector::instance().should_fire(
          testing::FaultPoint::kNetTcpReset)) {
    return Error("tcp send: connection reset by peer (injected)");
  }
  std::size_t off = 0;
  while (off < data.size()) {
    ssize_t n = ::send(fd_.get(), data.data() + off, data.size() - off,
                       MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Error(errno_msg("tcp send"));
    }
    off += static_cast<std::size_t>(n);
  }
  return Status::success();
}

Status TcpStream::write_all(std::string_view data) {
  return write_all(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(data.data()), data.size()));
}

Result<std::optional<std::size_t>> TcpStream::read_some(
    std::span<std::uint8_t> buf, Duration timeout) {
  auto& faults = testing::FaultInjector::instance();
  if (faults.should_fire(testing::FaultPoint::kNetTcpReset)) {
    return Error("tcp recv: connection reset by peer (injected)");
  }
  std::size_t cap = buf.size();
  if (faults.should_fire(testing::FaultPoint::kNetTcpShortRead)) {
    const std::int64_t limit =
        faults.param(testing::FaultPoint::kNetTcpShortRead);
    cap = std::min(cap, static_cast<std::size_t>(limit > 0 ? limit : 1));
  }
  int ready = wait_readable(fd_.get(), timeout);
  if (ready < 0) return Error(errno_msg("tcp poll"));
  if (ready == 0) return std::optional<std::size_t>{};
  ssize_t n = ::recv(fd_.get(), buf.data(), cap, 0);
  if (n < 0) return Error(errno_msg("tcp recv"));
  return std::optional<std::size_t>{static_cast<std::size_t>(n)};
}

Result<SockAddr> TcpStream::peer_addr() const {
  sockaddr_in sa{};
  socklen_t salen = sizeof(sa);
  if (::getpeername(fd_.get(), reinterpret_cast<sockaddr*>(&sa), &salen) != 0) {
    return Error(errno_msg("getpeername"));
  }
  return SockAddr::from_native(sa);
}

void TcpStream::shutdown_write() { ::shutdown(fd_.get(), SHUT_WR); }

Result<TcpListener> TcpListener::listen(const SockAddr& addr) {
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return Error(errno_msg("tcp socket"));
  int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  auto native = addr.to_native();
  if (!native.ok()) return Error(native.error().message);
  auto sa = native.value();
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
    return Error(errno_msg("tcp bind"));
  }
  if (::listen(fd.get(), 128) != 0) return Error(errno_msg("tcp listen"));
  return TcpListener(std::move(fd));
}

Result<std::optional<TcpStream>> TcpListener::accept(Duration timeout) {
  int ready = wait_readable(fd_.get(), timeout);
  if (ready < 0) return Error(errno_msg("accept poll"));
  if (ready == 0) return std::optional<TcpStream>{};
  int cfd = ::accept(fd_.get(), nullptr, nullptr);
  if (cfd < 0) return Error(errno_msg("accept"));
  int one = 1;
  ::setsockopt(cfd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return std::optional<TcpStream>{TcpStream(Fd(cfd))};
}

Result<SockAddr> TcpListener::local_addr() const {
  sockaddr_in sa{};
  socklen_t salen = sizeof(sa);
  if (::getsockname(fd_.get(), reinterpret_cast<sockaddr*>(&sa), &salen) != 0) {
    return Error(errno_msg("getsockname"));
  }
  return SockAddr::from_native(sa);
}

}  // namespace janus::net
