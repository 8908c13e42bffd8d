// RAII socket primitives for the real-transport driver: UDP endpoints with
// poll-based receive timeouts (the router's 100 µs retry timer needs
// sub-millisecond waits), batched receives that wait inside the syscall,
// and blocking TCP streams for the HTTP front end. IPv4 only — Janus nodes
// address each other by resolved A records.
#pragma once

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/uio.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/clock.hpp"
#include "common/result.hpp"

namespace janus::net {

/// An IPv4 endpoint ("127.0.0.1", 8080).
struct SockAddr {
  std::string ip = "127.0.0.1";
  std::uint16_t port = 0;

  bool operator==(const SockAddr&) const = default;
  std::string to_string() const { return ip + ":" + std::to_string(port); }

  Result<sockaddr_in> to_native() const;
  /// The dotted quad inet_ntop writes, formatted without stdio; the text
  /// fits the string's inline buffer, so no heap either.
  static SockAddr from_native(const sockaddr_in& sa);
  /// Parse "ip:port" (the inverse of to_string). Rejects missing colon and
  /// out-of-range ports; does not validate the dotted quad (to_native does).
  static Result<SockAddr> parse(std::string_view text);
};

/// Owning file descriptor.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd();
  Fd(Fd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Fd& operator=(Fd&& other) noexcept;
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  void reset();

 private:
  int fd_ = -1;
};

/// Connectionless UDP endpoint (both the router's client side and the QoS
/// server's listener side).
class UdpSocket {
 public:
  /// Bind to ip:port; port 0 picks an ephemeral port.
  static Result<UdpSocket> bind(const SockAddr& addr);

  /// Unbound sender (the kernel assigns a source port on first send).
  static Result<UdpSocket> create();

  Status send_to(const SockAddr& dest, std::span<const std::uint8_t> data);

  /// send_to for a socket in O_NONBLOCK mode, with the same fault points:
  /// false when the socket buffer is full and nothing was sent.
  Result<bool> try_send_to(const SockAddr& dest,
                           std::span<const std::uint8_t> data);

  struct Datagram {
    std::vector<std::uint8_t> data;
    SockAddr from;
  };

  /// Wait up to `timeout` for one datagram; nullopt on timeout.
  /// timeout < 0 blocks indefinitely. The kernel writes into a receive
  /// buffer the socket allocates on its first recv and keeps; the result
  /// holds a copy of exactly the datagram's bytes. That buffer makes recv a
  /// one-thread-at-a-time call per socket (recv_many, with a batch per
  /// thread, is the shared receive).
  Result<std::optional<Datagram>> recv(Duration timeout);

  /// recv's buffer: 64 KiB holds the largest UDP payload over IPv4
  /// (65,507 bytes).
  static constexpr std::size_t kRecvBufferBytes = 64 * 1024;

  /// Hard cap on datagrams per batched syscall (send_many's mmsghdr arrays
  /// live on the stack in socket.cpp); RecvBatch capacities clamp to it.
  static constexpr std::size_t kMaxBatch = 64;
  /// Per-slot receive buffer for batched receives. The largest Janus wire
  /// frame (header + 4 KiB key + trace) is ~4.3 KiB; anything longer than a
  /// slot is dropped as truncated.
  static constexpr std::size_t kRecvSlotBytes = 8192;

  /// Reusable scratch for recv_many: slot buffers, address storage and the
  /// recvmmsg headers that point at them are built once here and reused
  /// across calls, so a steady-state receiver performs no per-wakeup heap
  /// allocation or header set-up inside the socket layer. Results are views
  /// into this batch's arena, valid until the next recv_many call on this
  /// batch. Movable (the heap blocks the headers point into move with it),
  /// not copyable.
  class RecvBatch {
   public:
    explicit RecvBatch(std::size_t capacity,
                       std::size_t slot_bytes = kRecvSlotBytes);
    RecvBatch(RecvBatch&&) noexcept = default;
    RecvBatch& operator=(RecvBatch&&) noexcept = default;
    RecvBatch(const RecvBatch&) = delete;
    RecvBatch& operator=(const RecvBatch&) = delete;

    std::size_t capacity() const { return capacity_; }
    /// Datagrams received by the last recv_many call.
    std::size_t size() const { return count_; }
    std::span<const std::uint8_t> data(std::size_t i) const;
    /// Datagram i's sender, as the kernel wrote it: a reply goes straight
    /// back to it (send_many_native).
    const sockaddr_in& native_from(std::size_t i) const {
      return addrs_[slots_[i]];
    }
    /// native_from(i) as text, formatted only when asked for.
    SockAddr from(std::size_t i) const {
      return SockAddr::from_native(native_from(i));
    }

    /// Per-slot payload capacity this batch was built with.
    std::size_t slot_bytes() const { return slot_bytes_; }

   private:
    friend class UdpSocket;
    std::size_t capacity_;
    std::size_t slot_bytes_;
    std::size_t count_ = 0;
    /// Headers the kernel wrote back in the last call; recv_many resets
    /// their msg_namelen (the only input the kernel overwrites) first.
    std::size_t written_ = 0;
    std::vector<std::uint8_t> arena_;    // capacity_ * slot_bytes_
    std::vector<sockaddr_in> addrs_;     // kernel-filled source addresses
    std::vector<::iovec> iovs_;          // slot i's arena range
    std::vector<::mmsghdr> hdrs_;        // slot i's iovec and address
    std::vector<std::uint32_t> lens_;    // per-result datagram length
    std::vector<std::uint32_t> slots_;   // result index -> slot index
  };

  /// One outbound datagram for send_many; `data` must stay alive for the
  /// duration of the call (it is not copied).
  struct OutDatagram {
    SockAddr to;
    std::span<const std::uint8_t> data;
  };
  /// OutDatagram addressed as the kernel reports a sender
  /// (RecvBatch::native_from), for send_many_native.
  struct NativeDatagram {
    sockaddr_in to;
    std::span<const std::uint8_t> data;
  };

  /// Wait up to `timeout` (0 = never, < 0 = forever) for the first
  /// datagram, then drain up to batch.capacity() datagrams in one recvmmsg
  /// (DESIGN.md §13). Returns the number received into `batch`; 0 =
  /// timeout, or the receive side was shut down (shutdown_read). The wait happens inside the syscall (SO_RCVTIMEO,
  /// MSG_WAITFORONE), where the kernel wakes one blocked thread per arriving
  /// datagram; poll() would wake them all. SO_RCVTIMEO is per socket, so
  /// threads sharing one must pass the same timeout. Fault semantics are
  /// per-datagram: each received datagram consults net.udp.drop_rx
  /// independently, exactly as the single-datagram recv() does.
  Result<std::size_t> recv_many(RecvBatch& batch, Duration timeout);

  /// Send a batch of datagrams with one sendmmsg per kMaxBatch chunk.
  /// Per-datagram fault semantics: net.udp.delay_us and net.udp.drop_tx
  /// fire independently for every datagram in the batch.
  Status send_many(std::span<const OutDatagram> batch);
  /// send_many for datagrams addressed in the kernel's form: nothing to
  /// parse, so no datagram can carry a bad address.
  Status send_many_native(std::span<const NativeDatagram> batch);

  /// Local address after bind (resolves ephemeral ports).
  Result<SockAddr> local_addr() const;

  /// Payload bytes of the datagram at the head of the kernel receive queue
  /// (SIOCINQ); 0 when the queue is empty.
  std::size_t pending_bytes() const;
  /// Datagrams the kernel dropped because this socket's receive buffer was
  /// full (SO_MEMINFO, SK_MEMINFO_DROPS). Monotonic modulo 2^32; 0 where the
  /// kernel does not report it.
  std::uint32_t receive_drops() const;

  int fd() const { return fd_.get(); }

  /// Shut the receive side: every thread blocked in recv_many on this socket
  /// returns 0 at once, and so does every later call once the queue is
  /// empty. Datagrams already queued can still be received; sends still
  /// work. This is how a server wakes workers that wait without a timeout.
  void shutdown_read();

  // Hand-written moves: the timeout cache is an atomic.
  UdpSocket(UdpSocket&& other) noexcept;
  UdpSocket& operator=(UdpSocket&& other) noexcept;
  UdpSocket(const UdpSocket&) = delete;
  UdpSocket& operator=(const UdpSocket&) = delete;

 private:
  explicit UdpSocket(Fd fd) : fd_(std::move(fd)) {}
  /// Make SO_RCVTIMEO match `timeout` (> 0, or < 0 for no limit), with a
  /// setsockopt only when it differs from rcvtimeo_us_.
  bool set_recv_timeout(Duration timeout);
  Fd fd_;
  std::atomic<std::int64_t> rcvtimeo_us_{0};  // µs; 0 = no limit (kernel's)
  /// recv's receive buffer, kRecvBufferBytes long, allocated on first use
  /// and never zero-filled.
  std::unique_ptr<std::uint8_t[]> recv_buf_;
};

/// Blocking TCP connection with poll-based timeouts.
class TcpStream {
 public:
  static Result<TcpStream> connect(const SockAddr& addr, Duration timeout);

  explicit TcpStream(Fd fd) : fd_(std::move(fd)) {}

  /// Write all bytes; fails on error or peer close.
  Status write_all(std::span<const std::uint8_t> data);
  Status write_all(std::string_view data);

  /// Read up to buf.size() bytes. 0 = clean peer close; nullopt = timeout.
  Result<std::optional<std::size_t>> read_some(std::span<std::uint8_t> buf,
                                               Duration timeout);

  Result<SockAddr> peer_addr() const;
  int fd() const { return fd_.get(); }
  void shutdown_write();

 private:
  Fd fd_;
};

class TcpListener {
 public:
  /// Listen on ip:port (port 0 = ephemeral); backlog 128.
  static Result<TcpListener> listen(const SockAddr& addr);

  /// Wait up to `timeout` for a connection; nullopt on timeout.
  /// timeout < 0 blocks indefinitely.
  Result<std::optional<TcpStream>> accept(Duration timeout);

  Result<SockAddr> local_addr() const;
  int fd() const { return fd_.get(); }

 private:
  explicit TcpListener(Fd fd) : fd_(std::move(fd)) {}
  Fd fd_;
};

}  // namespace janus::net
