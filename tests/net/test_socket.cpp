#include "net/socket.hpp"

#include <arpa/inet.h>
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "testing/fault_injector.hpp"

namespace janus::net {
namespace {

std::span<const std::uint8_t> bytes(std::string_view s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

TEST(SockAddrTest, ToStringFormatsIpPort) {
  SockAddr addr{"127.0.0.1", 8080};
  EXPECT_EQ(addr.to_string(), "127.0.0.1:8080");
}

TEST(SockAddrTest, NativeRoundTrip) {
  SockAddr addr{"10.1.2.3", 1234};
  auto native = addr.to_native();
  ASSERT_TRUE(native.ok());
  EXPECT_EQ(SockAddr::from_native(native.value()), addr);
}

/// from_native next to inet_ntop for one address given in network order.
void expect_formats_like_inet_ntop(const unsigned char (&octets)[4],
                                   std::uint16_t port) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_port = htons(port);
  std::memcpy(&sa.sin_addr.s_addr, octets, sizeof(octets));
  char expected[INET_ADDRSTRLEN] = {};
  ASSERT_NE(::inet_ntop(AF_INET, &sa.sin_addr, expected, sizeof(expected)),
            nullptr);
  const SockAddr got = SockAddr::from_native(sa);
  ASSERT_EQ(got.ip, expected);
  ASSERT_EQ(got.port, port);
}

TEST(SockAddrTest, FromNativeFormatsLikeInetNtop) {
  expect_formats_like_inet_ntop({0, 0, 0, 0}, 0);
  expect_formats_like_inet_ntop({255, 255, 255, 255}, 65535);
  // Every digit-count boundary in every position: all 8^4 combinations.
  const unsigned char edges[] = {0, 9, 10, 99, 100, 199, 200, 255};
  for (unsigned char a : edges) {
    for (unsigned char b : edges) {
      for (unsigned char c : edges) {
        for (unsigned char d : edges) {
          expect_formats_like_inet_ntop({a, b, c, d}, 8080);
        }
      }
    }
  }
  std::mt19937 rng(20260419);
  for (int i = 0; i < 10'000; ++i) {
    const std::uint32_t bits = rng();
    const unsigned char octets[4] = {
        static_cast<unsigned char>(bits >> 24),
        static_cast<unsigned char>(bits >> 16),
        static_cast<unsigned char>(bits >> 8), static_cast<unsigned char>(bits)};
    expect_formats_like_inet_ntop(octets, static_cast<std::uint16_t>(rng()));
  }
}

TEST(SockAddrTest, RejectsBadAddress) {
  EXPECT_FALSE((SockAddr{"not-an-ip", 1}).to_native().ok());
  EXPECT_FALSE((SockAddr{"256.0.0.1", 1}).to_native().ok());
}

TEST(UdpSocketTest, BindEphemeralAssignsPort) {
  auto sock = UdpSocket::bind({"127.0.0.1", 0});
  ASSERT_TRUE(sock.ok());
  auto addr = sock.value().local_addr();
  ASSERT_TRUE(addr.ok());
  EXPECT_GT(addr.value().port, 0);
}

TEST(UdpSocketTest, SendAndReceiveDatagram) {
  auto server = UdpSocket::bind({"127.0.0.1", 0});
  ASSERT_TRUE(server.ok());
  auto server_addr = server.value().local_addr().value();

  auto client = UdpSocket::create();
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.value().send_to(server_addr, bytes("ping")).ok());

  auto dg = server.value().recv(millis(500));
  ASSERT_TRUE(dg.ok());
  ASSERT_TRUE(dg.value().has_value());
  EXPECT_EQ(std::string(dg.value()->data.begin(), dg.value()->data.end()),
            "ping");

  // Reply to the observed source address.
  ASSERT_TRUE(server.value().send_to(dg.value()->from, bytes("pong")).ok());
  auto reply = client.value().recv(millis(500));
  ASSERT_TRUE(reply.ok());
  ASSERT_TRUE(reply.value().has_value());
  EXPECT_EQ(std::string(reply.value()->data.begin(), reply.value()->data.end()),
            "pong");
}

TEST(UdpSocketTest, RecvTimesOutCleanly) {
  auto sock = UdpSocket::bind({"127.0.0.1", 0});
  ASSERT_TRUE(sock.ok());
  const auto start = std::chrono::steady_clock::now();
  auto dg = sock.value().recv(millis(20));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(dg.ok());
  EXPECT_FALSE(dg.value().has_value());
  EXPECT_LT(elapsed, std::chrono::seconds(2));
}

TEST(UdpSocketTest, DatagramBoundariesPreserved) {
  auto server = UdpSocket::bind({"127.0.0.1", 0});
  ASSERT_TRUE(server.ok());
  auto addr = server.value().local_addr().value();
  auto client = UdpSocket::create();
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.value().send_to(addr, bytes("one")).ok());
  ASSERT_TRUE(client.value().send_to(addr, bytes("twotwo")).ok());
  auto first = server.value().recv(millis(500));
  auto second = server.value().recv(millis(500));
  ASSERT_TRUE(first.ok() && first.value().has_value());
  ASSERT_TRUE(second.ok() && second.value().has_value());
  EXPECT_EQ(first.value()->data.size(), 3u);
  EXPECT_EQ(second.value()->data.size(), 6u);
}

TEST(UdpSocketTest, RecvReturnsExactlyEachDatagramAndItsSender) {
  // Back to back on one socket, through the one receive buffer: the empty
  // datagram, a single byte, a wire-frame size and the largest IPv4 payload.
  auto server = UdpSocket::bind({"127.0.0.1", 0});
  ASSERT_TRUE(server.ok());
  const auto addr = server.value().local_addr().value();
  auto client = UdpSocket::bind({"127.0.0.1", 0});
  ASSERT_TRUE(client.ok());
  const auto client_addr = client.value().local_addr().value();

  const std::size_t sizes[] = {0, 1, 512, 65'507, 1, 0};
  std::vector<std::vector<std::uint8_t>> sent;
  for (std::size_t i = 0; i < std::size(sizes); ++i) {
    std::vector<std::uint8_t> payload(sizes[i]);
    for (std::size_t b = 0; b < payload.size(); ++b) {
      payload[b] = static_cast<std::uint8_t>(b * 31 + i);
    }
    sent.push_back(std::move(payload));
  }
  for (const auto& payload : sent) {
    ASSERT_TRUE(client.value().send_to(addr, payload).ok());
    auto dg = server.value().recv(millis(500));
    ASSERT_TRUE(dg.ok());
    ASSERT_TRUE(dg.value().has_value()) << payload.size() << " bytes";
    EXPECT_EQ(dg.value()->data, payload) << payload.size() << " bytes";
    EXPECT_EQ(dg.value()->from, client_addr);
  }
}

TEST(UdpSocketTest, RecvConsultsDropRxOncePerDatagram) {
  auto server = UdpSocket::bind({"127.0.0.1", 0});
  ASSERT_TRUE(server.ok());
  const auto addr = server.value().local_addr().value();
  auto client = UdpSocket::create();
  ASSERT_TRUE(client.ok());

  auto& inj = testing::FaultInjector::instance();
  inj.seed(7);
  constexpr int kDatagrams = 40;
  int delivered = 0;
  {
    testing::ScopedFault drop(testing::FaultPoint::kNetUdpDropRx,
                              {.probability = 0.5});
    for (int i = 0; i < kDatagrams; ++i) {
      ASSERT_TRUE(client.value().send_to(addr, bytes("dg")).ok());
      auto dg = server.value().recv(millis(500));
      ASSERT_TRUE(dg.ok());
      if (dg.value().has_value()) ++delivered;
    }
    EXPECT_EQ(inj.hits(testing::FaultPoint::kNetUdpDropRx),
              static_cast<std::uint64_t>(kDatagrams));
    EXPECT_EQ(inj.fires(testing::FaultPoint::kNetUdpDropRx),
              static_cast<std::uint64_t>(kDatagrams - delivered));
  }
  EXPECT_GT(delivered, 0);
  EXPECT_LT(delivered, kDatagrams);
  // Each recv took exactly one datagram: nothing is left queued.
  auto rest = server.value().recv(millis(20));
  ASSERT_TRUE(rest.ok());
  EXPECT_FALSE(rest.value().has_value());
}

std::multiset<std::string> recv_all(UdpSocket& sock, std::size_t expect) {
  UdpSocket::RecvBatch batch(8);
  std::multiset<std::string> got;
  // Datagrams from separate sendto calls may land across wakeups; keep
  // draining until everything expected arrived (or the window closes).
  for (int spins = 0; got.size() < expect && spins < 50; ++spins) {
    auto n = sock.recv_many(batch, millis(100));
    if (!n.ok()) break;
    for (std::size_t i = 0; i < n.value(); ++i) {
      auto d = batch.data(i);
      got.emplace(reinterpret_cast<const char*>(d.data()), d.size());
    }
  }
  return got;
}

// ---------------------------------------------------------------------------
// The batch suite: every behavior of the one datagram provider,
// recvmmsg/sendmmsg (DESIGN.md §13).
// ---------------------------------------------------------------------------
class UdpSocketProviderTest : public ::testing::Test {
 protected:
  /// Bound receiving socket.
  UdpSocket make_server() {
    auto sock = UdpSocket::bind({"127.0.0.1", 0});
    EXPECT_TRUE(sock.ok());
    return std::move(sock).take();
  }

  /// Unbound sender (exercises send_many).
  UdpSocket make_client() {
    auto sock = UdpSocket::create();
    EXPECT_TRUE(sock.ok());
    return std::move(sock).take();
  }
};

TEST_F(UdpSocketProviderTest, RecvManyDrainsMultipleDatagrams) {
  UdpSocket server = make_server();
  auto addr = server.local_addr().value();
  auto client = UdpSocket::create();
  ASSERT_TRUE(client.ok());
  const std::multiset<std::string> sent = {"a", "bb", "ccc", "dddd", "eeeee"};
  for (const auto& p : sent) {
    ASSERT_TRUE(client.value().send_to(addr, bytes(p)).ok());
  }
  // Loopback delivery completes inside send_to, so all five datagrams are
  // queued before this single recv_many — one call must drain the lot
  // (the "batch >= 2 under load" acceptance shape, deterministically).
  UdpSocket::RecvBatch batch(8);
  auto n = server.recv_many(batch, millis(500));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), sent.size());
  std::multiset<std::string> got;
  for (std::size_t i = 0; i < n.value(); ++i) {
    auto d = batch.data(i);
    got.emplace(reinterpret_cast<const char*>(d.data()), d.size());
  }
  EXPECT_EQ(got, sent);
}

TEST_F(UdpSocketProviderTest, SendManyDeliversEveryDatagram) {
  UdpSocket server = make_server();
  auto addr = server.local_addr().value();
  UdpSocket client = make_client();

  const std::multiset<std::string> payloads = {"one", "two", "three", "four"};
  std::vector<std::string> frames(payloads.begin(), payloads.end());
  std::vector<UdpSocket::OutDatagram> burst;
  for (const auto& f : frames) burst.push_back({addr, bytes(f)});
  ASSERT_TRUE(client.send_many(burst).ok());

  EXPECT_EQ(recv_all(server, payloads.size()), payloads);
}

TEST_F(UdpSocketProviderTest, NativeRepliesReachEachSender) {
  // Clients on distinct ports each send a request; the receiver answers the
  // whole batch with one send_many_native to the addresses the kernel
  // wrote, and every client gets its own reply and no other.
  UdpSocket server = make_server();
  const auto addr = server.local_addr().value();
  constexpr int kClients = 5;
  std::vector<UdpSocket> clients;
  std::set<std::uint16_t> ports;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(make_server());
    ports.insert(clients.back().local_addr().value().port);
    const std::string request = "request-" + std::to_string(c);
    ASSERT_TRUE(clients.back().send_to(addr, bytes(request)).ok());
  }
  ASSERT_EQ(ports.size(), static_cast<std::size_t>(kClients));

  UdpSocket::RecvBatch batch(8);
  std::vector<std::string> replies;
  std::vector<UdpSocket::NativeDatagram> out;
  auto n = server.recv_many(batch, millis(500));
  ASSERT_TRUE(n.ok());
  ASSERT_EQ(n.value(), static_cast<std::size_t>(kClients));
  replies.reserve(n.value());
  for (std::size_t i = 0; i < n.value(); ++i) {
    const auto d = batch.data(i);
    // The text form names the same sender as the kernel's form.
    EXPECT_EQ(batch.from(i).port, ntohs(batch.native_from(i).sin_port));
    EXPECT_EQ(batch.from(i).ip, "127.0.0.1");
    replies.push_back(
        "reply-to-" +
        std::string(reinterpret_cast<const char*>(d.data()), d.size()));
    out.push_back({batch.native_from(i), bytes(replies.back())});
  }
  ASSERT_TRUE(server.send_many_native(out).ok());

  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(recv_all(clients[c], 1),
              std::multiset<std::string>{"reply-to-request-" +
                                         std::to_string(c)})
        << "client " << c;
    auto extra = clients[c].recv(millis(20));
    ASSERT_TRUE(extra.ok());
    EXPECT_FALSE(extra.value().has_value()) << "client " << c;
  }
}

TEST_F(UdpSocketProviderTest, RecvManyTimesOutWithZero) {
  UdpSocket server = make_server();
  UdpSocket::RecvBatch batch(4);
  auto n = server.recv_many(batch, millis(20));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 0u);
}

TEST_F(UdpSocketProviderTest, ShutdownReadWakesEveryBlockedReceiver) {
  // A receive with no timeout ends only by a datagram or shutdown_read; the
  // end-of-stream entry the kernel returns then is not a datagram.
  UdpSocket server = make_server();
  constexpr int kReceivers = 3;
  std::atomic<int> woken{0};
  std::atomic<std::size_t> received{0};
  std::vector<std::thread> receivers;
  for (int i = 0; i < kReceivers; ++i) {
    receivers.emplace_back([&] {
      UdpSocket::RecvBatch batch(4);
      auto n = server.recv_many(batch, Duration{-1});
      if (n.ok()) received.fetch_add(n.value());
      woken.fetch_add(1);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(woken.load(), 0) << "a receiver returned before shutdown_read";
  server.shutdown_read();
  for (auto& t : receivers) t.join();
  EXPECT_EQ(woken.load(), kReceivers);
  EXPECT_EQ(received.load(), 0u);
}

TEST_F(UdpSocketProviderTest, ShutdownReadKeepsQueuedAndEmptyDatagrams) {
  // Datagrams queued before the shutdown are still delivered, an empty one
  // included (it carries its sender's address); then receives return 0.
  UdpSocket server = make_server();
  auto addr = server.local_addr().value();
  UdpSocket client = make_client();
  ASSERT_TRUE(client.send_to(addr, bytes("queued")).ok());
  ASSERT_TRUE(client.send_to(addr, bytes("")).ok());
  server.shutdown_read();
  UdpSocket::RecvBatch batch(4);
  auto n = server.recv_many(batch, Duration{-1});
  ASSERT_TRUE(n.ok());
  ASSERT_EQ(n.value(), 2u);
  EXPECT_EQ(batch.data(0).size(), 6u);
  EXPECT_EQ(batch.data(1).size(), 0u);
  EXPECT_EQ(batch.from(1).port, client.local_addr().value().port);
  auto again = server.recv_many(batch, Duration{-1});
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value(), 0u);
}

TEST_F(UdpSocketProviderTest, ReusedBatchIsResetAfterLargerBatchAndShutdown) {
  // A batch's headers are built once; each call resets what the kernel
  // wrote back in the previous one. A smaller batch after a larger one,
  // and a batch after shutdown_read's end-of-stream entries (address
  // length 0), must still report every length and sender.
  UdpSocket first = make_server();
  const auto first_addr = first.local_addr().value();
  UdpSocket a = make_server();  // bound, so its address is known
  UdpSocket b = make_server();
  const auto a_addr = a.local_addr().value();
  const auto b_addr = b.local_addr().value();
  UdpSocket::RecvBatch batch(4);

  auto expect_batch = [&](std::size_t n, std::vector<std::size_t> lens,
                          const SockAddr& from) {
    ASSERT_EQ(n, lens.size());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(batch.data(i).size(), lens[i]) << "datagram " << i;
      EXPECT_EQ(batch.from(i), from) << "datagram " << i;
    }
  };

  for (const char* p : {"1", "22", "333", "4444"}) {
    ASSERT_TRUE(a.send_to(first_addr, bytes(p)).ok());
  }
  auto n = first.recv_many(batch, millis(500));
  ASSERT_TRUE(n.ok());
  expect_batch(n.value(), {1, 2, 3, 4}, a_addr);

  ASSERT_TRUE(b.send_to(first_addr, bytes("bbbbbbb")).ok());
  n = first.recv_many(batch, millis(500));
  ASSERT_TRUE(n.ok());
  expect_batch(n.value(), {7}, b_addr);

  // One queued datagram, then the end of the stream: the kernel fills the
  // batch's other headers with end-of-stream entries.
  ASSERT_TRUE(a.send_to(first_addr, bytes("last")).ok());
  first.shutdown_read();
  n = first.recv_many(batch, Duration{-1});
  ASSERT_TRUE(n.ok());
  expect_batch(n.value(), {4}, a_addr);
  n = first.recv_many(batch, Duration{-1});
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 0u);

  // The same batch on a second socket: an empty datagram is a datagram
  // again, and every sender is reported.
  UdpSocket second = make_server();
  const auto second_addr = second.local_addr().value();
  ASSERT_TRUE(b.send_to(second_addr, bytes("")).ok());
  ASSERT_TRUE(b.send_to(second_addr, bytes("yy")).ok());
  ASSERT_TRUE(b.send_to(second_addr, bytes("")).ok());
  n = second.recv_many(batch, millis(500));
  ASSERT_TRUE(n.ok());
  expect_batch(n.value(), {0, 2, 0}, b_addr);
}

TEST_F(UdpSocketProviderTest, SingleRecvRoutesThroughProvider) {
  // recv() (poll plus recvfrom) keeps working beside the batch path.
  UdpSocket server = make_server();
  auto addr = server.local_addr().value();
  auto client = UdpSocket::create();
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.value().send_to(addr, bytes("solo")).ok());
  auto dg = server.recv(millis(500));
  ASSERT_TRUE(dg.ok());
  ASSERT_TRUE(dg.value().has_value());
  EXPECT_EQ(std::string(dg.value()->data.begin(), dg.value()->data.end()),
            "solo");
}

TEST_F(UdpSocketProviderTest, EintrMidBatchReturnsDrainedDatagrams) {
  // Regression (PR 9): a signal interrupting the batched receive used to
  // surface as an Error even when datagrams had already been drained. The
  // injected EINTR fires before data is touched; recv_many must retry and
  // deliver every queued datagram without reporting an error.
  UdpSocket server = make_server();
  auto addr = server.local_addr().value();
  auto client = UdpSocket::create();
  ASSERT_TRUE(client.ok());
  const std::multiset<std::string> sent = {"sig", "nal", "safe"};
  for (const auto& p : sent) {
    ASSERT_TRUE(client.value().send_to(addr, bytes(p)).ok());
  }

  auto& inj = testing::FaultInjector::instance();
  inj.seed(42);
  {
    testing::ScopedFault eintr(testing::FaultPoint::kNetUdpEintr,
                               {.probability = 1.0, .max_fires = 2});
    UdpSocket::RecvBatch batch(8);
    std::multiset<std::string> got;
    for (int spins = 0; got.size() < sent.size() && spins < 50; ++spins) {
      auto n = server.recv_many(batch, millis(200));
      ASSERT_TRUE(n.ok()) << "EINTR mid-batch must not surface as an error";
      for (std::size_t i = 0; i < n.value(); ++i) {
        auto d = batch.data(i);
        got.emplace(reinterpret_cast<const char*>(d.data()), d.size());
      }
    }
    EXPECT_EQ(got, sent);
    EXPECT_EQ(inj.fires(testing::FaultPoint::kNetUdpEintr), 2u)
        << "fault was armed but recv_many never consulted it";
  }
}

TEST_F(UdpSocketProviderTest, SmallSlotBatchIsRevalidatedOrTruncates) {
  // A batch built with tiny slots: recv_many keeps the caller's slot size
  // and drops oversized datagrams as truncated.
  UdpSocket server = make_server();
  auto addr = server.local_addr().value();
  auto client = UdpSocket::create();
  ASSERT_TRUE(client.ok());
  const std::string big(128, 'x');
  ASSERT_TRUE(client.value().send_to(addr, bytes(big)).ok());

  UdpSocket::RecvBatch batch(4, 16);
  ASSERT_EQ(batch.slot_bytes(), 16u);
  auto n = server.recv_many(batch, millis(300));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(batch.slot_bytes(), 16u);
  EXPECT_EQ(n.value(), 0u);  // truncated datagram dropped
}

// Threads sharing one socket are woken one per arriving datagram: recv_many
// waits inside recvmmsg, where the kernel queues blocked receivers as
// exclusive waiters. A poll()-based wait wakes every waiter, and all but one
// come back empty before their timeout.
class UdpSocketSharedReceiveTest : public UdpSocketProviderTest {};

TEST_F(UdpSocketSharedReceiveTest, OneDatagramWakesExactlyOneReceiver) {
  UdpSocket server = make_server();
  auto addr = server.local_addr().value();
  auto client = UdpSocket::create();
  ASSERT_TRUE(client.ok());

  constexpr int kReceivers = 4;
  const Duration timeout = seconds(2);
  struct Outcome {
    bool ok = false;
    std::size_t got = 0;
    std::chrono::steady_clock::duration waited{};
  };
  std::vector<Outcome> outcomes(kReceivers);
  std::atomic<int> started{0};
  std::vector<std::thread> receivers;
  for (int t = 0; t < kReceivers; ++t) {
    receivers.emplace_back([&, t] {
      UdpSocket::RecvBatch batch(8);
      started.fetch_add(1);
      const auto start = std::chrono::steady_clock::now();
      auto n = server.recv_many(batch, timeout);
      outcomes[t].waited = std::chrono::steady_clock::now() - start;
      outcomes[t].ok = n.ok();
      if (n.ok()) outcomes[t].got = n.value();
    });
  }
  // Gaps long enough for each woken receiver to take its datagram before
  // the next one lands, even on a loaded host.
  while (started.load() < kReceivers) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));  // all block
  for (int i = 0; i < kReceivers; ++i) {
    EXPECT_TRUE(
        client.value().send_to(addr, bytes("wake-" + std::to_string(i))).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  for (auto& th : receivers) th.join();

  for (int t = 0; t < kReceivers; ++t) {
    const auto waited_ms =
        std::chrono::duration_cast<std::chrono::milliseconds>(
            outcomes[t].waited)
            .count();
    EXPECT_TRUE(outcomes[t].ok) << "receiver " << t;
    EXPECT_EQ(outcomes[t].got, 1u)
        << "receiver " << t << " returned after " << waited_ms << " ms";
    if (outcomes[t].got == 0) {
      EXPECT_GE(outcomes[t].waited, timeout)
          << "receiver " << t << " woke with nothing to receive after "
          << waited_ms << " ms";
    }
  }
}

TEST(UdpSocketBatchTest, RecvBatchCapacityIsClamped) {
  UdpSocket::RecvBatch tiny(0);
  EXPECT_EQ(tiny.capacity(), 1u);
  UdpSocket::RecvBatch huge(10'000);
  EXPECT_EQ(huge.capacity(), UdpSocket::kMaxBatch);
}

TEST(UdpSocketBatchTest, SendManyEmptyBatchIsNoop) {
  auto sock = UdpSocket::create();
  ASSERT_TRUE(sock.ok());
  EXPECT_TRUE(sock.value().send_many({}).ok());
}

TEST(TcpTest, ListenConnectExchange) {
  auto listener = TcpListener::listen({"127.0.0.1", 0});
  ASSERT_TRUE(listener.ok());
  auto addr = listener.value().local_addr().value();

  std::thread server([&] {
    auto conn = listener.value().accept(seconds(5));
    ASSERT_TRUE(conn.ok());
    ASSERT_TRUE(conn.value().has_value());
    TcpStream stream = std::move(*conn.value());
    std::uint8_t buf[64];
    auto n = stream.read_some(buf, seconds(5));
    ASSERT_TRUE(n.ok());
    ASSERT_TRUE(n.value().has_value());
    EXPECT_EQ(std::string(reinterpret_cast<char*>(buf), *n.value()), "hello");
    ASSERT_TRUE(stream.write_all("world").ok());
  });

  auto client = TcpStream::connect(addr, seconds(5));
  ASSERT_TRUE(client.ok());
  TcpStream stream = std::move(client).take();
  ASSERT_TRUE(stream.write_all("hello").ok());
  std::uint8_t buf[64];
  auto n = stream.read_some(buf, seconds(5));
  ASSERT_TRUE(n.ok());
  ASSERT_TRUE(n.value().has_value());
  EXPECT_EQ(std::string(reinterpret_cast<char*>(buf), *n.value()), "world");
  server.join();
}

TEST(TcpTest, AcceptTimesOut) {
  auto listener = TcpListener::listen({"127.0.0.1", 0});
  ASSERT_TRUE(listener.ok());
  auto conn = listener.value().accept(millis(20));
  ASSERT_TRUE(conn.ok());
  EXPECT_FALSE(conn.value().has_value());
}

TEST(TcpTest, ConnectToClosedPortFails) {
  // Bind + close to find a port that is (very likely) not listening.
  std::uint16_t port;
  {
    auto temp = TcpListener::listen({"127.0.0.1", 0});
    ASSERT_TRUE(temp.ok());
    port = temp.value().local_addr().value().port;
  }
  auto client = TcpStream::connect({"127.0.0.1", port}, millis(200));
  EXPECT_FALSE(client.ok());
}

TEST(TcpTest, ReadDetectsPeerClose) {
  auto listener = TcpListener::listen({"127.0.0.1", 0});
  ASSERT_TRUE(listener.ok());
  auto addr = listener.value().local_addr().value();
  std::thread server([&] {
    auto conn = listener.value().accept(seconds(5));
    ASSERT_TRUE(conn.ok() && conn.value().has_value());
    // Close immediately.
  });
  auto client = TcpStream::connect(addr, seconds(5));
  ASSERT_TRUE(client.ok());
  server.join();
  std::uint8_t buf[16];
  auto n = client.value().read_some(buf, seconds(5));
  ASSERT_TRUE(n.ok());
  ASSERT_TRUE(n.value().has_value());
  EXPECT_EQ(*n.value(), 0u);  // clean EOF
}

}  // namespace
}  // namespace janus::net
