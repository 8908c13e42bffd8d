// Regression tests for the HttpServer's connection multiplexing: its loops
// (one per CPU in the affinity mask) must serve far more simultaneous
// keep-alive connections than there are loops, and an idle connection must
// cost a waiting request nothing. Without this, the gateway balancer's
// persistent backend connections starve.
#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "net/http.hpp"

namespace janus::net {
namespace {

/// Make room for `want` fds: raise the soft limit (up to the hard limit;
/// false if that is lower), then grow the process's fd table to that size
/// once. Growing it in a multi-threaded process waits out an RCU grace
/// period (tens of ms here), which would otherwise land on whichever
/// request first needs a bigger table.
bool reserve_fds(rlim_t want) {
  rlimit lim{};
  if (::getrlimit(RLIMIT_NOFILE, &lim) != 0) return false;
  if (lim.rlim_cur < want) {
    if (lim.rlim_max != RLIM_INFINITY && lim.rlim_max < want) return false;
    lim.rlim_cur = want;
    if (::setrlimit(RLIMIT_NOFILE, &lim) != 0) return false;
  }
  const int high = ::fcntl(STDERR_FILENO, F_DUPFD, static_cast<int>(want) - 1);
  if (high >= 0) ::close(high);
  return true;
}

TEST(HttpMultiplexTest, MoreKeepAliveConnectionsThanWorkers) {
  auto server = HttpServer::start(
      {"127.0.0.1", 0},
      [](const HttpRequest& req) {
        return HttpResponse::text(200, "echo:" + req.target);
      });
  ASSERT_TRUE(server.ok());

  // 6 persistent connections against 2 workers, interleaved requests.
  constexpr int kClients = 6;
  constexpr int kRounds = 5;
  std::vector<std::unique_ptr<HttpClient>> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(
        std::make_unique<HttpClient>(server.value()->addr(), seconds(5)));
  }
  for (int round = 0; round < kRounds; ++round) {
    for (int c = 0; c < kClients; ++c) {
      auto resp = clients[c]->get("/r" + std::to_string(round * 10 + c));
      ASSERT_TRUE(resp.ok()) << "client " << c << " round " << round << ": "
                             << resp.error().message;
      EXPECT_EQ(resp.value().body,
                "echo:/r" + std::to_string(round * 10 + c));
    }
  }
}

TEST(HttpMultiplexTest, ConcurrentPersistentClientsAllProgress) {
  auto server = HttpServer::start(
      {"127.0.0.1", 0},
      [](const HttpRequest&) { return HttpResponse::text(200, "ok"); });
  ASSERT_TRUE(server.ok());

  constexpr int kClients = 8;
  constexpr int kRequests = 15;
  std::atomic<int> done{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&] {
      HttpClient client(server.value()->addr(), seconds(10));
      for (int i = 0; i < kRequests; ++i) {
        auto resp = client.get("/x");
        if (resp.ok() && resp.value().status == 200) done.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(done.load(), kClients * kRequests);
}

TEST(HttpMultiplexTest, ParkingNeverSplitsAPartialRequest) {
  // Dribble a request in two halves with a pause in between while another
  // connection keeps the server busy: the connection's parser state must
  // survive the gap, and the request is answered once its second half
  // arrives. (The name predates the loops: connections used to be parked
  // between reads, and must never have been parked mid-request.)
  auto server = HttpServer::start(
      {"127.0.0.1", 0},
      [](const HttpRequest& req) {
        return HttpResponse::text(200, std::string(req.target));
      });
  ASSERT_TRUE(server.ok());

  // Background traffic on another connection.
  std::atomic<bool> stop{false};
  std::thread noise([&] {
    HttpClient client(server.value()->addr(), seconds(5));
    while (!stop.load()) {
      (void)client.get("/noise");
    }
  });

  auto conn = TcpStream::connect(server.value()->addr(), seconds(5));
  ASSERT_TRUE(conn.ok());
  const std::string full = "GET /split HTTP/1.1\r\nHost: x\r\n\r\n";
  ASSERT_TRUE(conn.value().write_all(full.substr(0, 12)).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  ASSERT_TRUE(conn.value().write_all(full.substr(12)).ok());

  std::string got;
  std::uint8_t buf[1024];
  for (int i = 0; i < 50 && got.find("/split") == std::string::npos; ++i) {
    auto n = conn.value().read_some(buf, millis(200));
    ASSERT_TRUE(n.ok());
    if (n.value() && *n.value() > 0) {
      got.append(reinterpret_cast<char*>(buf), *n.value());
    }
  }
  stop.store(true);
  noise.join();
  EXPECT_NE(got.find("200"), std::string::npos);
  EXPECT_NE(got.find("/split"), std::string::npos);
}

TEST(HttpMultiplexTest, ThousandKeepAliveConnectionsEachUnderTenMs) {
  // 1,000 idle keep-alive connections must cost a request on any one of
  // them nothing: each request is answered at once, whichever connection
  // it arrives on. (A blocking worker pool holds an idle connection for a
  // read timeout before it moves on, so round-robin over more connections
  // than workers waits that timeout on almost every request.)
  constexpr int kConnections = 1000;
  constexpr int kRounds = 3;
  // Both ends live in this process: two fds per connection, plus slack.
  if (!reserve_fds(2 * kConnections + 256)) {
    GTEST_SKIP() << "RLIMIT_NOFILE hard limit below " << 2 * kConnections + 256;
  }
  auto server = HttpServer::start(
      {"127.0.0.1", 0},
      [](const HttpRequest& req) {
        return HttpResponse::text(200, "echo:" + req.target);
      });
  ASSERT_TRUE(server.ok()) << server.error().message;

  std::vector<std::unique_ptr<HttpClient>> clients;
  for (int c = 0; c < kConnections; ++c) {
    clients.push_back(
        std::make_unique<HttpClient>(server.value()->addr(), seconds(5)));
  }
  auto slowest = std::chrono::steady_clock::duration::zero();
  for (int round = 0; round < kRounds; ++round) {
    for (int c = 0; c < kConnections; ++c) {
      const std::string target = "/c" + std::to_string(c);
      const auto start = std::chrono::steady_clock::now();
      auto resp = clients[c]->get(target);
      const auto took = std::chrono::steady_clock::now() - start;
      ASSERT_TRUE(resp.ok()) << "connection " << c << " round " << round
                             << ": " << resp.error().message;
      ASSERT_EQ(resp.value().body, "echo:" + target);
      EXPECT_LT(took, std::chrono::milliseconds(10))
          << "connection " << c << " round " << round;
      slowest = std::max(slowest, took);
    }
  }
  RecordProperty(
      "slowest_us",
      static_cast<int>(
          std::chrono::duration_cast<std::chrono::microseconds>(slowest)
              .count()));
}

}  // namespace
}  // namespace janus::net
