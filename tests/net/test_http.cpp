#include "net/http.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

namespace janus::net {
namespace {

// ------------------------------------------------------------- HttpParser

TEST(HttpParserTest, ParsesSimpleRequest) {
  HttpParser p(HttpParser::Kind::kRequest);
  p.feed("GET /qos?key=a HTTP/1.1\r\nHost: janus\r\n\r\n");
  auto req = p.next_request();
  ASSERT_TRUE(req.ok());
  ASSERT_TRUE(req.value().has_value());
  EXPECT_EQ(req.value()->method, "GET");
  EXPECT_EQ(req.value()->target, "/qos?key=a");
  EXPECT_EQ(req.value()->header("host"), "janus");  // case-insensitive
}

TEST(HttpParserTest, IncrementalFeeding) {
  HttpParser p(HttpParser::Kind::kRequest);
  const std::string raw = "GET / HTTP/1.1\r\nA: b\r\n\r\n";
  for (char c : raw.substr(0, raw.size() - 1)) {
    p.feed(std::string_view(&c, 1));
    auto req = p.next_request();
    ASSERT_TRUE(req.ok());
    EXPECT_FALSE(req.value().has_value());
  }
  p.feed(std::string_view(&raw.back(), 1));
  auto req = p.next_request();
  ASSERT_TRUE(req.ok());
  EXPECT_TRUE(req.value().has_value());
}

TEST(HttpParserTest, ParsesBodyWithContentLength) {
  HttpParser p(HttpParser::Kind::kRequest);
  p.feed("POST /x HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello");
  auto req = p.next_request();
  ASSERT_TRUE(req.ok());
  ASSERT_TRUE(req.value().has_value());
  EXPECT_EQ(req.value()->body, "hello");
}

TEST(HttpParserTest, WaitsForFullBody) {
  HttpParser p(HttpParser::Kind::kRequest);
  p.feed("POST /x HTTP/1.1\r\nContent-Length: 5\r\n\r\nhel");
  auto req = p.next_request();
  ASSERT_TRUE(req.ok());
  EXPECT_FALSE(req.value().has_value());
  p.feed("lo");
  req = p.next_request();
  ASSERT_TRUE(req.ok());
  EXPECT_TRUE(req.value().has_value());
}

TEST(HttpParserTest, PipelinedRequests) {
  HttpParser p(HttpParser::Kind::kRequest);
  p.feed("GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n");
  auto first = p.next_request();
  ASSERT_TRUE(first.ok() && first.value().has_value());
  EXPECT_EQ(first.value()->target, "/a");
  auto second = p.next_request();
  ASSERT_TRUE(second.ok() && second.value().has_value());
  EXPECT_EQ(second.value()->target, "/b");
}

TEST(HttpParserTest, RejectsMalformedRequestLine) {
  HttpParser p(HttpParser::Kind::kRequest);
  p.feed("NONSENSE\r\n\r\n");
  EXPECT_FALSE(p.next_request().ok());
}

TEST(HttpParserTest, RejectsBadVersion) {
  HttpParser p(HttpParser::Kind::kRequest);
  p.feed("GET / SMTP/1.0\r\n\r\n");
  EXPECT_FALSE(p.next_request().ok());
}

TEST(HttpParserTest, RejectsHeaderWithoutColon) {
  HttpParser p(HttpParser::Kind::kRequest);
  p.feed("GET / HTTP/1.1\r\nbadheader\r\n\r\n");
  EXPECT_FALSE(p.next_request().ok());
}

TEST(HttpParserTest, ParsesResponse) {
  HttpParser p(HttpParser::Kind::kResponse);
  p.feed("HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\nTRUE");
  auto resp = p.next_response();
  ASSERT_TRUE(resp.ok());
  ASSERT_TRUE(resp.value().has_value());
  EXPECT_EQ(resp.value()->status, 200);
  EXPECT_EQ(resp.value()->reason, "OK");
  EXPECT_EQ(resp.value()->body, "TRUE");
}

TEST(HttpParserTest, RejectsBadStatusCode) {
  HttpParser p(HttpParser::Kind::kResponse);
  p.feed("HTTP/1.1 99 Weird\r\n\r\n");
  EXPECT_FALSE(p.next_response().ok());
}

TEST(HttpSerializeTest, RequestRoundTrip) {
  HttpRequest req;
  req.method = "GET";
  req.target = "/qos?key=x";
  req.headers.push_back({"Host", "janus"});
  HttpParser p(HttpParser::Kind::kRequest);
  p.feed(serialize(req));
  auto parsed = p.next_request();
  ASSERT_TRUE(parsed.ok() && parsed.value().has_value());
  EXPECT_EQ(parsed.value()->target, req.target);
}

TEST(HttpSerializeTest, ResponseAddsContentLength) {
  HttpResponse resp = HttpResponse::text(200, "TRUE");
  const std::string wire = serialize(resp);
  EXPECT_NE(wire.find("Content-Length: 4"), std::string::npos);
}

// ------------------------------------------------------- server + client

class HttpServerTest : public ::testing::Test {
 protected:
  void start_echo_server() {
    auto server = HttpServer::start(
        {"127.0.0.1", 0},
        [this](const HttpRequest& req) {
          requests_seen_.fetch_add(1);
          return HttpResponse::text(200, "echo:" + req.target);
        });
    ASSERT_TRUE(server.ok()) << server.error().message;
    server_ = std::move(server).take();
  }

  std::unique_ptr<HttpServer> server_;
  std::atomic<int> requests_seen_{0};
};

TEST_F(HttpServerTest, SingleRequestResponse) {
  start_echo_server();
  HttpClient client(server_->addr());
  auto resp = client.get("/hello");
  ASSERT_TRUE(resp.ok()) << resp.error().message;
  EXPECT_EQ(resp.value().status, 200);
  EXPECT_EQ(resp.value().body, "echo:/hello");
}

TEST_F(HttpServerTest, KeepAliveReusesConnection) {
  start_echo_server();
  HttpClient client(server_->addr());
  for (int i = 0; i < 20; ++i) {
    auto resp = client.get("/r" + std::to_string(i));
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp.value().body, "echo:/r" + std::to_string(i));
  }
  EXPECT_EQ(requests_seen_.load(), 20);
}

TEST_F(HttpServerTest, ConcurrentClients) {
  start_echo_server();
  constexpr int kClients = 4;
  constexpr int kRequests = 25;
  std::vector<std::thread> threads;
  std::atomic<int> ok{0};
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      HttpClient client(server_->addr());
      for (int i = 0; i < kRequests; ++i) {
        auto resp = client.get("/c" + std::to_string(c));
        if (resp.ok() && resp.value().status == 200) ok.fetch_add(1);
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(ok.load(), kClients * kRequests);
}

TEST_F(HttpServerTest, MalformedRequestGets400) {
  start_echo_server();
  auto conn = TcpStream::connect(server_->addr(), seconds(2));
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(conn.value().write_all("GARBAGE\r\n\r\n").ok());
  std::uint8_t buf[256];
  std::string got;
  for (int i = 0; i < 10 && got.find("\r\n") == std::string::npos; ++i) {
    auto n = conn.value().read_some(buf, seconds(1));
    if (!n.ok() || !n.value() || *n.value() == 0) break;
    got.append(reinterpret_cast<char*>(buf), *n.value());
  }
  EXPECT_NE(got.find("400"), std::string::npos);
}

/// Read from `conn` until `want` complete responses are parsed or the
/// peer closes; returns them in arrival order.
std::vector<HttpResponse> read_responses(TcpStream& conn, std::size_t want,
                                         bool* peer_closed = nullptr) {
  HttpParser parser(HttpParser::Kind::kResponse);
  std::vector<HttpResponse> out;
  std::uint8_t buf[1024];
  for (int i = 0; i < 100 && out.size() < want; ++i) {
    auto n = conn.read_some(buf, millis(200));
    if (!n.ok() || (n.value() && *n.value() == 0)) {
      if (peer_closed != nullptr) *peer_closed = true;
      break;
    }
    if (!n.value()) continue;
    parser.feed(std::string_view(reinterpret_cast<char*>(buf), *n.value()));
    for (;;) {
      auto resp = parser.next_response();
      if (!resp.ok() || !resp.value()) break;
      out.push_back(std::move(*resp.value()));
    }
  }
  return out;
}

TEST_F(HttpServerTest, PipelinedRequestsAnsweredInOrder) {
  start_echo_server();
  auto conn = TcpStream::connect(server_->addr(), seconds(2));
  ASSERT_TRUE(conn.ok());
  // Both requests in one send: the server parses the second only after
  // the first response is written, so the answers cannot swap.
  ASSERT_TRUE(conn.value()
                  .write_all("GET /first HTTP/1.1\r\nHost: x\r\n\r\n"
                             "GET /second HTTP/1.1\r\nHost: x\r\n\r\n")
                  .ok());
  auto responses = read_responses(conn.value(), 2);
  ASSERT_EQ(responses.size(), 2u);
  EXPECT_EQ(responses[0].body, "echo:/first");
  EXPECT_EQ(responses[1].body, "echo:/second");
}

TEST_F(HttpServerTest, ConnectionCloseIsHonoured) {
  start_echo_server();
  auto conn = TcpStream::connect(server_->addr(), seconds(2));
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(conn.value()
                  .write_all("GET /bye HTTP/1.1\r\nConnection: close\r\n\r\n")
                  .ok());
  bool closed = false;
  auto responses = read_responses(conn.value(), 1);
  ASSERT_EQ(responses.size(), 1u);
  EXPECT_EQ(responses[0].body, "echo:/bye");
  // Answered, then closed: the next read sees EOF.
  EXPECT_TRUE(read_responses(conn.value(), 1, &closed).empty());
  EXPECT_TRUE(closed);
}

TEST_F(HttpServerTest, StopUnblocksQuickly) {
  start_echo_server();
  const auto start = std::chrono::steady_clock::now();
  server_->stop();
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(3));
}

TEST_F(HttpServerTest, ClientReconnectsAfterServerRestart) {
  start_echo_server();
  const auto addr = server_->addr();
  HttpClient client(addr);
  ASSERT_TRUE(client.get("/a").ok());
  server_.reset();  // destroy: releases the listening socket
  // Restart on the same port.
  auto restarted = HttpServer::start(
      addr, [](const HttpRequest&) { return HttpResponse::text(200, "new"); });
  ASSERT_TRUE(restarted.ok()) << restarted.error().message;
  auto resp = client.get("/b");  // stale keep-alive triggers retry
  ASSERT_TRUE(resp.ok()) << resp.error().message;
  EXPECT_EQ(resp.value().body, "new");
}

TEST(HttpClientTest, ConnectFailureReported) {
  std::uint16_t dead_port;
  {
    auto temp = TcpListener::listen({"127.0.0.1", 0});
    ASSERT_TRUE(temp.ok());
    dead_port = temp.value().local_addr().value().port;
  }
  HttpClient client({"127.0.0.1", dead_port}, millis(200));
  EXPECT_FALSE(client.get("/x").ok());
}

}  // namespace
}  // namespace janus::net
