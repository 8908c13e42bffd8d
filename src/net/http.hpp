// Minimal HTTP/1.1 implementation: enough for the Janus request router's
// front end (GET /qos?...), the gateway load balancer's L7 forwarding, and
// the ab-style workload client. Supports keep-alive, pipelining and
// Content-Length bodies; no chunked encoding (Janus never emits it).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.hpp"
#include "net/reactor.hpp"
#include "net/socket.hpp"

namespace janus::net {

struct HttpHeader {
  std::string name;
  std::string value;
};

struct HttpRequest {
  std::string method = "GET";
  std::string target = "/";
  std::vector<HttpHeader> headers;
  std::string body;

  std::optional<std::string_view> header(std::string_view name) const;
};

struct HttpResponse {
  int status = 200;
  std::string reason = "OK";
  std::vector<HttpHeader> headers;
  std::string body;

  std::optional<std::string_view> header(std::string_view name) const;

  static HttpResponse text(int status, std::string body);
};

/// Parse one complete message from the front of `in` into `out`, reusing
/// `out`'s storage. Returns the bytes the message spans, 0 when `in` holds
/// only part of one, or an error for a malformed stream (the connection
/// should be closed). Heads are capped at 64 KiB and bodies at 16 MiB.
Result<std::size_t> parse_request(std::string_view in, HttpRequest& out);
Result<std::size_t> parse_response(std::string_view in, HttpResponse& out);

/// Incremental parser over a byte stream shared by both message directions.
/// Feed bytes; poll for completed messages.
class HttpParser {
 public:
  enum class Kind { kRequest, kResponse };

  explicit HttpParser(Kind kind) : kind_(kind) {}

  void feed(std::string_view bytes) { buffer_ += bytes; }

  /// Try to extract one complete message. nullopt = need more bytes.
  /// Error = malformed stream (connection should be closed).
  Result<std::optional<HttpRequest>> next_request();
  Result<std::optional<HttpResponse>> next_response();

 private:
  Kind kind_;
  std::string buffer_;
};

/// Append the wire form of a message to `out`. A request leaves out the
/// headers named in `drop` (case-insensitive). A response always carries
/// Content-Length, a request one whenever it has a body.
void serialize_to(const HttpRequest& req, std::string& out,
                  std::span<const std::string_view> drop = {});
void serialize_to(const HttpResponse& resp, std::string& out);
std::string serialize(const HttpRequest& req);
std::string serialize(const HttpResponse& resp);

/// HTTP/1.1 server with keep-alive on one non-blocking epoll loop per CPU
/// in the process's affinity mask (DESIGN.md §9.2). The loops share the
/// listen socket (EPOLLEXCLUSIVE); each serves the connections it accepted
/// and owns its handler. A connection parses its next request only after
/// the previous response is fully written, so responses stay in request
/// order and a client that never reads cannot grow the output buffer.
///
/// Concurrency (DESIGN.md §8): the server takes no lock. Each server owns
/// its loops, so a synchronous handler may block on another in-process
/// server without deadlocking the one it runs on; while it blocks, the
/// other connections of its loop wait.
class HttpServer {
  class Loop;  // one loop's reactor, connections and handler (http.cpp)

 public:
  /// Completes one request. send() serializes the response into the
  /// connection's output buffer and starts writing it. Call it once, on the
  /// loop the request arrived on; a reply whose connection has closed in
  /// the meantime is dropped.
  class Reply {
   public:
    Reply() = default;
    void send(const HttpResponse& resp) const;

   private:
    friend class HttpServer;
    Reply(Loop* loop, std::uint32_t conn, std::uint32_t gen)
        : loop_(loop), conn_(conn), gen_(gen) {}
    Loop* loop_ = nullptr;
    std::uint32_t conn_ = 0;
    std::uint32_t gen_ = 0;
  };

  /// Answers inline, on the loop.
  using Handler = std::function<HttpResponse(const HttpRequest&)>;
  /// Gets the request, valid only during the call, and completes it now or
  /// later through the Reply, on the same loop.
  using AsyncHandler = std::function<void(const HttpRequest&, Reply)>;
  /// Builds one loop's handler; called once per loop, before serving
  /// starts. Watchers and timers the handler keeps on `loop` are destroyed
  /// with the handler, before the loop.
  using AsyncHandlerFactory = std::function<Result<AsyncHandler>(Reactor& loop)>;

  /// Binds and starts serving immediately.
  static Result<std::unique_ptr<HttpServer>> start(const SockAddr& addr,
                                                   Handler handler);
  static Result<std::unique_ptr<HttpServer>> start_async(
      const SockAddr& addr, AsyncHandlerFactory factory);

  ~HttpServer();
  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  SockAddr addr() const { return addr_; }
  /// Stop every loop, then close the listener and every connection.
  void stop();

 private:
  explicit HttpServer(SockAddr addr);

  std::optional<TcpListener> listener_;  // closed by stop()
  SockAddr addr_;
  std::vector<std::unique_ptr<Loop>> loops_;
  std::atomic<bool> stopped_{false};
};

/// One keep-alive client connection; reconnects transparently.
class HttpClient {
 public:
  explicit HttpClient(SockAddr server, Duration timeout = millis(1000))
      : server_(std::move(server)), timeout_(timeout) {}

  /// Send a request, wait for the response. Retries once on a stale
  /// keep-alive connection.
  Result<HttpResponse> request(const HttpRequest& req);

  Result<HttpResponse> get(const std::string& target);

  const SockAddr& server() const { return server_; }

 private:
  Result<HttpResponse> round_trip(const HttpRequest& req);

  SockAddr server_;
  Duration timeout_;
  std::optional<TcpStream> conn_;
  HttpParser parser_{HttpParser::Kind::kResponse};
};

}  // namespace janus::net
