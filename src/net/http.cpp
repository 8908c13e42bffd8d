#include "net/http.hpp"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>

#include <cerrno>
#include <charconv>
#include <cstring>
#include <exception>
#include <thread>

#include "common/logging.hpp"
#include "common/string_util.hpp"
#include "net/affinity.hpp"

namespace janus::net {

namespace {

std::optional<std::string_view> find_header(
    const std::vector<HttpHeader>& headers, std::string_view name) {
  for (const auto& h : headers) {
    if (iequals(h.name, name)) return std::string_view(h.value);
  }
  return std::nullopt;
}

}  // namespace

std::optional<std::string_view> HttpRequest::header(
    std::string_view name) const {
  return find_header(headers, name);
}

std::optional<std::string_view> HttpResponse::header(
    std::string_view name) const {
  return find_header(headers, name);
}

HttpResponse HttpResponse::text(int status, std::string body) {
  HttpResponse resp;
  resp.status = status;
  resp.reason = status == 200   ? "OK"
                : status == 400 ? "Bad Request"
                : status == 403 ? "Forbidden"
                : status == 404 ? "Not Found"
                : status == 503 ? "Service Unavailable"
                                : "Status";
  resp.body = std::move(body);
  return resp;
}

namespace {

constexpr std::size_t kMaxHead = 64 * 1024;
constexpr std::size_t kMaxBody = 16 * 1024 * 1024;

/// What parse_head found: the start line, where the body begins, and how
/// long it is. head_len == 0 means the head is not complete yet.
struct Head {
  std::string_view start_line;
  std::size_t head_len = 0;
  std::size_t content_length = 0;
};

/// Parse the head at the front of `in`: lines end in '\n' and are trimmed,
/// blank header lines are skipped. Header fields land in `headers`,
/// reusing the storage of the ones already there.
Result<Head> parse_head(std::string_view in, std::vector<HttpHeader>& headers) {
  Head head;
  const std::size_t end = in.find("\r\n\r\n");
  if (end == std::string_view::npos) {
    if (in.size() > kMaxHead) return Error("http: header too large");
    return head;
  }
  const std::string_view block = in.substr(0, end);
  std::size_t pos = block.find('\n');
  head.start_line = trim(block.substr(0, pos));
  std::size_t count = 0;
  while (pos != std::string_view::npos) {
    const std::size_t begin = pos + 1;
    pos = block.find('\n', begin);
    const std::string_view line = trim(block.substr(
        begin, pos == std::string_view::npos ? std::string_view::npos
                                             : pos - begin));
    if (line.empty()) continue;
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos) return Error("http: bad header line");
    const std::string_view name = trim(line.substr(0, colon));
    const std::string_view value = trim(line.substr(colon + 1));
    if (iequals(name, "Content-Length")) {
      auto len = parse_u64(value);
      if (!len || *len > kMaxBody) return Error("http: bad length");
      head.content_length = static_cast<std::size_t>(*len);
    }
    if (count == headers.size()) headers.emplace_back();
    headers[count].name.assign(name);
    headers[count].value.assign(value);
    ++count;
  }
  headers.resize(count);
  head.head_len = end + 4;
  return head;
}

bool dropped(std::string_view name, std::span<const std::string_view> drop) {
  for (std::string_view d : drop) {
    if (iequals(name, d)) return true;
  }
  return false;
}

/// Header lines plus the blank line and body; Content-Length is added when
/// the headers lack one and `need_length` says the message needs it.
void append_rest(const std::vector<HttpHeader>& headers,
                 const std::string& body, bool need_length,
                 std::span<const std::string_view> drop, std::string& out) {
  bool has_length = false;
  for (const auto& h : headers) {
    if (dropped(h.name, drop)) continue;
    out += h.name;
    out += ": ";
    out += h.value;
    out += "\r\n";
    if (iequals(h.name, "Content-Length")) has_length = true;
  }
  if (need_length && !has_length) {
    char digits[24];
    auto [end, ec] = std::to_chars(digits, digits + sizeof(digits), body.size());
    out += "Content-Length: ";
    out.append(digits, end);
    out += "\r\n";
  }
  out += "\r\n";
  out += body;
}

}  // namespace

Result<std::size_t> parse_request(std::string_view in, HttpRequest& out) {
  auto head = parse_head(in, out.headers);
  if (!head.ok()) return Error(head.error().message);
  const Head& h = head.value();
  if (h.head_len == 0 || in.size() < h.head_len + h.content_length) {
    return std::size_t{0};  // head or body not complete yet
  }

  // Exactly three space-separated fields.
  const std::string_view line = h.start_line;
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string_view::npos ? sp1 : line.find(' ', sp1 + 1);
  if (sp2 == std::string_view::npos ||
      line.find(' ', sp2 + 1) != std::string_view::npos) {
    return Error("http: bad request line");
  }
  if (!starts_with(line.substr(sp2 + 1), "HTTP/1.")) {
    return Error("http: bad version");
  }
  out.method.assign(line.substr(0, sp1));
  out.target.assign(line.substr(sp1 + 1, sp2 - sp1 - 1));
  out.body.assign(in.substr(h.head_len, h.content_length));
  return h.head_len + h.content_length;
}

Result<std::size_t> parse_response(std::string_view in, HttpResponse& out) {
  auto head = parse_head(in, out.headers);
  if (!head.ok()) return Error(head.error().message);
  const Head& h = head.value();
  if (h.head_len == 0 || in.size() < h.head_len + h.content_length) {
    return std::size_t{0};
  }

  // "HTTP/1.x <code>[ <reason>]"
  const std::string_view line = h.start_line;
  const std::size_t sp1 = line.find(' ');
  if (sp1 == std::string_view::npos || !starts_with(line, "HTTP/1.")) {
    return Error("http: bad status line");
  }
  const std::size_t sp2 = line.find(' ', sp1 + 1);
  auto code = parse_i64(line.substr(
      sp1 + 1, sp2 == std::string_view::npos ? std::string_view::npos
                                             : sp2 - sp1 - 1));
  if (!code || *code < 100 || *code > 599) return Error("http: bad status");
  out.status = static_cast<int>(*code);
  if (sp2 == std::string_view::npos) {
    out.reason.clear();
  } else {
    out.reason.assign(line.substr(sp2 + 1));
  }
  out.body.assign(in.substr(h.head_len, h.content_length));
  return h.head_len + h.content_length;
}

Result<std::optional<HttpRequest>> HttpParser::next_request() {
  HttpRequest req;
  auto used = parse_request(buffer_, req);
  if (!used.ok()) return Error(used.error().message);
  if (used.value() == 0) return std::optional<HttpRequest>{};
  buffer_.erase(0, used.value());
  return std::optional<HttpRequest>{std::move(req)};
}

Result<std::optional<HttpResponse>> HttpParser::next_response() {
  HttpResponse resp;
  auto used = parse_response(buffer_, resp);
  if (!used.ok()) return Error(used.error().message);
  if (used.value() == 0) return std::optional<HttpResponse>{};
  buffer_.erase(0, used.value());
  return std::optional<HttpResponse>{std::move(resp)};
}

void serialize_to(const HttpRequest& req, std::string& out,
                  std::span<const std::string_view> drop) {
  out += req.method;
  out += ' ';
  out += req.target;
  out += " HTTP/1.1\r\n";
  append_rest(req.headers, req.body, !req.body.empty(), drop, out);
}

void serialize_to(const HttpResponse& resp, std::string& out) {
  char digits[16];
  auto [end, ec] = std::to_chars(digits, digits + sizeof(digits), resp.status);
  out += "HTTP/1.1 ";
  out.append(digits, end);
  out += ' ';
  out += resp.reason;
  out += "\r\n";
  append_rest(resp.headers, resp.body, true, {}, out);
}

std::string serialize(const HttpRequest& req) {
  std::string out;
  serialize_to(req, out);
  return out;
}

std::string serialize(const HttpResponse& resp) {
  std::string out;
  serialize_to(resp, out);
  return out;
}

// ------------------------------------------------------------- HttpServer

/// One loop of the server: its reactor, the connections it accepted, and
/// its handler. Everything here runs on the loop's thread.
class HttpServer::Loop {
 public:
  /// One accepted connection; slots are reused, and `gen` tells a Reply
  /// whether its connection is still the one it was made for.
  struct Conn final : Reactor::Watcher {
    enum class State { kFree, kReading, kHandling, kWriting };

    // Leave the loop before the socket closes (members go before bases).
    ~Conn() override {
      if (loop != nullptr) loop->reactor->remove(*this);
    }

    void on_ready(std::uint32_t events) override {
      if ((events & EPOLLERR) != 0) {
        loop->close(*this);
        return;
      }
      if ((events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP)) != 0) {
        stream.readable = true;
      }
      if ((events & EPOLLOUT) != 0) stream.writable = true;
      loop->advance(*this);
    }

    Loop* loop = nullptr;
    std::uint32_t index = 0;
    std::uint32_t gen = 0;
    State state = State::kFree;
    NbStream stream;
    bool peer_closed = false;  // read side hit EOF
    bool close_after = false;  // Connection: close, or a 400
    bool busy = false;         // inside advance(): replies must not re-enter
  };

  /// The shared listen socket, registered in every loop (EPOLLEXCLUSIVE:
  /// one loop wakes per new connection).
  struct Acceptor final : Reactor::Watcher {
    void on_ready(std::uint32_t) override { loop->accept_ready(); }
    Loop* loop = nullptr;
  };

  Loop(std::unique_ptr<Reactor> r, int listen_fd)
      : reactor(std::move(r)), listen_fd_(listen_fd) {
    acceptor.loop = this;
  }
  Loop(const Loop&) = delete;  // connections and replies hold its address
  Loop& operator=(const Loop&) = delete;

  void accept_ready();
  void advance(Conn& c);
  void complete(std::uint32_t index, std::uint32_t gen,
                const HttpResponse& resp);
  void close(Conn& c);
  void close_all();

  std::unique_ptr<Reactor> reactor;  // declared first: destroyed last
  Acceptor acceptor;
  std::vector<std::unique_ptr<Conn>> conns;
  std::vector<std::uint32_t> free_conns;
  HttpRequest request;  // parse scratch, reused for every request
  AsyncHandler handler;
  std::thread thread;

 private:
  int listen_fd_;
};

void HttpServer::Loop::accept_ready() {
  // A bounded burst, so one loop does not take every queued connection.
  for (int i = 0; i < 32; ++i) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) {
        JLOG_WARN("http accept failed: %s", std::strerror(errno));
      }
      return;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    std::uint32_t index;
    if (!free_conns.empty()) {
      index = free_conns.back();
      free_conns.pop_back();
    } else {
      index = static_cast<std::uint32_t>(conns.size());
      conns.push_back(std::make_unique<Conn>());
      conns.back()->loop = this;
      conns.back()->index = index;
    }
    Conn& c = *conns[index];
    c.stream.reset(Fd(fd));
    c.stream.writable = true;
    c.state = Conn::State::kReading;
    c.peer_closed = c.close_after = c.busy = false;
    if (auto s = reactor->add(fd, EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET, c);
        !s.ok()) {
      JLOG_WARN("http: %s", s.error().message.c_str());
      close(c);
    }
  }
}

void HttpServer::Loop::advance(Conn& c) {
  using State = Conn::State;
  c.busy = true;
  for (;;) {
    if (c.state == State::kWriting) {
      if (!c.stream.writable) break;  // EPOLLOUT resumes the write
      const NbStream::Io io = c.stream.flush();
      if (io == NbStream::Io::kWouldBlock) break;
      if (io != NbStream::Io::kOk || c.close_after) {
        close(c);
        return;
      }
      c.state = State::kReading;
    }
    if (c.state != State::kReading) break;  // the handler still holds it

    auto used = parse_request(c.stream.input(), request);
    if (!used.ok()) {
      serialize_to(HttpResponse::text(400, "bad request"), c.stream.output());
      c.close_after = true;
      c.state = State::kWriting;
      continue;
    }
    if (used.value() > 0) {
      c.stream.consume(used.value());
      auto connection = request.header("Connection");
      c.close_after = connection && iequals(*connection, "close");
      c.state = State::kHandling;
      handler(request, Reply(this, c.index, c.gen));
      continue;  // answered inline: write it; otherwise wait
    }
    if (c.peer_closed) {
      close(c);
      return;
    }
    if (!c.stream.readable) break;  // the next arrival raises an event
    const NbStream::Io io = c.stream.read_once();
    if (io == NbStream::Io::kClosed) {
      c.peer_closed = true;
    } else if (io == NbStream::Io::kError) {
      close(c);
      return;
    } else if (io == NbStream::Io::kWouldBlock) {
      break;
    }
  }
  c.busy = false;
}

void HttpServer::Loop::complete(std::uint32_t index, std::uint32_t gen,
                                const HttpResponse& resp) {
  Conn& c = *conns[index];
  if (c.gen != gen || c.state != Conn::State::kHandling) return;
  serialize_to(resp, c.stream.output());
  c.state = Conn::State::kWriting;
  if (!c.busy) advance(c);
}

void HttpServer::Loop::close(Conn& c) {
  reactor->remove(c);
  c.stream.reset();
  c.state = Conn::State::kFree;
  c.busy = false;
  ++c.gen;  // outstanding Replies for this connection now miss
  free_conns.push_back(c.index);
}

void HttpServer::Loop::close_all() {
  reactor->remove(acceptor);
  for (auto& c : conns) {
    if (c->state != Conn::State::kFree) close(*c);
  }
}

void HttpServer::Reply::send(const HttpResponse& resp) const {
  if (loop_ != nullptr) loop_->complete(conn_, gen_, resp);
}

Result<std::unique_ptr<HttpServer>> HttpServer::start(const SockAddr& addr,
                                                      Handler handler) {
  return start_async(addr, [handler = std::move(handler)](Reactor&) {
    return Result<AsyncHandler>(
        AsyncHandler([handler](const HttpRequest& req, Reply reply) {
          reply.send(handler(req));
        }));
  });
}

Result<std::unique_ptr<HttpServer>> HttpServer::start_async(
    const SockAddr& addr, AsyncHandlerFactory factory) {
  auto listener = TcpListener::listen(addr);
  if (!listener.ok()) return Error(listener.error().message);
  auto local = listener.value().local_addr();
  if (!local.ok()) return Error(local.error().message);
  const int listen_fd = listener.value().fd();
  ::fcntl(listen_fd, F_SETFL, ::fcntl(listen_fd, F_GETFL, 0) | O_NONBLOCK);

  std::unique_ptr<HttpServer> server(new HttpServer(local.value()));
  server->listener_.emplace(std::move(listener).take());
  // Build every loop before any thread starts, so a failure part-way
  // leaves nothing running.
  const std::size_t n = affinity_cpus();
  for (std::size_t i = 0; i < n; ++i) {
    auto reactor = Reactor::create();
    if (!reactor.ok()) return Error(reactor.error().message);
    auto loop = std::make_unique<Loop>(std::move(reactor).take(), listen_fd);
    auto handler = factory(*loop->reactor);
    if (!handler.ok()) return Error(handler.error().message);
    loop->handler = std::move(handler).take();
    if (auto s = loop->reactor->add(listen_fd, EPOLLIN | EPOLLEXCLUSIVE,
                                    loop->acceptor);
        !s.ok()) {
      return Error(s.error().message);
    }
    server->loops_.push_back(std::move(loop));
  }
  for (auto& loop : server->loops_) {
    loop->thread = std::thread([raw = loop.get()] {
      try {
        raw->reactor->run();
      } catch (const std::exception& e) {
        // A handler threw: this loop stops serving; the others go on.
        JLOG_ERROR("http loop stopped: %s", e.what());
      }
    });
  }
  return server;
}

HttpServer::HttpServer(SockAddr addr) : addr_(std::move(addr)) {}

HttpServer::~HttpServer() { stop(); }

void HttpServer::stop() {
  if (stopped_.exchange(true)) return;
  for (auto& loop : loops_) loop->reactor->stop();
  for (auto& loop : loops_) {
    if (loop->thread.joinable()) loop->thread.join();
  }
  for (auto& loop : loops_) loop->close_all();
  listener_.reset();
}

Result<HttpResponse> HttpClient::round_trip(const HttpRequest& req) {
  if (!conn_) {
    auto stream = TcpStream::connect(server_, timeout_);
    if (!stream.ok()) return Error(stream.error().message);
    conn_.emplace(std::move(stream).take());
    parser_ = HttpParser(HttpParser::Kind::kResponse);
  }
  if (auto s = conn_->write_all(serialize(req)); !s.ok()) {
    conn_.reset();
    return Error(s.error().message);
  }
  std::uint8_t buf[16 * 1024];
  for (;;) {
    auto resp = parser_.next_response();
    if (!resp.ok()) {
      conn_.reset();
      return Error(resp.error().message);
    }
    if (resp.value()) return std::move(*resp.value());
    auto n = conn_->read_some(buf, timeout_);
    if (!n.ok()) {
      conn_.reset();
      return Error(n.error().message);
    }
    if (!n.value()) {
      conn_.reset();
      return Error("http: response timeout");
    }
    if (*n.value() == 0) {
      conn_.reset();
      return Error("http: connection closed mid-response");
    }
    parser_.feed(std::string_view(reinterpret_cast<char*>(buf), *n.value()));
  }
}

Result<HttpResponse> HttpClient::request(const HttpRequest& req) {
  const bool had_conn = conn_.has_value();
  auto resp = round_trip(req);
  if (!resp.ok() && had_conn) {
    // Stale keep-alive connection (server restarted / idle timeout): retry
    // once on a fresh connection.
    return round_trip(req);
  }
  return resp;
}

Result<HttpResponse> HttpClient::get(const std::string& target) {
  HttpRequest req;
  req.method = "GET";
  req.target = target;
  return request(req);
}

}  // namespace janus::net
