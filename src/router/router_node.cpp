#include "router/router_node.hpp"

#include <fcntl.h>
#include <sys/epoll.h>

#include <cstdio>

#include "common/flight_recorder.hpp"
#include "common/logging.hpp"
#include "testing/fault_injector.hpp"
#include "wire/codec.hpp"
#include "wire/http_codec.hpp"

namespace janus::router {

namespace {

std::int64_t us_since(const TimePoint& start) {
  return (SteadyClock::instance().now() - start).count() / 1000;
}

}  // namespace

/// One loop's UDP leg (DESIGN.md §9.2): a non-blocking socket, and a pending
/// table of the checks in flight on it, keyed by request_id. A check's
/// attempt window is a deadline on the loop; its expiry sends the next
/// attempt or, after the budget, completes the check with the §III-B
/// default reply. Replies drain with recv_many. Runs only on its loop.
class RouterNode::Leg final : public net::Reactor::Watcher {
 public:
  static Result<std::shared_ptr<Leg>> create(RouterNode& node,
                                             net::Reactor& loop) {
    auto sock = net::UdpSocket::create();
    if (!sock.ok()) return Error(sock.error().message);
    const int fd = sock.value().fd();
    if (::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK) != 0) {
      return Error("router: udp O_NONBLOCK failed");
    }
    auto leg = std::shared_ptr<Leg>(
        new Leg(node, loop, std::move(sock).take()));
    if (auto s = loop.add(fd, EPOLLIN, *leg); !s.ok()) {
      return Error(s.error().message);
    }
    return leg;
  }

  // Leave the loop before the socket closes (members go before bases).
  ~Leg() override { loop_.remove(*this); }

  void handle(const net::HttpRequest& req, net::HttpServer::Reply reply);
  void on_ready(std::uint32_t events) override;

 private:
  /// One HTTP request from arrival to reply. Slots are reused; a request_id
  /// names its slot in the low 32 bits and the slot's use count in the high
  /// 32, so a late reply to an earlier use misses.
  struct Pending final : net::Reactor::Timer {
    void on_deadline() override { leg->attempt_expired(*this); }

    Leg* leg = nullptr;
    std::uint32_t slot = 0;
    std::uint32_t uses = 0;
    bool live = false;
    std::uint64_t request_id = 0;
    net::HttpServer::Reply reply;
    TimePoint start{};
    std::string trace;
    std::uint64_t trace_hash = 0;
    wire::QosRequest request;  // key, cost and type from the target
    // Cluster mode only: the holder the request started on, and its map.
    const cluster::ShardMapHolder* holder = nullptr;
    std::shared_ptr<const cluster::ShardMap> map;
    int route_attempt = 0;
    // The UDP call in flight.
    std::size_t backend_slot = 0;
    std::string backend_name;
    net::SockAddr backend;
    std::vector<std::uint8_t> frame;
    int attempts = 0;
    TimePoint udp_start{};
  };

  Leg(RouterNode& node, net::Reactor& loop, net::UdpSocket socket)
      : node_(node),
        loop_(loop),
        socket_(std::move(socket)),
        batch_(kRecvBatch, kRecvSlotBytes),
        // The blocking client waited with poll(), which rounds up to whole
        // milliseconds; the loop's deadlines keep that window.
        window_(millis((node.config_.udp.timeout.count() + 999'999) /
                       1'000'000)),
        attempt_budget_(node.config_.udp.max_retries > 0
                            ? node.config_.udp.max_retries
                            : 1) {}

  static constexpr std::size_t kRecvBatch = 16;
  static constexpr std::size_t kRecvSlotBytes = 512;

  Pending& acquire();
  void release(Pending& p);
  void route(Pending& p);
  void send_attempt(Pending& p);
  void attempt_expired(Pending& p);
  void call_done(Pending& p, const wire::QosResponse& qr);
  void call_failed(Pending& p, const std::string& why);
  /// Close the UDP call's trace span and metrics.
  void end_call(Pending& p);
  void finish(Pending& p, net::HttpResponse resp);

  RouterNode& node_;
  net::Reactor& loop_;
  net::UdpSocket socket_;
  net::UdpSocket::RecvBatch batch_;
  const Duration window_;
  const int attempt_budget_;
  std::vector<std::unique_ptr<Pending>> pending_;
  std::vector<std::uint32_t> free_;
};

RouterNode::Leg::Pending& RouterNode::Leg::acquire() {
  std::uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(pending_.size());
    pending_.push_back(std::make_unique<Pending>());
    pending_.back()->leg = this;
    pending_.back()->slot = slot;
  }
  Pending& p = *pending_[slot];
  p.live = true;
  p.route_attempt = 0;
  return p;
}

void RouterNode::Leg::release(Pending& p) {
  p.cancel();
  p.live = false;
  p.map.reset();
  p.reply = {};
  free_.push_back(p.slot);
}

void RouterNode::Leg::handle(const net::HttpRequest& req,
                             net::HttpServer::Reply reply) {
  FlightRecorder::label_current_thread("router.http");
  // Prequal probe plane (DESIGN.md §14): answered before any accounting so
  // the probe itself never inflates the RIF it reports.
  if (req.target == "/probez") {
    reply.send(node_.probez_response());
    return;
  }
  Pending& p = acquire();
  p.reply = reply;
  p.start = SteadyClock::instance().now();
  node_.requests_.inc();
  node_.inflight_.add(1);

  if (auto h = req.header("X-Janus-Trace")) {
    p.trace.assign(*h);
  } else {
    p.trace.clear();
  }
  p.trace_hash = p.trace.empty() || !FlightRecorder::enabled()
                     ? 0
                     : FlightRecorder::hash_trace(p.trace);
  if (p.trace_hash != 0) {
    FlightRecorder::instance().record(TraceEventType::kStageEnter,
                                      TraceStage::kRouter, p.trace_hash, 0,
                                      p.start.count());
  }

  auto parsed = wire::parse_qos_target(req.target);
  if (!parsed.ok()) {
    node_.bad_requests_.inc();
    p.request.key.clear();
    auto resp = net::HttpResponse::text(400, "FALSE");
    resp.headers.push_back({"X-Janus-Status", std::string(wire::status_header_value(
                                                  wire::ResponseStatus::kMalformed))});
    finish(p, std::move(resp));
    return;
  }
  p.request = std::move(parsed.value().request);
  p.request.trace_id = p.trace;

  // Cluster mode: route by the epoch-versioned shard map when attached;
  // static hash-mod-N over the configured backend list otherwise. Both are
  // the paper's CRC32(key) mod N (Fig. 2) — the map just makes N versioned.
  p.holder = node_.shard_map_.load(std::memory_order_acquire);
  if (p.holder) p.map = p.holder->snapshot();
  route(p);
}

void RouterNode::Leg::route(Pending& p) {
  if (p.map) {
    p.backend_slot = p.map->owner_of(p.request.key);
    p.backend_name = p.map->members[p.backend_slot].name;
    p.backend = p.map->members[p.backend_slot].udp_addr;
    p.request.epoch = p.map->epoch;  // the v3 epoch stamp servers check
  } else {
    p.backend_slot = node_.key_router_.index_for(p.request.key);
    p.backend_name = node_.backends_[p.backend_slot];
    auto backend = node_.resolver_->resolve(p.backend_name);
    if (!backend.ok()) {
      finish(p, node_.default_reply(503));
      return;
    }
    p.backend = std::move(backend).take();
  }

  // A fresh id per call: a re-route must not take the first call's late
  // NACK as its answer.
  ++p.uses;
  p.request_id = (std::uint64_t{p.uses} << 32) | p.slot;
  p.request.request_id = p.request_id;
  wire::encode_to(p.request, p.frame);
  p.attempts = 0;
  p.udp_start = SteadyClock::instance().now();
  if (p.trace_hash != 0) {
    FlightRecorder::instance().record(TraceEventType::kStageEnter,
                                      TraceStage::kRouterUdp, p.trace_hash,
                                      p.backend_slot, p.udp_start.count());
  }
  send_attempt(p);
}

void RouterNode::Leg::send_attempt(Pending& p) {
  ++p.attempts;
  // Per-attempt loss hook: the datagram for *this* attempt is lost before
  // it reaches the wire, but the attempt still burns its window — exactly
  // how the paper's 5-retry/default-reply path sees packet loss.
  if (!testing::FaultInjector::instance().should_fire(
          testing::FaultPoint::kRouterUdpDropAttempt)) {
    // A send that would block is a lost attempt too; its window covers
    // the retry.
    auto sent = socket_.try_send_to(p.backend, p.frame);
    if (!sent.ok()) {
      call_failed(p, sent.error().message);
      return;
    }
  }
  loop_.arm(p, SteadyClock::instance().now() + window_);
}

void RouterNode::Leg::attempt_expired(Pending& p) {
  if (p.attempts < attempt_budget_) {
    send_attempt(p);
    return;
  }
  // All attempts exhausted: default reply (§III-B).
  wire::QosResponse fallback;
  fallback.request_id = p.request_id;
  fallback.status = wire::ResponseStatus::kDefaultReply;
  fallback.allowed = node_.config_.udp.default_allow;
  fallback.remaining_millicredits = -1;
  call_done(p, fallback);
}

void RouterNode::Leg::on_ready(std::uint32_t) {
  for (;;) {
    auto got = socket_.recv_many(batch_, Duration{0});
    if (!got.ok()) {
      JLOG_WARN("router: udp receive: %s", got.error().message.c_str());
      return;
    }
    for (std::size_t i = 0; i < got.value(); ++i) {
      auto resp = wire::decode_response(batch_.data(i));
      if (!resp.ok()) continue;
      const std::uint64_t id = resp.value().request_id;
      const auto slot = static_cast<std::uint32_t>(id);
      // A reply to a check no longer pending (answered, or its request
      // re-routed) is stale: drop it, as the blocking client did.
      if (slot >= pending_.size()) continue;
      Pending& p = *pending_[slot];
      if (!p.live || p.request_id != id) continue;
      p.cancel();
      call_done(p, resp.value());
    }
    if (got.value() < batch_.capacity()) return;
  }
}

void RouterNode::Leg::end_call(Pending& p) {
  const std::int64_t rtt = us_since(p.udp_start);
  if (p.trace_hash != 0) {
    FlightRecorder::instance().record(
        TraceEventType::kStageExit, TraceStage::kRouterUdp, p.trace_hash,
        static_cast<std::uint64_t>(p.attempts),
        SteadyClock::instance().now().count());
  }
  node_.udp_rtt_us_.record(rtt);
  if (p.attempts > 1) node_.retries_.inc(p.attempts - 1);
  if (!p.trace.empty()) {
    JLOG_DEBUG("router: trace=%s key=%s slot=%zu backend=%s attempts=%d "
               "udp_rtt_us=%lld",
               p.trace.c_str(), p.request.key.c_str(), p.backend_slot,
               p.backend_name.c_str(), p.attempts,
               static_cast<long long>(rtt));
  }
}

void RouterNode::Leg::call_failed(Pending& p, const std::string& why) {
  end_call(p);
  JLOG_WARN("router: udp failure: %s", why.c_str());
  finish(p, node_.default_reply(503));
}

void RouterNode::Leg::call_done(Pending& p, const wire::QosResponse& reply) {
  end_call(p);

  // kStaleEpoch NACK: the server already moved to a newer map. The
  // coordinator installs maps locally before publishing, so one fresh
  // snapshot is enough to route against the epoch the server is on;
  // a second NACK (publish still in flight elsewhere) falls through to
  // the default reply rather than looping.
  if (p.map && p.route_attempt == 0 &&
      reply.status == wire::ResponseStatus::kStaleEpoch) {
    node_.stale_reroutes_.inc();
    p.map = p.holder->snapshot();
    p.route_attempt = 1;
    route(p);
    return;
  }

  wire::QosResponse qr = reply;
  if (qr.status == wire::ResponseStatus::kStaleEpoch) {
    // Re-route did not converge: fail closed (or open, per policy) exactly
    // like an unanswered request — never admit against a stale partition.
    // Counted once, as a default reply, just below.
    qr.status = wire::ResponseStatus::kDefaultReply;
    qr.allowed = node_.config_.udp.default_allow;
  }
  if (qr.status == wire::ResponseStatus::kDefaultReply) {
    node_.defaults_.inc();
  } else {
    node_.forwarded_.inc();
  }
  auto resp = net::HttpResponse::text(200, std::string(wire::response_body(qr)));
  resp.headers.push_back(
      {"X-Janus-Status", std::string(wire::status_header_value(qr.status))});
  resp.headers.push_back(
      {"X-Janus-Credits", std::to_string(qr.remaining_millicredits)});
  finish(p, std::move(resp));
}

void RouterNode::Leg::finish(Pending& p, net::HttpResponse resp) {
  if (!p.trace.empty()) resp.headers.push_back({"X-Janus-Trace", p.trace});
  node_.inflight_.add(-1);
  const std::int64_t e2e = us_since(p.start);
  node_.e2e_us_.record(e2e);
  node_.e2e_exemplar_.record(e2e, p.trace, p.request.key);
  // EWMA (α=1/8) of e2e latency — the probe's load-adjusted latency
  // estimate. Load/compute/store race between loops only loses one
  // sample's worth of smoothing; it is an estimate either way.
  const std::int64_t prev = node_.lat_ewma_us_.load(std::memory_order_relaxed);
  node_.lat_ewma_us_.store(prev == 0 ? e2e : prev + (e2e - prev) / 8,
                           std::memory_order_relaxed);
  if (p.trace_hash != 0) {
    FlightRecorder::instance().record(
        TraceEventType::kStageExit, TraceStage::kRouter, p.trace_hash,
        static_cast<std::uint64_t>(resp.status),
        SteadyClock::instance().now().count());
  }
  if (!p.trace.empty()) {
    JLOG_DEBUG("router: trace=%s status=%d e2e_us=%lld", p.trace.c_str(),
               resp.status, static_cast<long long>(e2e));
  }
  const net::HttpServer::Reply reply = p.reply;
  release(p);
  reply.send(resp);
}

Result<std::unique_ptr<RouterNode>> RouterNode::start(
    const net::SockAddr& listen, std::vector<std::string> backends,
    std::shared_ptr<Resolver> resolver, RouterConfig config) {
  if (backends.empty()) return Error("router: no backends configured");
  if (!resolver) return Error("router: no resolver");
  std::unique_ptr<RouterNode> node(
      new RouterNode(std::move(backends), std::move(resolver), config));
  auto server = net::HttpServer::start_async(
      listen,
      [raw = node.get()](
          net::Reactor& loop) -> Result<net::HttpServer::AsyncHandler> {
        auto leg = Leg::create(*raw, loop);
        if (!leg.ok()) return Error(leg.error().message);
        return net::HttpServer::AsyncHandler(
            [leg = std::move(leg).take()](const net::HttpRequest& req,
                                          net::HttpServer::Reply reply) {
              leg->handle(req, reply);
            });
      });
  if (!server.ok()) return Error(server.error().message);
  node->server_ = std::move(server).take();
  return node;
}

RouterNode::RouterNode(std::vector<std::string> backends,
                       std::shared_ptr<Resolver> resolver, RouterConfig config)
    : backends_(std::move(backends)),
      resolver_(std::move(resolver)),
      config_(config),
      key_router_(backends_.size()),
      requests_(metrics_.counter("router.requests")),
      forwarded_(metrics_.counter("router.forwarded")),
      defaults_(metrics_.counter("router.default_replies")),
      retries_(metrics_.counter("router.udp_retries")),
      bad_requests_(metrics_.counter("router.bad_requests")),
      stale_reroutes_(metrics_.counter("router.stale_epoch_reroutes")),
      probes_(metrics_.counter("router.probes")),
      inflight_(metrics_.gauge("router.inflight")),
      e2e_us_(metrics_.histogram("router.e2e_us")),
      udp_rtt_us_(metrics_.histogram("router.udp_rtt_us")),
      e2e_exemplar_(metrics_.exemplar("router.e2e_us")) {
  e2e_exemplar_.set_threshold(config_.slow_exemplar_us);
}

RouterNode::~RouterNode() {
  if (server_) server_->stop();
  if (admin_) admin_->stop();
}

Result<net::SockAddr> RouterNode::start_admin(const net::SockAddr& addr,
                                              std::string node_name) {
  net::AdminOptions opts;
  opts.node_name = std::move(node_name);
  // Mirror the data-plane /probez signal on /statusz so operators can see
  // exactly what the Prequal probe pool sees.
  opts.extra_statusz = [this] {
    char buf[96];
    std::snprintf(buf, sizeof(buf), ",\"probe\":{\"rif\":%lld,\"lat_us\":%lld}",
                  static_cast<long long>(requests_in_flight()),
                  static_cast<long long>(est_latency_us()));
    return std::string(buf);
  };
  auto admin = net::AdminServer::start(addr, metrics_, std::move(opts));
  if (!admin.ok()) return Error(admin.error().message);
  admin_ = std::move(admin).take();
  return admin_->addr();
}

net::HttpResponse RouterNode::probez_response() const {
  probes_.inc();
  char buf[64];
  std::snprintf(buf, sizeof(buf), "{\"rif\":%lld,\"lat_us\":%lld}",
                static_cast<long long>(requests_in_flight()),
                static_cast<long long>(est_latency_us()));
  return net::HttpResponse::text(200, buf);
}

net::HttpResponse RouterNode::default_reply(int status) const {
  defaults_.inc();
  auto resp =
      net::HttpResponse::text(status, config_.udp.default_allow ? "TRUE" : "FALSE");
  resp.headers.push_back(
      {"X-Janus-Status", std::string(wire::status_header_value(
                             wire::ResponseStatus::kDefaultReply))});
  return resp;
}

}  // namespace janus::router
