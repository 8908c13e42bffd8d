#include "lb/gateway_balancer.hpp"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string_view>

#include "common/flight_recorder.hpp"
#include "common/string_util.hpp"
#include "testing/fault_injector.hpp"

namespace janus::lb {

namespace {

/// Extract the integer following `"<field>":` in a /probez body. Returns
/// -1 when the field is missing or malformed (treated as a failed probe).
std::int64_t probe_field(std::string_view body, std::string_view field) {
  std::string needle = "\"" + std::string(field) + "\":";
  const std::size_t at = body.find(needle);
  if (at == std::string_view::npos) return -1;
  const char* begin = body.data() + at + needle.size();
  char* end = nullptr;
  const long long v = std::strtoll(begin, &end, 10);
  if (end == begin || v < 0) return -1;
  return static_cast<std::int64_t>(v);
}

}  // namespace

std::string_view routing_policy_name(RoutingPolicy policy) {
  switch (policy) {
    case RoutingPolicy::kRoundRobin: return "round-robin";
    case RoutingPolicy::kLeastConnections: return "least-connections";
    case RoutingPolicy::kPrequal: return "prequal";
  }
  return "?";
}

std::optional<RoutingPolicy> routing_policy_from_name(std::string_view name) {
  if (name == "round-robin") return RoutingPolicy::kRoundRobin;
  if (name == "least-connections") return RoutingPolicy::kLeastConnections;
  if (name == "prequal") return RoutingPolicy::kPrequal;
  return std::nullopt;
}

/// One loop's upstream pool (DESIGN.md §9.2): per backend, the idle
/// keep-alive connections this loop opened. A forward takes an idle
/// connection or opens one, writes the request, and on the response puts
/// the connection back and answers the caller. `backend_timeout` bounds the
/// whole forward; a connection that was reused and fails before answering
/// (the router closed it while idle) is retried once on a fresh one, as
/// HttpClient does. Runs only on its loop.
class GatewayBalancer::Pool {
 public:
  Pool(GatewayBalancer& gw, net::Reactor& loop)
      : gw_(gw), loop_(loop), idle_(gw.backends_.size()) {
    for (const auto& b : gw.backends_) names_.push_back(b.to_string());
  }
  Pool(const Pool&) = delete;  // its connections hold its address
  Pool& operator=(const Pool&) = delete;
  // Leave the loop before the sockets close (members go before bases).
  ~Pool() {
    for (auto& u : conns_) loop_.remove(*u);
  }

  void handle(const net::HttpRequest& req, net::HttpServer::Reply reply);

 private:
  /// One upstream connection and the forward it carries. Slots are reused.
  struct Upstream final : net::Reactor::Watcher, net::Reactor::Timer {
    enum class State { kFree, kConnecting, kIdle, kBusy };

    void on_ready(std::uint32_t events) override {
      pool->on_ready(*this, events);
    }
    void on_deadline() override { pool->fail(*this, false); }

    Pool* pool = nullptr;
    State state = State::kFree;
    std::size_t backend = 0;
    net::NbStream stream;
    bool reused = false;   // answered a forward before this one
    bool retried = false;  // this forward already moved off a stale one
    // The forward in flight.
    net::HttpServer::Reply reply;
    TimePoint start{};
    std::string trace;
    std::uint64_t trace_hash = 0;
    std::string request;  // kept for the one retry
    net::HttpResponse response;  // parse scratch
  };

  Status connect(Upstream& u);
  void on_ready(Upstream& u, std::uint32_t events);
  void done(Upstream& u);
  /// The forward failed; `io` says it was the connection (not the
  /// deadline), which earns a reused connection its one retry.
  void fail(Upstream& u, bool io);
  void close(Upstream& u);
  void end_forward(Upstream& u, int status);

  GatewayBalancer& gw_;
  net::Reactor& loop_;
  std::vector<std::string> names_;  // backend ip:port, for the exemplar
  std::vector<std::vector<Upstream*>> idle_;  // per backend
  std::vector<std::unique_ptr<Upstream>> conns_;
  std::vector<Upstream*> free_;
};

namespace {

/// RFC 7230 §6.1: a proxy does not forward Connection, the headers that
/// Connection names, or Keep-Alive. Returns how many names it put in `drop`.
std::size_t hop_by_hop(const net::HttpRequest& req,
                       std::array<std::string_view, 16>& drop) {
  std::size_t n = 0;
  drop[n++] = "Connection";
  drop[n++] = "Keep-Alive";
  for (const auto& h : req.headers) {
    if (!iequals(h.name, "Connection")) continue;
    std::string_view rest = h.value;
    while (!rest.empty() && n < drop.size()) {
      const std::size_t comma = rest.find(',');
      const std::string_view name = trim(rest.substr(0, comma));
      if (!name.empty()) drop[n++] = name;
      if (comma == std::string_view::npos) break;
      rest.remove_prefix(comma + 1);
    }
  }
  return n;
}

}  // namespace

Result<std::unique_ptr<GatewayBalancer>> GatewayBalancer::start(
    const net::SockAddr& listen, std::vector<net::SockAddr> backends,
    GatewayConfig config) {
  if (backends.empty()) return Error("gateway: no backends");
  std::unique_ptr<GatewayBalancer> lb(
      new GatewayBalancer(std::move(backends), config));
  auto server = net::HttpServer::start_async(
      listen,
      [raw = lb.get()](
          net::Reactor& loop) -> Result<net::HttpServer::AsyncHandler> {
        auto pool = std::make_shared<Pool>(*raw, loop);
        return net::HttpServer::AsyncHandler(
            [pool](const net::HttpRequest& req, net::HttpServer::Reply reply) {
              pool->handle(req, reply);
            });
      });
  if (!server.ok()) return Error(server.error().message);
  lb->server_ = std::move(server).take();
  if (config.policy == RoutingPolicy::kPrequal) {
    // The pool starts probing immediately; backends that are not up yet
    // just count probe failures until they are.
    lb->probe_task_ = std::make_unique<PeriodicTask>(
        lb->config_.prequal.probe_interval, [raw = lb.get()] {
          raw->probe_round();
        });
  }
  return lb;
}

GatewayBalancer::GatewayBalancer(std::vector<net::SockAddr> backends,
                                 GatewayConfig config)
    : backends_(std::move(backends)),
      config_(config),
      requests_(metrics_.counter("gateway.requests")),
      backend_errors_(metrics_.counter("gateway.backend_errors")),
      prequal_probes_(metrics_.counter("gateway.prequal_probes")),
      prequal_probe_failures_(
          metrics_.counter("gateway.prequal_probe_failures")),
      prequal_cold_picks_(metrics_.counter("gateway.prequal_cold_picks")),
      prequal_hot_picks_(metrics_.counter("gateway.prequal_hot_picks")),
      prequal_fallback_rr_(metrics_.counter("gateway.prequal_fallback_rr")),
      prequal_reuse_evictions_(
          metrics_.counter("gateway.prequal_reuse_evictions")),
      prequal_stale_evictions_(
          metrics_.counter("gateway.prequal_stale_evictions")),
      prequal_hot_threshold_(
          metrics_.gauge("gateway.prequal_hot_rif_threshold")),
      prequal_valid_probes_(metrics_.gauge("gateway.prequal_valid_probes")),
      proxy_us_(metrics_.histogram("gateway.proxy_us")),
      proxy_exemplar_(metrics_.exemplar("gateway.proxy_us")) {
  proxy_exemplar_.set_threshold(config_.slow_exemplar_us);
  for (std::size_t i = 0; i < backends_.size(); ++i) {
    outstanding_.push_back(std::make_unique<std::atomic<std::int64_t>>(0));
    forwarded_.push_back(std::make_unique<std::atomic<std::int64_t>>(0));
  }
  if (config_.policy == RoutingPolicy::kPrequal) {
    picker_ = std::make_unique<PrequalPicker>(backends_.size(),
                                              config_.prequal);
    prequal_hot_threshold_.set(-1);  // unset until the first refresh
    MutexLock lock(probe_mu_);
    probe_clients_.resize(backends_.size());
  }
}

GatewayBalancer::~GatewayBalancer() {
  if (probe_task_) probe_task_->stop();
  if (server_) server_->stop();
  if (admin_) admin_->stop();
}

Result<net::SockAddr> GatewayBalancer::start_admin(const net::SockAddr& addr,
                                                   std::string node_name) {
  net::AdminOptions opts;
  opts.node_name = std::move(node_name);
  if (config_.policy == RoutingPolicy::kPrequal) {
    opts.extra_statusz = [this] { return render_prequal_statusz(); };
  }
  auto admin = net::AdminServer::start(addr, metrics_, std::move(opts));
  if (!admin.ok()) return Error(admin.error().message);
  admin_ = std::move(admin).take();
  return admin_->addr();
}

std::size_t GatewayBalancer::pick_backend() {
  if (backends_.size() == 1) return 0;
  switch (config_.policy) {
    case RoutingPolicy::kPrequal: return pick_prequal();
    case RoutingPolicy::kLeastConnections: return pick_least_connections();
    case RoutingPolicy::kRoundRobin: break;
  }
  return pick_round_robin();
}

std::size_t GatewayBalancer::pick_round_robin() {
  return next_.fetch_add(1, std::memory_order_relaxed) % backends_.size();
}

std::size_t GatewayBalancer::pick_least_connections() {
  // The scan starts at the round-robin cursor and only a strictly lower
  // count displaces the incumbent, so ties rotate across backends instead
  // of collapsing onto index 0 (the cold-start skew regression in
  // tests/lb/test_gateway_balancer.cpp pins this down).
  const std::size_t start = next_.fetch_add(1, std::memory_order_relaxed);
  std::size_t best = start % backends_.size();
  std::int64_t best_load = std::numeric_limits<std::int64_t>::max();
  for (std::size_t i = 0; i < backends_.size(); ++i) {
    const std::size_t idx = (start + i) % backends_.size();
    const std::int64_t load = outstanding_[idx]->load(std::memory_order_relaxed);
    if (load < best_load) {
      best_load = load;
      best = idx;
    }
  }
  return best;
}

std::size_t GatewayBalancer::pick_prequal() {
  PrequalPickKind kind = PrequalPickKind::kFallback;
  const std::size_t idx =
      picker_->pick(SteadyClock::instance().now(), &kind);
  switch (kind) {
    case PrequalPickKind::kCold: prequal_cold_picks_.inc(); break;
    case PrequalPickKind::kHot: prequal_hot_picks_.inc(); break;
    case PrequalPickKind::kFallback: prequal_fallback_rr_.inc(); break;
  }
  // No usable probe (pool just started, probes lost, everything stale or
  // reuse-exhausted): degrade to round-robin — a request never waits on
  // the probe plane.
  if (idx == PrequalPicker::kNoPick) return pick_round_robin();
  return idx;
}

void GatewayBalancer::probe_round() {
  FlightRecorder::label_current_thread("gateway.probe");
  auto& faults = testing::FaultInjector::instance();
  MutexLock lock(probe_mu_);
  for (std::size_t i = 0; i < backends_.size(); ++i) {
    if (faults.should_fire(testing::FaultPoint::kLbProbeDelay)) {
      SteadyClock::instance().sleep_for(
          micros(faults.param(testing::FaultPoint::kLbProbeDelay)));
    }
    const TimePoint start = SteadyClock::instance().now();
    const bool record = FlightRecorder::enabled();
    if (record) {
      FlightRecorder::instance().record(TraceEventType::kStageEnter,
                                        TraceStage::kGatewayProbe, i + 1, 0,
                                        start.count());
    }
    prequal_probes_.inc();
    Result<net::HttpResponse> resp = Error("lb.probe.drop armed");
    if (!faults.should_fire(testing::FaultPoint::kLbProbeDrop)) {
      if (!probe_clients_[i]) {
        probe_clients_[i] = std::make_unique<net::HttpClient>(
            backends_[i], config_.prequal.probe_timeout);
      }
      resp = probe_clients_[i]->get("/probez");
    }
    std::int64_t rif = -1;
    std::int64_t lat_us = -1;
    if (resp.ok() && resp.value().status == 200) {
      rif = probe_field(resp.value().body, "rif");
      lat_us = probe_field(resp.value().body, "lat_us");
    }
    const TimePoint end = SteadyClock::instance().now();
    if (rif < 0 || lat_us < 0) {
      // Probe lost or malformed: keep the previous probe (stale reuse is
      // the graceful degradation; sweep() below evicts it once it ages
      // past max_probe_age) but drop the connection so the next round
      // reconnects from scratch.
      prequal_probe_failures_.inc();
      probe_clients_[i].reset();
      if (record) {
        FlightRecorder::instance().record(
            TraceEventType::kStageExit, TraceStage::kGatewayProbe, i + 1,
            ~std::uint64_t{0}, end.count());
      }
      continue;
    }
    picker_->publish(i, rif, lat_us, end);
    if (record) {
      FlightRecorder::instance().record(TraceEventType::kStageExit,
                                        TraceStage::kGatewayProbe, i + 1,
                                        static_cast<std::uint64_t>(rif),
                                        end.count());
    }
  }
  const TimePoint now = SteadyClock::instance().now();
  const std::size_t stale = picker_->sweep(now);
  if (stale > 0) {
    prequal_stale_evictions_.inc(static_cast<std::int64_t>(stale));
  }
  picker_->refresh_threshold(now);
  const std::int64_t spent = picker_->take_reuse_evictions();
  if (spent > 0) prequal_reuse_evictions_.inc(spent);
  const std::int64_t threshold = picker_->hot_rif_threshold();
  prequal_hot_threshold_.set(
      threshold == std::numeric_limits<std::int64_t>::max() ? -1 : threshold);
  prequal_valid_probes_.set(picker_->valid_probes(now));
}

void GatewayBalancer::probe_now() {
  if (picker_) probe_round();
}

std::string GatewayBalancer::render_prequal_statusz() const {
  const TimePoint now = SteadyClock::instance().now();
  const std::int64_t threshold = picker_->hot_rif_threshold();
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                ",\"prequal\":{\"policy\":\"prequal\","
                "\"hot_rif_threshold\":%lld,\"probes\":[",
                threshold == std::numeric_limits<std::int64_t>::max()
                    ? -1LL
                    : static_cast<long long>(threshold));
  std::string out = buf;
  for (std::size_t i = 0; i < backends_.size(); ++i) {
    const PrequalPicker::Probe p = picker_->snapshot(i, now);
    std::snprintf(buf, sizeof(buf),
                  "%s{\"backend\":\"%s\",\"rif\":%lld,\"lat_us\":%lld,"
                  "\"age_ms\":%lld,\"uses\":%lld,\"valid\":%s}",
                  i == 0 ? "" : ",", backends_[i].to_string().c_str(),
                  static_cast<long long>(p.rif),
                  static_cast<long long>(p.lat_us),
                  static_cast<long long>(p.age_ns / 1000000),
                  static_cast<long long>(p.uses), p.valid ? "true" : "false");
    out += buf;
  }
  out += "]}";
  return out;
}

void GatewayBalancer::Pool::handle(const net::HttpRequest& req,
                                   net::HttpServer::Reply reply) {
  FlightRecorder::label_current_thread("gateway.http");
  const TimePoint start = SteadyClock::instance().now();
  gw_.requests_.inc();

  std::string_view trace;
  if (auto h = req.header("X-Janus-Trace")) trace = *h;
  const std::uint64_t trace_hash =
      trace.empty() || !FlightRecorder::enabled()
          ? 0
          : FlightRecorder::hash_trace(trace);

  const std::size_t idx = gw_.pick_backend();
  if (trace_hash != 0) {
    FlightRecorder::instance().record(TraceEventType::kStageEnter,
                                      TraceStage::kGateway, trace_hash, idx,
                                      start.count());
  }
  gw_.outstanding_[idx]->fetch_add(1, std::memory_order_relaxed);
  gw_.forwarded_[idx]->fetch_add(1, std::memory_order_relaxed);

  // The ELB-style "additional TCP connection initiated by the load
  // balancer node" (§V-A), kept alive in this loop's pool.
  Upstream* u;
  if (!idle_[idx].empty()) {
    u = idle_[idx].back();
    idle_[idx].pop_back();
    u->state = Upstream::State::kBusy;
    u->reused = true;
  } else {
    if (!free_.empty()) {
      u = free_.back();
      free_.pop_back();
    } else {
      conns_.push_back(std::make_unique<Upstream>());
      u = conns_.back().get();
      u->pool = this;
    }
    u->backend = idx;
    u->reused = false;
  }
  u->retried = false;
  u->reply = reply;
  u->start = start;
  u->trace.assign(trace);
  u->trace_hash = trace_hash;
  std::array<std::string_view, 16> drop;
  const std::size_t dropped = hop_by_hop(req, drop);
  u->request.clear();
  net::serialize_to(req, u->request, {drop.data(), dropped});
  u->stream.output() = u->request;
  loop_.arm(*u, start + gw_.config_.backend_timeout);

  if (u->state == Upstream::State::kFree) {
    if (auto s = connect(*u); !s.ok()) {
      fail(*u, false);
      return;
    }
  }
  if (u->state == Upstream::State::kBusy) on_ready(*u, 0);
}

Status GatewayBalancer::Pool::connect(Upstream& u) {
  auto native = gw_.backends_[u.backend].to_native();
  if (!native.ok()) return Error(native.error().message);
  net::Fd fd(::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0));
  if (!fd.valid()) return Error("gateway: upstream socket failed");
  int one = 1;
  ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  auto sa = native.value();
  const int rc =
      ::connect(fd.get(), reinterpret_cast<sockaddr*>(&sa), sizeof(sa));
  if (rc != 0 && errno != EINPROGRESS) {
    return Error("gateway: upstream connect failed");
  }
  const int raw = fd.get();
  u.stream.reset(std::move(fd));
  u.stream.output() = u.request;
  u.state = rc == 0 ? Upstream::State::kBusy : Upstream::State::kConnecting;
  u.stream.writable = rc == 0;
  if (auto s = loop_.add(raw, EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET, u);
      !s.ok()) {
    u.stream.reset();
    u.state = Upstream::State::kFree;
    return s;
  }
  return Status::success();
}

void GatewayBalancer::Pool::on_ready(Upstream& u, std::uint32_t events) {
  using State = Upstream::State;
  if ((events & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR)) != 0) {
    u.stream.readable = true;
  }
  if ((events & EPOLLOUT) != 0) u.stream.writable = true;
  if (u.state == State::kConnecting) {
    if ((events & (EPOLLOUT | EPOLLERR | EPOLLHUP)) == 0) return;
    int err = 0;
    socklen_t len = sizeof(err);
    ::getsockopt(u.stream.fd(), SOL_SOCKET, SO_ERROR, &err, &len);
    if (err != 0 || (events & EPOLLERR) != 0) {
      fail(u, true);
      return;
    }
    u.state = State::kBusy;
  }
  if (u.state == State::kIdle) {
    // Bytes or EOF on an idle connection: the router closed it (or broke
    // protocol). Either way it cannot carry another forward.
    if (u.stream.readable &&
        u.stream.read_once() != net::NbStream::Io::kWouldBlock) {
      close(u);
    }
    return;
  }
  if (u.state != State::kBusy) return;
  if (u.stream.writable) {
    const net::NbStream::Io io = u.stream.flush();
    if (io == net::NbStream::Io::kError) {
      fail(u, true);
      return;
    }
  }
  while (u.stream.readable) {
    const net::NbStream::Io io = u.stream.read_once();
    if (io == net::NbStream::Io::kWouldBlock) break;
    if (io != net::NbStream::Io::kOk) {
      fail(u, true);
      return;
    }
    auto used = net::parse_response(u.stream.input(), u.response);
    if (!used.ok()) {
      fail(u, false);
      return;
    }
    if (used.value() > 0) {
      u.stream.consume(used.value());
      done(u);
      return;
    }
  }
}

void GatewayBalancer::Pool::end_forward(Upstream& u, int status) {
  u.cancel();
  gw_.outstanding_[u.backend]->fetch_sub(1, std::memory_order_relaxed);
  const TimePoint end = SteadyClock::instance().now();
  const std::int64_t proxy_us = (end - u.start).count() / 1000;
  gw_.proxy_us_.record(proxy_us);
  gw_.proxy_exemplar_.record(proxy_us, u.trace, names_[u.backend]);
  if (u.trace_hash != 0) {
    FlightRecorder::instance().record(
        TraceEventType::kStageExit, TraceStage::kGateway, u.trace_hash,
        static_cast<std::uint64_t>(status), end.count());
  }
}

void GatewayBalancer::Pool::done(Upstream& u) {
  end_forward(u, u.response.status);
  const net::HttpServer::Reply reply = u.reply;
  u.reply = {};
  auto connection = u.response.header("Connection");
  if (connection && iequals(*connection, "close")) {
    close(u);
  } else {
    u.state = Upstream::State::kIdle;
    idle_[u.backend].push_back(&u);
  }
  // The response is serialized before send() returns, so the connection
  // may already carry the caller's next forward by the time it does.
  reply.send(u.response);
}

void GatewayBalancer::Pool::fail(Upstream& u, bool io) {
  if (io && u.reused && !u.retried) {
    // Stale keep-alive connection: one retry on a fresh one, inside the
    // same deadline.
    loop_.remove(u);
    u.stream.reset();
    u.state = Upstream::State::kFree;
    u.reused = false;
    u.retried = true;
    if (connect(u).ok()) {
      if (u.state == Upstream::State::kBusy) on_ready(u, 0);
      return;
    }
  }
  end_forward(u, 0);
  gw_.backend_errors_.inc();
  const net::HttpServer::Reply reply = u.reply;
  u.reply = {};
  close(u);
  reply.send(net::HttpResponse::text(503, "backend unavailable"));
}

void GatewayBalancer::Pool::close(Upstream& u) {
  if (u.state == Upstream::State::kIdle) {
    auto& idle = idle_[u.backend];
    idle.erase(std::find(idle.begin(), idle.end(), &u));
  }
  u.cancel();
  loop_.remove(u);
  u.stream.reset();
  u.state = Upstream::State::kFree;
  free_.push_back(&u);
}

std::vector<std::int64_t> GatewayBalancer::per_backend_counts() const {
  std::vector<std::int64_t> out;
  out.reserve(forwarded_.size());
  for (const auto& c : forwarded_) {
    out.push_back(c->load(std::memory_order_relaxed));
  }
  return out;
}

}  // namespace janus::lb
