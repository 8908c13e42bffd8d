#include "router/router_node.hpp"

#include <cstdio>

#include "common/flight_recorder.hpp"
#include "common/logging.hpp"
#include "wire/http_codec.hpp"

namespace janus::router {

namespace {

std::int64_t us_since(const TimePoint& start) {
  return (SteadyClock::instance().now() - start).count() / 1000;
}

}  // namespace

Result<std::unique_ptr<RouterNode>> RouterNode::start(
    const net::SockAddr& listen, std::vector<std::string> backends,
    std::shared_ptr<Resolver> resolver, RouterConfig config) {
  if (backends.empty()) return Error("router: no backends configured");
  if (!resolver) return Error("router: no resolver");
  std::unique_ptr<RouterNode> node(
      new RouterNode(std::move(backends), std::move(resolver), config));
  auto server = net::HttpServer::start(
      listen,
      [raw = node.get()](const net::HttpRequest& req) {
        return raw->handle(req);
      },
      config.http_workers);
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

net::HttpResponse RouterNode::handle(const net::HttpRequest& req) {
  FlightRecorder::label_current_thread("router.http");
  // Prequal probe plane (DESIGN.md §14): answered before any accounting so
  // the probe itself never inflates the RIF it reports.
  if (req.target == "/probez") return probez_response();
  const TimePoint start = SteadyClock::instance().now();
  requests_.inc();
  inflight_.add(1);

  std::string trace;
  if (auto h = req.header("X-Janus-Trace")) trace = std::string(*h);

  const std::uint64_t trace_hash =
      trace.empty() || !FlightRecorder::enabled()
          ? 0
          : FlightRecorder::hash_trace(trace);
  if (trace_hash != 0) {
    FlightRecorder::instance().record(TraceEventType::kStageEnter,
                                      TraceStage::kRouter, trace_hash, 0,
                                      start.count());
  }

  std::string key;
  net::HttpResponse resp = dispatch(req, trace, &key);
  if (!trace.empty()) resp.headers.push_back({"X-Janus-Trace", trace});

  inflight_.add(-1);
  const std::int64_t e2e = us_since(start);
  e2e_us_.record(e2e);
  e2e_exemplar_.record(e2e, trace, key);
  // EWMA (α=1/8) of e2e latency — the probe's load-adjusted latency
  // estimate. Load/compute/store race between workers only loses one
  // sample's worth of smoothing; it is an estimate either way.
  const std::int64_t prev = lat_ewma_us_.load(std::memory_order_relaxed);
  lat_ewma_us_.store(prev == 0 ? e2e : prev + (e2e - prev) / 8,
                     std::memory_order_relaxed);
  if (trace_hash != 0) {
    FlightRecorder::instance().record(
        TraceEventType::kStageExit, TraceStage::kRouter, trace_hash,
        static_cast<std::uint64_t>(resp.status),
        SteadyClock::instance().now().count());
  }
  if (!trace.empty()) {
    JLOG_DEBUG("router: trace=%s status=%d e2e_us=%lld", trace.c_str(),
               resp.status, static_cast<long long>(e2e));
  }
  return resp;
}

net::HttpResponse RouterNode::dispatch(const net::HttpRequest& req,
                                       const std::string& trace,
                                       std::string* key_out) {
  auto parsed = wire::parse_qos_target(req.target);
  if (!parsed.ok()) {
    bad_requests_.inc();
    auto resp = net::HttpResponse::text(400, "FALSE");
    resp.headers.push_back({"X-Janus-Status", std::string(wire::status_header_value(
                                                  wire::ResponseStatus::kMalformed))});
    return resp;
  }

  *key_out = parsed.value().request.key;

  wire::QosRequest qos_req = parsed.value().request;
  qos_req.trace_id = trace;

  // Cluster mode: route by the epoch-versioned shard map when attached;
  // static hash-mod-N over the configured backend list otherwise. Both are
  // the paper's CRC32(key) mod N (Fig. 2) — the map just makes N versioned.
  const cluster::ShardMapHolder* cluster_map =
      shard_map_.load(std::memory_order_acquire);
  std::shared_ptr<const cluster::ShardMap> map;
  if (cluster_map) map = cluster_map->snapshot();

  // One UDP client per HTTP worker thread: id matching is per-socket.
  thread_local UdpQosClient client(config_.udp);
  const std::uint64_t trace_hash =
      trace.empty() || !FlightRecorder::enabled()
          ? 0
          : FlightRecorder::hash_trace(trace);

  Result<wire::QosResponse> result = Error("router: unrouted");
  for (int route_attempt = 0;; ++route_attempt) {
    std::size_t slot;
    const std::string* backend_name;
    net::SockAddr backend_addr;
    if (map) {
      slot = map->owner_of(qos_req.key);
      backend_name = &map->members[slot].name;
      backend_addr = map->members[slot].udp_addr;
      qos_req.epoch = map->epoch;  // the v3 epoch stamp servers check
    } else {
      slot = key_router_.index_for(qos_req.key);
      backend_name = &backends_[slot];
      auto backend = resolver_->resolve(*backend_name);
      if (!backend.ok()) {
        defaults_.inc();
        auto resp = net::HttpResponse::text(
            503, config_.udp.default_allow ? "TRUE" : "FALSE");
        resp.headers.push_back(
            {"X-Janus-Status", std::string(wire::status_header_value(
                                   wire::ResponseStatus::kDefaultReply))});
        return resp;
      }
      backend_addr = backend.value();
    }

    const TimePoint udp_start = SteadyClock::instance().now();
    if (trace_hash != 0) {
      FlightRecorder::instance().record(TraceEventType::kStageEnter,
                                        TraceStage::kRouterUdp, trace_hash,
                                        slot, udp_start.count());
    }
    result = client.call(backend_addr, qos_req);
    const std::int64_t rtt = us_since(udp_start);
    if (trace_hash != 0) {
      FlightRecorder::instance().record(
          TraceEventType::kStageExit, TraceStage::kRouterUdp, trace_hash,
          static_cast<std::uint64_t>(client.last_attempts()),
          SteadyClock::instance().now().count());
    }
    udp_rtt_us_.record(rtt);
    if (client.last_attempts() > 1) retries_.inc(client.last_attempts() - 1);
    if (!trace.empty()) {
      JLOG_DEBUG("router: trace=%s key=%s slot=%zu backend=%s attempts=%d "
                 "udp_rtt_us=%lld",
                 trace.c_str(), qos_req.key.c_str(), slot,
                 backend_name->c_str(), client.last_attempts(),
                 static_cast<long long>(rtt));
    }
    if (!result.ok()) {
      JLOG_WARN("router: udp failure: %s", result.error().message.c_str());
      defaults_.inc();
      auto resp = net::HttpResponse::text(
          503, config_.udp.default_allow ? "TRUE" : "FALSE");
      resp.headers.push_back(
          {"X-Janus-Status", std::string(wire::status_header_value(
                                 wire::ResponseStatus::kDefaultReply))});
      return resp;
    }

    // kStaleEpoch NACK: the server already moved to a newer map. The
    // coordinator installs maps locally before publishing, so one fresh
    // snapshot is enough to route against the epoch the server is on;
    // a second NACK (publish still in flight elsewhere) falls through to
    // the default reply rather than looping.
    if (map && route_attempt == 0 &&
        result.value().status == wire::ResponseStatus::kStaleEpoch) {
      stale_reroutes_.inc();
      map = cluster_map->snapshot();
      continue;
    }
    break;
  }

  wire::QosResponse qr = result.value();
  if (qr.status == wire::ResponseStatus::kStaleEpoch) {
    // Re-route did not converge: fail closed (or open, per policy) exactly
    // like an unanswered request — never admit against a stale partition.
    // Counted once, as a default reply, just below.
    qr.status = wire::ResponseStatus::kDefaultReply;
    qr.allowed = config_.udp.default_allow;
  }
  if (qr.status == wire::ResponseStatus::kDefaultReply) {
    defaults_.inc();
  } else {
    forwarded_.inc();
  }
  auto resp = net::HttpResponse::text(200, std::string(wire::response_body(qr)));
  resp.headers.push_back(
      {"X-Janus-Status", std::string(wire::status_header_value(qr.status))});
  resp.headers.push_back(
      {"X-Janus-Credits", std::to_string(qr.remaining_millicredits)});
  return resp;
}

}  // namespace janus::router
