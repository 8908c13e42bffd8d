#include "sim/janus_model.hpp"

#include <limits>
#include <stdexcept>

#include "core/db_rule_adapter.hpp"
#include "testing/fault_injector.hpp"

namespace janus::sim {

struct SimDeployment::SimRouter {
  std::unique_ptr<SimNode> node;
  net::SockAddr addr;
  double speed = 1.0;              // CPU-cost multiplier (heterogeneity)
  std::int64_t outstanding = 0;    // gateway-visible in-flight (LC policy)
  std::int64_t lat_ewma_us = 0;    // EWMA of e2e latency (probe signal)
  std::uint64_t requests_window = 0;  // per-window routing-skew counter
};

namespace {

Duration scale_cost(Duration d, double factor) {
  return Duration{static_cast<std::int64_t>(
      static_cast<double>(d.count()) * factor)};
}

}  // namespace

struct SimDeployment::SimServer {
  std::unique_ptr<SimNode> node;
  std::unique_ptr<core::DbRuleSource> source;
  std::unique_ptr<core::DbRuleSink> sink;
  std::unique_ptr<core::AdmissionController> admission;
  std::uint64_t decisions_window = 0;  // per-window key-pressure counter
};

struct SimDeployment::Exchange {
  int client_id = 0;
  std::string key;
  TimePoint t0{kTimeZero};
  SimRouter* router = nullptr;
  SimServer* server = nullptr;
  int attempts = 0;
  bool answered = false;
  std::function<void(const SimQosResult&)> on_done;
};

namespace {
InstanceType instance_or_throw(const std::string& name) {
  auto t = find_instance(name);
  if (!t) throw std::invalid_argument("unknown instance type: " + name);
  return *t;
}
}  // namespace

SimDeployment::SimDeployment(Simulation& sim, DeploymentConfig config)
    : sim_(sim),
      config_(std::move(config)),
      rng_(config_.seed),
      window_start_(sim.now()),
      m_requests_(metrics_.counter("router.requests")),
      m_forwarded_(metrics_.counter("router.forwarded")),
      m_defaults_(metrics_.counter("router.default_replies")),
      m_retries_(metrics_.counter("router.udp_retries")),
      m_received_(metrics_.counter("server.received")),
      m_answered_(metrics_.counter("server.answered")),
      m_dropped_(metrics_.counter("server.fifo_dropped")),
      m_udp_lost_(metrics_.counter("router.udp_lost")),
      m_e2e_us_(metrics_.histogram("router.e2e_us")) {
  if (config_.router_nodes <= 0 || config_.server_nodes <= 0) {
    throw std::invalid_argument("SimDeployment: need >= 1 node per layer");
  }

  db_ = std::make_unique<db::Database>();
  rule_store_ = std::make_unique<db::RuleStore>(*db_);

  const auto router_type = instance_or_throw(config_.router_instance);
  const auto server_type = instance_or_throw(config_.server_instance);
  const CostModel& c = config_.costs;

  for (int i = 0; i < config_.router_nodes; ++i) {
    auto r = std::make_unique<SimRouter>();
    r->node = std::make_unique<SimNode>(
        sim_, "router-" + std::to_string(i), router_type,
        NodeOptions{.serial_fraction = 0.0,
                         .background_cores = c.router_background_cores,
                         .queue_limit = 0});
    r->addr = net::SockAddr{"10.0.0." + std::to_string(i + 1), 80};
    if (static_cast<std::size_t>(i) < config_.router_speed_factors.size() &&
        config_.router_speed_factors[i] > 0) {
      r->speed = config_.router_speed_factors[i];
    }
    router_by_addr_[r->addr.to_string()] = routers_.size();
    routers_.push_back(std::move(r));
  }

  if (config_.lb_mode == LbMode::kGateway &&
      config_.gateway_policy == lb::RoutingPolicy::kPrequal) {
    picker_ = std::make_unique<lb::PrequalPicker>(routers_.size(),
                                                  config_.prequal);
    schedule_probe_round();
  }

  for (int i = 0; i < config_.server_nodes; ++i) {
    auto s = std::make_unique<SimServer>();
    s->node = std::make_unique<SimNode>(
        sim_, "qos-" + std::to_string(i), server_type,
        NodeOptions{.serial_fraction = 0.0,
                         .background_cores = c.server_background_cores,
                         .queue_limit = c.server_fifo_limit});
    s->source = std::make_unique<core::DbRuleSource>(*rule_store_);
    s->sink = std::make_unique<core::DbRuleSink>(*rule_store_);
    s->admission = std::make_unique<core::AdmissionController>(
        sim_.clock(), *s->source, config_.admission);
    servers_.push_back(std::move(s));
  }
  key_router_ = std::make_unique<core::KeyRouter>(servers_.size());

  if (config_.lb_mode == LbMode::kDns) {
    dns_ = std::make_unique<lb::DnsBalancer>(config_.dns_ttl);
    std::vector<net::SockAddr> addrs;
    for (const auto& r : routers_) addrs.push_back(r->addr);
    dns_->set_record("janus", std::move(addrs));
  }
}

SimDeployment::~SimDeployment() = default;

SimDeployment::SimRouter& SimDeployment::pick_router_gateway() {
  switch (config_.gateway_policy) {
    case lb::RoutingPolicy::kPrequal: {
      // The real picker on virtual time: cold-min-latency among d sampled
      // probes, kNoPick (no usable probe yet) degrades to round-robin.
      const std::size_t idx = picker_->pick(sim_.now());
      if (idx != lb::PrequalPicker::kNoPick) return *routers_[idx];
      break;
    }
    case lb::RoutingPolicy::kLeastConnections: {
      // Fewest gateway-visible outstanding requests; ties rotate on the
      // round-robin cursor exactly like GatewayBalancer (DESIGN.md §14).
      const std::size_t start = rr_next_++;
      std::size_t best = start % routers_.size();
      std::int64_t best_load = std::numeric_limits<std::int64_t>::max();
      for (std::size_t i = 0; i < routers_.size(); ++i) {
        const std::size_t idx = (start + i) % routers_.size();
        if (routers_[idx]->outstanding < best_load) {
          best_load = routers_[idx]->outstanding;
          best = idx;
        }
      }
      return *routers_[best];
    }
    case lb::RoutingPolicy::kRoundRobin:
      break;
  }
  // ELB round robin (§V-A: "uniform distribution of workload across all
  // request router nodes").
  SimRouter& r = *routers_[rr_next_ % routers_.size()];
  ++rr_next_;
  return r;
}

void SimDeployment::schedule_probe_round() {
  sim_.schedule_after(config_.prequal.probe_interval, [this] {
    probe_round();
    schedule_probe_round();
  });
}

void SimDeployment::probe_round() {
  const TimePoint now = sim_.now();
  auto& faults = testing::FaultInjector::instance();
  for (std::size_t i = 0; i < routers_.size(); ++i) {
    // lb.probe.drop models a lost probe round-trip in the sim too: the
    // previous probe stays (stale reuse) until sweep() ages it out.
    if (faults.should_fire(testing::FaultPoint::kLbProbeDrop)) continue;
    // RIF = jobs queued or running on the router node (requests and any
    // antagonist work); latency estimate = the router's e2e EWMA.
    picker_->publish(i,
                     static_cast<std::int64_t>(routers_[i]->node->in_flight()),
                     routers_[i]->lat_ewma_us, now);
  }
  picker_->sweep(now);
  picker_->refresh_threshold(now);
  picker_->take_reuse_evictions();
}

void SimDeployment::start_router_antagonist(std::size_t index, double cores,
                                            Duration period) {
  if (index >= routers_.size() || cores <= 0 || period.count() <= 0) return;
  SimNode* node = routers_[index]->node.get();
  // `cores` vCPUs' worth of work per period: floor(cores) full-period jobs
  // plus one fractional job, re-submitted every period forever.
  const auto whole = static_cast<std::size_t>(cores);
  const double frac = cores - static_cast<double>(whole);
  sim_.schedule_after(period, [this, index, cores, period, node, whole,
                              frac] {
    for (std::size_t j = 0; j < whole; ++j) {
      node->submit(period, Duration{0}, std::function<void()>{});
    }
    if (frac > 0) {
      node->submit(scale_cost(period, frac), Duration{0},
                   std::function<void()>{});
    }
    start_router_antagonist(index, cores, period);
  });
}

SimDeployment::SimRouter& SimDeployment::pick_router_dns(int client_id) {
  if (client_id < 0) client_id = 0;
  while (client_resolvers_.size() <= static_cast<std::size_t>(client_id)) {
    client_resolvers_.push_back(
        std::make_unique<lb::CachingResolver>(*dns_, sim_.clock()));
  }
  auto addr = client_resolvers_[client_id]->resolve("janus");
  if (!addr.ok()) return *routers_[0];
  auto it = router_by_addr_.find(addr.value().to_string());
  return it == router_by_addr_.end() ? *routers_[0] : *routers_[it->second];
}

void SimDeployment::submit(int client_id, const std::string& key,
                           std::function<void(const SimQosResult&)> on_done) {
  auto ex = std::make_shared<Exchange>();
  ex->client_id = client_id;
  ex->key = key;
  ex->t0 = sim_.now();
  ex->on_done = std::move(on_done);

  const CostModel& c = config_.costs;
  Duration inbound = c.client_net.sample(rng_);
  if (config_.lb_mode == LbMode::kGateway) {
    // client -> ELB -> router: extra hop plus ELB forwarding work (§V-A).
    inbound += c.lb_cpu + c.lb_hop.sample(rng_);
    ex->router = &pick_router_gateway();
    ++ex->router->outstanding;  // gateway-visible in-flight (LC policy)
  } else {
    ex->router = &pick_router_dns(client_id);
  }
  sim_.schedule_after(inbound, [this, ex] { router_receive(*ex->router, ex); });
}

void SimDeployment::router_receive(SimRouter& router,
                                   std::shared_ptr<Exchange> ex) {
  m_requests_.inc();
  ++router.requests_window;
  router.node->submit(scale_cost(config_.costs.router_cpu_pre, router.speed),
                      [this, ex] {
    ex->server = servers_[key_router_->index_for(ex->key)].get();
    start_attempt(ex);
  });
}

void SimDeployment::start_attempt(std::shared_ptr<Exchange> ex) {
  ++ex->attempts;
  if (ex->attempts > 1) {
    ++window_.udp_retries;
    m_retries_.inc();
  }
  const CostModel& c = config_.costs;

  if (!c.udp.lost(rng_)) {
    sim_.schedule_after(c.udp.latency.sample(rng_),
                        [this, ex] { server_receive(*ex->server, ex); });
  } else {
    ++window_.udp_lost;
    m_udp_lost_.inc();
  }

  sim_.schedule_after(c.udp_timeout, [this, ex] {
    if (ex->answered) return;
    const CostModel& cm = config_.costs;
    if (ex->attempts < cm.udp_attempts) {
      start_attempt(ex);
    } else {
      // Retry budget exhausted: default reply (§III-B).
      ex->answered = true;
      deliver_response(ex, cm.default_allow, -1,
                       wire::ResponseStatus::kDefaultReply);
    }
  });
}

void SimDeployment::server_receive(SimServer& server,
                                   std::shared_ptr<Exchange> ex) {
  m_received_.inc();  // datagram reached the node (matches server.received)
  const CostModel& c = config_.costs;
  // Kernel RX/TX + listener-thread work: consumes cores, overlaps across
  // requests, not on the decision's critical path.
  server.node->submit(c.server_cpu_overhead, Duration{0},
                      std::function<void()>{});

  SimServer* sp = &server;
  // Each decision pays CostModel::server_lock as *serial* work: the paper's
  // synchronized table section, the Fig. 10 ceiling.
  const bool accepted = server.node->submit(
      c.server_cpu_worker, c.server_lock, [this, ex, sp] {
        ++sp->decisions_window;
        m_answered_.inc();
        // The real admission controller decides, on virtual time. A retry
        // duplicate of an already-answered exchange still consumes credits
        // and capacity — faithful to the paper's fire-and-forget UDP.
        core::Decision d = sp->admission->check(ex->key);
        Duration extra = d.origin == core::Decision::Origin::kCached
                             ? Duration{0}
                             : config_.costs.db_fetch;  // first touch (§II-D)
        const CostModel& cm = config_.costs;
        if (cm.udp.lost(rng_)) {
          ++window_.udp_lost;  // response datagram dropped
          m_udp_lost_.inc();
          return;
        }
        sim_.schedule_after(extra + cm.udp.latency.sample(rng_), [this, ex, d] {
          if (ex->answered) return;  // late duplicate or already defaulted
          ex->answered = true;
          deliver_response(ex, d.allowed, d.remaining_millicredits,
                           wire::ResponseStatus::kOk);
        });
      });
  if (!accepted) {
    ++window_.fifo_dropped;
    m_dropped_.inc();
  }
}

void SimDeployment::deliver_response(std::shared_ptr<Exchange> ex,
                                     bool allowed, std::int64_t /*credits*/,
                                     wire::ResponseStatus status) {
  // HTTP reply work on the router, then the network back to the client.
  ex->router->node->submit(scale_cost(config_.costs.router_cpu_post,
                                      ex->router->speed),
                           [this, ex, allowed, status] {
                             Duration back = config_.costs.client_net.sample(rng_);
                             if (config_.lb_mode == LbMode::kGateway) {
                               back += config_.costs.lb_cpu +
                                       config_.costs.lb_hop.sample(rng_);
                             }
                             sim_.schedule_after(back, [this, ex, allowed, status] {
                               finish(ex, allowed, status);
                             });
                           });
}

void SimDeployment::finish(std::shared_ptr<Exchange> ex, bool allowed,
                           wire::ResponseStatus status) {
  ++window_.completed;
  if (config_.lb_mode == LbMode::kGateway) {
    if (ex->router->outstanding > 0) --ex->router->outstanding;
    // Per-router e2e EWMA (α=1/8) — the virtual-time mirror of
    // RouterNode::est_latency_us, read by the Prequal probe round.
    const std::int64_t e2e_us = (sim_.now() - ex->t0).count() / 1000;
    ex->router->lat_ewma_us =
        ex->router->lat_ewma_us == 0
            ? e2e_us
            : ex->router->lat_ewma_us +
                  (e2e_us - ex->router->lat_ewma_us) / 8;
  }
  if (status == wire::ResponseStatus::kOk) {
    ++window_.decided;
    m_forwarded_.inc();
    if (allowed) {
      ++window_.allowed;
    } else {
      ++window_.denied;
    }
  } else {
    ++window_.default_replies;
    m_defaults_.inc();
  }
  window_.latency.record(sim_.now() - ex->t0);
  m_e2e_us_.record((sim_.now() - ex->t0).count() / 1000);
  if (ex->on_done) {
    SimQosResult result{allowed, status, sim_.now() - ex->t0};
    ex->on_done(result);
  }
}

WindowMetrics SimDeployment::mark_window() {
  WindowMetrics out = std::move(window_);
  window_ = WindowMetrics{};
  out.window = sim_.now() - window_start_;
  window_start_ = sim_.now();

  double router_total = 0;
  for (auto& r : routers_) {
    NodeStats st = r->node->mark_window();
    double util = st.cpu_utilization(r->node->vcpus());
    out.router_cpu_per_node.push_back(util);
    out.router_requests_per_node.push_back(r->requests_window);
    r->requests_window = 0;
    router_total += util;
  }
  out.router_cpu = router_total / static_cast<double>(routers_.size());

  double server_total = 0;
  for (auto& s : servers_) {
    NodeStats st = s->node->mark_window();
    double util = st.cpu_utilization(s->node->vcpus());
    out.server_cpu_per_node.push_back(util);
    server_total += util;
    out.server_requests_per_node.push_back(s->decisions_window);
    s->decisions_window = 0;
  }
  out.server_cpu = server_total / static_cast<double>(servers_.size());
  return out;
}

void SimDeployment::sync_all() {
  for (auto& s : servers_) s->admission->sync_now();
}

void SimDeployment::checkpoint_all() {
  for (auto& s : servers_) s->admission->checkpoint_now(*s->sink);
}

void SimDeployment::warm_key(const std::string& key) {
  servers_[key_router_->index_for(key)]->admission->probe(key, 0);
}

}  // namespace janus::sim
