// Gateway load balancer (paper §II-A / §III-A): an L7 appliance with an HTTP
// listener — the ELB role. It accepts the QoS client's HTTP request, holds
// it, opens/reuses a connection to a back-end router node chosen by the
// routing policy, and relays the response. That extra TCP hop is precisely
// the +500 µs Fig. 5 measures against DNS load balancing.
//
// Routing policies: the paper's round-robin and least-connections, plus the
// Prequal hot/cold power-of-d policy (DESIGN.md §14): an async probe pool
// (PeriodicTask) samples each backend's `GET /probez` for requests-in-flight
// and estimated latency, and the pick path routes through the seqlocked
// PrequalPicker probe cache — bounded staleness, reuse budgets, hot/cold
// classification by RIF quantile — falling back to round-robin whenever no
// probe is usable, so a dead probe plane degrades instead of stalling.
//
// Forwarding (DESIGN.md §9.2): the listener runs on net::HttpServer's
// loops, and each loop forwards over its own pool of non-blocking
// keep-alive connections to each router. A request never holds a thread
// while its upstream leg is in flight. Hop-by-hop headers (Connection, the
// headers it names, Keep-Alive) are not forwarded (RFC 7230 §6.1).
//
// Concurrency (DESIGN.md §8): the pick path adds no locks — the round-robin
// cursor and health counters are atomics and the probe cache is a seqlock.
// Each upstream pool belongs to one loop and takes no lock. The probe
// pool's blocking HTTP clients are guarded by `lb.probe_pool` (rank 66, a
// leaf held across a probe round-trip); pick_backend() never touches it.
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "common/hot_path.hpp"
#include "common/metrics.hpp"
#include "common/periodic.hpp"
#include "common/sync.hpp"
#include "lb/prequal.hpp"
#include "net/admin_server.hpp"
#include "net/http.hpp"

namespace janus::lb {

enum class RoutingPolicy {
  kRoundRobin,        // "distributes requests to the back end nodes one by one"
  kLeastConnections,  // "to the node with the least outstanding requests"
  kPrequal,           // probe-based hot/cold power-of-d (DESIGN.md §14)
};

/// Stable flag/CLI name ("round-robin", "least-connections", "prequal").
std::string_view routing_policy_name(RoutingPolicy policy);
std::optional<RoutingPolicy> routing_policy_from_name(std::string_view name);

struct GatewayConfig {
  RoutingPolicy policy = RoutingPolicy::kRoundRobin;
  /// Bounds each forward: connect, request and response.
  Duration backend_timeout = millis(1000);
  /// Slow-request exemplar threshold (µs) for gateway.proxy_us; < 0
  /// disables exemplar capture. The exemplar's "key" is the backend
  /// address, the most useful attribution at this hop.
  std::int64_t slow_exemplar_us = 20000;
  /// Probe pool knobs; consulted only under RoutingPolicy::kPrequal.
  PrequalConfig prequal;
};

class GatewayBalancer {
 public:
  static Result<std::unique_ptr<GatewayBalancer>> start(
      const net::SockAddr& listen, std::vector<net::SockAddr> backends,
      GatewayConfig config = {});

  ~GatewayBalancer();

  net::SockAddr addr() const { return server_->addr(); }
  MetricsRegistry& metrics() { return metrics_; }
  const GatewayConfig& config() const { return config_; }

  /// Mount the admin/observability endpoint (/metrics, /healthz, /statusz).
  Result<net::SockAddr> start_admin(const net::SockAddr& addr,
                                    std::string node_name = "gateway");

  /// Requests forwarded to each backend (index-aligned) — the load-skew
  /// measurements in the Fig. 5 discussion read these.
  std::vector<std::int64_t> per_backend_counts() const;

  /// Run one synchronous probe round (kPrequal only; no-op otherwise).
  /// Tests use this instead of waiting out the probe interval.
  void probe_now();

  /// The probe cache, for tests and the /statusz renderer (kPrequal only;
  /// nullptr under the other policies).
  const PrequalPicker* prequal_picker() const { return picker_.get(); }

  void stop() {
    if (probe_task_) probe_task_->stop();
    server_->stop();
    if (admin_) admin_->stop();
  }

 private:
  class Pool;  // one loop's upstream connections, gateway_balancer.cpp

  GatewayBalancer(std::vector<net::SockAddr> backends, GatewayConfig config);

  /// Request-path policy dispatch. Lock-free and allocation-free under
  /// every policy: atomics only for RR/LC, a seqlocked probe-cache read for
  /// Prequal (tools/janus_purity_lint.py verifies the whole call graph).
  JANUS_HOT_PATH std::size_t pick_backend();
  JANUS_HOT_PATH std::size_t pick_round_robin();
  JANUS_HOT_PATH std::size_t pick_least_connections();
  JANUS_HOT_PATH std::size_t pick_prequal();

  /// Probe pool body: one /probez round-trip per backend, then the
  /// sweep/threshold/metric bookkeeping. Runs on the PeriodicTask thread
  /// (and synchronously from probe_now()); serialized by probe_mu_.
  void probe_round();
  std::string render_prequal_statusz() const;

  std::vector<net::SockAddr> backends_;
  GatewayConfig config_;
  std::atomic<std::size_t> next_{0};
  std::vector<std::unique_ptr<std::atomic<std::int64_t>>> outstanding_;
  std::vector<std::unique_ptr<std::atomic<std::int64_t>>> forwarded_;
  MetricsRegistry metrics_;
  Counter& requests_;
  Counter& backend_errors_;
  Counter& prequal_probes_;           // gateway.prequal_probes
  Counter& prequal_probe_failures_;   // gateway.prequal_probe_failures
  Counter& prequal_cold_picks_;       // gateway.prequal_cold_picks
  Counter& prequal_hot_picks_;        // gateway.prequal_hot_picks
  Counter& prequal_fallback_rr_;      // gateway.prequal_fallback_rr
  Counter& prequal_reuse_evictions_;  // gateway.prequal_reuse_evictions
  Counter& prequal_stale_evictions_;  // gateway.prequal_stale_evictions
  Gauge& prequal_hot_threshold_;      // gateway.prequal_hot_rif_threshold
  Gauge& prequal_valid_probes_;       // gateway.prequal_valid_probes
  HistogramMetric& proxy_us_;
  Exemplar& proxy_exemplar_;  // slowest-sample trace/backend, /statusz
  std::unique_ptr<PrequalPicker> picker_;  // kPrequal only
  /// Guards the probe pool's per-backend keep-alive HTTP clients. Held
  /// across a probe round (I/O under lock is fine here: the clients take no
  /// lock, and the request path never touches this mutex).
  mutable Mutex probe_mu_{LockRank::kLbProbePool, "lb.probe_pool"};
  std::vector<std::unique_ptr<net::HttpClient>> probe_clients_
      JANUS_GUARDED_BY(probe_mu_);
  std::unique_ptr<net::HttpServer> server_;
  std::unique_ptr<net::AdminServer> admin_;
  std::unique_ptr<PeriodicTask> probe_task_;  // declared last: stops first
};

}  // namespace janus::lb
