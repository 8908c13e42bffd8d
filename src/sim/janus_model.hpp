// The simulated Janus deployment: client fleet -> load balancer ->
// request-router nodes -> UDP (timeout/retry/loss) -> QoS-server nodes ->
// embedded rules database. The admission decisions are made by the *real*
// core::AdmissionController running on the simulation's virtual clock; the
// routing decisions by the real core::KeyRouter; DNS caching by the real
// lb::DnsBalancer/CachingResolver. The simulator supplies only what AWS
// supplied in the paper: machines, wires, and time.
//
// Calibration (CostModel defaults) reproduces the paper's operating points:
// one c3.xlarge router ~ 11-12 K rps, one c3.xlarge QoS server ~ 12 K rps,
// lock-capped ~90 K rps on one c3.8xlarge, DNS-vs-gateway delta ~ 500 us.
// See DESIGN.md §1 for why shapes, not absolute numbers, are the target.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/histogram.hpp"
#include "common/metrics.hpp"
#include "common/rng.hpp"
#include "core/admission.hpp"
#include "core/key_router.hpp"
#include "db/rule_store.hpp"
#include "lb/dns_balancer.hpp"
#include "lb/gateway_balancer.hpp"
#include "lb/prequal.hpp"
#include "sim/engine.hpp"
#include "sim/network.hpp"
#include "sim/node.hpp"
#include "wire/message.hpp"

namespace janus::sim {

/// Calibrated per-request costs. All durations are virtual.
struct CostModel {
  // Request router node (Apache + PHP, §III-B).
  Duration router_cpu_pre = micros(250);   // parse HTTP, CRC32, UDP send
  Duration router_cpu_post = micros(90);   // HTTP response
  double router_background_cores = 0.05;   // Apache/OS housekeeping

  // QoS server node (Java, §III-C). The worker stage is the decision
  // critical path; the overhead stage is kernel UDP RX/TX + listener work
  // that consumes cores but overlaps across requests.
  Duration server_cpu_worker = micros(45);
  Duration server_cpu_overhead = micros(275);
  Duration server_lock = micros(11);       // synchronized local-table section
  double server_background_cores = 0.2;    // JVM/OS housekeeping
  std::size_t server_fifo_limit = 8192;
  Duration db_fetch = micros(500);         // first-touch rule query (§II-D)

  // Network (one-way samples).
  LatencyModel client_net{micros(260), 0.25};  // client <-> router/LB
  LatencyModel lb_hop{micros(200), 0.25};      // extra hop via gateway LB
  Duration lb_cpu = micros(60);                // ELB forwarding work
  UdpLinkModel udp{{micros(15), 0.30}, 0.002}; // router <-> server

  // Router UDP reliability policy (§III-B). The paper used 100 us x 5, but
  // at its own reported per-node throughput (~12.5 krps on 4 vCPUs, i.e.
  // ~90% utilization) queueing delay alone exceeds that budget — a window
  // that small would have turned the saturation measurements into default
  // replies. The default here is 2 ms x 5, wide enough to cover queueing at
  // the measured operating points while still bounding loss recovery; the
  // ablation bench A1 sweeps the per-attempt window down to the paper's
  // 100 us.
  Duration udp_timeout = millis(2);
  int udp_attempts = 5;
  bool default_allow = false;
};

enum class LbMode { kGateway, kDns };

struct DeploymentConfig {
  std::string router_instance = "c3.xlarge";
  int router_nodes = 2;
  std::string server_instance = "c3.xlarge";
  int server_nodes = 2;
  LbMode lb_mode = LbMode::kGateway;
  Duration dns_ttl = seconds(30);
  CostModel costs;
  core::AdmissionConfig admission;  // default rule, shards, refill mode
  std::uint64_t seed = 42;
  /// Gateway-mode routing policy, mirroring lb::GatewayConfig::policy
  /// (ignored in kDns mode). kPrequal runs the *real* lb::PrequalPicker on
  /// virtual time: a recurring probe event publishes each router's
  /// requests-in-flight and latency EWMA, and pick_router_gateway() routes
  /// through the same seqlocked probe cache janusd uses (DESIGN.md §14).
  lb::RoutingPolicy gateway_policy = lb::RoutingPolicy::kRoundRobin;
  lb::PrequalConfig prequal;
  /// Per-router service-speed multipliers (heterogeneous fleets, the
  /// Prequal paper's setting): router i's CPU costs are scaled by
  /// router_speed_factors[i] (1.0 = calibrated; 2.0 = twice as slow).
  /// Routers beyond the vector's length run at 1.0.
  std::vector<double> router_speed_factors;
};

/// What a client observes for one QoS request.
struct SimQosResult {
  bool allowed = false;
  wire::ResponseStatus status = wire::ResponseStatus::kOk;
  Duration latency{0};
};

/// Aggregated measurements for one window (between mark_window calls).
struct WindowMetrics {
  Duration window{0};
  std::uint64_t completed = 0;        // client-visible responses
  std::uint64_t decided = 0;          // responses carrying a QoS decision
  std::uint64_t default_replies = 0;  // retry budget exhausted
  std::uint64_t allowed = 0;
  std::uint64_t denied = 0;
  std::uint64_t udp_retries = 0;
  std::uint64_t udp_lost = 0;
  std::uint64_t fifo_dropped = 0;
  double router_cpu = 0.0;            // mean utilization across nodes [0,1]
  double server_cpu = 0.0;
  std::vector<double> router_cpu_per_node;
  std::vector<double> server_cpu_per_node;
  std::vector<std::uint64_t> router_requests_per_node;  // routing-skew view
  std::vector<std::uint64_t> server_requests_per_node;  // key-pressure view
  Histogram latency{seconds(60).count(), 7};

  double decided_throughput() const {
    return window.count() > 0
               ? static_cast<double>(decided) / to_seconds(window)
               : 0.0;
  }
  double completed_throughput() const {
    return window.count() > 0
               ? static_cast<double>(completed) / to_seconds(window)
               : 0.0;
  }
};

class SimDeployment {
 public:
  SimDeployment(Simulation& sim, DeploymentConfig config);
  ~SimDeployment();

  SimDeployment(const SimDeployment&) = delete;
  SimDeployment& operator=(const SimDeployment&) = delete;

  /// The rules database shared by every QoS server (provision rules here).
  db::RuleStore& rules() { return *rule_store_; }
  Simulation& sim() { return sim_; }
  const DeploymentConfig& config() const { return config_; }

  /// Issue one QoS request from client node `client_id`. The callback fires
  /// when the client receives the verdict. In kDns mode the client id
  /// selects the per-client-node resolver cache (TTL pinning, §V-A).
  void submit(int client_id, const std::string& key,
              std::function<void(const SimQosResult&)> on_done);

  /// Harvest and reset the measurement window.
  WindowMetrics mark_window();

  /// Cumulative registry mirroring the live nodes' metric schema
  /// (router.requests, router.e2e_us, server.fifo_dropped, ...), so paper
  /// figure benches and real deployments report through one exposition:
  /// `render_prometheus(dep.metrics(), "sim")` scrapes a simulation exactly
  /// like `GET /metrics` scrapes a janusd node. Unlike mark_window(), these
  /// never reset.
  MetricsRegistry& metrics() { return metrics_; }

  /// Force every QoS server to run a maintenance pass (sync/checkpoint) —
  /// scheduled periodically by scenarios that need it.
  void sync_all();
  void checkpoint_all();

  /// Pre-populate the owning server's local QoS table for `key` without
  /// consuming credit — puts the deployment in the cached steady state the
  /// scalability experiments measure (first-touch behaviour is studied
  /// separately; see EXPERIMENTS.md).
  void warm_key(const std::string& key);

  std::size_t router_count() const { return routers_.size(); }
  std::size_t server_count() const { return servers_.size(); }

  /// Start a CPU antagonist on router `index`: every `period` of virtual
  /// time it submits `cores` vCPUs' worth of interfering work into the
  /// router's run queue — the Prequal paper's noisy-neighbour scenario.
  /// Runs until the simulation ends.
  void start_router_antagonist(std::size_t index, double cores,
                               Duration period = millis(1));

  /// The Prequal probe cache (gateway_policy == kPrequal only; nullptr
  /// otherwise). Exposed for tests and scenario drivers.
  const lb::PrequalPicker* prequal_picker() const { return picker_.get(); }

 private:
  struct SimRouter;
  struct SimServer;
  struct Exchange;

  SimRouter& pick_router_gateway();
  SimRouter& pick_router_dns(int client_id);
  void schedule_probe_round();
  void probe_round();
  void router_receive(SimRouter& router, std::shared_ptr<Exchange> ex);
  void start_attempt(std::shared_ptr<Exchange> ex);
  void server_receive(SimServer& server, std::shared_ptr<Exchange> ex);
  void deliver_response(std::shared_ptr<Exchange> ex, bool allowed,
                        std::int64_t credits, wire::ResponseStatus status);
  void finish(std::shared_ptr<Exchange> ex, bool allowed,
              wire::ResponseStatus status);

  Simulation& sim_;
  DeploymentConfig config_;
  Rng rng_;

  std::unique_ptr<db::Database> db_;
  std::unique_ptr<db::RuleStore> rule_store_;

  std::vector<std::unique_ptr<SimRouter>> routers_;
  std::vector<std::unique_ptr<SimServer>> servers_;
  std::unique_ptr<core::KeyRouter> key_router_;

  // DNS-mode plumbing (real lb:: objects on virtual time).
  std::unique_ptr<lb::DnsBalancer> dns_;
  std::vector<std::unique_ptr<lb::CachingResolver>> client_resolvers_;
  std::map<std::string, std::size_t> router_by_addr_;

  std::size_t rr_next_ = 0;  // gateway round robin / tie-break cursor
  std::unique_ptr<lb::PrequalPicker> picker_;  // kPrequal only

  // Window counters.
  WindowMetrics window_;
  TimePoint window_start_{kTimeZero};

  // Cumulative live-schema counters (see metrics()).
  MetricsRegistry metrics_;
  Counter& m_requests_;
  Counter& m_forwarded_;
  Counter& m_defaults_;
  Counter& m_retries_;
  Counter& m_received_;
  Counter& m_answered_;
  Counter& m_dropped_;
  Counter& m_udp_lost_;
  HistogramMetric& m_e2e_us_;
};

}  // namespace janus::sim
