// A request router node (paper §II-B / §III-B): a stateless HTTP web app
// that hashes the QoS key with CRC32, picks `CRC32(key) mod N` among the QoS
// servers, forwards the request over UDP, and relays the boolean verdict to
// the QoS client. Because it keeps no state, any number of router nodes can
// be added or removed without coordination.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/shard_map.hpp"
#include "common/metrics.hpp"
#include "core/key_router.hpp"
#include "net/admin_server.hpp"
#include "net/http.hpp"
#include "router/udp_qos_client.hpp"

namespace janus::router {

/// How the router turns a backend's DNS name into an address (§III-C: "The
/// request router identifies the QoS server nodes in the back end via their
/// DNS names"). The lb module's DNS balancer implements this; tests use the
/// static variant.
class Resolver {
 public:
  virtual ~Resolver() = default;
  virtual Result<net::SockAddr> resolve(const std::string& name) = 0;
};

class StaticResolver final : public Resolver {
 public:
  void add(std::string name, net::SockAddr addr) {
    entries_[std::move(name)] = std::move(addr);
  }
  Result<net::SockAddr> resolve(const std::string& name) override {
    auto it = entries_.find(name);
    if (it == entries_.end()) return Error("no such host: " + name);
    return it->second;
  }

 private:
  std::map<std::string, net::SockAddr> entries_;
};

struct RouterConfig {
  /// The UDP leg's timeout, attempt budget and default policy. Each
  /// attempt's window is `udp.timeout` rounded up to whole milliseconds,
  /// the resolution of the loop's deadlines (DESIGN.md §9.2).
  UdpClientConfig udp;
  /// Slow-request exemplar threshold (µs) for router.e2e_us; < 0 disables
  /// exemplar capture.
  std::int64_t slow_exemplar_us = 10000;
};

/// The router's HTTP front end runs on net::HttpServer's loops. Each loop
/// owns one UDP leg (DESIGN.md §9.2): a non-blocking socket and a pending
/// table of in-flight checks keyed by request_id, whose retries and
/// default reply run from the loop's deadlines. No HTTP request holds a
/// thread while its datagram is in flight.
class RouterNode {
 public:
  /// Starts the HTTP front end on `listen` (port 0 = ephemeral) forwarding
  /// to the fixed, ordered list of QoS server names. Backend order defines
  /// the hash slots and must be identical on every router node.
  static Result<std::unique_ptr<RouterNode>> start(
      const net::SockAddr& listen, std::vector<std::string> backends,
      std::shared_ptr<Resolver> resolver, RouterConfig config = {});

  ~RouterNode();

  net::SockAddr addr() const { return server_->addr(); }
  MetricsRegistry& metrics() { return metrics_; }

  /// Mount the admin/observability endpoint (/metrics, /healthz, /statusz)
  /// on its own port. Returns the bound address.
  Result<net::SockAddr> start_admin(const net::SockAddr& addr,
                                    std::string node_name = "router");

  /// Cluster mode (DESIGN.md §11.3): route by the epoch-versioned shard map
  /// instead of the static backend list. Each dispatch snapshots the holder,
  /// routes by `CRC32(key) mod N` over the map's members, stamps the map's
  /// epoch onto the v3 UDP frame, and — on a kStaleEpoch NACK — re-snapshots
  /// and re-routes exactly once (router.stale_epoch_reroutes). The holder
  /// (typically fed by a ClusterCoordinator in the same process) must
  /// outlive the router. Pass nullptr to fall back to static routing.
  void attach_shard_map(const cluster::ShardMapHolder* holder) {
    shard_map_.store(holder, std::memory_order_release);
  }

  void stop() {
    server_->stop();
    if (admin_) admin_->stop();
  }

  /// Prequal probe signal (DESIGN.md §14): HTTP requests received and not
  /// yet answered, and an EWMA (α=1/8) of recent e2e latency. Served on
  /// the data plane as `GET /probez` and mirrored on the admin /statusz.
  std::int64_t requests_in_flight() const {
    return inflight_.value();
  }
  std::int64_t est_latency_us() const {
    return lat_ewma_us_.load(std::memory_order_relaxed);
  }

 private:
  class Leg;  // one loop's UDP leg, router_node.cpp

  RouterNode(std::vector<std::string> backends,
             std::shared_ptr<Resolver> resolver, RouterConfig config);
  net::HttpResponse probez_response() const;
  /// The §III-B default reply (counted in router.default_replies).
  net::HttpResponse default_reply(int status) const;

  std::vector<std::string> backends_;
  std::shared_ptr<Resolver> resolver_;
  RouterConfig config_;
  core::KeyRouter key_router_;
  MetricsRegistry metrics_;
  std::atomic<const cluster::ShardMapHolder*> shard_map_{nullptr};
  Counter& requests_;
  Counter& forwarded_;
  Counter& defaults_;
  Counter& retries_;
  Counter& bad_requests_;
  Counter& stale_reroutes_;  // router.stale_epoch_reroutes
  Counter& probes_;          // router.probes (served /probez snapshots)
  Gauge& inflight_;          // router.inflight (the probed RIF)
  std::atomic<std::int64_t> lat_ewma_us_{0};
  HistogramMetric& e2e_us_;
  HistogramMetric& udp_rtt_us_;
  Exemplar& e2e_exemplar_;  // slowest-sample trace/key, /statusz
  std::unique_ptr<net::HttpServer> server_;
  std::unique_ptr<net::AdminServer> admin_;
};

}  // namespace janus::router
