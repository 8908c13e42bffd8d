// DNS load balancing (paper §II-A / §III-A): a DNS service whose A records
// hold the request-router addresses; every query permutes the address list
// (round robin), and clients cache the answer for the record's TTL — which
// is exactly the skew mechanism Fig. 5's discussion analyzes. Also provides
// the Route53-style health-check + master/slave failover used for QoS-server
// and database HA (§III-C/D).
//
// This is an in-process model of Route53 rather than a wire-format DNS
// server: Janus only needs resolution semantics (permutation, TTL, failover),
// not RFC 1035 framing. See DESIGN.md §1.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "common/sync.hpp"
#include "net/socket.hpp"
#include "router/router_node.hpp"

namespace janus::lb {

struct DnsAnswer {
  std::vector<net::SockAddr> addrs;  // permuted per query
  Duration ttl = seconds(30);
};

/// Health of one failover target. Probes are pluggable: the runtime uses a
/// TCP connect probe; tests and the simulator inject outcomes directly.
using HealthProbe = std::function<bool(const net::SockAddr&)>;

class DnsBalancer {
 public:
  explicit DnsBalancer(Duration default_ttl = seconds(30))
      : default_ttl_(default_ttl) {}

  /// A simple multi-address record (the request-router fleet).
  void set_record(const std::string& name, std::vector<net::SockAddr> addrs);

  /// A failover record (§III-C): resolves to `primary` while healthy,
  /// otherwise to `secondary`. Health is updated by run_health_checks().
  void set_failover_record(const std::string& name, net::SockAddr primary,
                           net::SockAddr secondary);

  /// Resolve. Round-robin records rotate one step per query.
  Result<DnsAnswer> query(const std::string& name);

  /// Probe every failover record's current target once; flips resolution
  /// to the secondary after `unhealthy_threshold` consecutive failures. The
  /// way back is rotate_failover(), which installs a new secondary.
  void run_health_checks(const HealthProbe& probe,
                         int unhealthy_threshold = 3);

  /// True if `name` currently resolves to its secondary (failed over).
  bool failed_over(const std::string& name) const;

  /// Flip `name` to its secondary immediately, bypassing the probe
  /// thresholds. Wired to ClusterCoordinator::on_failover (DESIGN.md §11.4):
  /// BFD detects the dead master in hundreds of milliseconds, so the DNS
  /// tier must not wait out `unhealthy_threshold` probe rounds to agree
  /// with the shard map. Returns false if `name` has no failover record or
  /// is already on its secondary.
  bool force_failover(const std::string& name);

  /// Replace a failover pair after a completed failover: the promoted
  /// secondary becomes primary and `new_secondary` takes its place
  /// ("terminate the original failed master node and launch a new slave").
  void rotate_failover(const std::string& name, net::SockAddr new_secondary);

 private:
  struct FailoverState {
    net::SockAddr primary;
    net::SockAddr secondary;
    bool on_secondary = false;
    int consecutive_failures = 0;
  };

  Duration default_ttl_;
  mutable Mutex mu_{LockRank::kDnsBalancer, "lb.dns_balancer"};
  std::map<std::string, std::vector<net::SockAddr>> records_
      JANUS_GUARDED_BY(mu_);
  std::map<std::string, std::size_t> rotation_ JANUS_GUARDED_BY(mu_);
  std::map<std::string, FailoverState> failover_ JANUS_GUARDED_BY(mu_);
};

/// Client-side resolver with TTL caching — models the OS resolver cache that
/// pins a client to one router node for a whole TTL window (§V-A: "most
/// operating systems cache DNS resolution results until the TTL expires").
/// Implements router::Resolver so router nodes can address QoS servers by
/// DNS name through the same cache semantics.
class CachingResolver final : public router::Resolver {
 public:
  CachingResolver(DnsBalancer& dns, Clock& clock) : dns_(dns), clock_(clock) {}

  /// First address of the (cached) answer — what a typical client does
  /// (§II-A: "the QoS client attempts to connect ... with the first IP
  /// address returned from the DNS query").
  Result<net::SockAddr> resolve(const std::string& name) override;

  /// The full cached answer (gateway LB wants all backends).
  Result<std::vector<net::SockAddr>> resolve_all(const std::string& name);

  /// Drop all cached entries (e.g. after a known failover, for tests).
  void flush();

  // Stats accessors take the lock: unguarded reads raced concurrent
  // resolve_all() increments (torn counts under TSan, stale totals).
  std::size_t cache_hits() const;
  std::size_t cache_misses() const;

 private:
  struct CacheEntry {
    std::vector<net::SockAddr> addrs;
    TimePoint expires;
  };

  DnsBalancer& dns_;
  Clock& clock_;
  // Caches below the balancer: resolve_all() calls dns_.query() between its
  // two cache-lock regions, never while holding mu_, but the rank order
  // still documents cache as the inner lock if that ever changes.
  mutable Mutex mu_{LockRank::kDnsCache, "lb.dns_cache"};
  std::map<std::string, CacheEntry> cache_ JANUS_GUARDED_BY(mu_);
  std::size_t hits_ JANUS_GUARDED_BY(mu_) = 0;
  std::size_t misses_ JANUS_GUARDED_BY(mu_) = 0;
};

/// TCP connect probe for real deployments.
HealthProbe tcp_connect_probe(Duration timeout = millis(200));

}  // namespace janus::lb
