#include "lb/dns_balancer.hpp"

#include <algorithm>

namespace janus::lb {

void DnsBalancer::set_record(const std::string& name,
                             std::vector<net::SockAddr> addrs) {
  MutexLock lock(mu_);
  records_[name] = std::move(addrs);
  rotation_[name] = 0;
}

void DnsBalancer::set_failover_record(const std::string& name,
                                      net::SockAddr primary,
                                      net::SockAddr secondary) {
  MutexLock lock(mu_);
  failover_[name] = FailoverState{.primary = std::move(primary),
                                  .secondary = std::move(secondary)};
}

Result<DnsAnswer> DnsBalancer::query(const std::string& name) {
  MutexLock lock(mu_);
  if (auto it = failover_.find(name); it != failover_.end()) {
    const FailoverState& st = it->second;
    return DnsAnswer{.addrs = {st.on_secondary ? st.secondary : st.primary},
                     .ttl = default_ttl_};
  }
  auto it = records_.find(name);
  if (it == records_.end() || it->second.empty()) {
    return Error("NXDOMAIN: " + name);
  }
  // Rotate one step per query ("with each DNS response, the IP address
  // sequence in the list is permuted", §II-A).
  std::size_t& rot = rotation_[name];
  DnsAnswer answer;
  answer.ttl = default_ttl_;
  const auto& addrs = it->second;
  answer.addrs.reserve(addrs.size());
  for (std::size_t i = 0; i < addrs.size(); ++i) {
    answer.addrs.push_back(addrs[(rot + i) % addrs.size()]);
  }
  rot = (rot + 1) % addrs.size();
  return answer;
}

void DnsBalancer::run_health_checks(const HealthProbe& probe,
                                    int unhealthy_threshold) {
  // Probe outside the lock: probes can take hundreds of milliseconds.
  std::vector<std::pair<std::string, net::SockAddr>> targets;
  {
    MutexLock lock(mu_);
    for (const auto& [name, st] : failover_) {
      targets.emplace_back(name, st.on_secondary ? st.secondary : st.primary);
    }
  }
  for (const auto& [name, addr] : targets) {
    const bool healthy = probe(addr);
    MutexLock lock(mu_);
    auto it = failover_.find(name);
    if (it == failover_.end()) continue;
    FailoverState& st = it->second;
    st.consecutive_failures = healthy ? 0 : st.consecutive_failures + 1;
    if (!st.on_secondary && st.consecutive_failures >= unhealthy_threshold) {
      st.on_secondary = true;
      st.consecutive_failures = 0;
    }
  }
}

bool DnsBalancer::failed_over(const std::string& name) const {
  MutexLock lock(mu_);
  auto it = failover_.find(name);
  return it != failover_.end() && it->second.on_secondary;
}

bool DnsBalancer::force_failover(const std::string& name) {
  MutexLock lock(mu_);
  auto it = failover_.find(name);
  if (it == failover_.end() || it->second.on_secondary) return false;
  it->second.on_secondary = true;
  // Reset the probe counter: the next health-check rounds judge the
  // secondary from a clean slate.
  it->second.consecutive_failures = 0;
  return true;
}

void DnsBalancer::rotate_failover(const std::string& name,
                                  net::SockAddr new_secondary) {
  MutexLock lock(mu_);
  auto it = failover_.find(name);
  if (it == failover_.end()) return;
  FailoverState& st = it->second;
  if (st.on_secondary) {
    st.primary = st.secondary;
    st.on_secondary = false;
  }
  st.secondary = std::move(new_secondary);
  st.consecutive_failures = 0;
}

Result<net::SockAddr> CachingResolver::resolve(const std::string& name) {
  auto all = resolve_all(name);
  if (!all.ok()) return Error(all.error().message);
  if (all.value().empty()) return Error("empty DNS answer for " + name);
  return all.value().front();
}

Result<std::vector<net::SockAddr>> CachingResolver::resolve_all(
    const std::string& name) {
  const TimePoint now = clock_.now();
  {
    MutexLock lock(mu_);
    auto it = cache_.find(name);
    if (it != cache_.end() && it->second.expires > now) {
      ++hits_;
      return it->second.addrs;
    }
  }
  auto answer = dns_.query(name);
  if (!answer.ok()) return Error(answer.error().message);
  MutexLock lock(mu_);
  ++misses_;
  cache_[name] = CacheEntry{.addrs = answer.value().addrs,
                            .expires = now + answer.value().ttl};
  return answer.value().addrs;
}

void CachingResolver::flush() {
  MutexLock lock(mu_);
  cache_.clear();
}

std::size_t CachingResolver::cache_hits() const {
  MutexLock lock(mu_);
  return hits_;
}

std::size_t CachingResolver::cache_misses() const {
  MutexLock lock(mu_);
  return misses_;
}

HealthProbe tcp_connect_probe(Duration timeout) {
  return [timeout](const net::SockAddr& addr) {
    return net::TcpStream::connect(addr, timeout).ok();
  };
}

}  // namespace janus::lb
