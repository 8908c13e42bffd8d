// QoS-server high availability (paper §III-C): "an optional slave node can
// be configured for each QoS server. The slave node continuously replicates
// the local QoS rule table from the master node at a configurable interval."
//
// The master runs an HaSnapshotServer (the paper's "high-availability thread
// [that] waits for incoming connections from slave nodes, and sends back the
// current local QoS table upon request"). The slave runs an HaReplicaClient
// that pulls snapshots into its own AdmissionController. Failover itself is
// a DNS swap handled by lb::DnsBalancer health checks.
//
// Concurrency model (DESIGN.md §8): lock-free here by construction — both
// sides own their threads and communicate over sockets; shared table state
// is reached only through ShardedQosTable's `core.qos_shard` locks, and
// stop flags are atomics.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <thread>

#include "common/clock.hpp"
#include "common/periodic.hpp"
#include "common/result.hpp"
#include "core/admission.hpp"
#include "net/socket.hpp"

namespace janus::server {

/// Serialize / restore a local QoS table (key, rule, credit, is_default).
std::vector<std::uint8_t> serialize_table(core::ShardedQosTable& table);
Result<std::size_t> restore_table(core::ShardedQosTable& table,
                                  std::span<const std::uint8_t> bytes,
                                  TimePoint now);

/// Master side: serves the current table to whoever connects.
class HaSnapshotServer {
 public:
  static Result<std::unique_ptr<HaSnapshotServer>> start(
      const net::SockAddr& listen, core::AdmissionController& admission);

  ~HaSnapshotServer();
  net::SockAddr addr() const { return addr_; }
  std::size_t snapshots_served() const {
    return served_.load(std::memory_order_relaxed);
  }
  void stop();

 private:
  HaSnapshotServer(net::TcpListener listener, net::SockAddr addr,
                   core::AdmissionController& admission);
  void loop();

  net::TcpListener listener_;
  net::SockAddr addr_;
  core::AdmissionController& admission_;
  std::atomic<bool> stopping_{false};
  std::atomic<std::size_t> served_{0};
  std::thread thread_;
};

/// Slave side: pulls a snapshot from the master every `interval`.
class HaReplicaClient {
 public:
  /// `on_restored`, when set, runs after each restore, on the replication
  /// thread (janusd recounts its server's rules with it).
  HaReplicaClient(net::SockAddr master, core::AdmissionController& admission,
                  Clock& clock, Duration interval,
                  std::function<void()> on_restored = {});

  /// One replication round; returns entries restored, or an error if the
  /// master is unreachable (the health checker counts these).
  Result<std::size_t> replicate_once();

  std::size_t rounds_ok() const { return ok_.load(std::memory_order_relaxed); }
  std::size_t rounds_failed() const {
    return failed_.load(std::memory_order_relaxed);
  }

  void stop() { task_.stop(); }

 private:
  net::SockAddr master_;
  core::AdmissionController& admission_;
  Clock& clock_;
  std::function<void()> on_restored_;
  std::atomic<std::size_t> ok_{0};
  std::atomic<std::size_t> failed_{0};
  PeriodicTask task_;
};

}  // namespace janus::server
