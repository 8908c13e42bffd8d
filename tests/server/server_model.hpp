// The QoS server's one execution model (DESIGN.md §9.1) in each
// configuration that changes what runs around a decision: how many table
// shards the workers contend on, how many workers drain the listen socket,
// and the periodic refill pass, which takes every shard mutex on its own
// tick while the workers decide. Each variant is a configuration janusd
// accepts. The server-level suites run each end-to-end behavior in every
// variant; the instance names keep the model's `SharedQueue` suffix.
#pragma once

#include <sched.h>

#include <algorithm>
#include <cstddef>
#include <memory>
#include <optional>
#include <string>

#include "core/admission.hpp"
#include "net/socket.hpp"
#include "server/qos_server_node.hpp"

namespace janus::server {

/// `cpus` CPUs of the calling thread's affinity mask, starting with the
/// CPU it runs on now, so parallel test processes do not all land on CPU
/// 0. Nullopt when the mask holds fewer.
inline std::optional<cpu_set_t> cpus_from_here(std::size_t cpus) {
  cpu_set_t mask;
  if (::sched_getaffinity(0, sizeof(mask), &mask) != 0) return std::nullopt;
  cpu_set_t picked;
  CPU_ZERO(&picked);
  const int here = std::max(::sched_getcpu(), 0);
  auto count = [&] { return static_cast<std::size_t>(CPU_COUNT(&picked)); };
  for (int i = 0; i < CPU_SETSIZE && count() < cpus; ++i) {
    const int cpu = (here + i) % CPU_SETSIZE;
    if (CPU_ISSET(cpu, &mask)) CPU_SET(cpu, &picked);
  }
  if (count() != cpus) return std::nullopt;
  return picked;
}

/// Pins the calling thread to cpus_from_here(cpus) and restores its mask
/// on destruction. Threads it starts meanwhile keep the pinned mask, as a
/// janusd node's threads keep the one `taskset -c` gave it.
class ScopedAffinity {
 public:
  explicit ScopedAffinity(std::size_t cpus) {
    const auto pinned = cpus_from_here(cpus);
    ok_ = pinned && ::sched_getaffinity(0, sizeof(saved_), &saved_) == 0 &&
          ::sched_setaffinity(0, sizeof(*pinned), &*pinned) == 0;
  }
  ~ScopedAffinity() {
    if (ok_) ::sched_setaffinity(0, sizeof(saved_), &saved_);
  }
  ScopedAffinity(const ScopedAffinity&) = delete;
  ScopedAffinity& operator=(const ScopedAffinity&) = delete;

  /// False when the mask holds fewer CPUs than asked for; the thread's
  /// mask is then unchanged.
  bool ok() const { return ok_; }

 private:
  cpu_set_t saved_;
  bool ok_ = false;
};

/// Run `start` on one CPU, so the node it starts runs one worker.
template <typename Start>
auto on_one_cpu(Start&& start) {
  ScopedAffinity pin(1);
  return start();
}

/// The values are fixed: ctest prints each instance's GetParam() bytes as
/// part of its name. 1 belonged to a retired variant.
enum class ServerModel {
  /// The defaults: every field as the test configured it, on-access refill.
  kSharedQueue = 0,
  /// Buckets refilled only by the maintenance tick (`refill_interval`).
  kPeriodicRefillSharedQueue = 2,
  /// One table shard (janusd --shards 1): the paper's single table lock,
  /// with every worker contending on one mutex.
  kOneShardSharedQueue = 3,
  /// One worker (janusd under `taskset -c` with one CPU): one receiver
  /// drains the whole socket queue.
  kOneWorkerSharedQueue = 4,
};

/// Start a node in `model`: set what the model changes in `cfg`, leaving
/// every other field as the test configured it, and start the one-worker
/// variant from a thread pinned to one CPU.
inline Result<std::unique_ptr<QosServerNode>> start_in_model(
    ServerModel model, const net::SockAddr& listen,
    const std::string& rules_path, QosServerConfig cfg) {
  switch (model) {
    case ServerModel::kSharedQueue:
    case ServerModel::kOneWorkerSharedQueue:
      break;
    case ServerModel::kOneShardSharedQueue:
      cfg.admission.table_shards = 1;
      break;
    case ServerModel::kPeriodicRefillSharedQueue:
      cfg.admission.refill_mode = core::RefillMode::kPeriodic;
      break;
  }
  auto start = [&] { return QosServerNode::start(listen, rules_path, cfg); };
  return model == ServerModel::kOneWorkerSharedQueue ? on_one_cpu(start)
                                                     : start();
}

inline std::string server_model_name(ServerModel model) {
  switch (model) {
    case ServerModel::kSharedQueue:
      return "SharedQueue";
    case ServerModel::kOneShardSharedQueue:
      return "OneShardSharedQueue";
    case ServerModel::kOneWorkerSharedQueue:
      return "OneWorkerSharedQueue";
    case ServerModel::kPeriodicRefillSharedQueue:
      return "PeriodicRefillSharedQueue";
  }
  return "Unknown";
}

/// Every variant, in the order the suites instantiate them.
inline constexpr ServerModel kAllServerModels[] = {
    ServerModel::kSharedQueue,
    ServerModel::kOneShardSharedQueue,
    ServerModel::kOneWorkerSharedQueue,
    ServerModel::kPeriodicRefillSharedQueue,
};

}  // namespace janus::server
