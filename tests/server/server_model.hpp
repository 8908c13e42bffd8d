// The QoS server's one execution model (DESIGN.md §9.1) in each
// configuration that changes what runs around a decision: how many table
// shards the workers contend on, how many workers drain the listen socket,
// and the periodic refill pass, which takes every shard mutex on its own
// tick while the workers decide. Each variant is a configuration janusd
// accepts. The server-level suites run each end-to-end behavior in every
// variant; the instance names keep the model's `SharedQueue` suffix.
#pragma once

#include <string>

#include "core/admission.hpp"
#include "server/qos_server_node.hpp"

namespace janus::server {

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
  /// One worker (janusd --workers 1): one receiver drains the whole socket
  /// queue.
  kOneWorkerSharedQueue = 4,
};

/// Set what `model` changes in `cfg`, leaving every other field as the
/// test configured it.
inline void apply_server_model(ServerModel model, QosServerConfig& cfg) {
  switch (model) {
    case ServerModel::kSharedQueue:
      break;
    case ServerModel::kOneShardSharedQueue:
      cfg.admission.table_shards = 1;
      break;
    case ServerModel::kOneWorkerSharedQueue:
      cfg.worker_threads = 1;
      break;
    case ServerModel::kPeriodicRefillSharedQueue:
      cfg.admission.refill_mode = core::RefillMode::kPeriodic;
      break;
  }
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
