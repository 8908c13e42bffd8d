// The QoS server's one execution model (DESIGN.md §9.1) in each
// configuration that changes what runs around a decision: the listen
// socket's batched-I/O provider (§13), and the periodic refill pass, which
// takes every shard mutex on its own tick while the workers decide. The
// server-level suites run each end-to-end behavior in every variant; the
// instance names keep the model's `SharedQueue` suffix.
#pragma once

#include <string>

#include "core/admission.hpp"
#include "net/socket.hpp"
#include "server/qos_server_node.hpp"

namespace janus::server {

enum class ServerModel {
  /// The defaults: the auto provider (recvmmsg/sendmmsg where available)
  /// and on-access refill.
  kSharedQueue,
  /// recvfrom/sendto loops on the listen socket.
  kFallbackLoopsSharedQueue,
  /// Buckets refilled only by the maintenance tick (`refill_interval`).
  kPeriodicRefillSharedQueue,
};

/// Set what `model` changes in `cfg`, leaving every other field as the
/// test configured it.
inline void apply_server_model(ServerModel model, QosServerConfig& cfg) {
  switch (model) {
    case ServerModel::kSharedQueue:
      break;
    case ServerModel::kFallbackLoopsSharedQueue:
      cfg.data_path = net::UdpSocket::DataPath::kFallback;
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
    case ServerModel::kFallbackLoopsSharedQueue:
      return "FallbackLoopsSharedQueue";
    case ServerModel::kPeriodicRefillSharedQueue:
      return "PeriodicRefillSharedQueue";
  }
  return "Unknown";
}

}  // namespace janus::server
