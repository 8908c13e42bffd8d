// Admin/observability HTTP endpoint shared by every Janus node type
// (router, QoS server, gateway balancer). Serves:
//
//   GET /metrics  -> Prometheus text exposition of the node's registry
//   GET /healthz  -> 200 "ok" (503 when the owner's health probe fails)
//   GET /statusz  -> JSON: node name, uptime, build info, health, scalar
//                    metrics, slow-request exemplars
//   GET /tracez   -> flight-recorder rings as Perfetto/chrome://tracing
//                    JSON; ?trace=<id> keeps one request, ?pid=<n>
//                    namespaces multi-node merges
//
// The admin surface is deliberately separate from the data-plane listener:
// it binds its own port and runs its own loops (an HttpServer of its own),
// and never touches the request path, so scraping cannot perturb the
// latency experiments.
//
// Concurrency (DESIGN.md §8): stateless beyond the wrapped HttpServer; the
// /metrics render takes each registry/stripe lock briefly inside
// MetricsRegistry's annotated accessors, never data-plane locks.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "common/clock.hpp"
#include "common/metrics.hpp"
#include "net/http.hpp"

namespace janus::net {

struct AdminOptions {
  std::string node_name = "janus";
  /// Liveness probe; default healthy. Evaluated per /healthz and /statusz.
  std::function<bool()> healthy;
  /// Extra Prometheus exposition text appended to /metrics (already
  /// rendered; must end with '\n'). The node name is passed so the owner
  /// can label its samples consistently. Used for hot-key top-k families.
  std::function<std::string(const std::string& node)> extra_metrics;
  /// Extra JSON appended to the /statusz object — a fragment starting with
  /// ',' (e.g. ",\"hot_keys\":[...]").
  std::function<std::string()> extra_statusz;
};

class AdminServer {
 public:
  /// Binds `addr` (port 0 = ephemeral) and serves immediately. `registry`
  /// must outlive the server.
  static Result<std::unique_ptr<AdminServer>> start(
      const SockAddr& addr, const MetricsRegistry& registry,
      AdminOptions options = {});

  ~AdminServer();
  AdminServer(const AdminServer&) = delete;
  AdminServer& operator=(const AdminServer&) = delete;

  SockAddr addr() const { return server_->addr(); }
  const std::string& node_name() const { return options_.node_name; }
  void stop() { server_->stop(); }

 private:
  AdminServer(const MetricsRegistry& registry, AdminOptions options);
  HttpResponse handle(const HttpRequest& req);
  HttpResponse metrics_response() const;
  HttpResponse healthz_response() const;
  HttpResponse statusz_response() const;
  HttpResponse tracez_response(std::string_view query) const;

  const MetricsRegistry& registry_;
  AdminOptions options_;
  TimePoint started_{kTimeZero};
  std::unique_ptr<HttpServer> server_;
};

}  // namespace janus::net
