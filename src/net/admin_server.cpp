#include "net/admin_server.hpp"

#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>

#include "common/flight_recorder.hpp"

namespace janus::net {

namespace {

/// Value of `name` in an (unencoded) query string, or "" when absent.
std::string_view query_param(std::string_view query, std::string_view name) {
  std::size_t pos = 0;
  while (pos < query.size()) {
    const std::size_t amp = query.find('&', pos);
    const std::string_view pair = query.substr(
        pos, amp == std::string_view::npos ? std::string_view::npos
                                           : amp - pos);
    if (pair.size() > name.size() + 1 &&
        pair.substr(0, name.size()) == name && pair[name.size()] == '=') {
      return pair.substr(name.size() + 1);
    }
    if (amp == std::string_view::npos) break;
    pos = amp + 1;
  }
  return {};
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

HttpResponse with_content_type(HttpResponse resp, std::string type) {
  resp.headers.push_back({"Content-Type", std::move(type)});
  return resp;
}

}  // namespace

Result<std::unique_ptr<AdminServer>> AdminServer::start(
    const SockAddr& addr, const MetricsRegistry& registry,
    AdminOptions options) {
  std::unique_ptr<AdminServer> admin(
      new AdminServer(registry, std::move(options)));
  auto server = HttpServer::start(
      addr,
      [raw = admin.get()](const HttpRequest& req) { return raw->handle(req); });
  if (!server.ok()) return Error(server.error().message);
  admin->server_ = std::move(server).take();
  return admin;
}

AdminServer::AdminServer(const MetricsRegistry& registry, AdminOptions options)
    : registry_(registry),
      options_(std::move(options)),
      started_(SteadyClock::instance().now()) {}

AdminServer::~AdminServer() {
  if (server_) server_->stop();
}

HttpResponse AdminServer::handle(const HttpRequest& req) {
  std::string_view path = req.target;
  std::string_view query;
  if (auto q = path.find('?'); q != std::string_view::npos) {
    query = path.substr(q + 1);
    path = path.substr(0, q);
  }
  if (req.method != "GET") {
    return with_content_type(HttpResponse::text(405, "method not allowed\n"),
                             "text/plain");
  }
  if (path == "/metrics") return metrics_response();
  if (path == "/healthz") return healthz_response();
  if (path == "/statusz") return statusz_response();
  if (path == "/tracez") return tracez_response(query);
  return with_content_type(HttpResponse::text(404, "not found\n"),
                           "text/plain");
}

HttpResponse AdminServer::metrics_response() const {
  std::string body = render_prometheus(registry_, options_.node_name);
  if (options_.extra_metrics) body += options_.extra_metrics(options_.node_name);
  return with_content_type(HttpResponse::text(200, std::move(body)),
                           "text/plain; version=0.0.4; charset=utf-8");
}

HttpResponse AdminServer::tracez_response(std::string_view query) const {
  const std::string_view trace = query_param(query, "trace");
  const std::string_view pid_s = query_param(query, "pid");
  int pid = 1;
  if (!pid_s.empty()) {
    pid = std::atoi(std::string(pid_s).c_str());
    if (pid <= 0) pid = 1;
  }
  const std::uint64_t filter = FlightRecorder::hash_trace(trace);
  return with_content_type(
      HttpResponse::text(200,
                         FlightRecorder::render_trace_json(
                             FlightRecorder::instance().snapshot(), filter,
                             pid)),
      "application/json");
}

HttpResponse AdminServer::healthz_response() const {
  const bool ok = !options_.healthy || options_.healthy();
  return with_content_type(
      ok ? HttpResponse::text(200, "ok\n")
         : HttpResponse::text(503, "unhealthy\n"),
      "text/plain");
}

HttpResponse AdminServer::statusz_response() const {
  const bool ok = !options_.healthy || options_.healthy();
  const Duration uptime = SteadyClock::instance().now() - started_;
  std::string body = "{\"node\":\"" + json_escape(options_.node_name) + "\"";
  char buf[160];
  std::snprintf(buf, sizeof(buf), ",\"healthy\":%s,\"uptime_s\":%.3f",
                ok ? "true" : "false", to_seconds(uptime));
  body += buf;
  // Build-info block: which binary is actually serving. __VERSION__ is the
  // compiler's own id string; build mode comes from NDEBUG.
  std::snprintf(buf, sizeof(buf),
                ",\"build\":{\"compiler\":\"%s\",\"mode\":\"%s\","
                "\"compiled\":\"%s %s\",\"pid\":%d}",
                json_escape(__VERSION__).c_str(),
#ifdef NDEBUG
                "release",
#else
                "debug",
#endif
                __DATE__, __TIME__, static_cast<int>(::getpid()));
  body += buf;
  body += ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, value] : registry_.snapshot()) {
    if (!first) body += ',';
    first = false;
    std::snprintf(buf, sizeof(buf), "\":%" PRId64, value);
    body += '"' + json_escape(name) + buf;
  }
  body += '}';
  // Slow-request exemplars: the trace id + key of the most recent
  // over-threshold sample per stage histogram (DESIGN.md §10).
  const auto exemplars = registry_.snapshot_exemplars();
  if (!exemplars.empty()) {
    body += ",\"exemplars\":{";
    first = true;
    for (const auto& [name, ex] : exemplars) {
      if (!first) body += ',';
      first = false;
      body += '"' + json_escape(name) + "\":{";
      std::snprintf(buf, sizeof(buf),
                    "\"threshold\":%" PRId64 ",\"over_count\":%" PRIu64,
                    ex.threshold, ex.over_count);
      body += buf;
      if (ex.valid) {
        std::snprintf(buf, sizeof(buf), ",\"value\":%" PRId64, ex.value);
        body += buf;
        body += ",\"trace\":\"" + json_escape(ex.trace) + "\"";
        body += ",\"key\":\"" + json_escape(ex.key) + "\"";
      }
      body += '}';
    }
    body += '}';
  }
  if (options_.extra_statusz) body += options_.extra_statusz();
  body += "}\n";
  return with_content_type(HttpResponse::text(200, std::move(body)),
                           "application/json");
}

}  // namespace janus::net
