// The paper's §IV integration demo, live on loopback sockets: a
// photo-sharing web app gains QoS support by wrapping its index page with
// qos_check($_SERVER['REMOTE_ADDR']) — one conditional, zero changes to the
// original handler.
//
//   client -> [photo app HTTP server] -> qos_check() -> Janus gateway LB
//                 |                          -> request routers (CRC32 mod N)
//                 |                          -> QoS servers (leaky buckets)
//                 `-> original page logic only when the verdict is TRUE
//
// Run: ./build/examples/example_photo_sharing
#include <cstdio>
#include <filesystem>
#include <thread>

#include "app/qos_client.hpp"
#include "common/logging.hpp"
#include "db/rules_file.hpp"
#include "lb/gateway_balancer.hpp"
#include "net/http.hpp"
#include "router/router_node.hpp"
#include "server/qos_server_node.hpp"

using namespace janus;

int main() {
  Logger::instance().set_level(LogLevel::kError);

  // --- Janus deployment: rules file -> 2 QoS servers -> 2 routers -> ELB.
  // A known customer IP buys 10 req/s with a burst bucket of 20; everyone
  // else is denied by the servers' default rule.
  const std::string rules =
      (std::filesystem::temp_directory_path() / "janus_photo_sharing.rules")
          .string();
  const db::RuleRow customer{.key = "127.0.0.1", .refill_per_sec = 10.0,
                             .capacity = 20.0, .credit = 20.0};
  if (auto s = db::write_rules_file(rules, {&customer, 1}); !s.ok()) {
    std::fprintf(stderr, "rules: %s\n", s.error().message.c_str());
    return 1;
  }

  std::vector<std::unique_ptr<server::QosServerNode>> qos_servers;
  auto resolver = std::make_shared<router::StaticResolver>();
  std::vector<std::string> backend_names;
  for (int i = 0; i < 2; ++i) {
    auto node = server::QosServerNode::start({"127.0.0.1", 0}, rules);
    if (!node.ok()) {
      std::fprintf(stderr, "qos server: %s\n", node.error().message.c_str());
      return 1;
    }
    std::string name = "qos-" + std::to_string(i) + ".janus.local";
    resolver->add(name, node.value()->addr());
    backend_names.push_back(name);
    qos_servers.push_back(std::move(node).take());
  }

  std::vector<std::unique_ptr<router::RouterNode>> routers;
  std::vector<net::SockAddr> router_addrs;
  for (int i = 0; i < 2; ++i) {
    router::RouterConfig cfg;
    cfg.udp.timeout = millis(20);
    auto node = router::RouterNode::start({"127.0.0.1", 0}, backend_names,
                                          resolver, cfg);
    if (!node.ok()) {
      std::fprintf(stderr, "router: %s\n", node.error().message.c_str());
      return 1;
    }
    router_addrs.push_back(node.value()->addr());
    routers.push_back(std::move(node).take());
  }

  auto gateway = lb::GatewayBalancer::start({"127.0.0.1", 0}, router_addrs);
  if (!gateway.ok()) {
    std::fprintf(stderr, "gateway: %s\n", gateway.error().message.c_str());
    return 1;
  }
  const net::SockAddr janus_endpoint = gateway.value()->addr();
  std::printf("Janus is up behind %s\n\n", janus_endpoint.to_string().c_str());

  // --- The photo-sharing app, with the paper's wrapper around index. ------
  // Original handler: pretend to hit memcached + MySQL and render HTML.
  auto original_index = [](const net::HttpRequest&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(3));  // "MySQL"
    return net::HttpResponse::text(
        200, "<html><body>latest 20 photos...</body></html>");
  };

  auto app = net::HttpServer::start(
      {"127.0.0.1", 0},
      [&](const net::HttpRequest& req) {
        // include("qos_client.php"); $key = $_SERVER['REMOTE_ADDR'];
        thread_local app::QosClient qos(janus_endpoint);
        const std::string remote_addr = "127.0.0.1";
        if (qos.qos_check(remote_addr)) {
          return original_index(req);  // include("original_index.php");
        }
        return net::HttpResponse::text(403, "Forbidden");  // throttling
      });
  if (!app.ok()) {
    std::fprintf(stderr, "app: %s\n", app.error().message.c_str());
    return 1;
  }
  std::printf("photo app is up at %s\n\n", app.value()->addr().to_string().c_str());

  // --- Drive it: a burst, then a steady overload. -------------------------
  net::HttpClient browser(app.value()->addr(), seconds(2));

  std::printf("burst of 30 page loads (bucket capacity 20):\n  ");
  int ok = 0, throttled = 0;
  for (int i = 0; i < 30; ++i) {
    auto resp = browser.get("/index.php");
    if (!resp.ok()) continue;
    std::printf("%s", resp.value().status == 200 ? "." : "x");
    (resp.value().status == 200 ? ok : throttled)++;
  }
  std::printf("\n  -> %d served, %d throttled (403)\n\n", ok, throttled);

  std::printf("steady 20 req/s against the 10 req/s quota for 3 s:\n");
  ok = throttled = 0;
  for (int i = 0; i < 60; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    auto resp = browser.get("/index.php");
    if (!resp.ok()) continue;
    (resp.value().status == 200 ? ok : throttled)++;
  }
  std::printf("  -> %d served, %d throttled (quota admits ~10/s)\n", ok,
              throttled);
  std::filesystem::remove(rules);
  return 0;
}
