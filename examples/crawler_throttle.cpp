// Use case from §IV: "Crawlers from certain search engines might produce
// occasional burst workloads... QoS rules can be set up with the User-Agent
// string in the HTTP request header as the QoS key, allowing access from
// search engines with a reasonable access rate."
//
// A real loopback deployment: one QoS server + one router guard a web site;
// the site keys admission on User-Agent. Googlebot has a negotiated crawl
// budget, an aggressive scraper hits the deny-all default, and anonymous
// browsers share a modest communal rate.
//
// Run: ./build/examples/example_crawler_throttle
#include <cstdio>
#include <filesystem>
#include <vector>

#include "app/qos_client.hpp"
#include "common/logging.hpp"
#include "db/rules_file.hpp"
#include "net/http.hpp"
#include "router/router_node.hpp"
#include "server/qos_server_node.hpp"

using namespace janus;

int main() {
  Logger::instance().set_level(LogLevel::kError);

  // The QoS server loads its rules from a file. No rule for
  // "ua/EvilScraper/0.1": the server-side default denies it.
  const std::string rules =
      (std::filesystem::temp_directory_path() / "janus_crawler.rules")
          .string();
  const std::vector<db::RuleRow> rows = {
      {.key = "ua/Googlebot/2.1", .refill_per_sec = 5.0, .capacity = 10.0,
       .credit = 10.0},
      {.key = "ua/anonymous", .refill_per_sec = 20.0, .capacity = 40.0,
       .credit = 40.0},
  };
  if (!db::write_rules_file(rules, rows).ok()) return 1;

  auto qos_server = server::QosServerNode::start({"127.0.0.1", 0}, rules);
  if (!qos_server.ok()) return 1;
  auto resolver = std::make_shared<router::StaticResolver>();
  resolver->add("qos-0", qos_server.value()->addr());
  router::RouterConfig rcfg;
  rcfg.udp.timeout = millis(20);
  auto router = router::RouterNode::start({"127.0.0.1", 0}, {"qos-0"},
                                          resolver, rcfg);
  if (!router.ok()) return 1;

  // The web site: admission key derived from the User-Agent header.
  const net::SockAddr janus_endpoint = router.value()->addr();
  auto site = net::HttpServer::start(
      {"127.0.0.1", 0},
      [&](const net::HttpRequest& req) {
        thread_local app::QosClient qos(janus_endpoint);
        auto agent = req.header("User-Agent");
        const std::string key =
            "ua/" + std::string(agent.value_or("anonymous"));
        if (!qos.qos_check(key)) {
          return net::HttpResponse::text(429, "crawl budget exceeded");
        }
        return net::HttpResponse::text(200, "<html>article text</html>");
      });
  if (!site.ok()) return 1;

  auto crawl = [&](const char* agent, int pages) {
    net::HttpClient client(site.value()->addr(), seconds(2));
    int served = 0;
    for (int i = 0; i < pages; ++i) {
      net::HttpRequest req;
      req.target = "/article/" + std::to_string(i);
      if (agent) req.headers.push_back({"User-Agent", agent});
      auto resp = client.request(req);
      if (resp.ok() && resp.value().status == 200) ++served;
    }
    std::printf("%-18s requested %3d pages, served %3d, throttled %3d\n",
                agent ? agent : "(no User-Agent)", pages, served,
                pages - served);
  };

  std::printf("burst crawl of 30 pages per client:\n");
  crawl("Googlebot/2.1", 30);   // 10-page burst budget, then 5/s
  crawl("EvilScraper/0.1", 30); // unknown agent -> deny-all default
  crawl(nullptr, 30);           // anonymous pool: 40-page burst

  std::printf("\nrouter metrics: %lld decisions forwarded, %lld defaults\n",
              static_cast<long long>(
                  router.value()->metrics().snapshot().at("router.forwarded")),
              static_cast<long long>(router.value()->metrics().snapshot().at(
                  "router.default_replies")));
  std::filesystem::remove(rules);
  return 0;
}
