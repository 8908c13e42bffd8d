// Observability across the full stack on real sockets: every layer mounts
// an admin endpoint, /metrics exposes the per-stage latency histograms, and
// an X-Janus-Trace header is carried router -> UDP frame -> QoS server and
// back, emitting correlated debug spans on both ends.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/flight_recorder.hpp"
#include "common/json_lint.hpp"
#include "../support/temp_rules.hpp"
#include "common/logging.hpp"
#include "lb/gateway_balancer.hpp"
#include "router/router_node.hpp"
#include "server/qos_server_node.hpp"

namespace janus {
namespace {

class ObservabilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 2; ++i) {
      server::QosServerConfig cfg;
      cfg.sync_interval = Duration{0};
      cfg.checkpoint_interval = Duration{0};
      // Every request is "slow" relative to a zero threshold, so the
      // exemplar assertions below do not depend on real latency.
      cfg.slow_exemplar_us = 0;
      auto server = server::QosServerNode::start({"127.0.0.1", 0},
                                                 rules_.path(), cfg);
      ASSERT_TRUE(server.ok()) << server.error().message;
      auto admin = server.value()->start_admin({"127.0.0.1", 0},
                                               "qos-" + std::to_string(i));
      ASSERT_TRUE(admin.ok()) << admin.error().message;
      server_admins_.push_back(admin.value());
      servers_.push_back(std::move(server).take());
    }

    auto resolver = std::make_shared<router::StaticResolver>();
    std::vector<std::string> backends;
    for (std::size_t i = 0; i < servers_.size(); ++i) {
      const std::string name = "qos-" + std::to_string(i) + ".janus";
      resolver->add(name, servers_[i]->addr());
      backends.push_back(name);
    }
    router::RouterConfig rcfg;
    rcfg.udp.timeout = millis(50);
    auto router = router::RouterNode::start({"127.0.0.1", 0}, backends,
                                            resolver, rcfg);
    ASSERT_TRUE(router.ok()) << router.error().message;
    auto radmin = router.value()->start_admin({"127.0.0.1", 0}, "router-0");
    ASSERT_TRUE(radmin.ok()) << radmin.error().message;
    router_admin_ = radmin.value();
    router_ = std::move(router).take();

    lb::GatewayConfig gcfg;
    auto gateway =
        lb::GatewayBalancer::start({"127.0.0.1", 0}, {router_->addr()}, gcfg);
    ASSERT_TRUE(gateway.ok()) << gateway.error().message;
    auto gadmin = gateway.value()->start_admin({"127.0.0.1", 0}, "gateway-0");
    ASSERT_TRUE(gadmin.ok()) << gadmin.error().message;
    gateway_admin_ = gadmin.value();
    gateway_ = std::move(gateway).take();
  }

  std::string scrape(const net::SockAddr& addr, const std::string& target) {
    net::HttpClient client(addr, millis(2000));
    auto resp = client.get(target);
    EXPECT_TRUE(resp.ok()) << (resp.ok() ? "" : resp.error().message);
    if (!resp.ok()) return {};
    EXPECT_EQ(resp.value().status, 200);
    return resp.value().body;
  }

  void drive_traffic(int n) {
    put_rule({.key = "tenant", .refill_per_sec = 0, .capacity = 1000,
              .credit = 1000});
    net::HttpClient client(gateway_->addr());
    for (int i = 0; i < n; ++i) {
      auto resp = client.get("/qos?key=tenant");
      ASSERT_TRUE(resp.ok()) << resp.error().message;
    }
  }

  /// Send `n` traced requests through the gateway so all four stages
  /// (gateway, router, router.udp, server.worker) emit span events for
  /// `trace_id`.
  void drive_traced(int n, const std::string& trace_id) {
    put_rule({.key = "traced", .refill_per_sec = 0, .capacity = 100000,
              .credit = 100000});
    net::HttpClient client(gateway_->addr(), millis(2000));
    for (int i = 0; i < n; ++i) {
      net::HttpRequest req;
      req.target = "/qos?key=traced";
      req.headers.push_back({"X-Janus-Trace", trace_id});
      auto resp = client.request(req);
      ASSERT_TRUE(resp.ok()) << resp.error().message;
    }
  }

  /// Write `rule` to the rules file; each server's sync pass reloads it.
  void put_rule(const db::RuleRow& rule) {
    rules_.put(rule);
    for (auto& server : servers_) server->sync_now();
  }

  test_support::TempRules rules_;
  std::vector<std::unique_ptr<server::QosServerNode>> servers_;
  std::vector<net::SockAddr> server_admins_;
  std::unique_ptr<router::RouterNode> router_;
  net::SockAddr router_admin_;
  std::unique_ptr<lb::GatewayBalancer> gateway_;
  net::SockAddr gateway_admin_;
};

TEST_F(ObservabilityTest, EveryLayerExposesItsHistograms) {
  drive_traffic(40);

  const std::string router_metrics = scrape(router_admin_, "/metrics");
  EXPECT_NE(router_metrics.find("# TYPE janus_router_e2e_us histogram"),
            std::string::npos);
  EXPECT_NE(router_metrics.find("# TYPE janus_router_udp_rtt_us histogram"),
            std::string::npos);
  EXPECT_NE(router_metrics.find("janus_router_e2e_us_count{node=\"router-0\"} 40"),
            std::string::npos);
  EXPECT_NE(router_metrics.find("janus_router_requests{node=\"router-0\"} 40"),
            std::string::npos);

  // Both servers together answered all 40; each exposes its own share.
  std::uint64_t answered = 0;
  bool saw_wait = false, saw_service = false, saw_dropped = false;
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    const std::string m = scrape(server_admins_[i], "/metrics");
    saw_wait |= m.find("# TYPE janus_server_queue_wait_us histogram") !=
                std::string::npos;
    saw_service |= m.find("# TYPE janus_server_service_us histogram") !=
                   std::string::npos;
    // The FIFO is the listen socket's receive queue; its overflow counter.
    saw_dropped |= m.find("janus_server_socket_dropped{") != std::string::npos;
    const std::string needle =
        "janus_server_answered{node=\"qos-" + std::to_string(i) + "\"} ";
    auto pos = m.find(needle);
    ASSERT_NE(pos, std::string::npos);
    answered += std::stoull(m.substr(pos + needle.size()));
  }
  EXPECT_TRUE(saw_wait);
  EXPECT_TRUE(saw_service);
  EXPECT_TRUE(saw_dropped);
  EXPECT_GE(answered, 40u);  // retries may add a few

  const std::string gw = scrape(gateway_admin_, "/metrics");
  EXPECT_NE(gw.find("# TYPE janus_gateway_proxy_us histogram"),
            std::string::npos);
  EXPECT_NE(gw.find("janus_gateway_proxy_us_count{node=\"gateway-0\"} 40"),
            std::string::npos);
  EXPECT_NE(gw.find("janus_gateway_requests{node=\"gateway-0\"} 40"),
            std::string::npos);
}

TEST_F(ObservabilityTest, HealthzOnEveryLayer) {
  EXPECT_EQ(scrape(router_admin_, "/healthz"), "ok\n");
  EXPECT_EQ(scrape(gateway_admin_, "/healthz"), "ok\n");
  for (const auto& addr : server_admins_) {
    EXPECT_EQ(scrape(addr, "/healthz"), "ok\n");
  }
}

TEST_F(ObservabilityTest, TracePropagatesRouterToServerAndBack) {
  put_rule({.key = "traced", .refill_per_sec = 0, .capacity = 100,
            .credit = 100});

  Logger& log = Logger::instance();
  const LogLevel saved = log.level();
  std::FILE* capture = std::tmpfile();
  ASSERT_NE(capture, nullptr);
  log.set_sink(capture);
  log.set_level(LogLevel::kDebug);

  net::HttpRequest req;
  req.target = "/qos?key=traced";
  req.headers.push_back({"X-Janus-Trace", "trace-abc123"});
  net::HttpClient client(router_->addr(), millis(2000));
  auto resp = client.request(req);

  log.set_sink(stderr);
  log.set_level(saved);

  ASSERT_TRUE(resp.ok()) << resp.error().message;
  EXPECT_EQ(resp.value().body, "TRUE");
  // The router echoes the trace id on the response.
  EXPECT_EQ(resp.value().header("X-Janus-Trace"), "trace-abc123");

  std::rewind(capture);
  std::string logged;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), capture)) > 0) {
    logged.append(buf, n);
  }
  std::fclose(capture);
  // Correlated spans on both sides of the UDP hop.
  EXPECT_NE(logged.find("router: trace=trace-abc123"), std::string::npos);
  EXPECT_NE(logged.find("server: trace=trace-abc123"), std::string::npos);
}

TEST_F(ObservabilityTest, UntracedRequestsStillWork) {
  drive_traffic(5);
  net::HttpClient client(router_->addr(), millis(2000));
  auto resp = client.get("/qos?key=tenant");
  ASSERT_TRUE(resp.ok()) << resp.error().message;
  EXPECT_FALSE(resp.value().header("X-Janus-Trace").has_value());
}

TEST_F(ObservabilityTest, TracezReconstructsRequestAcrossAllStages) {
  const std::string trace_id = "trace-e2e-shared";
  drive_traced(3, trace_id);

  // All nodes live in this process and share the global flight recorder, so
  // any admin endpoint serves every ring; filter down to our request.
  const std::string json =
      scrape(router_admin_, "/tracez?trace=" + trace_id);
  std::string err;
  ASSERT_TRUE(json_lint::json_syntax_ok(json, &err)) << err;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  // Complete ("X") spans for each stage of the decision path.
  EXPECT_NE(json.find("\"name\":\"gateway\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"router\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"router.udp\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"server.worker\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);

  // The filter really filters: a bogus trace id yields no janus spans.
  const std::string empty =
      scrape(router_admin_, "/tracez?trace=no-such-trace-id");
  ASSERT_TRUE(json_lint::json_syntax_ok(empty, &err)) << err;
  EXPECT_EQ(empty.find("\"name\":\"router.udp\""), std::string::npos);
}

TEST_F(ObservabilityTest, StatuszCarriesBuildInfoExemplarsAndHotKeys) {
  const std::string trace_id = "trace-statusz-1";
  // Enough traffic that the 1-in-16 decision sampling populates the hot-key
  // sketch and the 1-in-8 timing sampling lands a service exemplar.
  drive_traced(200, trace_id);

  bool saw_hot_key = false, saw_exemplar_trace = false;
  for (const auto& addr : server_admins_) {
    const std::string body = scrape(addr, "/statusz");
    std::string err;
    ASSERT_TRUE(json_lint::json_syntax_ok(body, &err)) << err << "\n" << body;
    EXPECT_NE(body.find("\"uptime_s\":"), std::string::npos);
    EXPECT_NE(body.find("\"build\":{"), std::string::npos);
    EXPECT_NE(body.find("\"compiler\":"), std::string::npos);
    EXPECT_NE(body.find("\"exemplars\":{"), std::string::npos);
    EXPECT_NE(body.find("\"server.service_us\""), std::string::npos);
    EXPECT_NE(body.find("\"hot_keys\":["), std::string::npos);
    saw_hot_key |= body.find("\"key\":\"traced\"") != std::string::npos;
    saw_exemplar_trace |= body.find(trace_id) != std::string::npos;
  }
  // One of the two servers owns the key's hash slot and saw all 200
  // decisions — sampling cannot miss all of them.
  EXPECT_TRUE(saw_hot_key);
  EXPECT_TRUE(saw_exemplar_trace);

  // The same top-k surfaces as Prometheus families on /metrics.
  bool saw_metric = false;
  for (const auto& addr : server_admins_) {
    const std::string m = scrape(addr, "/metrics");
    saw_metric |= m.find("janus_server_hot_key_decisions{") !=
                  std::string::npos;
  }
  EXPECT_TRUE(saw_metric);
}

TEST_F(ObservabilityTest, TraceExportToolMergesNodes) {
#ifndef JANUS_TRACE_EXPORT_BIN
  GTEST_SKIP() << "JANUS_TRACE_EXPORT_BIN not defined";
#else
  const std::string trace_id = "trace-export-1";
  drive_traced(3, trace_id);

  std::string cmd = std::string(JANUS_TRACE_EXPORT_BIN) +
                    " --trace=" + trace_id + " " +
                    gateway_admin_.to_string() + " " +
                    router_admin_.to_string() + " " +
                    server_admins_[0].to_string();
  std::FILE* pipe = ::popen(cmd.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  std::string out;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0) out.append(buf, n);
  const int rc = ::pclose(pipe);
  ASSERT_EQ(rc, 0) << out;

  std::string err;
  ASSERT_TRUE(json_lint::json_syntax_ok(out, &err)) << err;
  EXPECT_NE(out.find("\"traceEvents\""), std::string::npos);
  // Merged lanes from every fetched node: pids 1..3 all present.
  EXPECT_NE(out.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(out.find("\"pid\":2"), std::string::npos);
  EXPECT_NE(out.find("\"pid\":3"), std::string::npos);
  EXPECT_NE(out.find("\"name\":\"server.worker\""), std::string::npos);
#endif
}

}  // namespace
}  // namespace janus
