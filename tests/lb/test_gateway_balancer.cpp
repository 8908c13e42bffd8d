#include "lb/gateway_balancer.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <thread>

#include "net/http.hpp"

namespace janus::lb {
namespace {

/// Tiny identifiable backend.
std::unique_ptr<net::HttpServer> backend(const std::string& id,
                                         Duration delay = Duration{0}) {
  auto server = net::HttpServer::start(
      {"127.0.0.1", 0},
      [id, delay](const net::HttpRequest&) {
        if (delay.count() > 0) {
          std::this_thread::sleep_for(delay);
        }
        return net::HttpResponse::text(200, id);
      });
  EXPECT_TRUE(server.ok());
  return std::move(server).take();
}

TEST(GatewayBalancerTest, RejectsEmptyBackends) {
  EXPECT_FALSE(GatewayBalancer::start({"127.0.0.1", 0}, {}).ok());
}

TEST(GatewayBalancerTest, ForwardsRequestAndResponse) {
  auto b = backend("b0");
  auto lb = GatewayBalancer::start({"127.0.0.1", 0}, {b->addr()});
  ASSERT_TRUE(lb.ok()) << lb.error().message;
  net::HttpClient client(lb.value()->addr());
  auto resp = client.get("/anything");
  ASSERT_TRUE(resp.ok()) << resp.error().message;
  EXPECT_EQ(resp.value().status, 200);
  EXPECT_EQ(resp.value().body, "b0");
}

TEST(GatewayBalancerTest, RoundRobinDistributesEvenly) {
  auto b0 = backend("b0");
  auto b1 = backend("b1");
  auto b2 = backend("b2");
  GatewayConfig cfg;
  cfg.policy = RoutingPolicy::kRoundRobin;
  auto lb = GatewayBalancer::start({"127.0.0.1", 0},
                                   {b0->addr(), b1->addr(), b2->addr()}, cfg);
  ASSERT_TRUE(lb.ok());
  net::HttpClient client(lb.value()->addr());
  for (int i = 0; i < 30; ++i) ASSERT_TRUE(client.get("/").ok());
  auto counts = lb.value()->per_backend_counts();
  ASSERT_EQ(counts.size(), 3u);
  // §V-A: "a uniform distribution of workload across all nodes."
  for (auto c : counts) EXPECT_EQ(c, 10);
}

TEST(GatewayBalancerTest, LeastConnectionsAvoidsBusyBackend) {
  auto fast = backend("fast");
  auto slow = backend("slow", millis(150));
  GatewayConfig cfg;
  cfg.policy = RoutingPolicy::kLeastConnections;
  auto lb = GatewayBalancer::start({"127.0.0.1", 0},
                                   {slow->addr(), fast->addr()}, cfg);
  ASSERT_TRUE(lb.ok());

  // Launch a burst of concurrent requests; the slow backend accumulates
  // outstanding connections so most requests should drain to the fast one.
  std::vector<std::thread> threads;
  std::atomic<int> fast_hits{0};
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      net::HttpClient client(lb.value()->addr(), seconds(5));
      for (int i = 0; i < 5; ++i) {
        auto resp = client.get("/");
        if (resp.ok() && resp.value().body == "fast") fast_hits.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_GT(fast_hits.load(), 10);  // of 20
}

TEST(GatewayBalancerTest, DeadBackendYields503) {
  std::uint16_t dead_port;
  {
    auto temp = net::TcpListener::listen({"127.0.0.1", 0});
    ASSERT_TRUE(temp.ok());
    dead_port = temp.value().local_addr().value().port;
  }
  GatewayConfig cfg;
  cfg.backend_timeout = millis(200);
  auto lb = GatewayBalancer::start({"127.0.0.1", 0},
                                   {net::SockAddr{"127.0.0.1", dead_port}},
                                   cfg);
  ASSERT_TRUE(lb.ok());
  net::HttpClient client(lb.value()->addr());
  auto resp = client.get("/");
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.value().status, 503);
  EXPECT_GE(lb.value()->metrics().snapshot().at("gateway.backend_errors"), 1);
}

TEST(GatewayBalancerTest, MetricsCountRequests) {
  auto b = backend("b0");
  auto lb = GatewayBalancer::start({"127.0.0.1", 0}, {b->addr()});
  ASSERT_TRUE(lb.ok());
  net::HttpClient client(lb.value()->addr());
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(client.get("/").ok());
  EXPECT_EQ(lb.value()->metrics().snapshot().at("gateway.requests"), 5);
}

TEST(GatewayBalancerTest, ConcurrentTrafficThroughOneBalancer) {
  auto b0 = backend("b0");
  auto b1 = backend("b1");
  GatewayConfig cfg;
  auto lb = GatewayBalancer::start({"127.0.0.1", 0},
                                   {b0->addr(), b1->addr()}, cfg);
  ASSERT_TRUE(lb.ok());
  std::atomic<int> ok{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      net::HttpClient client(lb.value()->addr(), seconds(5));
      for (int i = 0; i < 20; ++i) {
        auto resp = client.get("/");
        if (resp.ok() && resp.value().status == 200) ok.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(ok.load(), 80);
}

TEST(GatewayBalancerTest, HopByHopHeadersAreNotForwarded) {
  // The backend answers with the names of the headers it received.
  auto recorder = net::HttpServer::start(
      {"127.0.0.1", 0}, [](const net::HttpRequest& req) {
        std::string names;
        for (const auto& h : req.headers) names += h.name + ";";
        return net::HttpResponse::text(200, names);
      });
  ASSERT_TRUE(recorder.ok());
  auto lb = GatewayBalancer::start({"127.0.0.1", 0},
                                   {recorder.value()->addr()});
  ASSERT_TRUE(lb.ok());

  // RFC 7230 §6.1: Connection, the headers it names and Keep-Alive belong
  // to the caller's hop. Forwarded, the caller's "close" would close the
  // gateway's pooled connection to the backend instead.
  auto conn = net::TcpStream::connect(lb.value()->addr(), seconds(2));
  ASSERT_TRUE(conn.ok());
  ASSERT_TRUE(conn.value()
                  .write_all("GET /x HTTP/1.1\r\nHost: gw\r\n"
                             "Connection: close, X-Hop\r\nX-Hop: 1\r\n"
                             "Keep-Alive: timeout=5\r\nX-End: 2\r\n\r\n")
                  .ok());
  net::HttpParser parser(net::HttpParser::Kind::kResponse);
  std::optional<net::HttpResponse> resp;
  std::uint8_t buf[1024];
  for (int i = 0; i < 50 && !resp; ++i) {
    auto n = conn.value().read_some(buf, millis(200));
    ASSERT_TRUE(n.ok());
    if (!n.value()) continue;
    ASSERT_GT(*n.value(), 0u) << "closed before answering";
    parser.feed(std::string_view(reinterpret_cast<char*>(buf), *n.value()));
    auto next = parser.next_response();
    ASSERT_TRUE(next.ok());
    resp = std::move(next.value());
  }
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->body, "Host;X-End;");

  // The pooled connection survived the caller's close: a second caller is
  // served without a backend error.
  net::HttpClient client(lb.value()->addr());
  auto again = client.get("/y");
  ASSERT_TRUE(again.ok()) << again.error().message;
  EXPECT_EQ(again.value().status, 200);
  EXPECT_EQ(lb.value()->metrics().snapshot().at("gateway.backend_errors"), 0);
}

TEST(GatewayBalancerTest, LeastConnectionsRotatesTiesAcrossIdleBackends) {
  // Regression (DESIGN.md §14 satellite): with every backend idle, each
  // serial pick is an all-zeros tie. The tie-break must rotate — a
  // lowest-index tie-break would send 100% of an idle fleet's trickle
  // traffic to backend 0 (per_backend_counts() skew).
  auto b0 = backend("b0");
  auto b1 = backend("b1");
  auto b2 = backend("b2");
  GatewayConfig cfg;
  cfg.policy = RoutingPolicy::kLeastConnections;
  auto lb = GatewayBalancer::start({"127.0.0.1", 0},
                                   {b0->addr(), b1->addr(), b2->addr()}, cfg);
  ASSERT_TRUE(lb.ok());
  net::HttpClient client(lb.value()->addr());
  for (int i = 0; i < 30; ++i) ASSERT_TRUE(client.get("/").ok());
  auto counts = lb.value()->per_backend_counts();
  ASSERT_EQ(counts.size(), 3u);
  for (auto c : counts) EXPECT_EQ(c, 10) << "tie-break skew";
}

/// Backend that answers /probez like a router node (fixed rif/lat payload)
/// and anything else with its id.
std::unique_ptr<net::HttpServer> probe_backend(const std::string& id,
                                               std::int64_t rif,
                                               std::int64_t lat_us) {
  auto server = net::HttpServer::start(
      {"127.0.0.1", 0},
      [id, rif, lat_us](const net::HttpRequest& req) {
        if (req.target == "/probez") {
          return net::HttpResponse::text(
              200, "{\"rif\":" + std::to_string(rif) +
                       ",\"lat_us\":" + std::to_string(lat_us) + "}");
        }
        return net::HttpResponse::text(200, id);
      });
  EXPECT_TRUE(server.ok());
  return std::move(server).take();
}

GatewayConfig prequal_config() {
  GatewayConfig cfg;
  cfg.policy = RoutingPolicy::kPrequal;
  // Rounds are driven synchronously via probe_now() in these tests, so give
  // each probe enough reuse budget to steer a whole test's worth of picks
  // (the reuse-budget test overrides this with a tight budget on purpose).
  cfg.prequal.probe_interval = seconds(3600);
  cfg.prequal.probe_reuse_budget = 1 << 20;
  return cfg;
}

TEST(GatewayBalancerTest, PrequalRoutesToLowestLatencyColdBackend) {
  auto fast = probe_backend("fast", 0, 120);
  auto slow = probe_backend("slow", 0, 50000);
  auto lb = GatewayBalancer::start({"127.0.0.1", 0},
                                   {slow->addr(), fast->addr()},
                                   prequal_config());
  ASSERT_TRUE(lb.ok()) << lb.error().message;
  lb.value()->probe_now();
  ASSERT_EQ(lb.value()->prequal_picker()->valid_probes(
                SteadyClock::instance().now()),
            2);

  net::HttpClient client(lb.value()->addr());
  for (int i = 0; i < 20; ++i) {
    auto resp = client.get("/");
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp.value().body, "fast");
  }
  auto snap = lb.value()->metrics().snapshot();
  EXPECT_EQ(snap.at("gateway.prequal_cold_picks"), 20);
  EXPECT_EQ(snap.at("gateway.prequal_fallback_rr"), 0);
  EXPECT_EQ(snap.at("gateway.prequal_probes"), 2);
  EXPECT_EQ(snap.at("gateway.prequal_probe_failures"), 0);
  EXPECT_EQ(snap.at("gateway.prequal_valid_probes"), 2);
}

TEST(GatewayBalancerTest, PrequalReuseBudgetForcesRefresh) {
  auto b0 = probe_backend("b0", 0, 100);
  auto b1 = probe_backend("b1", 0, 100);
  GatewayConfig cfg = prequal_config();
  cfg.prequal.probe_reuse_budget = 4;
  auto lb = GatewayBalancer::start({"127.0.0.1", 0}, {b0->addr(), b1->addr()},
                                   cfg);
  ASSERT_TRUE(lb.ok());
  lb.value()->probe_now();
  net::HttpClient client(lb.value()->addr());
  // 2 backends x budget 4 = at most 8 probe-steered picks; the rest must
  // fall back to round-robin, never fail.
  for (int i = 0; i < 16; ++i) ASSERT_TRUE(client.get("/").ok());
  auto snap = lb.value()->metrics().snapshot();
  EXPECT_EQ(snap.at("gateway.prequal_cold_picks") +
                snap.at("gateway.prequal_fallback_rr"),
            16);
  EXPECT_GE(snap.at("gateway.prequal_fallback_rr"), 8);
  // The next round drains the reuse-eviction count.
  lb.value()->probe_now();
  EXPECT_GE(lb.value()->metrics().snapshot().at(
                "gateway.prequal_reuse_evictions"),
            1);
}

TEST(GatewayBalancerTest, PrequalProbeFailureFallsBackAndRecovers) {
  // One backend with no /probez support: its probes fail (unparsable), so
  // picks steer to the probed backend; requests still flow either way.
  auto plain = backend("plain");
  auto probed = probe_backend("probed", 0, 100);
  auto lb = GatewayBalancer::start({"127.0.0.1", 0},
                                   {plain->addr(), probed->addr()},
                                   prequal_config());
  ASSERT_TRUE(lb.ok());
  lb.value()->probe_now();
  auto snap = lb.value()->metrics().snapshot();
  EXPECT_EQ(snap.at("gateway.prequal_probe_failures"), 1);
  EXPECT_EQ(snap.at("gateway.prequal_valid_probes"), 1);
  net::HttpClient client(lb.value()->addr());
  for (int i = 0; i < 10; ++i) {
    auto resp = client.get("/");
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp.value().body, "probed");
  }
}

TEST(GatewayBalancerTest, PrequalStatuszRendersProbeRows) {
  auto b0 = probe_backend("b0", 2, 340);
  auto lb = GatewayBalancer::start({"127.0.0.1", 0},
                                   {b0->addr(), b0->addr()},
                                   prequal_config());
  ASSERT_TRUE(lb.ok());
  lb.value()->probe_now();
  auto admin = lb.value()->start_admin({"127.0.0.1", 0});
  ASSERT_TRUE(admin.ok());
  net::HttpClient client(admin.value());
  auto statusz = client.get("/statusz");
  ASSERT_TRUE(statusz.ok());
  EXPECT_NE(statusz.value().body.find("\"prequal\""), std::string::npos);
  EXPECT_NE(statusz.value().body.find("\"rif\":2"), std::string::npos);
  EXPECT_NE(statusz.value().body.find("\"lat_us\":340"), std::string::npos);
  auto metrics = client.get("/metrics");
  ASSERT_TRUE(metrics.ok());
  EXPECT_NE(metrics.value().body.find("janus_gateway_prequal_probes"),
            std::string::npos);
}

}  // namespace
}  // namespace janus::lb
