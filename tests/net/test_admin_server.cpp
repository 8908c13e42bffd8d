#include "net/admin_server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <string>

#include "common/metrics.hpp"

namespace janus::net {
namespace {

AdminOptions admin_options(std::string node_name) {
  AdminOptions opts;
  opts.node_name = std::move(node_name);
  return opts;
}

SockAddr loopback() { return SockAddr{"127.0.0.1", 0}; }

class AdminServerTest : public ::testing::Test {
 protected:
  HttpResponse get(AdminServer& admin, const std::string& target) {
    HttpClient client(admin.addr(), millis(2000));
    auto resp = client.get(target);
    EXPECT_TRUE(resp.ok()) << (resp.ok() ? "" : resp.error().message);
    return resp.ok() ? resp.value() : HttpResponse{};
  }

  MetricsRegistry registry_;
};

TEST_F(AdminServerTest, MetricsServesPrometheusText) {
  registry_.counter("router.requests").inc(3);
  registry_.gauge("router.inflight").set(1);
  registry_.histogram("router.e2e_us").record(450);

  auto admin = AdminServer::start(loopback(), registry_,
                                  admin_options("router-0"));
  ASSERT_TRUE(admin.ok()) << admin.error().message;

  HttpResponse resp = get(*admin.value(), "/metrics");
  EXPECT_EQ(resp.status, 200);
  EXPECT_EQ(resp.header("Content-Type"),
            "text/plain; version=0.0.4; charset=utf-8");
  const std::string& body = resp.body;
  EXPECT_NE(body.find("# TYPE janus_router_requests counter\n"),
            std::string::npos);
  EXPECT_NE(body.find("janus_router_requests{node=\"router-0\"} 3\n"),
            std::string::npos);
  EXPECT_NE(body.find("# TYPE janus_router_inflight gauge\n"),
            std::string::npos);
  EXPECT_NE(body.find("# TYPE janus_router_e2e_us histogram\n"),
            std::string::npos);
  EXPECT_NE(body.find("janus_router_e2e_us_bucket{node=\"router-0\","
                      "le=\"500\"} 1\n"),
            std::string::npos);
  EXPECT_NE(body.find("janus_router_e2e_us_bucket{node=\"router-0\","
                      "le=\"+Inf\"} 1\n"),
            std::string::npos);
  EXPECT_NE(body.find("janus_router_e2e_us_count{node=\"router-0\"} 1\n"),
            std::string::npos);
}

TEST_F(AdminServerTest, MetricsReflectsLiveUpdates) {
  Counter& c = registry_.counter("server.answered");
  auto admin = AdminServer::start(loopback(), registry_,
                                  admin_options("s"));
  ASSERT_TRUE(admin.ok()) << admin.error().message;

  EXPECT_NE(get(*admin.value(), "/metrics")
                .body.find("janus_server_answered{node=\"s\"} 0\n"),
            std::string::npos);
  c.inc(42);
  EXPECT_NE(get(*admin.value(), "/metrics")
                .body.find("janus_server_answered{node=\"s\"} 42\n"),
            std::string::npos);
}

TEST_F(AdminServerTest, NodeLabelIsEscaped) {
  registry_.counter("c").inc();
  auto admin = AdminServer::start(
      loopback(), registry_, admin_options("weird\"node\\name"));
  ASSERT_TRUE(admin.ok()) << admin.error().message;

  HttpResponse resp = get(*admin.value(), "/metrics");
  EXPECT_NE(resp.body.find("janus_c{node=\"weird\\\"node\\\\name\"} 1\n"),
            std::string::npos);
}

TEST_F(AdminServerTest, HealthzDefaultsHealthy) {
  auto admin = AdminServer::start(loopback(), registry_);
  ASSERT_TRUE(admin.ok()) << admin.error().message;

  HttpResponse resp = get(*admin.value(), "/healthz");
  EXPECT_EQ(resp.status, 200);
  EXPECT_EQ(resp.body, "ok\n");
}

TEST_F(AdminServerTest, HealthzReportsProbe) {
  std::atomic<bool> healthy{true};
  AdminOptions opts;
  opts.healthy = [&healthy] { return healthy.load(); };
  auto admin = AdminServer::start(loopback(), registry_, std::move(opts));
  ASSERT_TRUE(admin.ok()) << admin.error().message;

  EXPECT_EQ(get(*admin.value(), "/healthz").status, 200);
  healthy.store(false);
  HttpResponse resp = get(*admin.value(), "/healthz");
  EXPECT_EQ(resp.status, 503);
  EXPECT_EQ(resp.body, "unhealthy\n");
}

TEST_F(AdminServerTest, StatuszReturnsJson) {
  registry_.counter("server.received").inc(7);
  auto admin = AdminServer::start(loopback(), registry_,
                                  admin_options("qos-1"));
  ASSERT_TRUE(admin.ok()) << admin.error().message;

  HttpResponse resp = get(*admin.value(), "/statusz");
  EXPECT_EQ(resp.status, 200);
  EXPECT_EQ(resp.header("Content-Type"), "application/json");
  EXPECT_NE(resp.body.find("\"node\":\"qos-1\""), std::string::npos);
  EXPECT_NE(resp.body.find("\"healthy\":true"), std::string::npos);
  EXPECT_NE(resp.body.find("\"server.received\":7"), std::string::npos);
  EXPECT_NE(resp.body.find("\"uptime_s\":"), std::string::npos);
}

TEST_F(AdminServerTest, UnknownPathIs404) {
  auto admin = AdminServer::start(loopback(), registry_);
  ASSERT_TRUE(admin.ok()) << admin.error().message;
  EXPECT_EQ(get(*admin.value(), "/nope").status, 404);
}

TEST_F(AdminServerTest, QueryStringIsIgnored) {
  auto admin = AdminServer::start(loopback(), registry_);
  ASSERT_TRUE(admin.ok()) << admin.error().message;
  EXPECT_EQ(get(*admin.value(), "/healthz?verbose=1").status, 200);
}

}  // namespace
}  // namespace janus::net
