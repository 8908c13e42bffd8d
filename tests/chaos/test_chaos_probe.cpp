// Probe-plane chaos (DESIGN.md §14): the Prequal probe pool under injected
// probe loss and probe delay. The contract is graceful degradation — a lost
// or slow probe plane must never stall or fail a client request: picks ride
// the stale probe until the staleness bound T evicts it, then fall back to
// round-robin.
#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>

#include "lb/gateway_balancer.hpp"
#include "net/http.hpp"
#include "testing/fault_injector.hpp"

namespace janus::chaos {
namespace {

using testing::FaultInjector;
using testing::FaultPoint;
using testing::ScopedFault;

/// Backend that answers /probez like a router node and anything else with
/// its id, so the gateway's probe pool and data path both have a real peer.
class ProbeBackend {
 public:
  explicit ProbeBackend(std::string id) : id_(std::move(id)) {
    auto server = net::HttpServer::start(
        {"127.0.0.1", 0},
        [this](const net::HttpRequest& req) {
          if (req.target == "/probez") {
            return net::HttpResponse::text(
                200, "{\"rif\":" + std::to_string(rif_.load()) +
                         ",\"lat_us\":" + std::to_string(lat_us_.load()) +
                         "}");
          }
          hits_.fetch_add(1);
          return net::HttpResponse::text(200, id_);
        });
    EXPECT_TRUE(server.ok());
    server_ = std::move(server).take();
  }

  net::SockAddr addr() const { return server_->addr(); }
  void set_probe(std::int64_t rif, std::int64_t lat_us) {
    rif_.store(rif);
    lat_us_.store(lat_us);
  }
  int hits() const { return hits_.load(); }

 private:
  std::string id_;
  std::atomic<std::int64_t> rif_{0};
  std::atomic<std::int64_t> lat_us_{100};
  std::atomic<int> hits_{0};
  std::unique_ptr<net::HttpServer> server_;
};

class GatewayProbeChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::instance().disarm_all();
    b0_ = std::make_unique<ProbeBackend>("b0");
    b1_ = std::make_unique<ProbeBackend>("b1");
    lb::GatewayConfig cfg;
    cfg.policy = lb::RoutingPolicy::kPrequal;
    // A long interval: tests drive rounds synchronously via probe_now().
    cfg.prequal.probe_interval = seconds(3600);
    cfg.prequal.max_probe_age = millis(250);
    auto gw = lb::GatewayBalancer::start({"127.0.0.1", 0},
                                         {b0_->addr(), b1_->addr()}, cfg);
    ASSERT_TRUE(gw.ok()) << gw.error().message;
    gateway_ = std::move(gw).take();
  }

  void TearDown() override { FaultInjector::instance().disarm_all(); }

  std::int64_t counter(const char* name) {
    return gateway_->metrics().counter(name).value();
  }

  std::unique_ptr<ProbeBackend> b0_;
  std::unique_ptr<ProbeBackend> b1_;
  std::unique_ptr<lb::GatewayBalancer> gateway_;
};

TEST_F(GatewayProbeChaosTest, ProbeLossFromColdStartFallsBackToRoundRobin) {
  // Probes lost from the very first round: the cache never fills, yet every
  // request must still complete — via the round-robin fallback.
  ScopedFault drop(FaultPoint::kLbProbeDrop);
  gateway_->probe_now();
  gateway_->probe_now();
  EXPECT_GE(FaultInjector::instance().fires(FaultPoint::kLbProbeDrop), 4u);
  EXPECT_GE(counter("gateway.prequal_probe_failures"), 4);
  EXPECT_EQ(gateway_->prequal_picker()->valid_probes(
                SteadyClock::instance().now()),
            0);

  net::HttpClient client(gateway_->addr(), millis(5000));
  for (int i = 0; i < 10; ++i) {
    auto resp = client.get("/");
    ASSERT_TRUE(resp.ok()) << resp.error().message;
    EXPECT_EQ(resp.value().status, 200);
  }
  EXPECT_EQ(counter("gateway.prequal_fallback_rr"), 10);
  EXPECT_EQ(counter("gateway.prequal_cold_picks"), 0);
  // Round-robin fallback spreads the load.
  EXPECT_EQ(b0_->hits(), 5);
  EXPECT_EQ(b1_->hits(), 5);
}

TEST_F(GatewayProbeChaosTest, StaleProbesBridgeAnOutageThenAgeOut) {
  // One good round fills the cache; then the probe plane dies. Picks keep
  // riding the stale probes (bounded staleness, not probe loss, decides
  // eviction) until T expires, after which sweep() evicts and picks fall
  // back — requests complete in every phase.
  b0_->set_probe(0, 100);
  b1_->set_probe(0, 100);
  gateway_->probe_now();
  ASSERT_EQ(gateway_->prequal_picker()->valid_probes(
                SteadyClock::instance().now()),
            2);

  ScopedFault drop(FaultPoint::kLbProbeDrop);
  net::HttpClient client(gateway_->addr(), millis(5000));
  for (int i = 0; i < 6; ++i) {
    auto resp = client.get("/");
    ASSERT_TRUE(resp.ok()) << resp.error().message;
    EXPECT_EQ(resp.value().status, 200);
  }
  // The outage was bridged by the cached probes, not the fallback.
  EXPECT_EQ(counter("gateway.prequal_fallback_rr"), 0);
  EXPECT_EQ(counter("gateway.prequal_cold_picks"), 6);

  // Let the probes cross max_probe_age; the next (still dropped) round
  // sweeps them out and picks degrade to round-robin.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  gateway_->probe_now();
  EXPECT_GE(counter("gateway.prequal_stale_evictions"), 2);
  for (int i = 0; i < 4; ++i) {
    auto resp = client.get("/");
    ASSERT_TRUE(resp.ok()) << resp.error().message;
    EXPECT_EQ(resp.value().status, 200);
  }
  EXPECT_EQ(counter("gateway.prequal_fallback_rr"), 4);
}

TEST_F(GatewayProbeChaosTest, SlowProbePlaneNeverBlocksRequests) {
  // Probe rounds stall 100 ms per backend, but the request path never waits
  // on the probe pool: a full burst of requests completes while one round
  // is still in flight.
  b0_->set_probe(0, 100);
  b1_->set_probe(0, 100);
  gateway_->probe_now();  // warm cache so picks are probe-steered

  testing::FaultInjector::ArmSpec spec;
  spec.param = 100000;  // 100 ms per probe
  ScopedFault delay(FaultPoint::kLbProbeDelay, spec);
  std::thread slow_round([this] { gateway_->probe_now(); });

  const TimePoint start = SteadyClock::instance().now();
  net::HttpClient client(gateway_->addr(), millis(5000));
  for (int i = 0; i < 10; ++i) {
    auto resp = client.get("/");
    ASSERT_TRUE(resp.ok()) << resp.error().message;
    EXPECT_EQ(resp.value().status, 200);
  }
  const Duration elapsed = SteadyClock::instance().now() - start;
  slow_round.join();
  // 10 loopback requests finish well inside one delayed round (2 x 100 ms).
  EXPECT_LT(elapsed.count(), millis(150).count());
  EXPECT_GE(FaultInjector::instance().fires(FaultPoint::kLbProbeDelay), 2u);
}

}  // namespace
}  // namespace janus::chaos
