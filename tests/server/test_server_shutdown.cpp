// Shutdown accounting (DESIGN.md §9.1). QosServerNode::stop() must leave
// every datagram a worker received accounted for: a worker answers its
// whole receive batch before it looks at the stop flag again, and unread
// datagrams stay in the socket, never counted. The invariant, under a
// concurrent blast:
//
//   received == answered + malformed (+ cluster_deferred)
//
// A batch abandoned mid-decision breaks the equation.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "../support/temp_rules.hpp"
#include "net/socket.hpp"
#include "server/qos_server_node.hpp"
#include "server_model.hpp"
#include "wire/codec.hpp"

namespace janus::server {
namespace {

/// Parameterized on the execution model's variants (server_model.hpp).
class ServerShutdownTest : public ::testing::TestWithParam<ServerModel> {
 protected:
  test_support::TempRules rules_{{{.key = "tenant", .refill_per_sec = 1000,
                                   .capacity = 1000, .credit = 1000}}};
};

std::int64_t counter_value(QosServerNode& node, const std::string& name) {
  return node.metrics().counter(name).value();
}

TEST_P(ServerShutdownTest, StopMidBlastStrandsNoAcceptedJobs) {
  // Eight rounds stop the node at staggered points of a blast, so stop()
  // lands mid-batch in some of them.
  for (int round = 0; round < 8; ++round) {
    QosServerConfig cfg;
    cfg.sync_interval = Duration{0};
    cfg.checkpoint_interval = Duration{0};
    cfg.watchdog_interval = Duration{0};
    auto started = start_in_model(GetParam(), {"127.0.0.1", 0}, rules_.path(), cfg);
    ASSERT_TRUE(started.ok()) << started.error().message;
    auto node = std::move(started).take();

    // Pre-encode one request; the blast re-sends the identical frame (reply
    // correlation does not matter — nobody reads the replies).
    wire::QosRequest req;
    req.key = "tenant";
    req.cost = 1;
    const std::vector<std::uint8_t> frame = wire::encode(req);

    std::atomic<bool> stop_senders{false};
    std::vector<std::thread> senders;
    for (int s = 0; s < 3; ++s) {
      senders.emplace_back([&, addr = node->addr()] {
        auto sock = net::UdpSocket::bind({"127.0.0.1", 0});
        if (!sock.ok()) return;
        while (!stop_senders.load(std::memory_order_relaxed)) {
          (void)sock.value().send_to(addr, frame);
        }
      });
    }

    // Let the blast build a backlog, then stop the node mid-flight.
    std::this_thread::sleep_for(std::chrono::milliseconds(20 + 5 * round));
    node->stop();
    stop_senders.store(true, std::memory_order_relaxed);
    for (auto& t : senders) t.join();

    const std::int64_t received = counter_value(*node, "server.received");
    const std::int64_t answered = counter_value(*node, "server.answered");
    const std::int64_t malformed = counter_value(*node, "server.malformed");
    const std::int64_t deferred =
        counter_value(*node, "server.cluster_deferred");
    EXPECT_GT(received, 0) << "round " << round << ": blast never landed";
    EXPECT_EQ(received, answered + malformed + deferred)
        << "round " << round << ": stranded jobs (received=" << received
        << " answered=" << answered << " malformed=" << malformed
        << " deferred=" << deferred << ")";
  }
}

TEST_P(ServerShutdownTest, StopOnIdleServerIsCleanAndIdempotent) {
  QosServerConfig cfg;
  cfg.sync_interval = Duration{0};
  cfg.checkpoint_interval = Duration{0};
  auto started = start_in_model(GetParam(), {"127.0.0.1", 0}, rules_.path(), cfg);
  ASSERT_TRUE(started.ok()) << started.error().message;
  auto node = std::move(started).take();
  node->stop();
  node->stop();  // second stop must be a no-op, not a double-join
  EXPECT_EQ(counter_value(*node, "server.received"), 0);
  EXPECT_EQ(counter_value(*node, "server.answered"), 0);
}

TEST(ServerStopLatencyTest, StopWakesBlockedWorkersEachUnderTenMs) {
  // Workers wait in recv_many without a timeout; stop() ends every blocked
  // wait by shutting the socket's receive side. A worker that only noticed
  // stopping_ on a poll timeout would hold stop() for up to that period.
  test_support::TempRules rules;
  QosServerConfig cfg;
  cfg.sync_interval = Duration{0};
  cfg.checkpoint_interval = Duration{0};
  for (int round = 0; round < 5; ++round) {
    auto started = QosServerNode::start({"127.0.0.1", 0}, rules.path(), cfg);
    ASSERT_TRUE(started.ok()) << started.error().message;
    auto node = std::move(started).take();
    // Long enough for every worker to block in its receive.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const auto t0 = std::chrono::steady_clock::now();
    node->stop();
    const auto took = std::chrono::steady_clock::now() - t0;
    EXPECT_LT(took, std::chrono::milliseconds(10))
        << "round " << round << ": stop() of an idle node with "
        << node->worker_count() << " workers took "
        << std::chrono::duration_cast<std::chrono::microseconds>(took).count()
        << " us";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Modes, ServerShutdownTest,
    ::testing::ValuesIn(kAllServerModels),
    [](const ::testing::TestParamInfo<ServerModel>& tpi) {
      return server_model_name(tpi.param);
    });

}  // namespace
}  // namespace janus::server
