#include "server/qos_server_node.hpp"

#include <gtest/gtest.h>
#include <sys/socket.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/flight_recorder.hpp"
#include "common/json_lint.hpp"
#include "net/affinity.hpp"
#include "../support/temp_rules.hpp"
#include "db/wal.hpp"
#include "router/udp_qos_client.hpp"
#include "server/ha.hpp"
#include "server_model.hpp"
#include "testing/fault_injector.hpp"
#include "wire/codec.hpp"

namespace janus::server {
namespace {

class QosServerTest : public ::testing::Test {
 protected:
  std::unique_ptr<QosServerNode> start_server(
      QosServerConfig cfg = {},
      ServerModel model = ServerModel::kSharedQueue) {
    cfg.sync_interval = Duration{0};
    cfg.checkpoint_interval = Duration{0};
    auto server = start_in_model(model, {"127.0.0.1", 0}, rules_.path(), cfg);
    EXPECT_TRUE(server.ok()) << server.error().message;
    return std::move(server).take();
  }

  wire::QosResponse call(const net::SockAddr& addr, const std::string& key,
                         wire::RequestType type = wire::RequestType::kCheck,
                         std::uint32_t cost = 1) {
    router::UdpClientConfig cfg;
    cfg.timeout = millis(100);
    router::UdpQosClient client(cfg);
    wire::QosRequest req;
    req.key = key;
    req.type = type;
    req.cost = cost;
    auto resp = client.call(addr, req);
    EXPECT_TRUE(resp.ok());
    return resp.value();
  }

  test_support::TempRules rules_{{
      {.key = "alice", .refill_per_sec = 100, .capacity = 10, .credit = 10},
      {.key = "bob", .refill_per_sec = 0, .capacity = 1, .credit = 1},
  }};
};

/// End-to-end behaviors of the execution model, in each of its variants
/// (server_model.hpp).
class QosServerModeTest
    : public QosServerTest,
      public ::testing::WithParamInterface<ServerModel> {
 protected:
  std::unique_ptr<QosServerNode> start_server(QosServerConfig cfg = {}) {
    return QosServerTest::start_server(std::move(cfg), GetParam());
  }
};

TEST_P(QosServerModeTest, AnswersCheckRequests) {
  auto server = start_server();
  auto resp = call(server->addr(), "alice");
  EXPECT_EQ(resp.status, wire::ResponseStatus::kOk);
  EXPECT_TRUE(resp.allowed);
  EXPECT_LE(resp.remaining_millicredits, 9999);
}

TEST_P(QosServerModeTest, EnforcesQuotaAcrossRequests) {
  auto server = start_server();
  EXPECT_TRUE(call(server->addr(), "bob").allowed);
  EXPECT_FALSE(call(server->addr(), "bob").allowed);  // capacity 1, refill 0
}

TEST_P(QosServerModeTest, UnknownKeyDenied) {
  auto server = start_server();
  auto resp = call(server->addr(), "stranger");
  EXPECT_EQ(resp.status, wire::ResponseStatus::kOk);
  EXPECT_FALSE(resp.allowed);
}

TEST_P(QosServerModeTest, ProbeLeavesCreditsIntact) {
  auto server = start_server();
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(call(server->addr(), "bob", wire::RequestType::kProbe).allowed);
  }
  EXPECT_TRUE(call(server->addr(), "bob").allowed);
}

TEST_P(QosServerModeTest, MultiCreditCost) {
  auto server = start_server();
  EXPECT_TRUE(call(server->addr(), "alice", wire::RequestType::kCheck, 10)
                  .allowed);
  EXPECT_FALSE(call(server->addr(), "alice", wire::RequestType::kCheck, 10)
                   .allowed);  // bucket drained; refill far slower than test
}

TEST_P(QosServerModeTest, MalformedDatagramGetsMalformedStatus) {
  auto server = start_server();
  auto sock = net::UdpSocket::create();
  ASSERT_TRUE(sock.ok());
  const std::uint8_t junk[] = {0x01, 0x02, 0x03};
  ASSERT_TRUE(sock.value().send_to(server->addr(), junk).ok());
  auto dg = sock.value().recv(millis(500));
  ASSERT_TRUE(dg.ok());
  ASSERT_TRUE(dg.value().has_value());
  auto resp = wire::decode_response(dg.value()->data);
  ASSERT_TRUE(resp.ok());
  EXPECT_EQ(resp.value().status, wire::ResponseStatus::kMalformed);
  EXPECT_EQ(server->metrics().snapshot().at("server.malformed"), 1);
}

TEST_P(QosServerModeTest, SyncRequestNeverRefillsASpentBucket) {
  // kSync used to drop the key's entry, so the next decision refetched the
  // rule with its loaded (or last check-pointed) credit: any sender could
  // buy a spent bucket back. Five rounds of four checks and a kSync on a
  // rate-0 rule of capacity 3 admit exactly 3.
  rules_.put({.key = "k", .refill_per_sec = 0, .capacity = 3, .credit = 3});
  auto server = start_server();
  int admitted = 0;
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 4; ++i) admitted += call(server->addr(), "k").allowed;
    const auto synced = call(server->addr(), "k", wire::RequestType::kSync);
    EXPECT_EQ(synced.status, wire::ResponseStatus::kOk);
    EXPECT_EQ(synced.remaining_millicredits, 0) << "round " << round;
  }
  EXPECT_EQ(admitted, 3);
}

TEST_P(QosServerModeTest, SyncNowPicksUpRuleChanges) {
  // A rule edited in the file reaches the bucket on the next sync pass: bob
  // is spent at rate 0, then given a fast rate, which refills him.
  auto server = start_server();
  EXPECT_TRUE(call(server->addr(), "bob").allowed);
  EXPECT_FALSE(call(server->addr(), "bob").allowed);
  rules_.put({.key = "bob", .refill_per_sec = 1000, .capacity = 3,
              .credit = 3});
  server->sync_now();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  if (GetParam() == ServerModel::kPeriodicRefillSharedQueue) {
    server->admission().refill_all();
  }
  EXPECT_TRUE(call(server->addr(), "bob").allowed);
  EXPECT_EQ(server->metrics().snapshot().at("server.rules_reloads"), 1);
  // A key new to the file leaves the default rule (deny-all) behind.
  EXPECT_FALSE(call(server->addr(), "dave").allowed);
  rules_.put({.key = "dave", .refill_per_sec = 0, .capacity = 2,
              .credit = 2});
  server->sync_now();
  EXPECT_TRUE(call(server->addr(), "dave").allowed);
  EXPECT_TRUE(call(server->addr(), "dave").allowed);
  EXPECT_FALSE(call(server->addr(), "dave").allowed);
  EXPECT_EQ(server->rule_count(), 3u);
}

TEST_P(QosServerModeTest, CheckpointWritesCreditsBack) {
  // The check-point logs bob's spent credit to the WAL; an idle pass after
  // it writes nothing.
  const std::string wal = ::testing::TempDir() + "janus_server_ckpt_" +
                          std::to_string(::getpid()) + ".wal";
  std::remove(wal.c_str());
  QosServerConfig cfg;
  cfg.wal_path = wal;
  auto server = start_server(cfg);
  call(server->addr(), "bob");
  server->checkpoint_now();
  auto last_credit = [&] {
    std::optional<double> credit;
    EXPECT_TRUE(db::Wal::replay(wal, [&](const db::LogRecord& rec) {
                  if (rec.rule.key == "bob") credit = rec.rule.credit;
                }).ok());
    return credit;
  };
  EXPECT_EQ(last_credit(), 0.0);
  const auto bytes = std::filesystem::file_size(wal);
  server->checkpoint_now();
  EXPECT_EQ(std::filesystem::file_size(wal), bytes);
  server->stop();
  std::remove(wal.c_str());
}

TEST_P(QosServerModeTest, MetricsCountTraffic) {
  auto server = start_server();
  call(server->addr(), "alice");
  call(server->addr(), "alice");
  auto snap = server->metrics().snapshot();
  EXPECT_GE(snap.at("server.received"), 2);
  EXPECT_GE(snap.at("server.answered"), 2);
}

TEST_P(QosServerModeTest, ConcurrentClientsNeverOverAdmit) {
  rules_.put({.key = "shared", .refill_per_sec = 0, .capacity = 100,
              .credit = 100});
  auto server = start_server();

  constexpr int kThreads = 4;
  constexpr int kPerThread = 50;
  std::atomic<int> admitted{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      router::UdpClientConfig ccfg;
      ccfg.timeout = millis(200);
      router::UdpQosClient client(ccfg);
      for (int i = 0; i < kPerThread; ++i) {
        wire::QosRequest req;
        req.key = "shared";
        auto resp = client.call(server->addr(), req);
        if (resp.ok() && resp.value().status == wire::ResponseStatus::kOk &&
            resp.value().allowed) {
          admitted.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  // 200 attempts against 100 credits: exactly 100 admitted (retry duplicates
  // could consume extra credits, so never MORE than 100).
  EXPECT_LE(admitted.load(), 100);
  EXPECT_GE(admitted.load(), 90);  // allow a few retry-consumed credits
}

TEST_P(QosServerModeTest, StopIsIdempotentAndFast) {
  auto server = start_server();
  const auto start = std::chrono::steady_clock::now();
  server->stop();
  server->stop();
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(3));
}

TEST_P(QosServerModeTest, PeriodicRefillModeWorksEndToEnd) {
  rules_.put({.key = "tick", .refill_per_sec = 1000, .capacity = 2,
              .credit = 0});
  QosServerConfig cfg;
  cfg.admission.refill_mode = core::RefillMode::kPeriodic;
  cfg.refill_interval = millis(5);
  auto server = start_server(cfg);
  // First touch creates the bucket with the check-pointed credit of 0; in
  // periodic mode only the house-keeping thread (1000/s refill, 5 ms tick)
  // can raise the water level afterwards.
  EXPECT_FALSE(call(server->addr(), "tick").allowed);
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_TRUE(call(server->addr(), "tick").allowed);
}

TEST_P(QosServerModeTest, TimingSamplerSamplesExactlyOneInEight) {
  // The 1-in-8 decimation claims its slots from one node-wide counter, so a
  // fresh server samples datagrams 0, 8, 16, ... deterministically: 80
  // sequential requests land exactly 10 observations in the latency
  // histograms, whichever worker receives each one.
  auto server = start_server();
  router::UdpClientConfig ccfg;
  ccfg.timeout = millis(500);
  router::UdpQosClient client(ccfg);
  for (int i = 0; i < 80; ++i) {
    wire::QosRequest req;
    req.key = "alice";
    req.type = wire::RequestType::kProbe;
    auto resp = client.call(server->addr(), req);
    ASSERT_TRUE(resp.ok());
  }
  // Precondition: no datagram was retried or dropped, else the sample
  // phase shifts and the exact count below would be meaningless.
  ASSERT_EQ(server->metrics().snapshot().at("server.received"), 80);
  // Queue wait is recorded before the reply is sent, service time only
  // after the worker's send returns, so the last reply can arrive before
  // its service sample lands: wait for it, then hold the count exact.
  EXPECT_EQ(server->metrics().snapshot_histograms().at(
                "server.queue_wait_us").count(), 10u);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  auto service_samples = [&] {
    return server->metrics().snapshot_histograms().at("server.service_us")
        .count();
  };
  while (service_samples() < 10u &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(service_samples(), 10u);
}

INSTANTIATE_TEST_SUITE_P(
    Modes, QosServerModeTest,
    ::testing::ValuesIn(kAllServerModels),
    [](const ::testing::TestParamInfo<ServerModel>& tpi) {
      return server_model_name(tpi.param);
    });

TEST_P(QosServerModeTest, WatchdogFlagsStalledWorker) {
  // A worker that sleeps through whole watchdog ticks while work is queued
  // must be flagged. The slow-service fault inflates each job by 150 ms
  // against a 20 ms watchdog tick.
  QosServerConfig cfg;
  cfg.watchdog_interval = millis(20);
  cfg.admission.table_shards = 4;
  // One worker: the backlog cannot drain elsewhere.
  auto server = on_one_cpu([&] { return start_server(cfg); });
  ASSERT_EQ(server->worker_count(), 1u);

  testing::ScopedFault slow(testing::FaultPoint::kServerSlowService,
                            {.max_fires = 4, .param = 150000});

  // Fire-and-forget: a 5 ms client timeout abandons each reply, leaving the
  // datagrams queued behind the sleeping worker.
  router::UdpClientConfig ccfg;
  ccfg.timeout = millis(5);
  ccfg.max_retries = 1;
  router::UdpQosClient client(ccfg);
  for (int i = 0; i < 4; ++i) {
    wire::QosRequest req;
    req.key = "alice";
    req.type = wire::RequestType::kCheck;
    req.cost = 1;
    (void)client.call(server->addr(), req);
  }

  auto& stalls = server->metrics().counter("server.watchdog_stalls");
  for (int i = 0; i < 300 && stalls.value() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GT(stalls.value(), 0)
      << "watchdog never flagged the sleeping worker";
  server->stop();
}

TEST_F(QosServerTest, SocketDropsCountedWhenReceiveBufferOverflows) {
  // The workers' only queue is the listen socket's kernel receive buffer.
  // Stall the only worker, then send more than the buffer holds: the
  // kernel's drops must surface as server.socket_dropped, and every
  // datagram that did land must still be accounted for.
  QosServerConfig cfg;
  cfg.watchdog_interval = millis(20);
  auto server = on_one_cpu([&] { return start_server(cfg); });
  ASSERT_EQ(server->worker_count(), 1u);

  // A fresh socket carries the same default buffer as the listen socket.
  // Each datagram is charged more than its payload, so a blast of
  // rcvbuf / payload frames (plus slack) cannot all fit.
  auto sender = net::UdpSocket::bind({"127.0.0.1", 0});
  ASSERT_TRUE(sender.ok());
  int rcvbuf = 0;
  socklen_t len = sizeof(rcvbuf);
  ASSERT_EQ(::getsockopt(sender.value().fd(), SOL_SOCKET, SO_RCVBUF, &rcvbuf,
                         &len),
            0);
  wire::QosRequest req;
  req.key = std::string(512, 'k');
  const std::vector<std::uint8_t> frame = wire::encode(req);
  const std::size_t blast =
      static_cast<std::size_t>(rcvbuf) / frame.size() + 64;

  // The stall (1 s) outlasts the blast with room for a loaded host.
  testing::ScopedFault slow(testing::FaultPoint::kServerSlowService,
                            {.max_fires = 1, .param = 1000000});
  auto& received = server->metrics().counter("server.received");
  ASSERT_TRUE(sender.value().send_to(server->addr(), frame).ok());
  for (int i = 0; i < 2000 && received.value() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(received.value(), 1) << "the worker never took the stall";
  for (std::size_t i = 0; i < blast; ++i) {
    (void)sender.value().send_to(server->addr(), frame);
  }

  auto& socket_dropped = server->metrics().counter("server.socket_dropped");
  for (int i = 0; i < 300 && socket_dropped.value() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GT(socket_dropped.value(), 0)
      << "a " << blast << "-datagram blast into a " << rcvbuf
      << "-byte buffer behind a stalled worker dropped nothing";
  server->stop();

  auto counter = [&](const char* name) {
    return server->metrics().counter(name).value();
  };
  EXPECT_LT(counter("server.received"), static_cast<std::int64_t>(blast) + 1);
  EXPECT_EQ(counter("server.received"),
            counter("server.answered") + counter("server.malformed") +
                counter("server.cluster_deferred"));
  EXPECT_EQ(server->requests_in_flight(), 0)
      << "kernel drops never reached the node and must not count in flight";
}

TEST_F(QosServerTest, ChaosFaultFireTriggersParseableAutoDump) {
  // The chaos observability loop end to end: arm the one-shot auto-dump,
  // fire a fault on the decision path, read back a valid Perfetto JSON file.
  const std::string path =
      ::testing::TempDir() + "/janus_chaos_autodump.json";
  std::remove(path.c_str());
  FlightRecorder::instance().set_auto_dump_path(path);

  auto server = on_one_cpu([&] { return start_server(); });
  ASSERT_EQ(server->worker_count(), 1u);
  {
    testing::ScopedFault slow(testing::FaultPoint::kServerSlowService,
                              {.max_fires = 1, .param = 1000});
    auto resp = call(server->addr(), "alice");
    EXPECT_EQ(resp.status, wire::ResponseStatus::kOk);
  }
  server->stop();

  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr) << "fault fire did not produce the auto-dump file";
  std::string content;
  char buf[4096];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) content.append(buf, n);
  std::fclose(f);
  std::remove(path.c_str());
  FlightRecorder::instance().set_auto_dump_path("");

  std::string err;
  EXPECT_TRUE(json_lint::json_syntax_ok(content, &err)) << err;
  EXPECT_NE(content.find("\"traceEvents\""), std::string::npos);
  // The fault fire itself is on the timeline.
  EXPECT_NE(content.find("\"name\":\"fault_fire\""), std::string::npos);
}

// --- QosServerConfig validation: start() must reject nonsense instead of
// crashing on modulo-by-zero. ---

TEST_F(QosServerTest, RepliesReachEachOfSeveralClients) {
  // Clients on distinct ports send at once, so a worker's batch mixes
  // senders; each reply goes back to its own sender's address, carrying its
  // own request id.
  auto server = start_server();
  constexpr int kClients = 6;
  constexpr int kRounds = 4;
  std::vector<net::UdpSocket> clients;
  for (int c = 0; c < kClients; ++c) {
    auto sock = net::UdpSocket::bind({"127.0.0.1", 0});
    ASSERT_TRUE(sock.ok());
    clients.push_back(std::move(sock).take());
  }
  for (int round = 0; round < kRounds; ++round) {
    for (int c = 0; c < kClients; ++c) {
      wire::QosRequest req;
      req.request_id = static_cast<std::uint64_t>(1000 * round + c);
      req.key = "alice";
      req.type = wire::RequestType::kProbe;
      ASSERT_TRUE(clients[c].send_to(server->addr(), wire::encode(req)).ok());
    }
  }
  for (int c = 0; c < kClients; ++c) {
    std::vector<std::uint64_t> ids;
    for (int round = 0; round < kRounds; ++round) {
      auto got = clients[c].recv(millis(2000));
      ASSERT_TRUE(got.ok());
      ASSERT_TRUE(got.value().has_value()) << "client " << c << " got "
                                           << ids.size() << " replies";
      auto resp = wire::decode_response(got.value()->data);
      ASSERT_TRUE(resp.ok());
      EXPECT_EQ(got.value()->from, server->addr());
      ids.push_back(resp.value().request_id);
    }
    std::sort(ids.begin(), ids.end());
    for (int round = 0; round < kRounds; ++round) {
      EXPECT_EQ(ids[round], static_cast<std::uint64_t>(1000 * round + c))
          << "client " << c;
    }
    auto extra = clients[c].recv(millis(20));
    ASSERT_TRUE(extra.ok());
    EXPECT_FALSE(extra.value().has_value()) << "client " << c;
  }
}

TEST_F(QosServerTest, MigrationRoundTripKeepsEveryEntryField) {
  // A leaving node hands its whole table to a new owner; the slim entries
  // (exact capacity and rate, credit, is_default) arrive unchanged.
  rules_.put({.key = "fine", .refill_per_sec = 0.123456,
              .capacity = 12.34567, .credit = 12.34567});
  auto from = start_server();
  auto to = start_server();
  from->admission().check("alice", 3);
  from->admission().check("fine");
  from->admission().check("stranger");  // default entry

  const cluster::ShardMap map{
      .epoch = 1,
      .members = {cluster::Member{
          .name = "qos-0", .udp_addr = {}, .cluster_addr = {}}}};
  auto outgoing = from->extract_disowned(map, wire::kNotAMember);
  ASSERT_EQ(outgoing.size(), 1u);
  ASSERT_EQ(outgoing[0].size(), 3u);
  EXPECT_EQ(from->admission().table_size(), 0u);
  EXPECT_EQ(to->install_migrated(outgoing[0]), 3u);

  for (const wire::MigrationEntry& sent : outgoing[0]) {
    auto arrived = to->admission().table().with_entry(
        sent.key, [&](core::QosEntry& e) {
          EXPECT_EQ(e.capacity(), sent.capacity) << sent.key;
          EXPECT_EQ(e.refill_per_sec(), sent.refill_per_sec) << sent.key;
          EXPECT_EQ(e.is_default(), sent.is_default) << sent.key;
          EXPECT_DOUBLE_EQ(e.bucket.credit(), sent.credit) << sent.key;
          return true;
        });
    EXPECT_TRUE(arrived.has_value()) << sent.key;
  }
  auto fine = to->admission().table().with_entry(
      "fine", [](core::QosEntry& e) { return e.capacity(); });
  ASSERT_TRUE(fine.has_value());
  EXPECT_EQ(*fine, 12.34567);
  // The file did not change: a sync pass leaves the migrated entries alone.
  auto credit_of = [&](const std::string& key) {
    return to->admission().table().with_entry(
        key, [](core::QosEntry& e) { return e.bucket.millicredits(); });
  };
  const auto alice = credit_of("alice");
  to->sync_now();
  EXPECT_EQ(to->metrics().snapshot().at("server.rules_reloads"), 0);
  EXPECT_EQ(credit_of("alice"), alice);
}

TEST_F(QosServerTest, MigrationWindowDefersAProvisionedKey) {
  // A key whose rule waits provisioned has no live bucket: while the
  // inbound-migration window is open its request is dropped, as an absent
  // key's is, and the migrated entry decides it once installed. Deciding it
  // from the loaded rule would spend the file's credit beside the credit in
  // flight from the old owner.
  auto server = start_server();
  server->set_cluster_epoch(1);
  server->open_migration_window(seconds(30));
  router::UdpClientConfig ccfg;
  ccfg.timeout = millis(50);
  ccfg.max_retries = 1;  // one attempt
  router::UdpQosClient client(ccfg);
  wire::QosRequest req;
  req.key = "bob";
  req.epoch = 1;
  auto deferred = client.call(server->addr(), req);
  ASSERT_TRUE(deferred.ok()) << deferred.error().message;
  EXPECT_EQ(deferred.value().status, wire::ResponseStatus::kDefaultReply)
      << "bob was decided";
  const auto snap = server->metrics().snapshot();
  EXPECT_EQ(snap.at("server.cluster_deferred"), 1);
  EXPECT_EQ(server->admission().metrics().snapshot().at("admission.checks"),
            0);

  // The old owner spent bob: it arrives with 0 of the file's 1 credit.
  ASSERT_EQ(server->install_migrated({wire::MigrationEntry{
                .key = "bob", .capacity = 1, .refill_per_sec = 0,
                .credit = 0, .is_default = false}}),
            1u);
  auto resp = client.call(server->addr(), req);
  ASSERT_TRUE(resp.ok()) << resp.error().message;
  EXPECT_FALSE(resp.value().allowed);
  EXPECT_EQ(server->rule_count(), 2u);
}

TEST_F(QosServerTest, AKeyRegainedWithoutItsEntryKeepsItsFileRule) {
  // After extract_disowned the member still holds each shipped rule. A key
  // it regains without a migrated entry (its new owner died before handing
  // it back) is decided by that rule and its credit, never by the default
  // rule, which here would admit 1000.
  QosServerConfig cfg;
  cfg.admission.default_rule = core::limited_access_default(1000, 0);
  auto server = start_server(cfg);
  EXPECT_TRUE(call(server->addr(), "bob").allowed);  // bob's one credit
  EXPECT_TRUE(call(server->addr(), "stranger").allowed);  // default rule

  const cluster::ShardMap map{
      .epoch = 1,
      .members = {cluster::Member{
          .name = "qos-1", .udp_addr = {}, .cluster_addr = {}}}};
  const auto outgoing = server->extract_disowned(map, wire::kNotAMember);
  ASSERT_EQ(outgoing[0].size(), 2u);
  EXPECT_EQ(server->admission().table_size(), 0u);
  EXPECT_EQ(server->rule_count(), 2u);  // alice and bob stay held

  const auto bob = server->admission().check("bob");
  EXPECT_FALSE(bob.allowed) << "bob came back with the default rule";
  EXPECT_EQ(bob.origin, core::Decision::Origin::kFetched);
  EXPECT_EQ(bob.remaining_millicredits, 0);
  const auto alice = server->admission().check("alice");
  EXPECT_EQ(alice.origin, core::Decision::Origin::kFetched);
  EXPECT_EQ(alice.remaining_millicredits, 9'000);  // capacity 10, not 1000
  // The dropped default entry is made anew from the default rule.
  EXPECT_EQ(server->admission().check("stranger").origin,
            core::Decision::Origin::kDefault);
}

TEST_F(QosServerTest, RulesGaugeFollowsTheTable) {
  // server.rules is counted from the table after each change: a migrated
  // rule over a live default entry adds one, a migrated default entry over
  // a provisioned rule takes one away, and an HA replica's restore keeps
  // the replica's rules and adds the master's.
  auto server = start_server();
  auto gauge = [&] {
    return server->metrics().snapshot_gauges().at("server.rules");
  };
  EXPECT_EQ(gauge(), 2);
  EXPECT_FALSE(server->admission().check("stranger").allowed);  // default
  ASSERT_EQ(server->install_migrated({wire::MigrationEntry{
                .key = "stranger", .capacity = 5, .refill_per_sec = 0,
                .credit = 5, .is_default = false}}),
            1u);
  EXPECT_EQ(server->admission().table().rule_count(), 3u);
  EXPECT_EQ(gauge(), 3);
  ASSERT_EQ(server->install_migrated({wire::MigrationEntry{
                .key = "bob", .capacity = 0, .refill_per_sec = 0,
                .credit = 0, .is_default = true}}),
            1u);
  EXPECT_EQ(server->admission().table().rule_count(), 2u);
  EXPECT_EQ(server->rule_count(), 2u);
  EXPECT_EQ(gauge(), 2);

  ManualClock clock;
  core::AdmissionController master(clock, core::AdmissionConfig{});
  for (const char* key : {"m1", "m2", "m3"}) {
    master.table().with_entry_or_create(
        key,
        [&] { return core::QosEntry::make(9, 0, 9, clock.now(), false); },
        [](core::QosEntry&) {});
  }
  auto ha = HaSnapshotServer::start({"127.0.0.1", 0}, master);
  ASSERT_TRUE(ha.ok()) << ha.error().message;
  HaReplicaClient replica(ha.value()->addr(), server->admission(), clock,
                          seconds(3600), [&] { server->recount_rules(); });
  ASSERT_TRUE(replica.replicate_once().ok());
  replica.stop();
  // The master's three live rules, and alice and stranger, provisioned
  // here; bob's live default entry is dropped.
  EXPECT_EQ(server->admission().table().rule_count(), 5u);
  EXPECT_EQ(gauge(), 5);
}

TEST_F(QosServerTest, EachHouseKeepingPassRecordsOneSample) {
  auto server = start_server();
  server->sync_now();
  server->sync_now();
  server->checkpoint_now();
  EXPECT_EQ(server->metrics().histogram("server.sync_pass_us").snapshot().count(),
            2u);
  EXPECT_EQ(
      server->metrics().histogram("server.checkpoint_pass_us").snapshot().count(),
      1u);
}

TEST(QosServerConfigValidation, RejectsZeroShards) {
  QosServerConfig cfg;
  cfg.admission.table_shards = 0;
  auto v = QosServerNode::validate_config(cfg);
  ASSERT_FALSE(v.ok());
  EXPECT_NE(v.error().message.find("table_shards"), std::string::npos);
}

TEST(QosServerConfigValidation, AcceptsAnyWorkerCountOverAnyShardCount) {
  // Every worker decides on every shard, each under its own mutex, so any
  // shard count suits any number of workers (one per CPU).
  QosServerConfig cfg;
  cfg.admission.table_shards = 64;
  auto more_shards = QosServerNode::validate_config(cfg);
  ASSERT_TRUE(more_shards.ok()) << more_shards.error().message;
  EXPECT_EQ(more_shards.value().admission.table_shards, 64u);
}

TEST_F(QosServerTest, WorkerCountFollowsAffinityMask) {
  // "N equals the number of vCPUs" (§III-C): the CPUs in the mask of the
  // thread that starts the node, which is how taskset sizes janusd.
  auto unpinned = start_server();
  EXPECT_EQ(unpinned->worker_count(), net::affinity_cpus());

  auto one = on_one_cpu([&] { return start_server(); });
  EXPECT_EQ(one->worker_count(), 1u);
  EXPECT_TRUE(call(one->addr(), "alice").allowed);

  std::unique_ptr<QosServerNode> two;
  {
    ScopedAffinity pin(2);
    if (!pin.ok()) GTEST_SKIP() << "the affinity mask holds one CPU";
    two = start_server();
  }
  EXPECT_EQ(two->worker_count(), 2u);
  EXPECT_TRUE(call(two->addr(), "alice").allowed);
}

TEST_F(QosServerTest, AdminExposesSocketQueueSignals) {
  // The admin surface reports the socket-queue signals that stand in for a
  // FIFO; no per-worker queue, threading-mode or provider gauge is
  // registered, because the server has one model and one datagram path.
  auto server = start_server();
  call(server->addr(), "alice");
  auto admin_addr = server->start_admin({"127.0.0.1", 0});
  ASSERT_TRUE(admin_addr.ok()) << admin_addr.error().message;

  net::HttpClient http(admin_addr.value(), millis(2000));
  auto metrics = http.get("/metrics");
  ASSERT_TRUE(metrics.ok());
  const std::string& body = metrics.value().body;
  for (const char* name : {"janus_server_socket_dropped",
                           "janus_server_recv_batch",
                           "janus_server_send_batch"}) {
    EXPECT_NE(body.find(name), std::string::npos) << name;
  }
  for (const char* gone : {"janus_server_threading_mode",
                           "janus_server_worker_queue_depth",
                           "janus_server_uring", "janus_server_data_path"}) {
    EXPECT_EQ(body.find(gone), std::string::npos) << gone;
  }

  auto statusz = http.get("/statusz");
  ASSERT_TRUE(statusz.ok());
  EXPECT_NE(statusz.value().body.find("\"server.socket_dropped\":"),
            std::string::npos)
      << statusz.value().body;
  EXPECT_EQ(statusz.value().body.find("server.data_path"), std::string::npos)
      << statusz.value().body;
}

TEST_F(QosServerTest, StartSurfacesValidationError) {
  QosServerConfig cfg;
  cfg.admission.table_shards = 0;
  auto server = QosServerNode::start({"127.0.0.1", 0}, rules_.path(), cfg);
  ASSERT_FALSE(server.ok());
  EXPECT_NE(server.error().message.find("table_shards"), std::string::npos);
}

}  // namespace
}  // namespace janus::server
