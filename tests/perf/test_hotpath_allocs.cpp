// Allocation-count regression harness for the decision hot path (PR 4's
// zero-allocation contract, DESIGN.md §9): once a key's entry exists, a
// check/probe decision must not touch the heap — no std::string
// materialization for the lookup (transparent hash), no buffer churn in the
// wire codec (decode_request_view aliases the datagram), no per-decision
// bookkeeping allocations.
//
// Mechanism: the global operator new/delete are replaced with counting
// versions. Counting is armed per-thread around the measured region only, so
// gtest's own bookkeeping (assertion messages, test registration) never
// pollutes the count. This file must live in its own test binary — the
// replacement is program-wide.

#include <gtest/gtest.h>
#include <malloc.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "common/flight_recorder.hpp"
#include "common/metrics.hpp"
#include "core/admission.hpp"
#include "core/qos_table.hpp"
#include "core/table_rules.hpp"
#include "db/rule_store.hpp"
#include "db/rules_file.hpp"
#include "lb/prequal.hpp"
#include "net/socket.hpp"
#include "wire/codec.hpp"
#include "wire/message.hpp"

namespace {

thread_local bool g_counting = false;
thread_local std::uint64_t g_alloc_count = 0;
thread_local std::size_t g_alloc_largest = 0;

struct AllocGuard {
  AllocGuard() {
    g_alloc_count = 0;
    g_alloc_largest = 0;
    g_counting = true;
  }
  ~AllocGuard() { g_counting = false; }
  std::uint64_t count() const { return g_alloc_count; }
  /// Bytes of the largest block allocated under this guard.
  std::size_t largest() const { return g_alloc_largest; }
};

void* counted_alloc(std::size_t size) {
  if (g_counting) {
    ++g_alloc_count;
    if (size > g_alloc_largest) g_alloc_largest = size;
  }
  void* p = std::malloc(size ? size : 1);
  if (!p) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  if (g_counting) ++g_alloc_count;
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  if (g_counting) ++g_alloc_count;
  return std::malloc(size ? size : 1);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace janus {
namespace {

using core::AdmissionConfig;
using core::AdmissionController;
using core::QosRule;

/// The flight recorder registers this thread's ring (one heap allocation,
/// ever) on the first recorded event. Decisions are 1-in-16 sampled into it,
/// so a guarded 64-iteration loop WILL record — pre-register the ring so the
/// guarded region only sees the steady-state (allocation-free) writes.
void warm_flight_recorder() {
  FlightRecorder::record(TraceEventType::kQueueDepth, TraceStage::kAdmission,
                         0, 0, 0);
}

/// Minimal in-memory rule source (no allocation on the warm path because the
/// warm path never calls it — that is part of what these tests prove).
class StaticRuleSource : public core::RuleSource {
 public:
  std::optional<QosRule> fetch(std::string_view key) override {
    ++fetches_;
    return QosRule{.key = std::string(key),
                   .capacity = 1e9,
                   .refill_per_sec = 1e6,
                   .initial_credit = std::nullopt};
  }
  int fetches() const { return fetches_; }

 private:
  int fetches_ = 0;
};

TEST(HotpathAllocTest, CountingHookObservesAllocations) {
  // Sanity-check the harness itself: a deliberate allocation must register,
  // otherwise the zero-assertions below would pass vacuously.
  AllocGuard guard;
  auto* p = new std::uint64_t(42);
  EXPECT_GE(guard.count(), 1u);
  delete p;
}

TEST(HotpathAllocTest, WarmKeyAdmissionDecisionIsAllocationFree) {
  ManualClock clock;
  StaticRuleSource source;
  AdmissionConfig cfg;
  cfg.table_shards = 8;
  AdmissionController ac(clock, source, cfg);

  const std::string key = "tenant-42/upload-photo";
  ASSERT_TRUE(ac.check(key, 1).allowed);  // first touch: entry created
  ASSERT_EQ(source.fetches(), 1);
  warm_flight_recorder();

  {
    AllocGuard guard;
    for (int i = 0; i < 64; ++i) {
      auto d = ac.check(key, 1);
      ASSERT_TRUE(d.allowed);
    }
    EXPECT_EQ(guard.count(), 0u)
        << "warm-key check() allocated; transparent-hash lookup regressed";
  }
  EXPECT_EQ(source.fetches(), 1);  // still cached

  {
    AllocGuard guard;
    auto d = ac.probe(key, 1);
    ASSERT_TRUE(d.allowed);
    EXPECT_EQ(guard.count(), 0u) << "warm-key probe() allocated";
  }
}

TEST(HotpathAllocTest, WarmTableLookupIsAllocationFree) {
  core::ShardedQosTable table(8);
  const std::string key = "tenant-7/list-albums";
  auto make_entry = [] {
    return core::QosEntry::make(100.0, 10.0, 100.0, TimePoint{}, false);
  };
  table.with_entry_or_create(key, make_entry,
                             [](core::QosEntry&) { return true; });

  AllocGuard guard;
  for (int i = 0; i < 64; ++i) {
    auto found = table.with_entry(key, [](core::QosEntry&) { return true; });
    ASSERT_TRUE(found.has_value());
  }
  EXPECT_EQ(guard.count(), 0u)
      << "warm with_entry() allocated; HashIndex::find_prehashed regressed";
}

TEST(HotpathAllocTest, RequestViewDecodeIsAllocationFree) {
  wire::QosRequest req;
  req.request_id = 77;
  req.type = wire::RequestType::kCheck;
  req.cost = 3;
  req.key = "tenant-42/upload-photo";
  req.trace_id = "0123456789abcdef";
  std::vector<std::uint8_t> frame;
  wire::encode_to(req, frame);

  AllocGuard guard;
  for (int i = 0; i < 64; ++i) {
    auto view = wire::decode_request_view(frame);
    ASSERT_TRUE(view.ok());
    ASSERT_EQ(view.value().key, "tenant-42/upload-photo");
  }
  EXPECT_EQ(guard.count(), 0u)
      << "decode_request_view allocated; zero-copy decode regressed";
}

TEST(HotpathAllocTest, FullWarmDecisionPipelineIsAllocationFree) {
  // Datagram bytes -> view decode -> admission check, i.e. the exact worker
  // inner loop (qos_server_node.cpp) minus the socket.
  ManualClock clock;
  StaticRuleSource source;
  AdmissionConfig cfg;
  cfg.table_shards = 8;
  AdmissionController ac(clock, source, cfg);

  wire::QosRequest req;
  req.request_id = 1;
  req.type = wire::RequestType::kCheck;
  req.cost = 1;
  req.key = "tenant-9/render";
  std::vector<std::uint8_t> frame;
  wire::encode_to(req, frame);

  ASSERT_TRUE(ac.check(req.key, 1).allowed);  // warm the entry
  warm_flight_recorder();

  AllocGuard guard;
  for (int i = 0; i < 64; ++i) {
    auto view = wire::decode_request_view(frame);
    ASSERT_TRUE(view.ok());
    auto d = ac.check(view.value().key, view.value().cost);
    ASSERT_TRUE(d.allowed);
  }
  EXPECT_EQ(guard.count(), 0u)
      << "warm decode+decide pipeline allocated on the hot path";
}

TEST(HotpathAllocTest, ClusterEpochGateIsAllocationFree) {
  // DESIGN.md §11.3: in cluster mode every frame is v3 and the worker adds
  // exactly one branch — compare the frame's epoch against the node's —
  // before the unchanged warm decision path. This pins the whole clustered
  // inner loop (v3 view decode -> epoch compare -> check -> v3 response
  // encode into a reused buffer) at zero heap allocations, both when the
  // epoch matches and when it is stale (NACK encode).
  ManualClock clock;
  StaticRuleSource source;
  AdmissionConfig cfg;
  cfg.table_shards = 8;
  AdmissionController ac(clock, source, cfg);

  wire::QosRequest req;
  req.request_id = 9;
  req.type = wire::RequestType::kCheck;
  req.cost = 1;
  req.key = "tenant-11/cluster-op";
  req.epoch = 7;  // non-zero => v3 frame
  std::vector<std::uint8_t> frame;
  wire::encode_to(req, frame);

  std::atomic<std::uint64_t> node_epoch{7};  // same atomic load the server does
  ASSERT_TRUE(ac.check(req.key, 1).allowed);  // warm the entry
  warm_flight_recorder();

  wire::QosResponse resp;
  resp.epoch = 7;  // warm-up must be v3-sized, or the first real encode grows
  std::vector<std::uint8_t> out;
  wire::encode_to(resp, out);  // warm the reply buffer's capacity

  {
    AllocGuard guard;
    for (int i = 0; i < 64; ++i) {
      auto view = wire::decode_request_view(frame);
      ASSERT_TRUE(view.ok());
      ASSERT_EQ(view.value().epoch, 7u);
      const std::uint64_t current =
          node_epoch.load(std::memory_order_acquire);
      ASSERT_EQ(view.value().epoch, current);  // the one-branch epoch gate
      auto d = ac.check(view.value().key, view.value().cost);
      ASSERT_TRUE(d.allowed);
      resp.request_id = view.value().request_id;
      resp.allowed = d.allowed;
      resp.epoch = current;  // v3 reply
      out.clear();
      wire::encode_to(resp, out);
    }
    EXPECT_EQ(guard.count(), 0u)
        << "clustered warm pipeline allocated; epoch gate regressed";
  }

  {
    // Stale frame: the NACK short-circuit (status + current epoch into the
    // reused buffer, no decision) must also stay off the heap — it runs on
    // the worker thread during every reshard window.
    AllocGuard guard;
    for (int i = 0; i < 64; ++i) {
      auto view = wire::decode_request_view(frame);
      ASSERT_TRUE(view.ok());
      node_epoch.store(8, std::memory_order_release);
      const std::uint64_t current =
          node_epoch.load(std::memory_order_acquire);
      ASSERT_NE(view.value().epoch, current);
      resp.request_id = view.value().request_id;
      resp.status = wire::ResponseStatus::kStaleEpoch;
      resp.allowed = false;
      resp.epoch = current;
      out.clear();
      wire::encode_to(resp, out);
    }
    EXPECT_EQ(guard.count(), 0u)
        << "stale-epoch NACK encode allocated; reshard window would churn";
  }
}

TEST(HotpathAllocTest, WarmDecisionWithRecorderArmedIsAllocationFree) {
  // PR 6's acceptance bullet, stated directly: the recorder is ARMED (the
  // default) and the warm decision path still never touches the heap — the
  // sampled admission events and hot-key sketch notes write into
  // preallocated fixed-size structures only.
  ASSERT_TRUE(FlightRecorder::enabled());
  ManualClock clock;
  StaticRuleSource source;
  AdmissionConfig cfg;
  cfg.table_shards = 8;
  AdmissionController ac(clock, source, cfg);

  const std::string key = "tenant-3/traced-op";
  ASSERT_TRUE(ac.check(key, 1).allowed);
  warm_flight_recorder();

  AllocGuard guard;
  // 256 decisions cross the 1-in-16 sample gate ~16 times: ring writes and
  // Space-Saving sketch updates both land inside the guarded region.
  for (int i = 0; i < 256; ++i) {
    auto d = ac.check(key, 1);
    ASSERT_TRUE(d.allowed);
  }
  EXPECT_EQ(guard.count(), 0u)
      << "recorder-armed warm decision allocated; telemetry path regressed";
}

TEST(HotpathAllocTest, ExemplarRecordIsAllocationFree) {
  // Slow-request exemplar capture sits on the worker's post-decision path;
  // over-threshold samples copy trace/key into fixed byte arrays.
  Exemplar ex;
  ex.set_threshold(0);
  const std::string trace = "0123456789abcdef";
  const std::string key = "tenant-8/slow-op";

  AllocGuard guard;
  for (int i = 0; i < 64; ++i) {
    ex.record(1000 + i, trace, key);
  }
  EXPECT_EQ(guard.count(), 0u)
      << "Exemplar::record allocated; fixed-buffer capture regressed";
}

/// Runs `iters` warm send_many/recv_many cycles between `client` and
/// `server` under an AllocGuard and returns the allocation count. One
/// unguarded cycle runs first so every reusable buffer (batch arena,
/// socket-internal scratch) reaches steady-state size.
std::uint64_t measure_batch_io_allocs(net::UdpSocket& client,
                                      net::UdpSocket& server, int iters) {
  const auto addr = server.local_addr().value();
  static const std::vector<std::uint8_t> payload(64, 0xAB);
  std::vector<net::UdpSocket::OutDatagram> burst(4);
  for (auto& d : burst) d = {addr, payload};
  net::UdpSocket::RecvBatch batch(8);

  auto cycle = [&]() -> std::uint64_t {
    if (!client.send_many(burst).ok()) return ~0ull;
    std::size_t got = 0;
    for (int spins = 0; got < burst.size() && spins < 50; ++spins) {
      auto n = server.recv_many(batch, millis(200));
      if (!n.ok()) return ~0ull;
      got += n.value();
    }
    return got == burst.size() ? 0 : ~0ull;
  };
  if (cycle() != 0) return ~0ull;  // warm-up

  AllocGuard guard;
  for (int i = 0; i < iters; ++i) {
    if (cycle() != 0) return ~0ull;
  }
  return guard.count();
}

TEST(HotpathAllocTest, MmsgBatchIoIsAllocationFree) {
  // The datagram path's contract: a warm sendmmsg/recvmmsg cycle stays off
  // the heap.
  auto server = net::UdpSocket::bind({"127.0.0.1", 0});
  ASSERT_TRUE(server.ok());
  auto client = net::UdpSocket::create();
  ASSERT_TRUE(client.ok());

  const auto allocs =
      measure_batch_io_allocs(client.value(), server.value(), 8);
  ASSERT_NE(allocs, ~0ull) << "mmsg batch I/O cycle failed";
  EXPECT_EQ(allocs, 0u)
      << "warm mmsg send_many/recv_many allocated; batch path regressed";
}

TEST(HotpathAllocTest, WarmRecvAllocatesOnlyItsDatagram) {
  // UdpSocket::recv (every UdpQosClient::call pays it) receives into the
  // socket's own buffer, allocated on the first recv; a warm recv's only
  // heap block is the datagram's copy, and an empty datagram needs none.
  auto server = net::UdpSocket::bind({"127.0.0.1", 0});
  ASSERT_TRUE(server.ok());
  const auto addr = server.value().local_addr().value();
  auto client = net::UdpSocket::create();
  ASSERT_TRUE(client.ok());
  const std::vector<std::uint8_t> frame(48, 0x5A);  // a response's size

  ASSERT_TRUE(client.value().send_to(addr, frame).ok());
  ASSERT_TRUE(server.value().recv(millis(500)).ok());  // first recv: buffer

  for (const std::size_t size : {std::size_t{48}, std::size_t{0}}) {
    ASSERT_TRUE(client.value()
                    .send_to(addr, std::span(frame.data(), size))
                    .ok());
    AllocGuard guard;
    auto dg = server.value().recv(millis(500));
    const std::uint64_t count = guard.count();
    const std::size_t largest = guard.largest();
    ASSERT_TRUE(dg.ok());
    ASSERT_TRUE(dg.value().has_value());
    EXPECT_EQ(dg.value()->data.size(), size);
    EXPECT_EQ(count, size == 0 ? 0u : 1u) << size << "-byte datagram";
    EXPECT_LE(largest, size) << size << "-byte datagram";
  }
}

TEST(HotpathAllocTest, PrequalPickIsAllocationFree) {
  // PR 10's acceptance bullet (DESIGN.md §14): the gateway pick path —
  // d-of-n sampling, seqlocked probe reads, reuse accounting — never
  // touches the heap. The picker's only allocations are construction
  // (slot vector) and the probe pool's refresh_threshold scratch, both off
  // the request path.
  lb::PrequalConfig cfg;
  cfg.d_choices = 3;
  cfg.probe_reuse_budget = 1 << 20;
  lb::PrequalPicker picker(8, cfg);
  for (std::size_t b = 0; b < 8; ++b) {
    picker.publish(b, static_cast<std::int64_t>(b), 100, TimePoint{millis(1)});
  }
  picker.refresh_threshold(TimePoint{millis(1)});
  (void)picker.pick(TimePoint{millis(1)});  // warm the thread-local RNG

  {
    AllocGuard guard;
    for (int i = 0; i < 256; ++i) {
      lb::PrequalPickKind kind;
      const std::size_t got = picker.pick(TimePoint{millis(2)}, &kind);
      ASSERT_LT(got, 8u);
    }
    EXPECT_EQ(guard.count(), 0u)
        << "PrequalPicker::pick allocated; probe-cache read path regressed";
  }
  {
    // The fallback path (empty cache) is on the same request path.
    lb::PrequalPicker empty(8, cfg);
    AllocGuard guard;
    for (int i = 0; i < 64; ++i) {
      ASSERT_EQ(empty.pick(TimePoint{millis(2)}), lb::PrequalPicker::kNoPick);
    }
    EXPECT_EQ(guard.count(), 0u) << "PrequalPicker::pick fallback allocated";
  }
}

TEST(HotpathAllocTest, RuleFetchOfAShortKeyIsAllocationFree) {
  // A first-touch or sync rule fetch reads the stored rule where it lies
  // (DESIGN.md §15.3): nothing is built but the returned RuleRow, and a key
  // of at most 15 bytes fits in its string.
  db::Database database;
  db::RuleStore store(database);
  const std::string key(15, 'k');
  ASSERT_TRUE(store.put({.key = key, .refill_per_sec = 2.0, .capacity = 4.0,
                         .credit = 3.0}).ok());

  AllocGuard guard;
  for (int i = 0; i < 64; ++i) {
    auto rule = store.get(key);
    ASSERT_TRUE(rule.has_value());
    ASSERT_EQ(rule->credit, 3.0);
    ASSERT_FALSE(store.get("absent").has_value());
  }
  EXPECT_EQ(guard.count(), 0u)
      << "RuleStore::get allocated; the rule was copied out through the heap";
}

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define JANUS_MALLOC_REPLACED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define JANUS_MALLOC_REPLACED 1
#endif
#endif

TEST(HotpathAllocTest, LoadedRuleCostsAtMost96Bytes) {
#ifdef JANUS_MALLOC_REPLACED
  GTEST_SKIP() << "this build's sanitizer replaces malloc, which mallinfo2 "
                  "does not see";
#else
  // 100k qos_rules rows loaded as janusd loads a rules file: the table sized
  // first, then put_many a write chunk at a time. Keys are 10 bytes, as in
  // perfbench's rules. Each row is one heap block (key, three 8-byte cells,
  // chain link, hash); the bucket array counts too.
  constexpr std::size_t kRules = 100'000;
  std::vector<db::RuleRow> chunk;
  chunk.reserve(db::Database::kWriteChunkRows);
  db::Database database;
  db::RuleStore store(database);

  // uordblks counts the heap's chunks in use; hblkhd the blocks malloc
  // maps on their own, as it does the bucket array at this size.
  auto heap_bytes = [] {
    const struct mallinfo2 info = mallinfo2();
    return info.uordblks + info.hblkhd;
  };
  const std::size_t before = heap_bytes();
  store.reserve(kRules);
  for (std::size_t i = 0; i < kRules; ++i) {
    chunk.push_back({.key = std::to_string(1'500'000'000 + i),
                     .refill_per_sec = 10.0, .capacity = 100.0,
                     .credit = 100.0});
    if (chunk.size() == db::Database::kWriteChunkRows || i + 1 == kRules) {
      ASSERT_TRUE(store.put_many(chunk).ok());
      chunk.clear();
    }
  }
  const std::size_t after = heap_bytes();
  ASSERT_EQ(store.size(), kRules);
  const double per_rule = static_cast<double>(after - before) / kRules;
  EXPECT_LE(per_rule, 96.0) << "bytes of heap per loaded rule";
  RecordProperty("bytes_per_rule", std::to_string(per_rule));
#endif
}

TEST(HotpathAllocTest, QosEntryCostsAtMost96Bytes) {
#ifdef JANUS_MALLOC_REPLACED
  GTEST_SKIP() << "this build's sanitizer replaces malloc, which mallinfo2 "
                  "does not see";
#else
  // 100k 10-byte keys (perfbench's) in the server's 16-shard table, as first
  // touch creates them. Each is one heap block (the index's header, the
  // 40-byte bucket, the key's bytes); the shards' bucket arrays count too.
  constexpr std::size_t kKeys = 100'000;
  core::ShardedQosTable table(16);
  auto heap_bytes = [] {
    const struct mallinfo2 info = mallinfo2();
    return info.uordblks + info.hblkhd;
  };
  const std::size_t before = heap_bytes();
  for (std::size_t i = 0; i < kKeys; ++i) {
    table.with_entry_or_create(
        std::to_string(1'500'000'000 + i),
        [] {
          return core::QosEntry::make(100.0, 10.0, 100.0, TimePoint{}, false);
        },
        [](core::QosEntry& e) { return e.bucket.try_consume_no_refill(1); });
  }
  const std::size_t after = heap_bytes();
  ASSERT_EQ(table.size(), kKeys);
  const double per_entry = static_cast<double>(after - before) / kKeys;
  EXPECT_LE(per_entry, 96.0) << "bytes of heap per QoS table entry";
  RecordProperty("bytes_per_entry", std::to_string(per_entry));
#endif
}

/// A rules file of `rules` rules with perfbench's 10-byte keys, as the
/// QoS server loads it; returns its path.
std::string write_rules_file(std::size_t rules) {
  const std::string path =
      ::testing::TempDir() + "janus_allocs_server_" +
      std::to_string(::getpid()) + ".rules";
  std::string text;
  for (std::size_t i = 0; i < rules; ++i) {
    text += std::to_string(1'500'000'000 + i) + " = 10 100 100\n";
  }
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f != nullptr) {
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
  }
  return path;
}

TEST(HotpathAllocTest, FirstDecisionOfALoadedKeyIsAllocationFree) {
  // The QoS server's first touch of a loaded rule finds it in its
  // provisioned entry and makes it live in place: no fetch, no node.
  const std::string path = write_rules_file(64);
  ManualClock clock;
  AdmissionConfig cfg;
  cfg.table_shards = 16;
  AdmissionController ac(clock, cfg);
  core::TableRules rules(ac.table(), clock);
  const auto loaded = rules.load(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.error().message;
  warm_flight_recorder();

  std::vector<std::string> keys;
  for (int i = 0; i < 64; ++i) keys.push_back(std::to_string(1'500'000'000 + i));
  AllocGuard guard;
  for (const std::string& key : keys) {
    const auto d = ac.check(key, 1);
    ASSERT_TRUE(d.allowed);
    ASSERT_EQ(d.origin, core::Decision::Origin::kFetched);
  }
  EXPECT_EQ(guard.count(), 0u)
      << "the first decision of a loaded rule allocated";
}

TEST(HotpathAllocTest, RulesFileLoadAllocatesOneBlockPerRule) {
#ifdef JANUS_MALLOC_REPLACED
  GTEST_SKIP() << "this build's sanitizer replaces malloc; its memory checks "
                  "are skipped with the heap-byte ones";
#else
  // 100k rules loaded from a file into the QoS server's 16-shard table, as
  // janusd loads them. Each rule costs its entry's node; the read block,
  // the parser's chunk, the loader's chunk, its two shard-grouping arrays
  // and the shards' bucket arrays are allocated once. A copy built per rule
  // would double the count, a shard index grown by doubling would add its
  // rehashes, and a buffer for the whole file (2.4 MB) would outgrow the
  // read block.
  constexpr std::size_t kRules = 100'000;
  constexpr std::size_t kShards = 16;
  const std::string path = write_rules_file(kRules);
  ManualClock clock;
  AdmissionConfig cfg;
  cfg.table_shards = kShards;
  AdmissionController ac(clock, cfg);
  core::TableRules rules(ac.table(), clock);
  std::uint64_t allocations = 0;
  std::size_t largest = 0;
  Result<std::size_t> loaded = std::size_t{0};
  {
    AllocGuard guard;
    loaded = rules.load(path);
    allocations = guard.count();
    largest = guard.largest();
  }
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.error().message;
  ASSERT_EQ(ac.table().rule_count(), kRules);
  EXPECT_LE(allocations, kRules + 5 + kShards) << "heap allocations per load";
  EXPECT_LE(largest, db::kRulesReadBlock) << "bytes of the largest block";
  RecordProperty("allocations", std::to_string(allocations));
#endif
}

TEST(HotpathAllocTest, ServerKeyCostsAtMost96Bytes) {
#ifdef JANUS_MALLOC_REPLACED
  GTEST_SKIP() << "this build's sanitizer replaces malloc, which mallinfo2 "
                  "does not see";
#else
  // What a key costs the QoS server in all, loaded and then live: 100k
  // rules loaded into its 16-shard table, then every key decided. One heap
  // block per key (the entry holds the rule), plus the bucket arrays.
  // Before the rules table folded into the QoS table, a touched key cost a
  // rules row and an entry: 165.1 B.
  constexpr std::size_t kKeys = 100'000;
  const std::string path = write_rules_file(kKeys);
  auto heap_bytes = [] {
    const struct mallinfo2 info = mallinfo2();
    return info.uordblks + info.hblkhd;
  };
  ManualClock clock;
  AdmissionConfig cfg;
  cfg.table_shards = 16;
  const std::size_t before = heap_bytes();
  AdmissionController ac(clock, cfg);
  core::TableRules rules(ac.table(), clock);
  ASSERT_TRUE(rules.load(path).ok());
  std::remove(path.c_str());
  const double loaded =
      static_cast<double>(heap_bytes() - before) / kKeys;
  for (std::size_t i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(ac.check(std::to_string(1'500'000'000 + i)).allowed);
  }
  ASSERT_EQ(ac.table_size(), kKeys);
  const double live = static_cast<double>(heap_bytes() - before) / kKeys;
  EXPECT_LE(loaded, 96.0) << "bytes of heap per loaded key";
  EXPECT_LE(live, 96.0) << "bytes of heap per live key";
  RecordProperty("bytes_per_loaded_key", std::to_string(loaded));
  RecordProperty("bytes_per_live_key", std::to_string(live));
#endif
}

TEST(HotpathAllocTest, ColdKeyStillAllocatesExactlyOnFirstTouch) {
  // Negative control: creation is *supposed* to allocate (owning key copy +
  // entry). If this ever reads zero the harness is broken, not the code.
  ManualClock clock;
  StaticRuleSource source;
  AdmissionController ac(clock, source, AdmissionConfig{});

  AllocGuard guard;
  ASSERT_TRUE(ac.check("never-seen-before-key", 1).allowed);
  EXPECT_GE(guard.count(), 1u);
}

}  // namespace
}  // namespace janus
