#include "core/admission.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/flight_recorder.hpp"
#include "core/db_rule_adapter.hpp"
#include "db/rule_store.hpp"

namespace janus::core {
namespace {

/// In-memory rule source with fetch counting.
class FakeRuleSource : public RuleSource {
 public:
  void add(const std::string& key, double capacity, double rate,
           std::optional<double> credit = std::nullopt) {
    rules_[key] = QosRule{.key = key, .capacity = capacity,
                          .refill_per_sec = rate, .initial_credit = credit};
  }
  void remove(const std::string& key) { rules_.erase(key); }

  std::optional<QosRule> fetch(std::string_view key) override {
    ++fetches_;
    auto it = rules_.find(std::string(key));
    if (it == rules_.end()) return std::nullopt;
    return it->second;
  }

  int fetches() const { return fetches_; }

 private:
  std::map<std::string, QosRule> rules_;
  std::atomic<int> fetches_{0};
};

class FakeSink : public RuleSink {
 public:
  void checkpoint(std::span<const KeyCredit> credits) override {
    ++calls_;
    for (const KeyCredit& c : credits) credits_[c.key] = c.credit;
  }
  std::map<std::string, double> credits_;
  int calls_ = 0;
};

class AdmissionTest : public ::testing::Test {
 protected:
  AdmissionConfig config() {
    AdmissionConfig cfg;
    cfg.table_shards = 4;
    return cfg;
  }

  ManualClock clock_;
  FakeRuleSource source_;
};

TEST_F(AdmissionTest, FirstTouchFetchesFromSource) {
  source_.add("alice", 10, 1);
  AdmissionController ac(clock_, source_, config());
  auto d = ac.check("alice");
  EXPECT_TRUE(d.allowed);
  EXPECT_EQ(d.origin, Decision::Origin::kFetched);
  EXPECT_EQ(source_.fetches(), 1);
  EXPECT_EQ(ac.table_size(), 1u);
}

TEST_F(AdmissionTest, SecondCheckIsCached) {
  source_.add("alice", 10, 1);
  AdmissionController ac(clock_, source_, config());
  ac.check("alice");
  auto d = ac.check("alice");
  EXPECT_EQ(d.origin, Decision::Origin::kCached);
  EXPECT_EQ(source_.fetches(), 1);  // no second DB query
}

TEST_F(AdmissionTest, UnknownKeyUsesDenyAllDefault) {
  AdmissionController ac(clock_, source_, config());  // default: deny all
  auto d = ac.check("stranger");
  EXPECT_FALSE(d.allowed);
  EXPECT_EQ(d.origin, Decision::Origin::kDefault);
  // Entry is cached so the DB is not hammered by unknown keys.
  auto d2 = ac.check("stranger");
  EXPECT_EQ(d2.origin, Decision::Origin::kCached);
  EXPECT_EQ(source_.fetches(), 1);
}

TEST_F(AdmissionTest, LimitedAccessDefaultGrantsSlowRate) {
  AdmissionConfig cfg = config();
  cfg.default_rule = limited_access_default(2.0, 1.0);
  AdmissionController ac(clock_, source_, cfg);
  EXPECT_TRUE(ac.check("guest").allowed);
  EXPECT_TRUE(ac.check("guest").allowed);
  EXPECT_FALSE(ac.check("guest").allowed);  // burst of 2 exhausted
  clock_.advance(seconds(1));
  EXPECT_TRUE(ac.check("guest").allowed);  // refilled at 1/s
}

TEST_F(AdmissionTest, CreditsDepleteAndRefill) {
  source_.add("alice", 3, 1);
  AdmissionController ac(clock_, source_, config());
  EXPECT_TRUE(ac.check("alice").allowed);
  EXPECT_TRUE(ac.check("alice").allowed);
  EXPECT_TRUE(ac.check("alice").allowed);
  EXPECT_FALSE(ac.check("alice").allowed);
  clock_.advance(seconds(2));
  EXPECT_TRUE(ac.check("alice").allowed);
  EXPECT_TRUE(ac.check("alice").allowed);
  EXPECT_FALSE(ac.check("alice").allowed);
}

TEST_F(AdmissionTest, RemainingCreditsReported) {
  source_.add("alice", 10, 0);
  AdmissionController ac(clock_, source_, config());
  auto d = ac.check("alice");
  EXPECT_EQ(d.remaining_millicredits, 9000);
  d = ac.check("alice", 4);
  EXPECT_EQ(d.remaining_millicredits, 5000);
}

TEST_F(AdmissionTest, MultiCreditCost) {
  source_.add("alice", 10, 0);
  AdmissionController ac(clock_, source_, config());
  EXPECT_TRUE(ac.check("alice", 10).allowed);
  EXPECT_FALSE(ac.check("alice", 1).allowed);
}

TEST_F(AdmissionTest, InitialCreditFromCheckpointRespected) {
  // §II-D: replacement server starts from the check-pointed credit.
  source_.add("alice", 100, 0, /*credit=*/2.0);
  AdmissionController ac(clock_, source_, config());
  EXPECT_TRUE(ac.check("alice").allowed);
  EXPECT_TRUE(ac.check("alice").allowed);
  EXPECT_FALSE(ac.check("alice").allowed);
}

TEST_F(AdmissionTest, ProbeDoesNotConsume) {
  source_.add("alice", 1, 0);
  AdmissionController ac(clock_, source_, config());
  EXPECT_TRUE(ac.probe("alice").allowed);
  EXPECT_TRUE(ac.probe("alice").allowed);
  EXPECT_TRUE(ac.check("alice").allowed);
  EXPECT_FALSE(ac.probe("alice").allowed);
}

TEST_F(AdmissionTest, PeriodicModeOnlyRefillsOnHousekeeping) {
  source_.add("alice", 2, 10);
  AdmissionConfig cfg = config();
  cfg.refill_mode = RefillMode::kPeriodic;
  AdmissionController ac(clock_, source_, cfg);
  EXPECT_TRUE(ac.check("alice").allowed);
  EXPECT_TRUE(ac.check("alice").allowed);
  EXPECT_FALSE(ac.check("alice").allowed);
  clock_.advance(seconds(10));
  // Time passed but no house-keeping pass yet.
  EXPECT_FALSE(ac.check("alice").allowed);
  ac.refill_all();
  EXPECT_TRUE(ac.check("alice").allowed);
}

TEST_F(AdmissionTest, SyncPicksUpRuleChanges) {
  source_.add("alice", 1, 0);
  AdmissionController ac(clock_, source_, config());
  EXPECT_TRUE(ac.check("alice").allowed);
  EXPECT_FALSE(ac.check("alice").allowed);
  // Operator upgrades the tenant.
  source_.add("alice", 100, 50);
  EXPECT_EQ(ac.sync_now(), 1u);
  clock_.advance(seconds(1));
  EXPECT_TRUE(ac.check("alice").allowed);  // refilled at the new 50/s
}

TEST_F(AdmissionTest, SyncWithNoChangesTouchesNothing) {
  source_.add("alice", 10, 1);
  AdmissionController ac(clock_, source_, config());
  ac.check("alice");
  EXPECT_EQ(ac.sync_now(), 0u);
}

TEST_F(AdmissionTest, SyncDemotesDeletedRulesToDefault) {
  source_.add("alice", 100, 100);
  AdmissionController ac(clock_, source_, config());
  EXPECT_TRUE(ac.check("alice").allowed);
  source_.remove("alice");
  EXPECT_EQ(ac.sync_now(), 1u);
  EXPECT_FALSE(ac.check("alice").allowed);  // deny-all default now applies
}

TEST_F(AdmissionTest, SyncPromotesDefaultWhenRuleAppears) {
  AdmissionController ac(clock_, source_, config());
  EXPECT_FALSE(ac.check("alice").allowed);  // default deny
  // "new QoS keys/rules are immediately effective as soon as they are added
  // to the database" — for already-cached entries, on the next sync.
  source_.add("alice", 10, 10);
  EXPECT_EQ(ac.sync_now(), 1u);
  EXPECT_TRUE(ac.check("alice").allowed);
}

TEST_F(AdmissionTest, CheckpointWritesCreditsForRealRulesOnly) {
  source_.add("alice", 10, 0);
  source_.add("bob", 20, 0);
  AdmissionController ac(clock_, source_, config());
  ac.check("alice");
  ac.check("alice");
  ac.check("bob");
  ac.check("unknown");  // default entry: not persisted

  FakeSink sink;
  EXPECT_EQ(ac.checkpoint_now(sink), 2u);
  EXPECT_DOUBLE_EQ(sink.credits_.at("alice"), 8.0);
  EXPECT_DOUBLE_EQ(sink.credits_.at("bob"), 19.0);
  EXPECT_EQ(sink.credits_.count("unknown"), 0u);
}

TEST_F(AdmissionTest, SyncLeavesRulesWithFineCapacitiesAlone) {
  // The bucket holds capacity in whole millicredits; sync must compare the
  // database's rule with the exact values the entry keeps, or a capacity
  // with more than three decimals (perfbench's rules have them) "changes"
  // on every pass, and each pass resets the bucket to the database credit.
  source_.add("fine", 12.34567, 1.23456, 12.34567);
  AdmissionController ac(clock_, source_, config());
  ASSERT_TRUE(ac.check("fine", 3).allowed);
  const auto spent = ac.table().with_entry(
      "fine", [](QosEntry& e) { return e.bucket.millicredits(); });
  ASSERT_TRUE(spent.has_value());
  EXPECT_EQ(ac.sync_now(), 0u);
  EXPECT_EQ(ac.sync_now(), 0u);
  const auto after = ac.table().with_entry(
      "fine", [](QosEntry& e) { return e.bucket.millicredits(); });
  EXPECT_EQ(after, spent) << "sync reset a bucket whose rule did not change";
}

TEST_F(AdmissionTest, CheckpointHandsTheSinkOneShardPerCall) {
  AdmissionController ac(clock_, source_, config());
  constexpr int kKeys = 200;
  for (int i = 0; i < kKeys; ++i) {
    source_.add("k" + std::to_string(i), 10, 0);
    ac.check("k" + std::to_string(i));
  }
  FakeSink sink;
  EXPECT_EQ(ac.checkpoint_now(sink), static_cast<std::size_t>(kKeys));
  EXPECT_EQ(sink.credits_.size(), static_cast<std::size_t>(kKeys));
  EXPECT_LE(sink.calls_, static_cast<int>(config().table_shards));
  EXPECT_GE(sink.calls_, 2);
}

TEST_F(AdmissionTest, ChunkedCheckpointWritesWhatPerKeyWritesWrote) {
  // The same table check-pointed through DbRuleSink (in-place chunks) and
  // through one checkpoint_credit per key: the same credits, the same
  // records in the same LSN order, the same log bytes.
  class PerKeySink : public RuleSink {
   public:
    explicit PerKeySink(db::RuleStore& store) : store_(store) {}
    void checkpoint(std::span<const KeyCredit> credits) override {
      for (const KeyCredit& c : credits) {
        (void)store_.checkpoint_credit(c.key, c.credit);
      }
    }

   private:
    db::RuleStore& store_;
  };
  constexpr int kKeys = 1000;
  struct Side {
    db::Database db;
    std::unique_ptr<db::RuleStore> store;
    std::unique_ptr<DbRuleSource> source;
    std::string wal;
    /// The records the check-point appended to the WAL, in order.
    std::vector<db::LogRecord> seen() const {
      std::vector<db::LogRecord> out;
      (void)db::Wal::replay(wal, [&](const db::LogRecord& rec) {
        if (rec.lsn > static_cast<std::uint64_t>(kKeys)) out.push_back(rec);
      });
      return out;
    }
  };
  auto open = [&](Side& side, const std::string& tag) {
    side.wal = ::testing::TempDir() + "janus_ckpt_" + tag + "_" +
               std::to_string(::getpid()) + ".wal";
    std::remove(side.wal.c_str());
    ASSERT_TRUE(side.db.enable_wal(side.wal).ok());
    side.store = std::make_unique<db::RuleStore>(side.db);
    side.source = std::make_unique<DbRuleSource>(*side.store);
    for (int i = 0; i < kKeys; ++i) {
      ASSERT_TRUE(side.store->put({.key = "tenant-" + std::to_string(i),
                                   .refill_per_sec = 0.5 * i,
                                   .capacity = 100.0 + i,
                                   .credit = 100.0 + i}).ok());
    }
  };
  Side per_key;
  Side chunked;
  open(per_key, "per_key");
  open(chunked, "chunked");
  AdmissionController a(clock_, *per_key.source, config());
  AdmissionController b(clock_, *chunked.source, config());
  // Every key spends, and refills less than it spent before the
  // check-point, so every credit changed and is written.
  for (int i = 0; i < kKeys; ++i) {
    const std::string key = "tenant-" + std::to_string(i);
    const std::uint32_t cost = static_cast<std::uint32_t>(1 + i % 7);
    a.check(key, cost);
    b.check(key, cost);
  }
  clock_.advance(millis(1));
  PerKeySink per_key_sink(*per_key.store);
  DbRuleSink chunked_sink(*chunked.store);
  EXPECT_EQ(a.checkpoint_now(per_key_sink), static_cast<std::size_t>(kKeys));
  EXPECT_EQ(b.checkpoint_now(chunked_sink), static_cast<std::size_t>(kKeys));

  ASSERT_EQ(chunked.seen().size(), static_cast<std::size_t>(kKeys));
  EXPECT_EQ(chunked.seen(), per_key.seen());
  EXPECT_EQ(chunked.db.lsn(), per_key.db.lsn());
  for (int i = 0; i < kKeys; ++i) {
    const std::string key = "tenant-" + std::to_string(i);
    EXPECT_EQ(chunked.store->get(key), per_key.store->get(key)) << key;
  }
  auto bytes = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };
  EXPECT_EQ(bytes(chunked.wal), bytes(per_key.wal));
  std::remove(per_key.wal.c_str());
  std::remove(chunked.wal.c_str());
}

TEST_F(AdmissionTest, HouseKeepingPassesRunBesideDecisions) {
  // Sync and check-point passes walk the shards and write the database
  // while deciders spend credit and first-touch keys (the sanitizer presets
  // run this suite). No decision is lost or doubled, and the last
  // check-point holds every bucket's level.
  db::Database database;
  db::RuleStore store(database);
  constexpr int kKeys = 64;
  constexpr int kRounds = 20;
  constexpr int kDeciders = 2;
  std::vector<std::string> keys;
  for (int i = 0; i < kKeys; ++i) {
    keys.push_back("k" + std::to_string(i));
    ASSERT_TRUE(store.put({.key = keys.back(), .refill_per_sec = 0,
                           .capacity = 100, .credit = 100}).ok());
  }
  DbRuleSource source(store);
  DbRuleSink sink(store);
  AdmissionController ac(clock_, source, config());

  std::atomic<int> admitted{0};
  std::atomic<int> running{kDeciders};
  std::vector<std::thread> threads;
  for (int t = 0; t < kDeciders; ++t) {
    threads.emplace_back([&] {
      for (int r = 0; r < kRounds; ++r) {
        for (const std::string& key : keys) {
          if (ac.check(key).allowed) admitted.fetch_add(1);
        }
      }
      running.fetch_sub(1);
    });
  }
  threads.emplace_back([&] {
    while (running.load() > 0) ac.sync_now();
  });
  threads.emplace_back([&] {
    while (running.load() > 0) ac.checkpoint_now(sink);
  });
  for (auto& th : threads) th.join();

  EXPECT_EQ(admitted.load(), kDeciders * kRounds * kKeys);
  EXPECT_EQ(ac.checkpoint_now(sink), static_cast<std::size_t>(kKeys));
  for (const std::string& key : keys) {
    EXPECT_DOUBLE_EQ(store.get(key)->credit, 100.0 - kDeciders * kRounds)
        << key;
  }
}

TEST_F(AdmissionTest, InvalidateForcesRefetch) {
  source_.add("alice", 10, 1);
  AdmissionController ac(clock_, source_, config());
  ac.check("alice");
  EXPECT_TRUE(ac.invalidate("alice"));
  EXPECT_FALSE(ac.invalidate("alice"));
  ac.check("alice");
  EXPECT_EQ(source_.fetches(), 2);
}

TEST_F(AdmissionTest, MetricsCountDecisions) {
  source_.add("alice", 1, 0);
  AdmissionController ac(clock_, source_, config());
  ac.check("alice");
  ac.check("alice");
  ac.check("ghost");
  auto snap = ac.metrics().snapshot();
  EXPECT_EQ(snap.at("admission.checks"), 3);
  EXPECT_EQ(snap.at("admission.allowed"), 1);
  EXPECT_EQ(snap.at("admission.denied"), 2);
  EXPECT_EQ(snap.at("admission.db_fetches"), 2);
  EXPECT_EQ(snap.at("admission.default_rules"), 1);
}

TEST_F(AdmissionTest, SingleShardConfigWorks) {
  AdmissionConfig cfg = config();
  cfg.table_shards = 1;  // the paper's global-lock setup
  source_.add("alice", 5, 0);
  AdmissionController ac(clock_, source_, cfg);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(ac.check("alice").allowed);
  EXPECT_FALSE(ac.check("alice").allowed);
}

TEST_F(AdmissionTest, ConcurrentChecksNeverOverAdmit) {
  source_.add("shared", 1000, 0);
  AdmissionController ac(clock_, source_, config());
  constexpr int kThreads = 8;
  constexpr int kAttemptsPerThread = 1000;
  std::atomic<int> admitted{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kAttemptsPerThread; ++i) {
        if (ac.check("shared").allowed) admitted.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  // Exactly the 1000 credits were granted — the composite read-modify-write
  // is atomic under the shard lock (the paper's core consistency claim).
  EXPECT_EQ(admitted.load(), 1000);
}

TEST_F(AdmissionTest, DbAdapterEndToEnd) {
  db::Database database;
  db::RuleStore store(database);
  ASSERT_TRUE(store.put({.key = "alice", .refill_per_sec = 0,
                         .capacity = 2, .credit = 2}).ok());
  DbRuleSource source(store);
  DbRuleSink sink(store);
  AdmissionController ac(clock_, source, config());
  EXPECT_TRUE(ac.check("alice").allowed);
  EXPECT_TRUE(ac.check("alice").allowed);
  EXPECT_FALSE(ac.check("alice").allowed);
  ac.checkpoint_now(sink);
  EXPECT_DOUBLE_EQ(store.get("alice")->credit, 0.0);

  // A replacement server warms from the checkpoint (§II-D).
  AdmissionController replacement(clock_, source, config());
  EXPECT_FALSE(replacement.check("alice").allowed);
}

// ---- hot-key sampling ------------------------------------------------------
//
// A decision sampled for telemetry is noted in its shard's hot-key sketch
// inside the decision's own critical section, on the cached path and on the
// first-touch path alike. The sampler is thread-local and starts at zero, so
// on a fresh thread exactly the 16th, 32nd, ... decisions are sampled.

/// Arms the flight recorder for one test and restores the previous setting.
class ArmedRecorder {
 public:
  explicit ArmedRecorder(bool on = true) : was_(FlightRecorder::enabled()) {
    FlightRecorder::set_enabled(on);
  }
  ~ArmedRecorder() { FlightRecorder::set_enabled(was_); }

 private:
  bool was_;
};

template <typename Fn>
void run_on_fresh_thread(Fn&& fn) {
  std::thread t(std::forward<Fn>(fn));
  t.join();
}

constexpr int kSampleStride =
    static_cast<int>(FlightRecorder::kDecisionSampleWeight);

TEST_F(AdmissionTest, SampledFirstTouchDecisionFeedsHotKeys) {
  ArmedRecorder armed;
  for (int i = 0; i < kSampleStride; ++i) {
    source_.add("k" + std::to_string(i), 10, 0);
  }
  AdmissionController ac(clock_, source_, config());
  Decision sampled;
  run_on_fresh_thread([&] {
    for (int i = 0; i < kSampleStride; ++i) {
      sampled = ac.check("k" + std::to_string(i));
    }
  });
  // The sampled decision was its key's first touch.
  EXPECT_EQ(sampled.origin, Decision::Origin::kFetched);
  auto hot = ac.hot_keys();
  ASSERT_EQ(hot.size(), 1u);
  EXPECT_EQ(hot[0].key, "k" + std::to_string(kSampleStride - 1));
  EXPECT_EQ(hot[0].hits, FlightRecorder::kDecisionSampleWeight);
  EXPECT_EQ(hot[0].rejects, 0u);
}

TEST_F(AdmissionTest, SampledCachedDecisionFeedsHotKeys) {
  ArmedRecorder armed;
  source_.add("alice", 100, 0);
  AdmissionController ac(clock_, source_, config());
  Decision sampled;
  run_on_fresh_thread([&] {
    for (int i = 0; i < 2 * kSampleStride; ++i) sampled = ac.check("alice");
  });
  EXPECT_EQ(sampled.origin, Decision::Origin::kCached);
  auto hot = ac.hot_keys();
  ASSERT_EQ(hot.size(), 1u);
  EXPECT_EQ(hot[0].key, "alice");
  EXPECT_EQ(hot[0].hits, 2 * FlightRecorder::kDecisionSampleWeight);
}

TEST_F(AdmissionTest, SampledDenialsRankInRejectHotKeys) {
  ArmedRecorder armed;
  source_.add("spender", 1, 0);
  source_.add("saver", 100, 0);
  AdmissionController ac(clock_, source_, config());
  run_on_fresh_thread([&] {
    // Sampled: the 16th decision (a denial of spender) and the 32nd (an
    // admission of saver).
    for (int i = 0; i < kSampleStride; ++i) ac.check("spender");
    for (int i = 0; i < kSampleStride; ++i) ac.check("saver");
  });
  auto by_rejects = ac.hot_keys(/*by_rejects=*/true);
  ASSERT_FALSE(by_rejects.empty());
  EXPECT_EQ(by_rejects[0].key, "spender");
  EXPECT_EQ(by_rejects[0].rejects, FlightRecorder::kDecisionSampleWeight);
  EXPECT_EQ(ac.hot_keys().size(), 2u);
}

TEST_F(AdmissionTest, DisarmedRecorderFeedsNoHotKeys) {
  ArmedRecorder disarmed(false);
  source_.add("alice", 100, 0);
  AdmissionController ac(clock_, source_, config());
  run_on_fresh_thread([&] {
    for (int i = 0; i < 4 * kSampleStride; ++i) ac.check("alice");
  });
  EXPECT_TRUE(ac.hot_keys().empty());
  EXPECT_TRUE(ac.check("alice").allowed);
}

}  // namespace
}  // namespace janus::core
