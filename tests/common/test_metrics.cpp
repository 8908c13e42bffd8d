#include "common/metrics.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "common/logging.hpp"

namespace janus {
namespace {

TEST(CounterTest, IncrementAndReset) {
  Counter c;
  EXPECT_EQ(c.value(), 0);
  c.inc();
  c.inc(5);
  EXPECT_EQ(c.value(), 6);
  c.reset();
  EXPECT_EQ(c.value(), 0);
}

TEST(CounterTest, ConcurrentIncrementsAreLossless) {
  Counter c;
  constexpr int kThreads = 4;
  constexpr int kIncrements = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kIncrements; ++i) c.inc();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.value(), kThreads * kIncrements);
}

// Counters keep one cache-line slot per thread stripe and sum on read; the
// three tests below pin that the striping changes nothing a reader sees.

TEST(CounterTest, EightThreadsSumExactly) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 1'000'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kIncrements; ++i) c.inc();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(c.value(), std::int64_t{kThreads} * kIncrements);
}

TEST(CounterTest, ResetZeroesEverySlot) {
  // More threads than stripes, so every slot holds a count before reset.
  Counter c;
  constexpr int kThreads = 2 * static_cast<int>(kMetricStripes);
  auto from_each_thread = [&c](std::int64_t delta) {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&c, delta] { c.inc(delta); });
    }
    for (auto& th : threads) th.join();
  };
  from_each_thread(1000);
  ASSERT_EQ(c.value(), kThreads * 1000);
  c.reset();
  EXPECT_EQ(c.value(), 0);
  from_each_thread(1);
  EXPECT_EQ(c.value(), kThreads);
}

TEST(CounterTest, StripedCountsRenderAsBefore) {
  // Counts spread over several stripes render as one sample, byte for byte
  // the text a single-slot counter rendered.
  MetricsRegistry reg;
  Counter& requests = reg.counter("router.requests");
  Counter& retries = reg.counter("router.udp_retries");
  reg.gauge("server.fifo_depth").set(3);
  std::vector<std::thread> threads;
  for (int t = 0; t < 5; ++t) {
    threads.emplace_back([&, t] {
      requests.inc(t + 1);
      retries.inc();
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(render_prometheus(reg, "node-1"),
            "# TYPE janus_router_requests counter\n"
            "janus_router_requests{node=\"node-1\"} 15\n"
            "# TYPE janus_router_udp_retries counter\n"
            "janus_router_udp_retries{node=\"node-1\"} 5\n"
            "# TYPE janus_server_fifo_depth gauge\n"
            "janus_server_fifo_depth{node=\"node-1\"} 3\n");
}

TEST(GaugeTest, SetAndAdd) {
  Gauge g;
  g.set(10);
  EXPECT_EQ(g.value(), 10);
  g.add(-3);
  EXPECT_EQ(g.value(), 7);
}

TEST(MetricsRegistryTest, SameNameSameCounter) {
  MetricsRegistry reg;
  Counter& a = reg.counter("requests");
  Counter& b = reg.counter("requests");
  EXPECT_EQ(&a, &b);
  a.inc();
  EXPECT_EQ(b.value(), 1);
}

TEST(MetricsRegistryTest, SnapshotContainsAllMetrics) {
  MetricsRegistry reg;
  reg.counter("c1").inc(3);
  reg.gauge("g1").set(9);
  auto snap = reg.snapshot();
  EXPECT_EQ(snap.at("c1"), 3);
  EXPECT_EQ(snap.at("g1"), 9);
}

TEST(MetricsRegistryTest, ResetAllZeroesEverything) {
  MetricsRegistry reg;
  reg.counter("c").inc(5);
  reg.gauge("g").set(5);
  reg.reset_all();
  auto snap = reg.snapshot();
  EXPECT_EQ(snap.at("c"), 0);
  EXPECT_EQ(snap.at("g"), 0);
}

TEST(MetricsRegistryTest, CounterReferenceStableAcrossInserts) {
  MetricsRegistry reg;
  Counter& first = reg.counter("first");
  for (int i = 0; i < 100; ++i) reg.counter("other" + std::to_string(i));
  first.inc();
  EXPECT_EQ(reg.snapshot().at("first"), 1);
}

TEST(HistogramMetricTest, RecordAndSnapshot) {
  HistogramMetric h;
  h.record(100);
  h.record(200);
  h.record(300);
  Histogram snap = h.snapshot();
  EXPECT_EQ(snap.count(), 3u);
  EXPECT_GE(snap.percentile(1.0), 300);
  EXPECT_EQ(snap.min(), 100);
}

TEST(HistogramMetricTest, ConcurrentRecordIsLossless) {
  HistogramMetric h;
  constexpr int kThreads = 8;
  constexpr int kRecords = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kRecords; ++i) h.record(t * 1000 + i % 1000);
    });
  }
  for (auto& th : threads) th.join();
  Histogram snap = h.snapshot();
  EXPECT_EQ(snap.count(), static_cast<std::uint64_t>(kThreads) * kRecords);
  EXPECT_GE(snap.max(), 7000);
}

TEST(HistogramMetricTest, SnapshotWhileRecording) {
  HistogramMetric h;
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    std::int64_t v = 0;
    do {
      h.record(v++ % 10000);
    } while (!stop.load());
  });
  for (int i = 0; i < 50; ++i) {
    Histogram snap = h.snapshot();
    EXPECT_LE(snap.percentile(1.0), 16384);  // bucketized upper bound
  }
  stop.store(true);
  writer.join();
  EXPECT_GT(h.snapshot().count(), 0u);
}

TEST(HistogramMetricTest, ResetClearsAllStripes) {
  HistogramMetric h;
  for (int i = 0; i < 100; ++i) h.record(i);
  h.reset();
  EXPECT_EQ(h.snapshot().count(), 0u);
}

TEST(MetricsRegistryTest, SameNameSameHistogram) {
  MetricsRegistry reg;
  HistogramMetric& a = reg.histogram("lat");
  HistogramMetric& b = reg.histogram("lat");
  EXPECT_EQ(&a, &b);
  a.record(42);
  EXPECT_EQ(reg.snapshot_histograms().at("lat").count(), 1u);
}

TEST(MetricsRegistryTest, ResetAllClearsHistograms) {
  MetricsRegistry reg;
  reg.histogram("h").record(5);
  reg.reset_all();
  EXPECT_EQ(reg.snapshot_histograms().at("h").count(), 0u);
}

TEST(RenderPrometheusTest, CounterAndGaugeFamilies) {
  MetricsRegistry reg;
  reg.counter("router.requests").inc(7);
  reg.gauge("server.fifo_depth").set(3);
  const std::string text = render_prometheus(reg, "node-1");
  EXPECT_NE(text.find("# TYPE janus_router_requests counter\n"),
            std::string::npos);
  EXPECT_NE(text.find("janus_router_requests{node=\"node-1\"} 7\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE janus_server_fifo_depth gauge\n"),
            std::string::npos);
  EXPECT_NE(text.find("janus_server_fifo_depth{node=\"node-1\"} 3\n"),
            std::string::npos);
}

TEST(RenderPrometheusTest, HistogramFamilyHasBucketsSumCount) {
  MetricsRegistry reg;
  HistogramMetric& h = reg.histogram("router.e2e_us");
  h.record(40);    // below the first 50us bound
  h.record(900);   // below 1000us
  h.record(90000); // below 100000us
  const std::string text = render_prometheus(reg, "n");
  EXPECT_NE(text.find("# TYPE janus_router_e2e_us histogram\n"),
            std::string::npos);
  EXPECT_NE(
      text.find("janus_router_e2e_us_bucket{node=\"n\",le=\"50\"} 1\n"),
      std::string::npos);
  EXPECT_NE(
      text.find("janus_router_e2e_us_bucket{node=\"n\",le=\"1000\"} 2\n"),
      std::string::npos);
  EXPECT_NE(
      text.find("janus_router_e2e_us_bucket{node=\"n\",le=\"+Inf\"} 3\n"),
      std::string::npos);
  EXPECT_NE(text.find("janus_router_e2e_us_count{node=\"n\"} 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("janus_router_e2e_us_sum{node=\"n\"} 90940\n"),
            std::string::npos);
}

TEST(RenderPrometheusTest, BucketCountsAreCumulative) {
  MetricsRegistry reg;
  HistogramMetric& h = reg.histogram("lat_us");
  for (int i = 0; i < 100; ++i) h.record(10);    // all <= 50
  for (int i = 0; i < 50; ++i) h.record(5000);   // <= 5000
  const std::string text = render_prometheus(reg, "n");
  EXPECT_NE(text.find("janus_lat_us_bucket{node=\"n\",le=\"50\"} 100\n"),
            std::string::npos);
  EXPECT_NE(text.find("janus_lat_us_bucket{node=\"n\",le=\"+Inf\"} 150\n"),
            std::string::npos);
}

TEST(RenderPrometheusTest, EscapesNodeLabel) {
  MetricsRegistry reg;
  reg.counter("c").inc();
  const std::string text = render_prometheus(reg, "a\"b\\c\nd");
  EXPECT_NE(text.find("janus_c{node=\"a\\\"b\\\\c\\nd\"} 1\n"),
            std::string::npos);
}

TEST(RenderPrometheusTest, SanitizesMetricNames) {
  MetricsRegistry reg;
  reg.counter("router.bad-name").inc();
  const std::string text = render_prometheus(reg, "n");
  EXPECT_NE(text.find("janus_router_bad_name{node=\"n\"} 1\n"),
            std::string::npos);
}

TEST(HistogramTest, CountBelowIsMonotonicCumulative) {
  Histogram h;
  h.record(10);
  h.record(100);
  h.record(100000);
  EXPECT_EQ(h.count_below(5), 0u);
  EXPECT_EQ(h.count_below(10), 1u);
  EXPECT_EQ(h.count_below(1000), 2u);
  EXPECT_EQ(h.count_below(200000), 3u);
  EXPECT_EQ(h.count_below(-1), 0u);
}

TEST(FormatStatsLineTest, ContainsScalarsAndHistogramSummaries) {
  MetricsRegistry reg;
  reg.counter("server.answered").inc(12);
  reg.histogram("server.service_us").record(250);
  const std::string line = format_stats_line(reg);
  EXPECT_NE(line.find("server.answered=12"), std::string::npos);
  EXPECT_NE(line.find("server.service_us{p50="), std::string::npos);
}

TEST(LoggerTest, ParseLogLevel) {
  EXPECT_EQ(parse_log_level("debug"), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("info"), LogLevel::kInfo);
  EXPECT_EQ(parse_log_level("warn"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("error"), LogLevel::kError);
  EXPECT_EQ(parse_log_level("off"), LogLevel::kOff);
  EXPECT_FALSE(parse_log_level("verbose").has_value());
}

TEST(LoggerTest, ConcurrentSetSinkWhileLogging) {
  // set_sink used to be a bare non-atomic pointer write racing with logf.
  Logger& log = Logger::instance();
  const LogLevel saved = log.level();
  std::FILE* tmp = std::tmpfile();
  ASSERT_NE(tmp, nullptr);
  log.set_level(LogLevel::kInfo);
  log.set_sink(tmp);
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    while (!stop.load()) JLOG_INFO("spin %d", 1);
  });
  std::FILE* tmp2 = std::tmpfile();
  ASSERT_NE(tmp2, nullptr);
  for (int i = 0; i < 200; ++i) {
    log.set_sink(i % 2 ? tmp : tmp2);
  }
  stop.store(true);
  writer.join();
  log.set_sink(stderr);
  log.set_level(saved);
  std::fclose(tmp);
  std::fclose(tmp2);
}

TEST(LoggerTest, LevelFiltering) {
  Logger& log = Logger::instance();
  const LogLevel saved = log.level();
  log.set_level(LogLevel::kError);
  EXPECT_FALSE(log.enabled(LogLevel::kDebug));
  EXPECT_FALSE(log.enabled(LogLevel::kWarn));
  EXPECT_TRUE(log.enabled(LogLevel::kError));
  log.set_level(LogLevel::kDebug);
  EXPECT_TRUE(log.enabled(LogLevel::kDebug));
  log.set_level(saved);
}

TEST(LoggerTest, WritesFormattedLineToSink) {
  Logger& log = Logger::instance();
  const LogLevel saved = log.level();
  std::FILE* tmp = std::tmpfile();
  ASSERT_NE(tmp, nullptr);
  log.set_sink(tmp);
  log.set_level(LogLevel::kInfo);
  JLOG_INFO("hello %d", 42);
  log.set_sink(stderr);
  log.set_level(saved);

  std::rewind(tmp);
  char buf[512] = {};
  ASSERT_NE(std::fgets(buf, sizeof(buf), tmp), nullptr);
  const std::string line = buf;
  EXPECT_NE(line.find("hello 42"), std::string::npos);
  EXPECT_NE(line.find("INFO"), std::string::npos);
  EXPECT_NE(line.find("test_metrics.cpp"), std::string::npos);
  std::fclose(tmp);
}

}  // namespace
}  // namespace janus
