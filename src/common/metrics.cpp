#include "common/metrics.hpp"

#include <cinttypes>
#include <cstdio>

namespace janus {

HistogramMetric::HistogramMetric(std::int64_t max_value, int sub_bucket_bits)
    : max_value_(max_value), sub_bucket_bits_(sub_bucket_bits) {
  for (auto& s : stripes_) {
    s = std::make_unique<Stripe>(max_value_, sub_bucket_bits_);
  }
}

void HistogramMetric::record(std::int64_t value) {
  Stripe& s = *stripes_[metric_stripe()];
  MutexLock lock(s.mu);
  s.hist.record(value);
}

Histogram HistogramMetric::snapshot() const {
  Histogram merged(max_value_, sub_bucket_bits_);
  for (const auto& s : stripes_) {
    MutexLock lock(s->mu);
    merged.merge(s->hist);
  }
  return merged;
}

void HistogramMetric::reset() {
  for (const auto& s : stripes_) {
    MutexLock lock(s->mu);
    s->hist.reset();
  }
}

Counter& MetricsRegistry::counter(const std::string& name) {
  MutexLock lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::gauge(const std::string& name) {
  MutexLock lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return *slot;
}

HistogramMetric& MetricsRegistry::histogram(const std::string& name) {
  MutexLock lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) slot = std::make_unique<HistogramMetric>();
  return *slot;
}

Exemplar& MetricsRegistry::exemplar(const std::string& name) {
  MutexLock lock(mu_);
  auto& slot = exemplars_[name];
  if (!slot) slot = std::make_unique<Exemplar>();
  return *slot;
}

ExemplarSample Exemplar::snapshot() const {
  ExemplarSample out;
  out.threshold = threshold();
  out.over_count = over_count_.load(std::memory_order_relaxed);
  for (int attempt = 0; attempt < 4; ++attempt) {
    const std::uint64_t v1 = version_.load(std::memory_order_acquire);
    if (v1 == 0) break;           // nothing recorded yet
    if ((v1 & 1) != 0) continue;  // writer mid-claim
    out.value = value_.load(std::memory_order_relaxed);
    std::uint32_t tn = trace_len_.load(std::memory_order_relaxed);
    std::uint32_t kn = key_len_.load(std::memory_order_relaxed);
    if (tn > kTextBytes) tn = kTextBytes;
    if (kn > kTextBytes) kn = kTextBytes;
    out.trace.resize(tn);
    out.key.resize(kn);
    for (std::uint32_t i = 0; i < tn; ++i) {
      out.trace[i] = trace_[i].load(std::memory_order_relaxed);
    }
    for (std::uint32_t i = 0; i < kn; ++i) {
      out.key[i] = key_[i].load(std::memory_order_relaxed);
    }
    std::atomic_thread_fence(std::memory_order_acquire);
    if (version_.load(std::memory_order_relaxed) != v1) continue;
    out.valid = true;
    break;
  }
  return out;
}

std::map<std::string, std::int64_t> MetricsRegistry::snapshot() const {
  MutexLock lock(mu_);
  std::map<std::string, std::int64_t> out;
  for (const auto& [name, c] : counters_) out[name] = c->value();
  for (const auto& [name, g] : gauges_) out[name] = g->value();
  return out;
}

std::map<std::string, std::int64_t> MetricsRegistry::snapshot_counters() const {
  MutexLock lock(mu_);
  std::map<std::string, std::int64_t> out;
  for (const auto& [name, c] : counters_) out[name] = c->value();
  return out;
}

std::map<std::string, std::int64_t> MetricsRegistry::snapshot_gauges() const {
  MutexLock lock(mu_);
  std::map<std::string, std::int64_t> out;
  for (const auto& [name, g] : gauges_) out[name] = g->value();
  return out;
}

std::map<std::string, Histogram> MetricsRegistry::snapshot_histograms() const {
  // Copy the pointer map under the registry lock, then merge stripes outside
  // it — HistogramMetric references are stable once created.
  std::vector<std::pair<std::string, const HistogramMetric*>> items;
  {
    MutexLock lock(mu_);
    items.reserve(histograms_.size());
    for (const auto& [name, h] : histograms_) items.emplace_back(name, h.get());
  }
  std::map<std::string, Histogram> out;
  for (const auto& [name, h] : items) out.emplace(name, h->snapshot());
  return out;
}

std::map<std::string, ExemplarSample> MetricsRegistry::snapshot_exemplars()
    const {
  std::vector<std::pair<std::string, const Exemplar*>> items;
  {
    MutexLock lock(mu_);
    items.reserve(exemplars_.size());
    for (const auto& [name, e] : exemplars_) items.emplace_back(name, e.get());
  }
  std::map<std::string, ExemplarSample> out;
  for (const auto& [name, e] : items) out.emplace(name, e->snapshot());
  return out;
}

void MetricsRegistry::reset_all() {
  MutexLock lock(mu_);
  for (auto& [name, c] : counters_) c->reset();
  for (auto& [name, g] : gauges_) g->set(0);
  for (auto& [name, h] : histograms_) h->reset();
  for (auto& [name, e] : exemplars_) e->reset();
}

namespace {

/// Prometheus metric names allow [a-zA-Z0-9_:]; Janus uses dotted names.
std::string prom_name(const std::string& name) {
  std::string out = "janus_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    out.push_back(ok ? c : '_');
  }
  return out;
}

/// Label values escape backslash, double-quote, and newline.
std::string prom_label_value(const std::string& value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

void append_sample(std::string& out, const std::string& name,
                   const std::string& labels, std::int64_t value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), " %" PRId64 "\n", value);
  out += name;
  out += labels;
  out += buf;
}

/// Cumulative-bucket upper bounds, in microseconds: a 1/2.5/5 ladder from
/// 50 us to 10 s. Matches the latency ranges the paper's figures cover
/// (sub-ms QoS decisions up to multi-second overload tails).
constexpr std::int64_t kBucketBoundsUs[] = {
    50,      100,      250,      500,       1000,      2500,     5000,
    10000,   25000,    50000,    100000,    250000,    500000,   1000000,
    2500000, 5000000,  10000000};

}  // namespace

std::string render_prometheus(const MetricsRegistry& registry,
                              const std::string& node) {
  const std::string node_label = "{node=\"" + prom_label_value(node) + "\"}";
  std::string out;
  out.reserve(4096);

  for (const auto& [name, value] : registry.snapshot_counters()) {
    const std::string pname = prom_name(name);
    out += "# TYPE " + pname + " counter\n";
    append_sample(out, pname, node_label, value);
  }
  for (const auto& [name, value] : registry.snapshot_gauges()) {
    const std::string pname = prom_name(name);
    out += "# TYPE " + pname + " gauge\n";
    append_sample(out, pname, node_label, value);
  }

  for (const auto& [name, hist] : registry.snapshot_histograms()) {
    const std::string pname = prom_name(name);
    out += "# TYPE " + pname + " histogram\n";
    const std::string escaped_node = prom_label_value(node);
    for (std::int64_t bound : kBucketBoundsUs) {
      char labels[128];
      std::snprintf(labels, sizeof(labels), "{node=\"%s\",le=\"%" PRId64 "\"}",
                    escaped_node.c_str(), bound);
      append_sample(out, pname + "_bucket", labels,
                    static_cast<std::int64_t>(hist.count_below(bound)));
    }
    append_sample(out, pname + "_bucket",
                  "{node=\"" + escaped_node + "\",le=\"+Inf\"}",
                  static_cast<std::int64_t>(hist.count()));
    char buf[64];
    std::snprintf(buf, sizeof(buf), " %.0f\n", hist.sum());
    out += pname + "_sum" + node_label + buf;
    append_sample(out, pname + "_count", node_label,
                  static_cast<std::int64_t>(hist.count()));
  }
  return out;
}

std::string format_stats_line(const MetricsRegistry& registry) {
  std::string out;
  for (const auto& [name, value] : registry.snapshot()) {
    if (!out.empty()) out += ' ';
    char buf[32];
    std::snprintf(buf, sizeof(buf), "=%" PRId64, value);
    out += name;
    out += buf;
  }
  for (const auto& [name, hist] : registry.snapshot_histograms()) {
    if (hist.count() == 0) continue;
    char buf[128];
    std::snprintf(buf, sizeof(buf), " %s{p50=%" PRId64 " p99=%" PRId64
                  " n=%" PRIu64 "}",
                  name.c_str(), hist.percentile(0.50), hist.percentile(0.99),
                  hist.count());
    out += buf;
  }
  return out;
}

}  // namespace janus
