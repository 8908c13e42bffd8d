#include "workloads.hpp"

#include <algorithm>
#include <charconv>
#include <cstdio>

namespace janus::perfbench {

namespace {

// A quota that no run can exhaust: stack-uniform checks that every verdict
// is TRUE, so its rules must never bind.
constexpr double kUnboundRate = 1e6;
constexpr double kUnboundCapacity = 1e9;

// The hot key draws half of all requests (tens of thousands per second), so
// this quota denies almost all of them.
constexpr double kHotRate = 100.0;
constexpr double kHotCapacity = 100.0;

constexpr double kHotShare = 0.5;
constexpr double kColdRetouchShare = 0.1;

std::vector<std::uint32_t> seeded_permutation(std::uint64_t n,
                                              std::uint64_t seed) {
  std::vector<std::uint32_t> order(n);
  for (std::uint64_t i = 0; i < n; ++i) order[i] = static_cast<std::uint32_t>(i);
  Rng rng(seed);
  for (std::uint64_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.next_below(i)]);
  }
  return order;
}

void append_number(std::string& out, double v) {
  char buf[32];
  auto res = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, res.ptr);
}

}  // namespace

Result<Workload> Workload::make(std::string_view name, std::uint64_t seed) {
  Workload w;
  w.name_ = std::string(name);
  w.seed_ = seed;
  w.rules_.seed = seed;
  if (name == "stack-uniform") {
    w.corpus_ = 10'000;
    w.kind_ = Kind::kUniform;
    w.keys_ = std::make_shared<workload::SequentialKeys>();
  } else if (name == "server-hotkey") {
    w.corpus_ = 100'000;
    w.kind_ = Kind::kHotKey;
    w.keys_ = std::make_shared<workload::SequentialKeys>();
    w.zipf_cdf_.resize(w.corpus_);
    double total = 0.0;
    for (std::uint64_t r = 0; r < w.corpus_; ++r) {
      total += 1.0 / static_cast<double>(r + 1);  // Zipf, exponent 1
      w.zipf_cdf_[r] = total;
    }
    for (double& c : w.zipf_cdf_) c /= total;
    w.order_ = seeded_permutation(w.corpus_, seed ^ 0x5A17F00Dull);
  } else if (name == "server-coldkeys") {
    w.corpus_ = 1'000'000;
    w.kind_ = Kind::kColdKeys;
    w.keys_ = std::make_shared<workload::UuidKeys>(seed);
    w.order_ = seeded_permutation(w.corpus_, seed ^ 0xC01DC0DEull);
  } else {
    return Error("unknown workload '" + std::string(name) +
                 "' (stack-uniform, server-hotkey, server-coldkeys)");
  }
  return w;
}

db::RuleRow Workload::rule(std::uint64_t index) const {
  if (kind_ == Kind::kUniform) {
    return {.key = key(index),
            .refill_per_sec = kUnboundRate,
            .capacity = kUnboundCapacity,
            .credit = kUnboundCapacity};
  }
  if (kind_ == Kind::kHotKey && index == corpus_) {
    return {.key = key(index),
            .refill_per_sec = kHotRate,
            .capacity = kHotCapacity,
            .credit = kHotCapacity};
  }
  return workload::make_rule(*keys_, index, rules_);
}

Status Workload::write_rules(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return Error("cannot write " + path);
  std::string buf;
  buf.reserve(1 << 20);
  auto put = [&](const db::RuleRow& r) {
    buf += r.key;
    buf += " = ";
    append_number(buf, r.refill_per_sec);
    buf += ' ';
    append_number(buf, r.capacity);
    buf += ' ';
    append_number(buf, r.credit);
    buf += '\n';
    if (buf.size() > (1 << 20) - 256) {
      std::fwrite(buf.data(), 1, buf.size(), f);
      buf.clear();
    }
  };
  put({.key = std::string(kProbeKey),
       .refill_per_sec = kUnboundRate,
       .capacity = kUnboundCapacity,
       .credit = kUnboundCapacity});
  for (std::uint64_t i = 0; i < key_count(); ++i) put(rule(i));
  std::fwrite(buf.data(), 1, buf.size(), f);
  const bool ok = std::fflush(f) == 0 && !std::ferror(f);
  std::fclose(f);
  if (!ok) return Error("short write to " + path);
  return Status::success();
}

std::uint64_t Workload::zipf_rank(Rng& rng) const {
  const double u = rng.uniform();
  auto it = std::upper_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u);
  if (it == zipf_cdf_.end()) --it;
  return static_cast<std::uint64_t>(it - zipf_cdf_.begin());
}

Workload::Stream::Stream(const Workload& w, unsigned caller, unsigned callers)
    : w_(w), rng_(w.seed_ ^ (0x9E3779B97F4A7C15ull * (caller + 1))) {
  if (w.kind_ == Kind::kColdKeys) {
    slice_begin_ = w.corpus_ * caller / callers;
    slice_end_ = w.corpus_ * (caller + 1) / callers;
    cursor_ = slice_begin_;
  }
}

std::uint64_t Workload::Stream::next() {
  if (w_.kind_ == Kind::kColdKeys) {
    if (!sent_.empty() && rng_.chance(kColdRetouchShare)) {
      return sent_[rng_.next_below(sent_.size())];
    }
    if (cursor_ == slice_end_) cursor_ = slice_begin_;
    const std::uint64_t index = w_.order_[cursor_++];
    sent_.push_back(index);
    return index;
  }
  if (w_.kind_ == Kind::kHotKey) {
    if (rng_.chance(kHotShare)) return w_.corpus_;
    return w_.order_[w_.zipf_rank(rng_)];
  }
  return rng_.next_below(w_.corpus_);
}

}  // namespace janus::perfbench
