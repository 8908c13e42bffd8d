// The three benchmark workloads: the rules every janusd receives and the key
// stream every caller sends. Both are functions of (workload, seed) alone, so
// `gen`, `drive` and `ladder` rebuild identical inputs in separate processes.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.hpp"
#include "common/rng.hpp"
#include "db/rule_store.hpp"
#include "workload/key_generator.hpp"
#include "workload/rule_corpus.hpp"

namespace janus::perfbench {

/// Where the callers enter the stack.
enum class Entry {
  kHttp,  // net::HttpClient::get against the gateway
  kUdp,   // router::UdpQosClient::call against the QoS server
};

/// Kept out of every stream and provisioned with a quota that never binds:
/// set-up probes use it, so they never touch a checked key.
inline constexpr std::string_view kProbeKey = "perfbench-probe";

class Workload {
 public:
  static Result<Workload> make(std::string_view name, std::uint64_t seed);

  const std::string& name() const { return name_; }
  Entry entry() const {
    return kind_ == Kind::kUniform ? Entry::kHttp : Entry::kUdp;
  }
  std::uint64_t seed() const { return seed_; }

  /// Keys are indices 0..key_count()-1: the provisioned corpus, then the hot
  /// key when the workload has one.
  std::uint64_t key_count() const {
    return corpus_ + (kind_ == Kind::kHotKey ? 1 : 0);
  }
  std::string key(std::uint64_t index) const { return keys_->key(index); }
  db::RuleRow rule(std::uint64_t index) const;

  /// Warm-up sends every corpus key once before the measured window, so the
  /// window sees only warm keys. Cold-key workloads warm up on the stream.
  bool warm_whole_corpus() const { return kind_ != Kind::kColdKeys; }

  /// True when no rule can bind, so every verdict must be TRUE.
  bool quota_never_binds() const { return kind_ == Kind::kUniform; }

  /// `key = rate capacity credit` lines for janusd, probe key included.
  Status write_rules(const std::string& path) const;

  /// One caller's deterministic key stream. Callers draw disjoint fresh keys
  /// on the cold-key workload; elsewhere they share the key space.
  class Stream {
   public:
    std::uint64_t next();

   private:
    friend class Workload;
    Stream(const Workload& w, unsigned caller, unsigned callers);
    const Workload& w_;
    Rng rng_;
    std::uint64_t slice_begin_ = 0;
    std::uint64_t slice_end_ = 0;
    std::uint64_t cursor_ = 0;
    std::vector<std::uint64_t> sent_;  // cold-key re-touch history
  };
  Stream stream(unsigned caller, unsigned callers) const {
    return Stream(*this, caller, callers);
  }

 private:
  enum class Kind { kUniform, kHotKey, kColdKeys };

  Workload() = default;
  std::uint64_t zipf_rank(Rng& rng) const;

  std::string name_;
  Kind kind_ = Kind::kUniform;
  std::uint64_t seed_ = 0;
  std::uint64_t corpus_ = 0;
  std::shared_ptr<const workload::KeyGenerator> keys_;
  workload::RuleCorpusConfig rules_;
  std::vector<double> zipf_cdf_;      // hot-key workload: rank CDF
  std::vector<std::uint32_t> order_;  // seeded permutation of the corpus
};

}  // namespace janus::perfbench
