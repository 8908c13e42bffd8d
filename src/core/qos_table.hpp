// The local QoS table: a synchronized hash map from QoS key to leaky bucket
// (paper §III-C). The paper guards the whole map with one lock and reports
// the resulting CPU underutilization as future work; we implement the table
// *sharded* so that configuring shards=1 reproduces the paper's behaviour
// and shards>1 quantifies the fix (ablation bench A2).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/crc32.hpp"
#include "common/hot_path.hpp"
#include "common/hotkey_sketch.hpp"
#include "common/sync.hpp"
#include "common/transparent_hash.hpp"
#include "core/leaky_bucket.hpp"

namespace janus::core {

/// One key's bucket and the rule it was provisioned with, as stored in the
/// table. The table's map already owns the key, and only creation reads a
/// rule's starting credit, so neither is kept here.
struct QosEntry {
  LeakyBucket bucket;
  /// The rule's exact capacity and rate: the bucket keeps its capacity in
  /// whole millicredits, so sync compares the database's rule against
  /// these, not against the rounded bucket.
  double capacity = 0.0;
  double refill_per_sec = 0.0;
  /// True when the rule came from the default policy (unknown key); such
  /// entries are refreshed if the key later appears in the database.
  bool is_default = false;

  /// A bucket for (capacity, refill_per_sec) holding `credit` at `now`.
  static QosEntry make(double capacity, double refill_per_sec, double credit,
                       TimePoint now, bool is_default) {
    return QosEntry{
        .bucket = LeakyBucket(capacity, refill_per_sec, credit, now),
        .capacity = capacity,
        .refill_per_sec = refill_per_sec,
        .is_default = is_default,
    };
  }
};

class ShardedQosTable {
 public:
  explicit ShardedQosTable(std::size_t shard_count = 16);

  std::size_t shard_count() const { return shards_.size(); }

  /// Run `fn` on the entry for `key` under its shard lock; returns nullopt
  /// if the key is absent. The key is hashed exactly once: the CRC-derived
  /// hash picks the shard AND probes the map (PrehashedKey), and the probe
  /// itself is heterogeneous — no std::string is ever constructed.
  template <typename Fn>
  auto with_entry(std::string_view key, Fn&& fn)
      -> std::optional<decltype(fn(std::declval<QosEntry&>()))> {
    return with_entry_prehashed(
        key, TransparentStringHash::hash_bytes(key),
        [&](QosEntry& entry, HotKeySketch&) { return fn(entry); });
  }

  /// with_entry() with a caller-supplied hash, for the admission path:
  /// `fn(entry, sketch)` also gets the shard's hot-key sketch, so a sampled
  /// decision is counted inside its own critical section.
  template <typename Fn>
  JANUS_HOT_PATH_LOCKS auto with_entry_prehashed(std::string_view key,
                                                 std::size_t hash, Fn&& fn)
      -> std::optional<decltype(fn(std::declval<QosEntry&>(),
                                   std::declval<HotKeySketch&>()))> {
    Shard& shard = *shards_[shard_index_of(hash)];
    MutexLock lock(shard.mu);
    auto it = shard.entries.find(PrehashedKey{key, hash});
    if (it == shard.entries.end()) return std::nullopt;
    return fn(it->second, shard.hot_keys);
  }

  /// Get the entry, creating it via `factory` if absent, then run `fn` on it
  /// under the shard lock. `factory` runs under the lock too (first-touch
  /// creation must be atomic with the decision that follows it). The owning
  /// std::string key is constructed exactly once, and only on first touch
  /// (tests/perf/test_hotpath_allocs.cpp guards the warm path at zero
  /// allocations).
  template <typename Fn, typename Factory>
  auto with_entry_or_create(std::string_view key, Factory&& factory, Fn&& fn)
      -> decltype(fn(std::declval<QosEntry&>())) {
    return with_entry_or_create_prehashed(
        key, TransparentStringHash::hash_bytes(key),
        std::forward<Factory>(factory),
        [&](QosEntry& entry, HotKeySketch&) { return fn(entry); });
  }

  /// with_entry_or_create() with a caller-supplied hash; `fn` gets the
  /// shard's hot-key sketch as in with_entry_prehashed().
  template <typename Fn, typename Factory>
  JANUS_HOT_PATH_LOCKS auto with_entry_or_create_prehashed(
      std::string_view key, std::size_t hash, Factory&& factory, Fn&& fn)
      -> decltype(fn(std::declval<QosEntry&>(),
                     std::declval<HotKeySketch&>())) {
    Shard& shard = *shards_[shard_index_of(hash)];
    MutexLock lock(shard.mu);
    auto it = shard.entries.find(PrehashedKey{key, hash});
    if (it == shard.entries.end()) {
      // purity-ok: first touch only — owning key string built exactly once
      it = shard.entries.emplace(std::string(key), factory()).first;
    }
    return fn(it->second, shard.hot_keys);
  }

  // ---- hot-key top-k telemetry ---------------------------------------------
  //
  // Each shard carries a HotKeySketch fed from the admission path with
  // pre-weighted (sampled) decision counts. The sketch is internally
  // seqlocked per slot: its writers hold the shard mutex (the decision's own
  // critical section, see with_entry_prehashed) while hot_keys() readers
  // stay lock-free.

  /// Merge every shard's sketch and return the top `k` keys by decision
  /// count (or by rejection count). Lock-free: reads only the per-slot
  /// seqlocks, so it is safe from any thread.
  std::vector<HotKeyCount> hot_keys(bool by_rejects = false,
                                    std::size_t k = 16) const;

  /// Shard choice from the upper half of the SplitMix64-finalized CRC: a
  /// different mixing than the router's plain `crc % N`, so shard choice
  /// stays independent of server choice (otherwise one server's table would
  /// collapse into a single shard) — while the whole decision still pays
  /// for exactly one CRC pass over the key.
  JANUS_HOT_PATH std::size_t shard_index_of(std::size_t hash) const {
    return (hash >> (sizeof(std::size_t) * 4)) % shards_.size();
  }

  bool contains(std::string_view key) const;
  bool erase(std::string_view key);
  std::size_t size() const;
  void clear();

  /// Visit every entry (each under its shard lock). Used by the refill
  /// house-keeping thread and migration.
  void for_each(const std::function<void(const std::string&, QosEntry&)>& fn);

  /// Visit the entries of shard `index` under its lock, which is released
  /// on return. The sync and check-point passes walk the table this way, one
  /// shard at a time, so what they copy out is one shard's worth.
  void for_each_in_shard(
      std::size_t index,
      const std::function<void(const std::string&, QosEntry&)>& fn);

  /// Snapshot of all (key, entry) pairs — the HA replication payload.
  std::vector<std::pair<std::string, QosEntry>> snapshot() const;

  /// Replace the whole table from a snapshot (slave catching up).
  void restore(std::vector<std::pair<std::string, QosEntry>> entries);

 private:
  struct Shard {
    // Leaf rank: shard locks are never held pairwise (for_each/size/clear
    // visit shards one at a time), so same-rank acquisition stays legal.
    mutable Mutex mu{LockRank::kQosShard, "core.qos_shard"};
    std::unordered_map<std::string, QosEntry, TransparentStringHash,
                       TransparentStringEq>
        entries JANUS_GUARDED_BY(mu);
    // Written only under mu (one writer at a time); internally seqlocked so
    // readers (hot_keys) need no lock.
    HotKeySketch hot_keys;
  };

  Shard& shard_for(std::string_view key) {
    return *shards_[shard_index(key)];
  }
  const Shard& shard_for(std::string_view key) const {
    return *shards_[shard_index(key)];
  }
  std::size_t shard_index(std::string_view key) const {
    return shard_index_of(TransparentStringHash::hash_bytes(key));
  }

  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace janus::core
