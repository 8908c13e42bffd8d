// The local QoS table: a synchronized hash map from QoS key to leaky bucket
// (paper §III-C). The paper guards the whole map with one lock and reports
// the resulting CPU underutilization as future work; we implement the table
// *sharded* so that configuring shards=1 reproduces the paper's behaviour
// and shards>1 quantifies the fix (ablation bench A2).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/hash_index.hpp"
#include "common/hot_path.hpp"
#include "common/hotkey_sketch.hpp"
#include "common/sync.hpp"
#include "common/transparent_hash.hpp"
#include "core/leaky_bucket.hpp"

namespace janus::core {

/// One key's bucket and the rule it was provisioned with. In a table, an
/// entry is the fixed part of its key's node, one heap block: the index's
/// 16-byte header (chain link, the key's hash, its length and the default
/// flag), then the bucket, which holds the rule's exact capacity and rate
/// (40 B), then the key's bytes. Only creation reads a rule's starting
/// credit, so it is not kept. A copy (make(), snapshot()) carries the
/// bucket and the flag, never the header.
class QosEntry : private HashNode {
 public:
  LeakyBucket bucket;

  /// A bucket for (capacity, refill_per_sec) holding `credit` at `now`.
  static QosEntry make(double capacity, double refill_per_sec, double credit,
                       TimePoint now, bool is_default) {
    return QosEntry(LeakyBucket(capacity, refill_per_sec, credit, now),
                    is_default);
  }

  // Assigning to a stored entry leaves its place in the table alone.
  QosEntry(const QosEntry& other) : HashNode(), bucket(other.bucket) {
    flag = other.flag;
  }
  QosEntry& operator=(const QosEntry& other) {
    bucket = other.bucket;
    flag = other.flag;
    return *this;
  }

  /// The rule's exact capacity and rate: the bucket rounds its capacity to
  /// whole millicredits where it uses it, so sync compares the database's
  /// rule against these, not against the rounded bucket.
  double capacity() const { return bucket.exact_capacity(); }
  double refill_per_sec() const { return bucket.refill_per_sec(); }

  /// True when the rule came from the default policy (unknown key); such
  /// entries are refreshed if the key later appears in the database.
  bool is_default() const { return flag != 0; }
  void set_default(bool is_default) { flag = is_default ? 1 : 0; }

 private:
  friend class ShardedQosTable;

  QosEntry(const LeakyBucket& b, bool is_default) : HashNode(), bucket(b) {
    set_default(is_default);
  }
};
// The fixed part of a node: with a key of up to 16 bytes, a node asks
// malloc for at most 72 bytes, one 80-byte chunk (DESIGN.md §15.3).
static_assert(sizeof(QosEntry) <= 56, "a QoS node's fixed part is 56 bytes");
static_assert(std::is_trivially_destructible_v<QosEntry>,
              "the index frees a node without destroying it");

class ShardedQosTable {
 public:
  explicit ShardedQosTable(std::size_t shard_count = 16);

  std::size_t shard_count() const { return shards_.size(); }

  /// Run `fn` on the entry for `key` under its shard lock; returns nullopt
  /// if the key is absent. The key is hashed exactly once: the hash picks
  /// the shard AND probes the shard's index (find_prehashed), which
  /// compares stored hashes and the key's bytes — no std::string is ever
  /// constructed.
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
    HashNode* node = shard.entries.find_prehashed(hash, key);
    if (!node) return std::nullopt;
    return fn(entry_of(*node), shard.hot_keys);
  }

  /// Get the entry, creating it via `factory` if absent, then run `fn` on it
  /// under the shard lock. `factory` runs under the lock too (first-touch
  /// creation must be atomic with the decision that follows it). The node,
  /// the entry with its key's bytes, is allocated exactly once, and only on
  /// first touch (tests/perf/test_hotpath_allocs.cpp guards the warm path at
  /// zero allocations).
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
    HashNode* node = shard.entries.find_prehashed(hash, key);
    if (!node) {
      // purity-ok: first touch only — the entry and its key, one block
      node = insert_locked(shard, hash, key, factory());
    }
    return fn(entry_of(*node), shard.hot_keys);
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
  void for_each(const std::function<void(std::string_view, QosEntry&)>& fn);

  /// Visit the entries of shard `index` under its lock, which is released
  /// on return. The sync and check-point passes walk the table this way, one
  /// shard at a time, so what they copy out is one shard's worth.
  void for_each_in_shard(
      std::size_t index,
      const std::function<void(std::string_view, QosEntry&)>& fn);

  /// Snapshot of all (key, entry) pairs — the HA replication payload.
  std::vector<std::pair<std::string, QosEntry>> snapshot() const;

  /// Replace the whole table from a snapshot (slave catching up).
  void restore(std::vector<std::pair<std::string, QosEntry>> entries);

 private:
  struct Shard {
    // Leaf rank: shard locks are never held pairwise (for_each/size/clear
    // visit shards one at a time), so same-rank acquisition stays legal.
    mutable Mutex mu{LockRank::kQosShard, "core.qos_shard"};
    // Nodes are QosEntry objects followed by their key's bytes.
    HashIndex entries JANUS_GUARDED_BY(mu){sizeof(QosEntry)};
    // Written only under mu (one writer at a time); internally seqlocked so
    // readers (hot_keys) need no lock.
    HotKeySketch hot_keys;
  };

  static QosEntry& entry_of(HashNode& node) {
    return static_cast<QosEntry&>(node);
  }

  /// A node for `key` (absent from `shard`) holding a copy of `entry`.
  static HashNode* insert_locked(Shard& shard, std::size_t hash,
                                 std::string_view key, const QosEntry& entry)
      JANUS_REQUIRES(shard.mu) {
    return shard.entries.insert(hash, key, [&](void* memory) -> HashNode* {
      // purity-ok: placement new into the block the index allocated
      return new (memory) QosEntry(entry);
    });
  }

  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace janus::core
