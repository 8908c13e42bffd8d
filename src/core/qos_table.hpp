// The local QoS table: a synchronized hash map from QoS key to leaky bucket
// (paper §III-C). The paper guards the whole map with one lock and reports
// the resulting CPU underutilization as future work; we implement the table
// *sharded* so that configuring shards=1 reproduces the paper's behaviour
// and shards>1 quantifies the fix (ablation bench A2).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <optional>
#include <span>
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
/// 16-byte header (chain link, the key's hash, its length and the entry's
/// three state bits), then the bucket, which holds the rule's exact
/// capacity and rate (40 B), then the key's bytes. Only creation reads a
/// rule's starting credit, so it is not kept. A copy (make(), snapshot())
/// carries the bucket and the state bits, never the rest of the header.
///
/// An entry is *provisioned* while it holds a loaded rule that no decision
/// has touched: its bucket holds the loaded credit and its refill clock
/// has not started. The first decision makes it *live* (go_live). Every
/// entry make() builds is live.
class QosEntry : private HashNode {
 public:
  LeakyBucket bucket;

  /// A live bucket for (capacity, refill_per_sec) holding `credit` at `now`.
  static QosEntry make(double capacity, double refill_per_sec, double credit,
                       TimePoint now, bool is_default) {
    return QosEntry(LeakyBucket(capacity, refill_per_sec, credit, now),
                    (is_default ? kDefault : 0) | kCreditChanged);
  }

  /// A provisioned entry: a loaded rule holding `credit`.
  static QosEntry provision(double capacity, double refill_per_sec,
                            double credit, TimePoint now) {
    return QosEntry(LeakyBucket(capacity, refill_per_sec, credit, now),
                    kProvisioned);
  }

  // Assigning to a stored entry leaves its place in the table alone.
  QosEntry(const QosEntry& other) : HashNode(), bucket(other.bucket) {
    flags = other.flags;
  }
  QosEntry& operator=(const QosEntry& other) {
    bucket = other.bucket;
    flags = other.flags;
    return *this;
  }

  /// The rule's exact capacity and rate: the bucket rounds its capacity to
  /// whole millicredits where it uses it, so sync compares the database's
  /// rule against these, not against the rounded bucket.
  double capacity() const { return bucket.exact_capacity(); }
  double refill_per_sec() const { return bucket.refill_per_sec(); }

  /// True when the rule came from the default policy (unknown key); such
  /// entries are refreshed if the key later appears in the database.
  bool is_default() const { return (flags & kDefault) != 0; }
  void set_default(bool is_default) { set(kDefault, is_default); }

  /// True while no decision has touched the entry's loaded rule.
  bool provisioned() const { return (flags & kProvisioned) != 0; }
  /// The first decision: the entry turns live, and its bucket refills from
  /// `now`, having gained nothing since it was loaded.
  JANUS_HOT_PATH void go_live(TimePoint now) {
    set(kProvisioned, false);
    bucket.restart_clock(now);
  }
  /// Turn a live entry back into a provisioned one, keeping its rule and
  /// its credit (a key that migrated out).
  void set_provisioned() { set(kProvisioned, true); }

  /// True when the bucket's credit may differ from the one the rules log
  /// last recorded for the key; the check-point writes such credits.
  bool credit_changed() const { return (flags & kCreditChanged) != 0; }
  JANUS_HOT_PATH void set_credit_changed(bool changed) {
    set(kCreditChanged, changed);
  }

 private:
  friend class ShardedQosTable;

  static constexpr std::uint32_t kDefault = 1;
  static constexpr std::uint32_t kProvisioned = 2;
  static constexpr std::uint32_t kCreditChanged = 4;

  QosEntry(const LeakyBucket& b, std::uint32_t state) : HashNode(), bucket(b) {
    flags = state;
  }
  JANUS_HOT_PATH void set(std::uint32_t bit, bool on) {
    flags = on ? (flags | bit) : (flags & ~bit);
  }
};
// The fixed part of a node: with a key of up to 16 bytes, a node asks
// malloc for at most 72 bytes, one 80-byte chunk (DESIGN.md §15.3).
static_assert(sizeof(QosEntry) <= 56, "a QoS node's fixed part is 56 bytes");
static_assert(std::is_trivially_destructible_v<QosEntry>,
              "the index frees a node without destroying it");

/// One rule of a rules-file chunk, as the loader hands it to the table
/// (ShardedQosTable::apply_rules). The key views the loader's read block.
struct LoadedRule {
  std::string_view key;
  std::uint64_t hash = 0;
  double refill_per_sec = 0.0;
  double capacity = 0.0;
  double credit = 0.0;
  /// Set by apply_rules when the rule changed the table; `credit` is then
  /// the credit the table stored.
  bool stored = false;
};

/// A batch of keys grouped by shard (ShardedQosTable::group_by_shard),
/// kept by a caller from batch to batch so that grouping allocates nothing.
struct ShardGroups {
  /// The batch's indices, shard by shard, each shard's in batch order.
  std::vector<std::uint32_t> order;
  /// Shard s's indices are order[runs[s] .. runs[s + 1]).
  std::vector<std::uint32_t> runs;
};

class ShardedQosTable {
 public:
  explicit ShardedQosTable(std::size_t shard_count = 16);

  std::size_t shard_count() const { return shards_.size(); }

  /// Run `fn` on the entry for `key`, live or provisioned, under its shard
  /// lock; returns nullopt if the key is absent. The key is hashed exactly once: the hash picks
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

  /// Get the entry, live or provisioned, creating it via `factory` if
  /// absent, then run `fn` on it under the shard lock. `factory` runs under the lock too (first-touch
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

  /// Group a batch of `count` keys by shard, `hash_of(i)` the hash of the
  /// i-th, so that a pass over the batch takes each shard's lock once: a
  /// stable counting sort on the shard index.
  template <typename HashOf>
  void group_by_shard(std::size_t count, HashOf&& hash_of,
                      ShardGroups& groups) const {
    const std::size_t shards = shards_.size();
    groups.runs.assign(shards + 1, 0);
    groups.order.resize(count);
    for (std::size_t i = 0; i < count; ++i) {
      ++groups.runs[shard_index_of(hash_of(i)) + 1];
    }
    for (std::size_t s = 1; s <= shards; ++s) {
      groups.runs[s] += groups.runs[s - 1];
    }
    // Each placement moves its shard's start one on, so that runs[s] ends
    // at shard s + 1's start; moving runs up a slot gives the starts back.
    for (std::size_t i = 0; i < count; ++i) {
      groups.order[groups.runs[shard_index_of(hash_of(i))]++] =
          static_cast<std::uint32_t>(i);
    }
    std::copy_backward(groups.runs.begin(), groups.runs.end() - 2,
                       groups.runs.end() - 1);
    groups.runs[0] = 0;
  }

  // Every call below but erase() and clear() sees live entries only: a
  // provisioned entry counts as absent until its first decision. The
  // with_entry calls above reach both states.

  bool contains(std::string_view key) const;
  /// Drop the key's entry, live or provisioned.
  bool erase(std::string_view key);
  /// Live entries.
  std::size_t size() const;
  void clear();

  /// Visit every live entry (each under its shard lock). Used by the refill
  /// house-keeping thread and migration.
  void for_each(const std::function<void(std::string_view, QosEntry&)>& fn);

  /// Visit the live entries of shard `index` under its lock, which is
  /// released on return. The sync and check-point passes walk the table
  /// this way, one shard at a time, so what they copy out is one shard's
  /// worth.
  void for_each_in_shard(
      std::size_t index,
      const std::function<void(std::string_view, QosEntry&)>& fn);

  /// Snapshot of the live (key, entry) pairs — the HA replication payload.
  std::vector<std::pair<std::string, QosEntry>> snapshot() const;

  /// Replace the live entries with `entries` (an HA replica catching up),
  /// one shard lock at a time: the shard's live entries are dropped, a
  /// rule's entry turning back to provisioned with its credit, and the
  /// shard's `entries` installed live. Provisioned rules stay.
  void restore(std::vector<std::pair<std::string, QosEntry>> entries);

  // ---- the rules the table holds (DESIGN.md §15.2) -------------------------

  /// Entries holding a rule (not the default policy), live or provisioned.
  std::size_t rule_count() const;
  /// Entries of either state.
  std::size_t node_count() const;
  /// The shards' index buckets, in all (what reserve() sized).
  std::size_t bucket_count() const;

  /// Visit the entries of shard `index` that hold a rule, live or
  /// provisioned, under its lock (compaction).
  void for_each_rule_in_shard(
      std::size_t index,
      const std::function<void(std::string_view, const QosEntry&)>& fn)
      const;

  /// Size every shard's index for `entries` entries spread over the
  /// shards, so that loading that many rehashes nothing.
  void reserve(std::size_t entries);

  /// Apply one chunk of the rules loader's rules, grouped by `groups`
  /// (group_by_shard), each shard's lock taken once and each shard's rules
  /// applied in file order. A key not held gets a provisioned entry with
  /// the rule's credit, and so does a held key without `merge`. With
  /// `merge` (the table held rules before the load), a key holding a rule
  /// keeps its credit, clamped to the new capacity, and takes the new rate
  /// and capacity, a rule that changes neither is left alone, and a
  /// default entry takes the rule and its credit (PR 25's rules for held
  /// keys).
  void apply_rules(std::span<LoadedRule> rules, const ShardGroups& groups,
                   bool merge, TimePoint now);

  /// Put the rule for `key` in a provisioned entry, replacing any entry
  /// (snapshot and WAL recovery).
  void provision(std::string_view key, double capacity,
                 double refill_per_sec, double credit, TimePoint now);

  /// A key leaving this table's care (migrated out): a default entry is
  /// dropped, a rule's entry turns back to provisioned, keeping its credit.
  /// False if the key has no entry.
  bool retire(std::string_view key);

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
  static const QosEntry& entry_of(const HashNode& node) {
    return static_cast<const QosEntry&>(node);
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
