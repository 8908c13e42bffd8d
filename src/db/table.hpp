// The qos_rules table (paper §III-D): "four columns — the QoS key, the refill
// rate, the capacity of the leaky bucket, and the remaining credit in the
// bucket", keyed by the QoS key. Thread-safe: a shared_mutex allows
// concurrent point reads (the QoS servers' first-touch lookups) while writes
// (rule loads, check-points) take the exclusive lock. Matches the paper's
// observation that the DB sees only a light workload (§V intro).
//
// Each rule lives in its node of the key index (common/hash_index.hpp, the
// index the QoS table shares), one heap block per rule: the node header,
// the refill rate, the capacity and the credit, then the key's bytes, so the
// key is stored once. Rules are written pre-hashed (PackedRow) and read
// where they lie (RuleView): no call builds a row (DESIGN.md §15.2, §15.3).
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>

#include "common/hash_index.hpp"
#include "common/sync.hpp"
#include "common/transparent_hash.hpp"

namespace janus::db {

/// A rule whose key is viewed, not owned: what the table hands its readers,
/// what RuleStore validates, and what the rules loader parses out of its
/// read block.
struct RuleView {
  std::string_view key;
  double refill_per_sec = 0.0;
  double capacity = 0.0;
  double credit = 0.0;
};

/// One row of qos_rules. Rates/credits are doubles, like the paper's
/// requests-per-second quotas; credit is the last check-pointed water level.
struct RuleRow {
  std::string key;
  double refill_per_sec = 0.0;
  double capacity = 0.0;
  double credit = 0.0;

  bool operator==(const RuleRow&) const = default;

  RuleView view() const { return {key, refill_per_sec, capacity, credit}; }
};

/// A rule in the form a table writes it: the rule and its key's hash,
/// computed once here (TransparentStringHash::hash_bytes). It views the key,
/// which must outlive the write it is handed to.
struct PackedRow {
  explicit PackedRow(const RuleView& r)
      : rule(r), hash(TransparentStringHash::hash_bytes(r.key)) {}

  RuleView rule;
  std::uint64_t hash;
};

/// A check-point's new credit for one key.
struct CreditWrite {
  std::string_view key;
  double credit = 0.0;
};

/// Sees each rule a write stored, in order, while the table's lock is still
/// held (the database frames its log records there).
using RuleVisitor = std::function<void(const RuleView&)>;

class Table {
 public:
  Table();

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  /// Insert or overwrite each rule by key, in order, under one exclusive
  /// lock, hashing no key. `written` sees each stored rule.
  void put(std::span<const PackedRow> rules, const RuleVisitor& written);

  /// Point lookup that reads the rule where it lies: `fn(rule)` runs under
  /// the shared lock and must not call back into the table. Returns false
  /// if the key is absent.
  template <typename Fn>
  bool read(std::string_view key, Fn&& fn) const {
    ReaderLock lock(mu_);
    const HashNode* node = find_locked(key);
    if (!node) return false;
    fn(view(*node));
    return true;
  }

  /// Set the credit of each rule named in `writes`, in place and in order,
  /// under one exclusive lock. A key with no rule is skipped, and so is a
  /// rule whose stored credit has the write's bit pattern: a check-point
  /// that changes nothing writes nothing. `written` sees each rule written.
  /// Returns the number of rules written.
  std::size_t write_credits(std::span<const CreditWrite> writes,
                            const RuleVisitor& written);

  /// Delete by key; returns false if the rule did not exist.
  bool remove(std::string_view key);

  /// Full scan ("SELECT * FROM qos_rules"); visits rules in unspecified
  /// order, each where it lies. The callback must not call back into the
  /// table.
  void scan(const RuleVisitor& fn) const;

  std::size_t size() const;

  /// Size the index for `rules` rules, so that loading that many rehashes
  /// nothing. Never shrinks it.
  void reserve(std::size_t rules);

  /// Hash buckets in the index (a power of two, 0 before the first rule).
  std::size_t bucket_count() const;

  /// Exchange every rule with `other` (a snapshot restore fills a fresh
  /// table, then swaps it in whole).
  void swap(Table& other);

 private:
  HashNode* find_locked(std::string_view key) const
      JANUS_REQUIRES_SHARED(mu_);
  static RuleView view(const HashNode& node);

  mutable SharedMutex mu_{LockRank::kDbTable, "db.table"};
  HashIndex index_ JANUS_GUARDED_BY(mu_);
};

}  // namespace janus::db
