// The qos_rules table (paper §III-D): "four columns — the QoS key, the refill
// rate, the capacity of the leaky bucket, and the remaining credit in the
// bucket", keyed by the QoS key. RuleStore is the typed facade the QoS
// servers use for first-touch lookup, periodic sync, and check-pointing.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.hpp"
#include "db/database.hpp"

namespace janus::db {

/// A rule whose key is viewed, not owned: what RuleStore validates and
/// packs, and what the rules loader parses out of its read block.
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

/// A rule's qos_rules cells, in column order: the bits of its refill rate,
/// capacity and credit (cell_bits).
using RuleCells = std::array<std::uint64_t, 3>;

class RuleStore {
 public:
  static constexpr const char* kTableName = "qos_rules";

  /// Creates the qos_rules table in `db` if it does not exist yet.
  explicit RuleStore(Database& db);

  static Schema schema();

  /// The checks put, put_many and the rules loader apply to a rule before
  /// storing it.
  static Status validate(const RuleView& rule);

  /// The cells of `rule`'s row (PackedRow holds them with its key).
  static RuleCells cells(const RuleView& rule);

  /// SELECT * FROM qos_rules WHERE key = ? (first-touch lookup).
  std::optional<RuleRow> get(std::string_view key) const;

  /// INSERT ... ON DUPLICATE KEY UPDATE (rule provisioning).
  Status put(const RuleRow& rule);

  /// put() for every rule, committed in the database's bounded chunks.
  /// Fails before writing anything if a rule does not validate.
  Status put_many(std::span<const RuleRow> rules);

  /// UPDATE qos_rules SET credit = ? WHERE key = ? (check-pointing).
  Status checkpoint_credit(std::string_view key, double credit);

  /// checkpoint_credit() for every (key, credit) in `writes`, written in
  /// place in the database's bounded chunks; keys with no row are skipped.
  /// Returns the rows written.
  Result<std::size_t> checkpoint_credits(std::span<const CellWrite> writes);

  /// DELETE FROM qos_rules WHERE key = ?.
  bool remove(std::string_view key);

  /// Size the table for `rules` rules before loading them, so that the load
  /// never rehashes it (Table::reserve).
  void reserve(std::size_t rules);

  /// SELECT * FROM qos_rules (warm-up load, §III-D).
  void scan(const std::function<void(const RuleRow&)>& fn) const;

  std::size_t size() const;

  Database& database() { return db_; }

 private:
  static RuleRow from_row(const RowView& row);

  Database& db_;
  // Resolved once: tables are never dropped, so reads go straight to the
  // table's own lock and never take the database's commit lock.
  const Table& table_;
};

}  // namespace janus::db
