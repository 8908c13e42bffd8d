// The qos_rules table (paper §III-D): "four columns — the QoS key, the refill
// rate, the capacity of the leaky bucket, and the remaining credit in the
// bucket", keyed by the QoS key. RuleStore is the typed facade the QoS
// servers use for first-touch lookup, periodic sync, and check-pointing: it
// validates rules and converts them to and from RuleRow.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string_view>

#include "common/result.hpp"
#include "db/database.hpp"

namespace janus::db {

class RuleStore {
 public:
  /// The store of `db`'s rules; several stores may share one database.
  explicit RuleStore(Database& db) : db_(db) {}

  /// The checks put, put_many and the rules loader apply to a rule before
  /// storing it.
  static Status validate(const RuleView& rule);

  /// SELECT * FROM qos_rules WHERE key = ? (first-touch lookup).
  std::optional<RuleRow> get(std::string_view key) const;

  /// INSERT ... ON DUPLICATE KEY UPDATE (rule provisioning).
  Status put(const RuleRow& rule);

  /// put() for every rule, committed in the database's bounded chunks.
  /// Fails before writing anything if a rule does not validate.
  Status put_many(std::span<const RuleRow> rules);

  /// UPDATE qos_rules SET credit = ? WHERE key = ? (check-pointing). Fails
  /// if the key has no rule; an unchanged credit writes nothing.
  Status checkpoint_credit(std::string_view key, double credit);

  /// checkpoint_credit() for every (key, credit) in `writes`, written in
  /// place in the database's bounded chunks; keys with no rule, and rules
  /// whose credit is unchanged, are skipped. Returns the rules written.
  Result<std::size_t> checkpoint_credits(std::span<const CreditWrite> writes);

  /// DELETE FROM qos_rules WHERE key = ?.
  bool remove(std::string_view key);

  /// Size the table for `rules` rules before loading them, so that the load
  /// never rehashes it (Table::reserve).
  void reserve(std::size_t rules) { db_.reserve(rules); }

  /// SELECT * FROM qos_rules (warm-up load, §III-D).
  void scan(const std::function<void(const RuleRow&)>& fn) const;

  std::size_t size() const { return db_.table().size(); }

  Database& database() { return db_; }

 private:
  Database& db_;
};

}  // namespace janus::db
