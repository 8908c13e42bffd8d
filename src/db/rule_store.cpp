#include "db/rule_store.hpp"

#include <cmath>
#include <string>
#include <vector>

namespace janus::db {

namespace {

RuleRow to_row(const RuleView& rule) {
  return RuleRow{
      .key = std::string(rule.key),
      .refill_per_sec = rule.refill_per_sec,
      .capacity = rule.capacity,
      .credit = rule.credit,
  };
}

}  // namespace

Status RuleStore::validate(const RuleView& rule) {
  if (rule.key.empty()) return Error("rule: empty key");
  // NaN passes every ordered comparison below, so finiteness comes first.
  if (!std::isfinite(rule.refill_per_sec) || !std::isfinite(rule.capacity) ||
      !std::isfinite(rule.credit)) {
    return Error("rule: refill rate, capacity and credit must be finite");
  }
  if (rule.capacity < 0 || rule.refill_per_sec < 0) {
    return Error("rule: negative capacity or refill rate");
  }
  if (rule.credit < 0 || rule.credit > rule.capacity) {
    return Error("rule: credit outside [0, capacity]");
  }
  return Status::success();
}

std::optional<RuleRow> RuleStore::get(std::string_view key) const {
  std::optional<RuleRow> out;
  db_.table().read(key, [&](const RuleView& rule) { out = to_row(rule); });
  return out;
}

Status RuleStore::put(const RuleRow& rule) {
  if (auto s = validate(rule.view()); !s.ok()) return s;
  const PackedRow row(rule.view());
  return db_.put(std::span(&row, 1));
}

Status RuleStore::put_many(std::span<const RuleRow> rules) {
  for (const RuleRow& rule : rules) {
    if (auto s = validate(rule.view()); !s.ok()) return s;
  }
  std::vector<PackedRow> rows;
  rows.reserve(rules.size());
  for (const RuleRow& rule : rules) rows.emplace_back(rule.view());
  return db_.put(rows);
}

Status RuleStore::checkpoint_credit(std::string_view key, double credit) {
  if (!db_.table().read(key, [](const RuleView&) {})) {
    return Error("update: no row with key '" + std::string(key) + "'");
  }
  const CreditWrite write{key, credit};
  auto written = db_.write_credits(std::span(&write, 1));
  if (!written.ok()) return Error(written.error().message);
  return Status::success();
}

Result<std::size_t> RuleStore::checkpoint_credits(
    std::span<const CreditWrite> writes) {
  return db_.write_credits(writes);
}

bool RuleStore::remove(std::string_view key) {
  if (!db_.table().read(key, [](const RuleView&) {})) return false;
  return db_.remove(key).ok();
}

void RuleStore::scan(const std::function<void(const RuleRow&)>& fn) const {
  db_.table().scan([&](const RuleView& rule) { fn(to_row(rule)); });
}

}  // namespace janus::db
