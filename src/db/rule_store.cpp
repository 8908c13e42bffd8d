#include "db/rule_store.hpp"

#include <bit>
#include <cmath>

namespace janus::db {

namespace {

const Table& qos_rules_of(Database& db) {
  if (!db.has_table(RuleStore::kTableName)) {
    // Creation cannot fail here: we just checked absence and hold no lock
    // races on setup paths (RuleStore construction is a setup-time act).
    (void)db.create_table(RuleStore::kTableName, RuleStore::schema());
  }
  return db.table(RuleStore::kTableName);
}

}  // namespace

RuleStore::RuleStore(Database& db) : db_(db), table_(qos_rules_of(db)) {}

Schema RuleStore::schema() {
  return Schema{{
      {"key", ColumnType::kString},
      {"refill_per_sec", ColumnType::kDouble},
      {"capacity", ColumnType::kDouble},
      {"credit", ColumnType::kDouble},
  }};
}

RuleRow RuleStore::from_row(const RowView& row) {
  return RuleRow{
      .key = std::string(row.key()),
      .refill_per_sec = row.real(1),
      .capacity = row.real(2),
      .credit = row.real(3),
  };
}

RuleCells RuleStore::cells(const RuleView& rule) {
  return {std::bit_cast<std::uint64_t>(rule.refill_per_sec),
          std::bit_cast<std::uint64_t>(rule.capacity),
          std::bit_cast<std::uint64_t>(rule.credit)};
}

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
  table_.read(key, [&](const RowView& row) { out = from_row(row); });
  return out;
}

Status RuleStore::put(const RuleRow& rule) {
  if (auto s = validate(rule.view()); !s.ok()) return s;
  const RuleCells row_cells = cells(rule.view());
  const PackedRow row(rule.key, row_cells);
  return db_.upsert_many(kTableName, std::span(&row, 1));
}

Status RuleStore::put_many(std::span<const RuleRow> rules) {
  for (const RuleRow& rule : rules) {
    if (auto s = validate(rule.view()); !s.ok()) return s;
  }
  std::vector<RuleCells> row_cells(rules.size());
  std::vector<PackedRow> rows;
  rows.reserve(rules.size());
  for (std::size_t i = 0; i < rules.size(); ++i) {
    row_cells[i] = cells(rules[i].view());
    rows.emplace_back(rules[i].key, row_cells[i]);
  }
  return db_.upsert_many(kTableName, rows);
}

Status RuleStore::checkpoint_credit(std::string_view key, double credit) {
  return db_.update_column(kTableName, key, "credit", credit);
}

Result<std::size_t> RuleStore::checkpoint_credits(
    std::span<const CellWrite> writes) {
  return db_.update_column_many(kTableName, "credit", writes);
}

bool RuleStore::remove(std::string_view key) {
  if (!table_.read(key, [](const RowView&) {})) return false;
  return db_.remove(kTableName, key).ok();
}

void RuleStore::reserve(std::size_t rules) {
  (void)db_.reserve(kTableName, rules);  // cannot fail: the table exists
}

void RuleStore::scan(const std::function<void(const RuleRow&)>& fn) const {
  table_.scan([&](const RowView& row) { fn(from_row(row)); });
}

std::size_t RuleStore::size() const { return table_.size(); }

}  // namespace janus::db
