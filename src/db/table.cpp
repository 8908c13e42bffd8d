#include "db/table.hpp"

#include <stdexcept>

namespace janus::db {

Table::Table(std::string name, Schema schema)
    : name_(std::move(name)), schema_(std::move(schema)) {
  if (schema_.columns.empty() ||
      schema_.columns[0].type != ColumnType::kString) {
    throw std::invalid_argument(
        "table " + name_ + ": column 0 must be a string primary key");
  }
}

Status Table::insert(Row row) {
  if (!schema_.matches(row)) return Error("insert: row does not match schema");
  WriterLock lock(mu_);
  auto [it, inserted] = rows_.try_emplace(pk_of(row), std::move(row));
  if (!inserted) return Error("insert: duplicate primary key '" + it->first + "'");
  return Status::success();
}

Status Table::upsert(Row row) {
  if (!schema_.matches(row)) return Error("upsert: row does not match schema");
  upsert_rows(std::span(&row, 1), [](const Row&) {});
  return Status::success();
}

std::optional<Row> Table::get(std::string_view pk) const {
  ReaderLock lock(mu_);
  auto it = rows_.find(pk);
  if (it == rows_.end()) return std::nullopt;
  return it->second;
}

void Table::upsert_rows(std::span<Row> rows, const RowVisitor& written) {
  WriterLock lock(mu_);
  for (Row& row : rows) {
    // try_emplace copies the key only when the row is new.
    auto it = rows_.try_emplace(std::get<std::string>(row[0])).first;
    it->second = std::move(row);
    written(it->second);
  }
}

std::size_t Table::update_cells(std::size_t col,
                                std::span<const CellWrite> writes,
                                const RowVisitor& written) {
  std::size_t n = 0;
  WriterLock lock(mu_);
  for (const CellWrite& w : writes) {
    auto it = rows_.find(w.pk);
    if (it == rows_.end()) continue;
    it->second[col] = w.value;
    written(it->second);
    ++n;
  }
  return n;
}

Result<std::size_t> Table::writable_column(
    std::string_view column, std::span<const CellWrite> writes) const {
  std::size_t col;
  try {
    col = schema_.column_index(column);
  } catch (const std::out_of_range&) {
    return Error("update: unknown column '" + std::string(column) + "'");
  }
  if (col == 0) return Error("update: cannot modify the primary key");
  for (const CellWrite& w : writes) {
    if (type_of(w.value) != schema_.columns[col].type) {
      return Error("update: type mismatch for column '" +
                   std::string(column) + "'");
    }
  }
  return col;
}

Status Table::update_column(std::string_view pk, std::string_view column,
                            Value value) {
  const CellWrite write{pk, std::move(value)};
  const auto writes = std::span(&write, 1);
  auto col = writable_column(column, writes);
  if (!col.ok()) return Error(col.error().message);
  if (update_cells(col.value(), writes, [](const Row&) {}) == 0) {
    return Error("update: no row with key '" + std::string(pk) + "'");
  }
  return Status::success();
}

bool Table::remove(std::string_view pk) {
  WriterLock lock(mu_);
  auto it = rows_.find(pk);
  if (it == rows_.end()) return false;
  rows_.erase(it);
  return true;
}

void Table::scan(const std::function<void(const Row&)>& fn) const {
  ReaderLock lock(mu_);
  for (const auto& [pk, row] : rows_) fn(row);
}

std::size_t Table::size() const {
  ReaderLock lock(mu_);
  return rows_.size();
}

std::vector<Row> Table::dump() const {
  ReaderLock lock(mu_);
  std::vector<Row> out;
  out.reserve(rows_.size());
  for (const auto& [pk, row] : rows_) out.push_back(row);
  return out;
}

Status Table::load(std::vector<Row> rows) {
  for (const auto& row : rows) {
    if (!schema_.matches(row)) return Error("load: row does not match schema");
  }
  WriterLock lock(mu_);
  rows_.clear();
  for (auto& row : rows) {
    std::string pk = pk_of(row);
    rows_[std::move(pk)] = std::move(row);
  }
  return Status::success();
}

}  // namespace janus::db
