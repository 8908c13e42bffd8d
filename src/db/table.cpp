#include "db/table.hpp"

#include <cstring>
#include <new>
#include <stdexcept>

namespace janus::db {

namespace {

constexpr std::size_t kCellBytes = sizeof(std::uint64_t);

// A row's node: the index's header, one 8-byte cell per non-key column,
// then the key's bytes. A qos_rules row with a key of up to 16 bytes asks
// malloc for at most 56 bytes, a 64-byte chunk.
std::size_t key_offset(const Schema& schema) {
  const std::size_t cells =
      schema.columns.empty() ? 0 : schema.columns.size() - 1;
  return sizeof(HashNode) + cells * kCellBytes;
}

std::byte* cells(HashNode& node) {
  return reinterpret_cast<std::byte*>(&node) + sizeof(HashNode);
}
const std::byte* cells(const HashNode& node) {
  return reinterpret_cast<const std::byte*>(&node) + sizeof(HashNode);
}

}  // namespace

PackedRows::PackedRows(std::span<const Row> rows) {
  std::size_t total = 0;
  for (const Row& row : rows) total += row.size() - 1;
  cells_.reserve(total);  // never reallocated: the rows view it
  rows_.reserve(rows.size());
  for (const Row& row : rows) {
    const std::size_t first = cells_.size();
    for (std::size_t col = 1; col < row.size(); ++col) {
      cells_.push_back(cell_bits(row[col]));
    }
    rows_.emplace_back(std::get<std::string>(row[0]),
                       std::span(cells_).subspan(first));
  }
}

Status Table::check_schema(const std::string& name, const Schema& schema) {
  if (schema.columns.empty() ||
      schema.columns[0].type != ColumnType::kString) {
    return Error("table " + name + ": column 0 must be a string primary key");
  }
  for (std::size_t col = 1; col < schema.columns.size(); ++col) {
    if (schema.columns[col].type == ColumnType::kString) {
      return Error("table " + name + ": column '" + schema.columns[col].name +
                   "' is a string; only the primary key may be one");
    }
  }
  return Status::success();
}

Table::Table(std::string name, Schema schema)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      index_(key_offset(schema_)) {
  if (Status valid = check_schema(name_, schema_); !valid.ok()) {
    throw std::invalid_argument(valid.error().message);
  }
}

HashNode* Table::find_locked(std::string_view pk) const {
  return index_.find_prehashed(TransparentStringHash::hash_bytes(pk), pk);
}

RowView Table::view(const HashNode& node) const {
  const std::size_t key_at = key_offset(schema_);
  return RowView(schema_,
                 std::string_view(reinterpret_cast<const char*>(&node) + key_at,
                                  node.key_size),
                 cells(node));
}

const HashNode& Table::put_locked(const PackedRow& row) {
  HashNode* node = index_.find_prehashed(row.hash(), row.key());
  if (!node) {
    // The cells are written below.
    node = index_.insert(row.hash(), row.key(),
                         [](void* memory) { return new (memory) HashNode(); });
  }
  std::memcpy(cells(*node), row.cells().data(), row.cells().size_bytes());
  return *node;
}

Status Table::insert(const Row& row) {
  if (!schema_.matches(row)) return Error("insert: row does not match schema");
  const PackedRows packed(std::span(&row, 1));
  const PackedRow& put = packed.rows()[0];
  WriterLock lock(mu_);
  if (index_.find_prehashed(put.hash(), put.key())) {
    return Error("insert: duplicate primary key '" + std::string(put.key()) +
                 "'");
  }
  put_locked(put);
  return Status::success();
}

Status Table::upsert(const Row& row) {
  if (!schema_.matches(row)) return Error("upsert: row does not match schema");
  const PackedRows packed(std::span(&row, 1));
  upsert_rows(packed.rows(), [](const RowView&) {});
  return Status::success();
}

std::optional<Row> Table::get(std::string_view pk) const {
  std::optional<Row> out;
  read(pk, [&](const RowView& row) { out = row.to_row(); });
  return out;
}

void Table::upsert_rows(std::span<const PackedRow> rows,
                        const RowVisitor& written) {
  WriterLock lock(mu_);
  for (const PackedRow& row : rows) written(view(put_locked(row)));
}

std::size_t Table::update_cells(std::size_t col,
                                std::span<const CellWrite> writes,
                                const RowVisitor& written) {
  std::size_t n = 0;
  WriterLock lock(mu_);
  for (const CellWrite& w : writes) {
    HashNode* node = find_locked(w.pk);
    if (!node) continue;
    const std::uint64_t bits = cell_bits(w.value);
    std::memcpy(cells(*node) + (col - 1) * kCellBytes, &bits, kCellBytes);
    written(view(*node));
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
  if (update_cells(col.value(), writes, [](const RowView&) {}) == 0) {
    return Error("update: no row with key '" + std::string(pk) + "'");
  }
  return Status::success();
}

bool Table::remove(std::string_view pk) {
  WriterLock lock(mu_);
  return index_.erase(TransparentStringHash::hash_bytes(pk), pk);
}

void Table::scan(const std::function<void(const RowView&)>& fn) const {
  ReaderLock lock(mu_);
  index_.visit([&](const HashNode& node) { fn(view(node)); });
}

std::size_t Table::size() const {
  ReaderLock lock(mu_);
  return index_.size();
}

void Table::reserve(std::size_t rows) {
  WriterLock lock(mu_);
  index_.reserve(rows);
}

std::size_t Table::bucket_count() const {
  ReaderLock lock(mu_);
  return index_.bucket_count();
}

std::vector<Row> Table::dump() const {
  std::vector<Row> out;
  out.reserve(size());
  scan([&](const RowView& row) { out.push_back(row.to_row()); });
  return out;
}

Status Table::load(std::vector<Row> rows) {
  for (const auto& row : rows) {
    if (!schema_.matches(row)) return Error("load: row does not match schema");
  }
  const PackedRows packed(rows);
  WriterLock lock(mu_);
  index_.clear();
  for (const PackedRow& row : packed.rows()) put_locked(row);
  return Status::success();
}

}  // namespace janus::db
