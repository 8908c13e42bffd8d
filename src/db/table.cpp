#include "db/table.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <new>
#include <stdexcept>

#include "common/transparent_hash.hpp"

namespace janus::db {

// One row in one heap block: this header, then one 8-byte cell per non-key
// column, then the key's bytes. A qos_rules row with a key of up to 16
// bytes asks malloc for at most 56 bytes, a 64-byte chunk.
struct Table::Node {
  Node* next;
  std::uint32_t hash;
  std::uint32_t key_size;

  std::byte* cells() {
    return reinterpret_cast<std::byte*>(this) + sizeof(Node);
  }
  const std::byte* cells() const {
    return reinterpret_cast<const std::byte*>(this) + sizeof(Node);
  }
};

namespace {

constexpr std::size_t kCellBytes = sizeof(std::uint64_t);
constexpr std::size_t kMinBuckets = 8;

std::uint32_t hash_of(std::string_view key) {
  return static_cast<std::uint32_t>(TransparentStringHash::hash_bytes(key));
}

}  // namespace

Table::Table(std::string name, Schema schema)
    : name_(std::move(name)), schema_(std::move(schema)) {
  if (schema_.columns.empty() ||
      schema_.columns[0].type != ColumnType::kString) {
    throw std::invalid_argument(
        "table " + name_ + ": column 0 must be a string primary key");
  }
  for (std::size_t col = 1; col < schema_.columns.size(); ++col) {
    if (schema_.columns[col].type == ColumnType::kString) {
      throw std::invalid_argument(
          "table " + name_ + ": column '" + schema_.columns[col].name +
          "' is a string; only the primary key may be one");
    }
  }
}

// No other thread can reach a table being destroyed.
Table::~Table() JANUS_NO_THREAD_SAFETY_ANALYSIS { clear_locked(); }

Table::Node* Table::find_locked(std::string_view pk) const {
  if (buckets_.empty()) return nullptr;
  const std::uint32_t hash = hash_of(pk);
  for (Node* n = buckets_[hash & (buckets_.size() - 1)]; n;
       n = n->next) {
    if (n->hash == hash && view(*n).key() == pk) return n;
  }
  return nullptr;
}

RowView Table::view(const Node& node) const {
  const std::size_t cells = schema_.columns.size() - 1;
  const auto* key = reinterpret_cast<const char*>(node.cells()) +
                    cells * kCellBytes;
  return RowView(schema_, std::string_view(key, node.key_size), node.cells());
}

const Table::Node& Table::put_locked(const Row& row) {
  const std::string& pk = std::get<std::string>(row[0]);
  const std::size_t cells = row.size() - 1;
  Node* node = find_locked(pk);
  if (!node) {
    if (pk.size() > std::numeric_limits<std::uint32_t>::max()) {
      throw std::length_error("table " + name_ + ": primary key too long");
    }
    if (size_ + 1 > buckets_.size()) {
      rehash_locked(std::max(kMinBuckets, buckets_.size() * 2));
    }
    node = static_cast<Node*>(
        ::operator new(sizeof(Node) + cells * kCellBytes + pk.size()));
    node->hash = hash_of(pk);
    node->key_size = static_cast<std::uint32_t>(pk.size());
    std::memcpy(node->cells() + cells * kCellBytes, pk.data(), pk.size());
    Node*& head = buckets_[node->hash & (buckets_.size() - 1)];
    node->next = head;
    head = node;
    ++size_;
  }
  for (std::size_t col = 1; col <= cells; ++col) {
    const std::uint64_t bits = cell_bits(row[col]);
    std::memcpy(node->cells() + (col - 1) * kCellBytes, &bits, kCellBytes);
  }
  return *node;
}

void Table::rehash_locked(std::size_t buckets) {
  std::vector<Node*> grown(buckets, nullptr);
  for (Node* head : buckets_) {
    while (head) {
      Node* next = head->next;
      Node*& slot = grown[head->hash & (buckets - 1)];
      head->next = slot;
      slot = head;
      head = next;
    }
  }
  buckets_ = std::move(grown);
}

void Table::clear_locked() {
  for (Node*& head : buckets_) {
    while (head) {
      Node* next = head->next;
      ::operator delete(head);
      head = next;
    }
  }
  size_ = 0;
}

Status Table::insert(Row row) {
  if (!schema_.matches(row)) return Error("insert: row does not match schema");
  WriterLock lock(mu_);
  const std::string& pk = std::get<std::string>(row[0]);
  if (find_locked(pk)) {
    return Error("insert: duplicate primary key '" + pk + "'");
  }
  put_locked(row);
  return Status::success();
}

Status Table::upsert(Row row) {
  if (!schema_.matches(row)) return Error("upsert: row does not match schema");
  upsert_rows(std::span(&row, 1), [](const RowView&) {});
  return Status::success();
}

std::optional<Row> Table::get(std::string_view pk) const {
  std::optional<Row> out;
  read(pk, [&](const RowView& row) { out = row.to_row(); });
  return out;
}

void Table::upsert_rows(std::span<const Row> rows, const RowVisitor& written) {
  WriterLock lock(mu_);
  for (const Row& row : rows) written(view(put_locked(row)));
}

std::size_t Table::update_cells(std::size_t col,
                                std::span<const CellWrite> writes,
                                const RowVisitor& written) {
  std::size_t n = 0;
  WriterLock lock(mu_);
  for (const CellWrite& w : writes) {
    Node* node = find_locked(w.pk);
    if (!node) continue;
    const std::uint64_t bits = cell_bits(w.value);
    std::memcpy(node->cells() + (col - 1) * kCellBytes, &bits, kCellBytes);
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
  if (buckets_.empty()) return false;
  const std::uint32_t hash = hash_of(pk);
  for (Node** link = &buckets_[hash & (buckets_.size() - 1)]; *link;
       link = &(*link)->next) {
    Node* node = *link;
    if (node->hash == hash && view(*node).key() == pk) {
      *link = node->next;
      ::operator delete(node);
      --size_;
      return true;
    }
  }
  return false;
}

void Table::scan(const std::function<void(const RowView&)>& fn) const {
  ReaderLock lock(mu_);
  for (const Node* head : buckets_) {
    for (const Node* n = head; n; n = n->next) fn(view(*n));
  }
}

std::size_t Table::size() const {
  ReaderLock lock(mu_);
  return size_;
}

void Table::reserve(std::size_t rows) {
  WriterLock lock(mu_);
  const std::size_t buckets = std::bit_ceil(std::max(kMinBuckets, rows));
  if (buckets > buckets_.size()) rehash_locked(buckets);
}

std::size_t Table::bucket_count() const {
  ReaderLock lock(mu_);
  return buckets_.size();
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
  WriterLock lock(mu_);
  clear_locked();
  for (const Row& row : rows) put_locked(row);
  return Status::success();
}

}  // namespace janus::db
