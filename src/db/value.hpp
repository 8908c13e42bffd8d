// Typed values and schemas for the embedded relational store that plays the
// role of RDS MySQL in the paper (§II-D / §III-D). The store is deliberately
// small — typed rows, a hash primary-key index, WAL, snapshots, replication —
// because that is the entire surface Janus uses.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace janus::db {

enum class ColumnType : std::uint8_t { kInt64 = 0, kDouble = 1, kString = 2 };

using Value = std::variant<std::int64_t, double, std::string>;

inline ColumnType type_of(const Value& v) {
  return static_cast<ColumnType>(v.index());
}

struct Column {
  std::string name;
  ColumnType type;

  bool operator==(const Column&) const = default;
};

/// Table schema. Column 0 is always the primary key and must be kString
/// (QoS keys are strings end-to-end); every other column is kInt64 or
/// kDouble (Table refuses a schema that is not).
struct Schema {
  std::vector<Column> columns;

  bool operator==(const Schema&) const = default;

  std::size_t column_index(std::string_view name) const;
  bool matches(const std::vector<Value>& row) const;
};

using Row = std::vector<Value>;

/// The 8-byte cell a non-key value is stored in: the int64's or the
/// double's bit pattern.
inline std::uint64_t cell_bits(const Value& v) {
  if (const auto* d = std::get_if<double>(&v)) {
    return std::bit_cast<std::uint64_t>(*d);
  }
  return static_cast<std::uint64_t>(std::get<std::int64_t>(v));
}

/// A stored row, read where it lies: the primary key, then one cell per
/// non-key column (cell_bits). Valid while the table lock it was handed out
/// under is held: inside Table::read, Table::scan and the write visitors.
class RowView {
 public:
  RowView(const Schema& schema, std::string_view key, const std::byte* cells)
      : schema_(&schema), key_(key), cells_(cells) {}

  std::string_view key() const { return key_; }
  /// Columns, the key included.
  std::size_t size() const { return schema_->columns.size(); }
  ColumnType type(std::size_t col) const { return schema_->columns[col].type; }

  /// The bit pattern stored for column `col` (1 <= col < size()).
  std::uint64_t bits(std::size_t col) const {
    std::uint64_t out = 0;
    std::memcpy(&out, cells_ + (col - 1) * sizeof(out), sizeof(out));
    return out;
  }
  std::int64_t int64(std::size_t col) const {
    return static_cast<std::int64_t>(bits(col));
  }
  double real(std::size_t col) const {
    return std::bit_cast<double>(bits(col));
  }

  /// The row as a Row, written over `out` (its storage reused).
  void copy_to(Row& out) const;
  Row to_row() const;

 private:
  const Schema* schema_;
  std::string_view key_;
  const std::byte* cells_;
};

}  // namespace janus::db
