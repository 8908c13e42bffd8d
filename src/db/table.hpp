// In-memory table with a hash primary-key index. Thread-safe: a shared_mutex
// allows concurrent point reads (the QoS servers' first-touch lookups) while
// writes (rule edits, check-points) take the exclusive lock. Matches the
// paper's observation that the DB sees only a light workload (§V intro).
//
// Each row lives in its node of the primary-key index (common/hash_index.hpp,
// the index the QoS table shares), one heap block per row: the node header,
// one 8-byte cell per non-key column (cell_bits), then the key's bytes, so
// the key is stored once. Rows are written in that form (PackedRow: the
// key, hashed once, and its cells); a Row is packed where it comes in
// (insert, upsert, load). Rows come out as Row; read, scan and the write
// visitors see the stored row in place (RowView) and build none
// (DESIGN.md §15.2, §15.3).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/hash_index.hpp"
#include "common/result.hpp"
#include "common/sync.hpp"
#include "common/transparent_hash.hpp"
#include "db/value.hpp"

namespace janus::db {

/// A row in the form a table stores it: the primary key, hashed once here
/// (TransparentStringHash::hash_bytes), and one cell per non-key column
/// (cell_bits of the schema's types). It views the key and the cells; both
/// must outlive the write it is handed to.
class PackedRow {
 public:
  PackedRow(std::string_view key, std::span<const std::uint64_t> cells)
      : key_(key),
        hash_(TransparentStringHash::hash_bytes(key)),
        cells_(cells) {}

  std::string_view key() const { return key_; }
  std::uint64_t hash() const { return hash_; }
  std::span<const std::uint64_t> cells() const { return cells_; }

 private:
  std::string_view key_;
  std::uint64_t hash_;
  std::span<const std::uint64_t> cells_;
};

/// Rows packed for the write path: each row's cells, held here, and its
/// PackedRow, which views them and the row's key. The rows must match a
/// table's schema and outlive this.
class PackedRows {
 public:
  explicit PackedRows(std::span<const Row> rows);
  PackedRows(const PackedRows&) = delete;  // the rows view this object's cells
  PackedRows& operator=(const PackedRows&) = delete;

  std::span<const PackedRow> rows() const { return rows_; }

 private:
  std::vector<std::uint64_t> cells_;
  std::vector<PackedRow> rows_;
};

/// One row's new value for the column a batched update names.
struct CellWrite {
  std::string_view pk;
  Value value;
};

/// Sees each row a batched write stored, in order, while the table's lock is
/// still held (the database frames its log records there).
using RowVisitor = std::function<void(const RowView&)>;

class Table {
 public:
  /// An error naming the column unless column 0 is a string and every other
  /// column an int64 or a double.
  static Status check_schema(const std::string& name, const Schema& schema);

  /// Throws std::invalid_argument with check_schema's message on a schema
  /// it refuses.
  Table(std::string name, Schema schema);

  Table(const Table&) = delete;
  Table& operator=(const Table&) = delete;

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }

  /// Insert a new row. Fails if the PK already exists or the row does not
  /// match the schema.
  Status insert(const Row& row);

  /// Insert or overwrite by PK.
  Status upsert(const Row& row);

  /// Point lookup by primary key.
  std::optional<Row> get(std::string_view pk) const;

  /// Point lookup that reads the row where it lies: `fn(row)` runs under
  /// the shared lock and must not call back into the table. Returns false
  /// if the key is absent.
  template <typename Fn>
  bool read(std::string_view pk, Fn&& fn) const {
    ReaderLock lock(mu_);
    const HashNode* node = find_locked(pk);
    if (!node) return false;
    fn(view(*node));
    return true;
  }

  /// Insert or overwrite each row by PK, in order, under one exclusive
  /// lock, hashing no key. Each row must have one cell per non-key column
  /// (the caller checked). `written` sees each stored row.
  void upsert_rows(std::span<const PackedRow> rows,
                   const RowVisitor& written);

  /// The index of `column` if every value in `writes` may be stored in it:
  /// an error for an unknown column, the primary key or a wrong type.
  Result<std::size_t> writable_column(std::string_view column,
                                      std::span<const CellWrite> writes) const;

  /// Set column `col` of each existing row named in `writes`, in place and
  /// in order, under one exclusive lock; a missing PK is skipped. `col` and
  /// the values must have passed writable_column. `written` sees each row
  /// written. Returns the number of rows written.
  std::size_t update_cells(std::size_t col, std::span<const CellWrite> writes,
                           const RowVisitor& written);

  /// Update a single column of an existing row. Fails on missing row,
  /// unknown column, or type mismatch. This is the check-pointing operation
  /// ("UPDATE qos_rules SET credit=? WHERE key=?").
  Status update_column(std::string_view pk, std::string_view column,
                       Value value);

  /// Delete by PK; returns false if the row did not exist.
  bool remove(std::string_view pk);

  /// Full scan ("SELECT * FROM qos_rules"); visits rows in unspecified order,
  /// each where it lies. The callback must not call back into the table.
  void scan(const std::function<void(const RowView&)>& fn) const;

  std::size_t size() const;

  /// Size the index for `rows` rows, so that loading that many rehashes
  /// nothing. Never shrinks it.
  void reserve(std::size_t rows);

  /// Hash buckets in the index (a power of two, 0 before the first row).
  std::size_t bucket_count() const;

  /// Copy out all rows (snapshot support).
  std::vector<Row> dump() const;

  /// Replace contents wholesale (snapshot restore). Rows must match schema.
  Status load(std::vector<Row> rows);

 private:
  HashNode* find_locked(std::string_view pk) const JANUS_REQUIRES_SHARED(mu_);
  RowView view(const HashNode& node) const;
  /// The row for `row`'s key, created if absent, with `row`'s cells. The
  /// probe and the insert both use the row's hash.
  const HashNode& put_locked(const PackedRow& row) JANUS_REQUIRES(mu_);

  std::string name_;
  Schema schema_;
  mutable SharedMutex mu_{LockRank::kDbTable, "db.table"};
  // Nodes hold their cells right after the header, then the key.
  HashIndex index_ JANUS_GUARDED_BY(mu_);
};

}  // namespace janus::db
