// In-memory table with a hash primary-key index. Thread-safe: a shared_mutex
// allows concurrent point reads (the QoS servers' first-touch lookups) while
// writes (rule edits, check-points) take the exclusive lock. Matches the
// paper's observation that the DB sees only a light workload (§V intro).
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/result.hpp"
#include "common/sync.hpp"
#include "common/transparent_hash.hpp"
#include "db/value.hpp"

namespace janus::db {

/// One row's new value for the column a batched update names.
struct CellWrite {
  std::string_view pk;
  Value value;
};

/// Sees each row a batched write stored, in order, while the table's lock is
/// still held (the database frames its log records there).
using RowVisitor = std::function<void(const Row&)>;

class Table {
 public:
  Table(std::string name, Schema schema);

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }

  /// Insert a new row. Fails if the PK already exists or the row does not
  /// match the schema.
  Status insert(Row row);

  /// Insert or overwrite by PK.
  Status upsert(Row row);

  /// Point lookup by primary key.
  std::optional<Row> get(std::string_view pk) const;

  /// Point lookup that reads the row where it lies: `fn(row)` runs under
  /// the shared lock and must not call back into the table. Returns false
  /// if the key is absent.
  template <typename Fn>
  bool read(std::string_view pk, Fn&& fn) const {
    ReaderLock lock(mu_);
    auto it = rows_.find(pk);
    if (it == rows_.end()) return false;
    fn(it->second);
    return true;
  }

  /// Insert or overwrite each row by PK, in order, under one exclusive
  /// lock. The rows must match the schema (the caller checked); they are
  /// moved from. `written` sees each stored row.
  void upsert_rows(std::span<Row> rows, const RowVisitor& written);

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

  /// Full scan ("SELECT * FROM qos_rules"); visits rows in unspecified order.
  /// The callback must not call back into the table.
  void scan(const std::function<void(const Row&)>& fn) const;

  std::size_t size() const;

  /// Copy out all rows (snapshot support).
  std::vector<Row> dump() const;

  /// Replace contents wholesale (snapshot restore). Rows must match schema.
  Status load(std::vector<Row> rows);

 private:
  std::string pk_of(const Row& row) const {
    return std::get<std::string>(row[0]);
  }

  std::string name_;
  Schema schema_;
  mutable SharedMutex mu_{LockRank::kDbTable, "db.table"};
  // Transparent hash: point lookups (the QoS servers' first-touch rule
  // fetches) probe with the caller's string_view instead of allocating a
  // temporary std::string per get().
  std::unordered_map<std::string, Row, TransparentStringHash,
                     TransparentStringEq>
      rows_ JANUS_GUARDED_BY(mu_);
};

}  // namespace janus::db
