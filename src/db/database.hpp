// Multi-table database facade. All mutations flow through the Database so
// they are (a) WAL-logged when durability is enabled and (b) announced to
// observers — the replication stream for the Multi-AZ-style standby.
//
// Schemas are code, not data: callers re-create tables on startup and then
// recover() replays the WAL into them, mirroring how Janus provisions its
// qos_rules table (§III-D).
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "common/sync.hpp"
#include "db/serialize.hpp"
#include "db/table.hpp"
#include "db/wal.hpp"

namespace janus::db {

class Database {
 public:
  /// Rows per write chunk. A chunk takes commit_mu_ and its table's lock
  /// once, so this bounds how long a batched write (a check-point pass, a
  /// rules load) holds off the QoS servers' reads (DESIGN.md §15.2).
  static constexpr std::size_t kWriteChunkRows = 256;

  /// In-memory database (no durability).
  Database() = default;

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Enable write-ahead logging to `path`. Call before the first mutation.
  Status enable_wal(const std::string& path);

  /// Replay an existing WAL file into the (already created) tables.
  /// Typically paired with enable_wal on the same path.
  Result<std::size_t> recover(const std::string& path);

  /// Fails if the name is taken or Table::check_schema refuses the schema
  /// (the error names the column).
  Status create_table(const std::string& name, Schema schema);
  bool has_table(std::string_view name) const;
  /// Read access to a table. Throws if absent (programmer error).
  const Table& table(std::string_view name) const;

  // -- Mutations (logged + replicated) --------------------------------------
  //
  // One write path: rows are written in place in chunks of kWriteChunkRows,
  // each chunk under one commit_mu_ and one table-lock acquisition. Every
  // row written is one full-row record with its own LSN; a chunk's records
  // reach the WAL with one write and one flush, then the observers, in LSN
  // order. Single-row calls are chunks of one.

  /// Packs `row` and writes it through upsert_many. Fails if it does not
  /// match the schema.
  Status upsert(const std::string& table, const Row& row);
  /// Insert or overwrite every row, in order, each in the form the table
  /// stores it. Fails before writing anything if a row's cell count is not
  /// the schema's.
  Status upsert_many(const std::string& table,
                     std::span<const PackedRow> rows);
  Status remove(const std::string& table, std::string_view pk);
  /// Single-column update, logged as a full-row upsert.
  Status update_column(const std::string& table, std::string_view pk,
                       std::string_view column, Value value);
  /// update_column for every row named in `writes`; rows that do not exist
  /// are skipped. Fails before writing anything on an unknown column, the
  /// primary key or a value of the wrong type. Returns the rows written.
  Result<std::size_t> update_column_many(const std::string& table,
                                         std::string_view column,
                                         std::span<const CellWrite> writes);

  // -- Reads ----------------------------------------------------------------
  std::optional<Row> get(std::string_view table, std::string_view pk) const;
  void scan(std::string_view table,
            const std::function<void(const Row&)>& fn) const;
  std::size_t table_size(std::string_view table) const;

  /// Size `table`'s index for `rows` rows (Table::reserve), so that loading
  /// that many rehashes nothing.
  Status reserve(std::string_view table, std::size_t rows);

  /// Current log sequence number (monotonic; 0 = no mutations yet).
  std::uint64_t lsn() const { return lsn_.load(std::memory_order_acquire); }

  /// Observers see every applied mutation, in commit order, synchronously.
  using Observer = std::function<void(const LogRecord&)>;
  void add_observer(Observer obs);

  /// Apply a replicated record (standby side). Does not re-log by default.
  Status apply(const LogRecord& rec);

  // -- Snapshot / WAL compaction ---------------------------------------------
  // The check-pointing threads rewrite credits every few seconds (§II-D), so
  // the WAL grows without bound. snapshot_to() writes a point-in-time copy
  // of every table; compact_wal() additionally truncates the log, after
  // which recovery = load_snapshot() + recover(wal).

  /// Write all tables (names, schemas implied by caller, rows) to `path`.
  Status snapshot_to(const std::string& path) const;

  /// Replace the contents of already-created tables from a snapshot file.
  /// Tables present in the snapshot but not in this database are an error.
  Status load_snapshot(const std::string& path);

  /// snapshot_to(path) then truncate and reopen the WAL (requires WAL on).
  Status compact_wal(const std::string& snapshot_path);

 private:
  // Table pointers stay valid after commit_mu_ is released: tables_ maps to
  // stable unique_ptr targets and tables are never dropped once created.
  Table* find_table(std::string_view name);
  const Table* find_table(std::string_view name) const;
  Table* find_table_locked(std::string_view name)
      JANUS_REQUIRES(commit_mu_);
  const Table* find_table_locked(std::string_view name) const
      JANUS_REQUIRES(commit_mu_);
  Status snapshot_locked(const std::string& path) const
      JANUS_REQUIRES(commit_mu_);

  // The records of the chunk being committed: their WAL frames back to back
  // (record i ends at frame_ends[i]) when a WAL exists, and copies for the
  // observers when any exist. Reused chunk to chunk, so a warm write path
  // allocates nothing for its log.
  struct ChunkLog {
    std::uint64_t first_lsn = 0;
    std::size_t count = 0;
    bool framed = false;
    bool copied = false;
    std::vector<std::uint8_t> frames;
    std::vector<std::size_t> frame_ends;
    std::vector<LogRecord> records;

    /// Log the chunk's next stored row (kUpsert) at the next LSN.
    void add(const std::string& table, const RowView& row);
    /// Log the removal of `pk` (kRemove) at the next LSN.
    void add_remove(const std::string& table, std::string_view pk);

   private:
    /// The observers' copy of the record at the next LSN.
    LogRecord& next_record(LogRecord::Op op, const std::string& table);
  };
  ChunkLog& begin_chunk_locked() JANUS_REQUIRES(commit_mu_);
  /// Append the chunk's frames, then publish its LSNs and show its records
  /// to the observers — only the records the WAL holds whole.
  Status finish_chunk_locked() JANUS_REQUIRES(commit_mu_);

  // Serializes the WAL/observer sequence. Outermost database rank: commit
  // takes per-table locks (kDbTable) and the WAL lock (kDbWal) underneath.
  mutable Mutex commit_mu_{LockRank::kDbCommit, "db.commit"};
  // std::less<>: heterogeneous lookup, so find_table with a string literal
  // (RuleStore::kTableName on every first-touch rule fetch) never builds a
  // temporary std::string.
  std::map<std::string, std::unique_ptr<Table>, std::less<>> tables_
      JANUS_GUARDED_BY(commit_mu_);
  std::unique_ptr<Wal> wal_ JANUS_GUARDED_BY(commit_mu_);
  std::vector<Observer> observers_ JANUS_GUARDED_BY(commit_mu_);
  ChunkLog chunk_ JANUS_GUARDED_BY(commit_mu_);
  std::atomic<std::uint64_t> lsn_{0};
};

}  // namespace janus::db
