// The rules database: the qos_rules table, its write-ahead log and its
// snapshots (§III-D). Every write flows through the Database so that it is
// WAL-logged when durability is enabled; reads go straight to the table.
//
// On restart the table is rebuilt from the last snapshot, then the WAL
// written since (load_snapshot, then recover), before the rules file is
// loaded over it (DESIGN.md §15.2).
#pragma once

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
  /// Rows per write chunk. A chunk takes commit_mu_ and the table's lock
  /// once, so this bounds how long a batched write (a check-point pass, a
  /// rules load) holds off the QoS servers' reads (DESIGN.md §15.2).
  static constexpr std::size_t kWriteChunkRows = 256;

  /// In-memory database (no durability).
  Database() = default;

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  /// Enable write-ahead logging to `path`. Call before the first mutation.
  Status enable_wal(const std::string& path);

  /// Replay an existing WAL file into the table; records that name another
  /// table are skipped. Typically paired with enable_wal on the same path.
  Result<std::size_t> recover(const std::string& path);

  // -- Writes ---------------------------------------------------------------
  //
  // One write path: rules are written in place in chunks of
  // kWriteChunkRows, each chunk under one commit_mu_ and one table-lock
  // acquisition. Every rule written is one full-row record with its own
  // LSN; a chunk's records reach the WAL with one write and one flush, in
  // LSN order. Single-rule calls are chunks of one.

  /// Insert or overwrite every rule, in order (Table::put).
  Status put(std::span<const PackedRow> rules);
  /// Write each credit in place (Table::write_credits: a missing key or an
  /// unchanged credit is skipped without an LSN). Returns the rules written.
  Result<std::size_t> write_credits(std::span<const CreditWrite> writes);
  /// Delete `key`; removing a missing rule is a logged no-op.
  Status remove(std::string_view key);

  /// Size the table for `rules` rules (Table::reserve).
  void reserve(std::size_t rules) { table_.reserve(rules); }

  /// Read access to the table.
  const Table& table() const { return table_; }

  /// Current log sequence number (monotonic; 0 = no mutations yet).
  std::uint64_t lsn() const { return log_.lsn(); }

  // -- Snapshot / WAL compaction ---------------------------------------------
  // The check-pointing threads rewrite credits every few seconds (§II-D), so
  // the WAL grows without bound. snapshot_to() writes a point-in-time copy
  // of the table; compact_wal() then removes the log, after which recovery
  // = load_snapshot() + recover(wal).

  /// Write every rule to `path`, streamed through one buffer, then fsync
  /// it, rename it into place and fsync its directory.
  Status snapshot_to(const std::string& path) const;

  /// Replace the table with a snapshot file's rules. The file is read a
  /// block at a time into a fresh table, which replaces this one only once
  /// the whole file has parsed: a truncated or corrupt snapshot leaves the
  /// table as it was.
  Status load_snapshot(const std::string& path);

  /// snapshot_to(path), then remove and reopen the WAL (requires WAL on).
  /// On any failure the WAL stays in place, whole.
  Status compact_wal(const std::string& snapshot_path);

 private:
  Status snapshot_locked(const std::string& path) const
      JANUS_REQUIRES(commit_mu_);

  // Serializes the WAL sequence. Outermost database rank: commit takes the
  // table's lock (kDbTable) and the WAL lock (kDbWal) underneath.
  mutable Mutex commit_mu_{LockRank::kDbCommit, "db.commit"};
  // Its own lock guards it; every write to it holds commit_mu_ as well
  // (recover runs before any other use).
  Table table_;
  // Every call but lsn() holds commit_mu_.
  WalWriter log_;
};

}  // namespace janus::db
