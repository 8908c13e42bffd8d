// The QoS server's rules (DESIGN.md §15.2). The server's QoS table is its
// only rules store: a rule is loaded straight into the key's table entry,
// provisioned until its first decision, and no database row sits behind it
// (§15.3). TableRules loads the table and keeps it durable:
//
//   * restore(): a restart's snapshot, then its WAL, into the table;
//   * load():    the rules file, through the one rules-file parser
//                (db/rules_file.hpp), with PR 25's merge for held keys —
//                at start-up, and again whenever the file changes;
//   * checkpoint(): the live credits changed since the last pass, as WAL
//                records (§II-D);
//   * compact(): the table's rules as a snapshot, then an empty WAL.
//
// The WAL records and the snapshot are the ones db::Database writes, framed
// and written by the same code (db::WalWriter, db/snapshot.hpp).
//
// Concurrency: every call holds mu_ (`core.rules_log`) for its whole run,
// so records reach the WAL in LSN order and a load never interleaves with a
// check-point. Under it, each shard lock is taken on its own, and the WAL's
// own lock after it is released.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/clock.hpp"
#include "common/result.hpp"
#include "common/sync.hpp"
#include "core/qos_table.hpp"
#include "db/table.hpp"
#include "db/wal.hpp"

namespace janus::core {

class TableRules {
 public:
  TableRules(ShardedQosTable& table, Clock& clock)
      : table_(table), clock_(clock) {}

  TableRules(const TableRules&) = delete;
  TableRules& operator=(const TableRules&) = delete;

  /// A restart's first steps, before the table serves: the snapshot at
  /// `snapshot_path` when the file exists, then every record of the WAL at
  /// `wal_path`, into the table as provisioned rules. The WAL is then kept
  /// open for the records written from here on. An empty path skips its
  /// step. On an error the table may hold part of the files: the caller
  /// gives it up.
  Status restore(const std::string& snapshot_path,
                 const std::string& wal_path);

  /// Load the rules file at `path` into the table, a chunk at a time
  /// (db::parse_rules_file, ShardedQosTable::apply_rules): the table is
  /// sized for the file's line count first, each rule costs one parse, one
  /// hash and at most one node, and each shard's lock is taken once per
  /// chunk. A table that held entries before the load merges: a held key
  /// keeps its credit, clamped to the new capacity. With a WAL, each rule
  /// that changed the table is logged as a kUpsert record, one WAL write
  /// per chunk, in file order. Returns the rules that changed the table.
  ///
  /// A load into a table that holds entries, or with a WAL, parses the
  /// whole file before it applies any of it, both passes reading the one
  /// open file: a bad line fails the load with its error and changes
  /// neither the table nor the WAL, and a file whose size, mtime or inode
  /// moved during the first pass (a writer still at work, or a new file
  /// renamed over it) fails the load unapplied. A start-up load into an
  /// empty table without a WAL applies each chunk as it is parsed: on an
  /// error the caller gives the table up.
  Result<std::size_t> load(const std::string& path);

  /// The sync pass (§II-D) as a reload: load(path) when the file at `path`
  /// is not the one the last load() read (its size, mtime or inode
  /// differs). Returns whether it loaded. A bad file is tried once: a load
  /// records the file it read unless the file moved while it was read.
  Result<bool> reload(const std::string& path);

  /// The check-point (§II-D): with a WAL, log the credit of each live,
  /// non-default entry whose credit changed since the last pass, in
  /// records of at most kRulesChunk per WAL write. An idle pass writes
  /// nothing. Walks the table one shard at a time: a shard's credits are
  /// copied out under its lock and logged after it is released. Returns
  /// the records written (0 without a WAL).
  std::size_t checkpoint();

  /// Write the table's rules, live and provisioned, to a snapshot at
  /// `snapshot_path` (db::write_snapshot), then empty the WAL. On any
  /// failure the WAL stays in place, whole. Requires a WAL.
  Status compact(const std::string& snapshot_path);

  /// True when a WAL is open.
  bool logging() const;

 private:
  /// One credit a check-point copies out of a shard.
  struct CreditCopy {
    std::string key;
    double refill_per_sec = 0.0;
    double capacity = 0.0;
    double credit = 0.0;
  };

  /// What tells one version of a file from another.
  struct FileStamp {
    std::uint64_t device = 0;
    std::uint64_t inode = 0;
    std::int64_t size = -1;
    std::int64_t mtime_ns = 0;
    bool operator==(const FileStamp&) const = default;
  };
  static FileStamp stamp_of(const std::string& path);
  Result<std::size_t> load_locked(const std::string& path)
      JANUS_REQUIRES(mu_);

  /// One load's state, for apply_chunk.
  struct ChunkLoad {
    TimePoint now;
    // The table held entries before the load (a restart's or a reload).
    bool merge = false;
    // Rules that changed the table.
    std::size_t stored = 0;
  };
  /// Apply one chunk of the file to the table, then log the rules that
  /// changed it.
  Status apply_chunk(std::span<const db::PackedRow> rows, ChunkLoad& load)
      JANUS_REQUIRES(mu_);

  ShardedQosTable& table_;
  Clock& clock_;
  mutable Mutex mu_{LockRank::kRulesLog, "core.rules_log"};
  FileStamp loaded_ JANUS_GUARDED_BY(mu_);
  db::WalWriter log_ JANUS_GUARDED_BY(mu_);
  // A chunk's rules in file order and their grouping by shard, reused
  // chunk to chunk and load to load.
  std::vector<LoadedRule> rules_ JANUS_GUARDED_BY(mu_);
  ShardGroups groups_ JANUS_GUARDED_BY(mu_);
  // The check-point's copy-out slots, reused shard to shard and pass to
  // pass (with their keys' heap buffers).
  std::vector<CreditCopy> copies_ JANUS_GUARDED_BY(mu_);
};

}  // namespace janus::core
