// Write-ahead log: every mutation is framed (length + CRC32) and appended to
// a file before being applied, so a restarted database recovers to its exact
// pre-crash state. Replay stops cleanly at the first torn/corrupt record.
#pragma once

#include <atomic>
#include <cstdio>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "common/sync.hpp"
#include "db/serialize.hpp"

namespace janus::db {

class Wal {
 public:
  /// Opens (creating if needed) the log file in append mode.
  static Result<Wal> open(const std::string& path);

  // Move operations run before the Wal is shared across threads (the
  // Result<Wal> plumbing in open()), so they access file_ without the lock.
  Wal(Wal&& other) noexcept JANUS_NO_THREAD_SAFETY_ANALYSIS;
  Wal& operator=(Wal&& other) noexcept JANUS_NO_THREAD_SAFETY_ANALYSIS;
  ~Wal();

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Append a record and flush it to the OS.
  Status append(const LogRecord& rec);

  /// Append framed records laid back to back in `frames` (record i ends at
  /// `ends[i]`) with one write and one flush. The fault points are consulted
  /// once per record, in order, as if each record were appended alone: a
  /// torn record is written as a prefix after the whole records before it,
  /// and nothing after it is written. `intact` gets the number of records
  /// written whole.
  Status append_frames(std::span<std::uint8_t> frames,
                       std::span<const std::size_t> ends, std::size_t& intact);

  /// fsync the log (called on checkpoint boundaries).
  Status sync();

  const std::string& path() const { return path_; }

  /// Replay all intact records from a log file in order. Returns the number
  /// of intact records; one that names another table than qos_rules is
  /// counted but not applied. A trailing torn record is tolerated
  /// (truncated write during crash), but a CRC mismatch mid-file is an
  /// error.
  static Result<std::size_t> replay(
      const std::string& path,
      const std::function<void(const LogRecord&)>& apply);

 private:
  Wal(std::string path, std::FILE* file)
      : path_(std::move(path)), file_(file) {}

  std::string path_;
  // Guarded by mu_ after construction; the move operations run before the
  // Wal is shared across threads (Result<Wal> plumbing) and are exempted
  // from the static analysis for that reason.
  std::FILE* file_ JANUS_GUARDED_BY(mu_) = nullptr;
  Mutex mu_{LockRank::kDbWal, "db.wal"};
};

/// The writing side of a rules WAL: numbers each record with the next LSN
/// and frames a batch of them, in LSN order, for one append. db::Database
/// and the QoS server's rules log (core/table_rules.hpp) both write through
/// one. Not synchronized: the owner serializes every call but lsn().
class WalWriter {
 public:
  /// Open (creating if needed) the log at `path` for appending.
  Status open(const std::string& path);
  bool enabled() const { return wal_ != nullptr; }

  /// Start a batch at the next LSN.
  void begin();
  /// Add `op` of `rule` (its key alone for kRemove) at the batch's next LSN.
  void add(LogRecord::Op op, const RuleView& rule);
  /// Records in the batch.
  std::size_t batch_size() const { return count_; }
  /// Append the batch's frames with one write and one flush (when a log is
  /// open), then publish the LSNs of the records the log holds whole.
  Status commit();

  /// The last LSN published (monotonic; 0 = no records yet).
  std::uint64_t lsn() const { return lsn_.load(std::memory_order_acquire); }
  /// Continue numbering after `lsn` if it is past the last one (recovery).
  void advance_to(std::uint64_t lsn);

  /// Remove the log file and reopen it empty (compaction). On a failure to
  /// reopen, logging stops.
  Status truncate();

 private:
  std::unique_ptr<Wal> wal_;
  std::atomic<std::uint64_t> lsn_{0};
  // The batch: its records' frames back to back (record i ends at
  // frame_ends_[i]) when a log is open. Reused batch to batch, so a warm
  // write path allocates nothing for its log.
  std::uint64_t first_lsn_ = 0;
  std::size_t count_ = 0;
  std::vector<std::uint8_t> frames_;
  std::vector<std::size_t> frame_ends_;
};

}  // namespace janus::db
