// Write-ahead log: every mutation is framed (length + CRC32) and appended to
// a file before being applied, so a restarted database recovers to its exact
// pre-crash state. Replay stops cleanly at the first torn/corrupt record.
#pragma once

#include <cstdio>
#include <functional>
#include <span>
#include <string>

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

}  // namespace janus::db
