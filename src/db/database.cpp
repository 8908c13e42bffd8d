#include "db/database.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "testing/fault_injector.hpp"

namespace janus::db {

namespace {

constexpr std::uint32_t kSnapshotMagic = 0x4A444253;  // "JDBS"
// A snapshot is written and read through one buffer of this many bytes (a
// longer row grows the read buffer to hold it).
constexpr std::size_t kSnapshotBlock = 64 * 1024;

/// A file's bytes, read through one buffer a block at a time.
class FileBlocks {
 public:
  explicit FileBlocks(std::FILE* f) : f_(f), buf_(kSnapshotBlock) {}

  /// The next `n` bytes, not consumed, read from the file as needed; null
  /// if the file ends first. Valid until the next call. The buffer grows
  /// only to hold bytes the file has, so a corrupt length cannot inflate
  /// it past the file's size.
  const std::uint8_t* peek(std::size_t n) {
    if (end_ - pos_ < n) {
      std::memmove(buf_.data(), buf_.data() + pos_, end_ - pos_);
      end_ -= pos_;
      pos_ = 0;
      while (end_ < n) {
        if (end_ == buf_.size()) buf_.resize(2 * buf_.size());
        const std::size_t got =
            std::fread(buf_.data() + end_, 1, buf_.size() - end_, f_);
        if (got == 0) return nullptr;  // a read error ends the file too
        end_ += got;
      }
    }
    return buf_.data() + pos_;
  }

  void consume(std::size_t n) { pos_ += n; }

  bool u32(std::uint32_t& out) {
    const std::uint8_t* bytes = peek(4);
    if (!bytes || !ByteReader(std::span(bytes, 4)).u32(out)) return false;
    consume(4);
    return true;
  }

 private:
  std::FILE* f_;
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;
  std::size_t end_ = 0;
};

/// Parse a snapshot file into `out`, a rule at a time.
Status read_snapshot(std::FILE* f, const std::string& path, Table& out) {
  FileBlocks in(f);
  std::uint32_t magic = 0;
  std::uint32_t tables = 0;
  if (!in.u32(magic) || magic != kSnapshotMagic) {
    return Error("snapshot: bad magic in " + path);
  }
  if (!in.u32(tables)) return Error("snapshot: truncated header");
  for (std::uint32_t t = 0; t < tables; ++t) {
    std::uint32_t name_size = 0;
    std::uint32_t rows = 0;
    const std::uint8_t* name = nullptr;
    if (!in.u32(name_size) || !(name = in.peek(name_size))) {
      return Error("snapshot: truncated table header");
    }
    const std::string_view table(reinterpret_cast<const char*>(name),
                                 name_size);
    if (table != kRulesTable) {
      return Error("snapshot: no table named " + std::string(table));
    }
    in.consume(name_size);
    if (!in.u32(rows)) return Error("snapshot: truncated table header");
    for (std::uint32_t i = 0; i < rows; ++i) {
      // A row's key size, after its value count (4 bytes) and the key's
      // tag (1 byte), says how long the row is.
      const std::uint8_t* head = in.peek(rule_bytes(0));
      std::uint32_t key_size = 0;
      if (!head || !ByteReader(std::span(head + 5, 4)).u32(key_size)) {
        return Error("snapshot: truncated row");
      }
      const std::size_t size = rule_bytes(key_size);
      const std::uint8_t* bytes = in.peek(size);
      if (!bytes) return Error("snapshot: truncated row");
      RuleView rule;
      if (!ByteReader(std::span(bytes, size)).rule(rule)) {
        return Error("snapshot: not a qos_rules row");
      }
      const PackedRow row(rule);
      out.put(std::span(&row, 1), [](const RuleView&) {});
      in.consume(size);
    }
  }
  if (in.peek(1)) return Error("snapshot: trailing bytes");
  return Status::success();
}

/// Flush `f` and fsync it.
Status sync_file(std::FILE* f) {
  if (std::fflush(f) != 0) return Error("snapshot: flush failed");
  if (testing::FaultInjector::instance().should_fire(
          testing::FaultPoint::kDbSnapshotSyncFail)) {
    return Error("snapshot: fsync failed (injected)");
  }
  if (::fsync(::fileno(f)) != 0) return Error("snapshot: fsync failed");
  return Status::success();
}

/// fsync the directory that holds `path`, so that a rename into it lasts.
Status sync_dir_of(const std::string& path) {
  std::string dir = std::filesystem::path(path).parent_path().string();
  if (dir.empty()) dir = ".";
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return Error("snapshot: cannot open directory " + dir);
  const bool synced = ::fsync(fd) == 0;
  ::close(fd);
  if (!synced) return Error("snapshot: fsync of directory " + dir + " failed");
  return Status::success();
}

}  // namespace

Status Database::enable_wal(const std::string& path) {
  MutexLock lock(commit_mu_);
  auto wal = Wal::open(path);
  if (!wal.ok()) return Error(wal.error().message);
  wal_ = std::make_unique<Wal>(std::move(wal).take());
  return Status::success();
}

Result<std::size_t> Database::recover(const std::string& path) {
  std::uint64_t max_lsn = 0;
  auto applied = Wal::replay(path, [&](const LogRecord& rec) {
    if (rec.op == LogRecord::Op::kUpsert) {
      const PackedRow row(rec.rule.view());
      table_.put(std::span(&row, 1), [](const RuleView&) {});
    } else {
      table_.remove(rec.rule.key);
    }
    max_lsn = std::max(max_lsn, rec.lsn);
  });
  if (!applied.ok()) return applied;
  if (max_lsn > lsn_.load()) lsn_.store(max_lsn, std::memory_order_release);
  return applied;
}

void Database::ChunkLog::add(LogRecord::Op op, const RuleView& rule) {
  if (framed) {
    append_record(frames, first_lsn + count, op, rule);
    frame_ends.push_back(frames.size());
  }
  ++count;
}

Database::ChunkLog& Database::begin_chunk_locked() {
  chunk_.first_lsn = lsn_.load(std::memory_order_relaxed) + 1;
  chunk_.count = 0;
  chunk_.framed = wal_ != nullptr;
  chunk_.frames.clear();
  chunk_.frame_ends.clear();
  return chunk_;
}

Status Database::finish_chunk_locked() {
  std::size_t durable = chunk_.count;
  Status written = Status::success();
  if (chunk_.framed && chunk_.count > 0) {
    written = wal_->append_frames(chunk_.frames, chunk_.frame_ends, durable);
  }
  if (durable > 0) {
    lsn_.store(chunk_.first_lsn + durable - 1, std::memory_order_release);
  }
  return written;
}

Status Database::put(std::span<const PackedRow> rules) {
  for (std::size_t at = 0; at < rules.size(); at += kWriteChunkRows) {
    MutexLock lock(commit_mu_);
    ChunkLog& log = begin_chunk_locked();
    table_.put(rules.subspan(at, std::min(kWriteChunkRows, rules.size() - at)),
               [&](const RuleView& rule) {
                 log.add(LogRecord::Op::kUpsert, rule);
               });
    if (auto s = finish_chunk_locked(); !s.ok()) return s;
  }
  return Status::success();
}

Result<std::size_t> Database::write_credits(
    std::span<const CreditWrite> writes) {
  // The credit is written where the rule lies, under the table lock, so a
  // concurrent put of the same rule cannot be lost, and the logged full row
  // is the rule as it now stands.
  std::size_t written = 0;
  for (std::size_t at = 0; at < writes.size(); at += kWriteChunkRows) {
    MutexLock lock(commit_mu_);
    ChunkLog& log = begin_chunk_locked();
    written += table_.write_credits(
        writes.subspan(at, std::min(kWriteChunkRows, writes.size() - at)),
        [&](const RuleView& rule) { log.add(LogRecord::Op::kUpsert, rule); });
    if (auto s = finish_chunk_locked(); !s.ok()) return s.error();
  }
  return written;
}

Status Database::remove(std::string_view key) {
  MutexLock lock(commit_mu_);
  table_.remove(key);  // removing a missing rule is a logged no-op
  begin_chunk_locked().add(LogRecord::Op::kRemove, RuleView{.key = key});
  return finish_chunk_locked();
}

Status Database::snapshot_locked(const std::string& path) const {
  // Write-then-rename so a crash mid-snapshot never corrupts the previous
  // snapshot file.
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f) return Error("snapshot: cannot open " + tmp);
  ByteWriter w;
  w.u32(kSnapshotMagic);
  w.u32(1);  // tables
  w.str(kRulesTable);
  // Writes to the table hold commit_mu_, so the count holds for the scan.
  w.u32(static_cast<std::uint32_t>(table_.size()));
  bool wrote = true;
  auto write_out = [&] {
    const auto& bytes = w.bytes();
    wrote = wrote && std::fwrite(bytes.data(), 1, bytes.size(), f) ==
                         bytes.size();
    w.clear();
  };
  table_.scan([&](const RuleView& rule) {
    w.rule(rule);
    if (w.bytes().size() >= kSnapshotBlock) write_out();
  });
  write_out();
  Status status =
      wrote ? sync_file(f) : Error("snapshot: short write to " + tmp);
  std::fclose(f);
  if (status.ok() && std::rename(tmp.c_str(), path.c_str()) != 0) {
    status = Error("snapshot: rename to " + path + " failed");
  }
  if (!status.ok()) {
    std::remove(tmp.c_str());
    return status;
  }
  return sync_dir_of(path);
}

Status Database::snapshot_to(const std::string& path) const {
  MutexLock lock(commit_mu_);
  return snapshot_locked(path);
}

Status Database::load_snapshot(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return Error("snapshot: cannot open " + path);
  Table fresh;
  const Status parsed = read_snapshot(f, path, fresh);
  std::fclose(f);
  if (!parsed.ok()) return parsed;
  MutexLock lock(commit_mu_);
  table_.swap(fresh);  // the old rules are freed with `fresh`, unlocked
  return Status::success();
}

Status Database::compact_wal(const std::string& snapshot_path) {
  MutexLock lock(commit_mu_);
  if (!wal_) return Error("compact: WAL is not enabled");
  if (auto s = snapshot_locked(snapshot_path); !s.ok()) return s;
  // The snapshot and its name are durable: the log it replaces can go.
  const std::string wal_path = wal_->path();
  if (std::remove(wal_path.c_str()) != 0) {
    return Error("compact: cannot remove " + wal_path);
  }
  auto reopened = Wal::open(wal_path);
  if (!reopened.ok()) {
    wal_.reset();
    return Error(reopened.error().message);
  }
  wal_ = std::make_unique<Wal>(std::move(reopened).take());
  return Status::success();
}

}  // namespace janus::db
