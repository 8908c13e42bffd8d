#include "db/snapshot.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <vector>

#include "db/serialize.hpp"
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

/// Parse a snapshot file, handing `fn` a rule at a time.
Status read_rules(std::FILE* f, const std::string& path,
                  const RuleVisitor& fn) {
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
      fn(rule);
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

Status write_snapshot(const std::string& path,
                      const std::function<void(const RuleVisitor&)>& scan) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f) return Error("snapshot: cannot open " + tmp);
  ByteWriter w;
  w.u32(kSnapshotMagic);
  w.u32(1);  // tables
  w.str(kRulesTable);
  // The row count is written once the rows are: a placeholder until then.
  const long count_at = static_cast<long>(w.bytes().size());
  w.u32(0);
  std::uint32_t rows = 0;
  bool wrote = true;
  auto write_out = [&] {
    const auto& bytes = w.bytes();
    wrote = wrote && std::fwrite(bytes.data(), 1, bytes.size(), f) ==
                         bytes.size();
    w.clear();
  };
  scan([&](const RuleView& rule) {
    w.rule(rule);
    ++rows;
    if (w.bytes().size() >= kSnapshotBlock) write_out();
  });
  write_out();
  w.u32(rows);
  wrote = wrote && std::fseek(f, count_at, SEEK_SET) == 0;
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

Status read_snapshot(const std::string& path, const RuleVisitor& fn) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return Error("snapshot: cannot open " + path);
  const Status parsed = read_rules(f, path, fn);
  std::fclose(f);
  return parsed;
}

}  // namespace janus::db
