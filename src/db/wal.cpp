#include "db/wal.hpp"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <vector>

#include "common/crc32.hpp"
#include "testing/fault_injector.hpp"

namespace janus::db {

Result<Wal> Wal::open(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (!f) return Error("wal: cannot open " + path + ": " + std::strerror(errno));
  return Wal(path, f);
}

Wal::Wal(Wal&& other) noexcept
    : path_(std::move(other.path_)), file_(other.file_) {
  other.file_ = nullptr;
}

Wal& Wal::operator=(Wal&& other) noexcept {
  if (this != &other) {
    if (file_) std::fclose(file_);
    path_ = std::move(other.path_);
    file_ = other.file_;
    other.file_ = nullptr;
  }
  return *this;
}

Wal::~Wal() {
  if (file_) std::fclose(file_);
}

Status Wal::append(const LogRecord& rec) {
  std::vector<std::uint8_t> framed = encode_record(rec);
  const std::size_t end = framed.size();
  std::size_t intact = 0;
  return append_frames(framed, std::span(&end, 1), intact);
}

Status Wal::append_frames(std::span<std::uint8_t> frames,
                          std::span<const std::size_t> ends,
                          std::size_t& intact) {
  intact = 0;
  auto& faults = testing::FaultInjector::instance();
  MutexLock lock(mu_);
  if (!file_) return Error("wal: closed");
  std::size_t start = 0;
  for (const std::size_t end : ends) {
    if (faults.should_fire(testing::FaultPoint::kDbWalCorruptCrc)) {
      // Silent media corruption: the record lands full-length and append
      // reports success, but its CRC (header bytes 4..7) no longer matches.
      frames[start + 4] ^= 0xFF;
    }
    if (faults.should_fire(testing::FaultPoint::kDbWalPartialWrite)) {
      // Torn write: only a prefix of this frame reaches the file, as after
      // a crash mid-append. param = bytes kept (0 => half the frame).
      const std::size_t size = end - start;
      const std::int64_t p =
          faults.param(testing::FaultPoint::kDbWalPartialWrite);
      const std::size_t keep =
          p > 0 ? std::min(size, static_cast<std::size_t>(p)) : size / 2;
      (void)std::fwrite(frames.data(), 1, start + keep, file_);
      (void)std::fflush(file_);
      return Error("wal: torn write (injected)");
    }
    start = end;
    ++intact;
  }
  if (std::fwrite(frames.data(), 1, start, file_) != start) {
    intact = 0;
    return Error("wal: short write");
  }
  if (std::fflush(file_) != 0) {
    intact = 0;
    return Error("wal: flush failed");
  }
  return Status::success();
}

Status Wal::sync() {
  MutexLock lock(mu_);
  if (!file_) return Error("wal: closed");
  if (std::fflush(file_) != 0) return Error("wal: flush failed");
  if (testing::FaultInjector::instance().should_fire(
          testing::FaultPoint::kDbWalSyncFail)) {
    return Error("wal: fsync failed (injected)");
  }
  if (::fsync(::fileno(file_)) != 0) return Error("wal: fsync failed");
  return Status::success();
}

Result<std::size_t> Wal::replay(
    const std::string& path,
    const std::function<void(const LogRecord&)>& apply) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return std::size_t{0};  // no log yet: empty database
  std::size_t applied = 0;
  for (;;) {
    std::uint8_t header[8];
    std::size_t got = std::fread(header, 1, sizeof(header), f);
    if (got == 0) break;  // clean end
    if (got < sizeof(header)) break;  // torn header at tail: stop
    std::uint32_t len = 0;
    std::uint32_t crc = 0;
    for (int i = 0; i < 4; ++i) len |= std::uint32_t{header[i]} << (8 * i);
    for (int i = 0; i < 4; ++i) crc |= std::uint32_t{header[4 + i]} << (8 * i);
    if (len > (64u << 20)) {
      std::fclose(f);
      return Error("wal: implausible record length (corrupt log)");
    }
    std::vector<std::uint8_t> payload(len);
    if (std::fread(payload.data(), 1, len, f) < len) break;  // torn tail
    std::uint32_t actual = crc32(std::string_view(
        reinterpret_cast<const char*>(payload.data()), payload.size()));
    if (actual != crc) {
      std::fclose(f);
      return Error("wal: CRC mismatch at record " + std::to_string(applied));
    }
    auto rec = decode_record_payload(payload);
    if (!rec.ok()) {
      std::fclose(f);
      return Error("wal: undecodable record: " + rec.error().message);
    }
    if (rec.value()) apply(*rec.value());
    ++applied;
  }
  std::fclose(f);
  return applied;
}

Status WalWriter::open(const std::string& path) {
  auto wal = Wal::open(path);
  if (!wal.ok()) return Error(wal.error().message);
  wal_ = std::make_unique<Wal>(std::move(wal).take());
  return Status::success();
}

void WalWriter::begin() {
  first_lsn_ = lsn_.load(std::memory_order_relaxed) + 1;
  count_ = 0;
  frames_.clear();
  frame_ends_.clear();
}

void WalWriter::add(LogRecord::Op op, const RuleView& rule) {
  if (wal_) {
    append_record(frames_, first_lsn_ + count_, op, rule);
    frame_ends_.push_back(frames_.size());
  }
  ++count_;
}

Status WalWriter::commit() {
  std::size_t durable = count_;
  Status written = Status::success();
  if (wal_ && count_ > 0) {
    written = wal_->append_frames(frames_, frame_ends_, durable);
  }
  if (durable > 0) {
    lsn_.store(first_lsn_ + durable - 1, std::memory_order_release);
  }
  return written;
}

void WalWriter::advance_to(std::uint64_t lsn) {
  if (lsn > lsn_.load(std::memory_order_relaxed)) {
    lsn_.store(lsn, std::memory_order_release);
  }
}

Status WalWriter::truncate() {
  if (!wal_) return Error("compact: WAL is not enabled");
  const std::string path = wal_->path();
  if (std::remove(path.c_str()) != 0) {
    return Error("compact: cannot remove " + path);
  }
  auto reopened = Wal::open(path);
  if (!reopened.ok()) {
    wal_.reset();
    return Error(reopened.error().message);
  }
  wal_ = std::make_unique<Wal>(std::move(reopened).take());
  return Status::success();
}

}  // namespace janus::db
