// Binary (de)serialization of rows and log records, shared by the WAL,
// snapshot files, and the replication stream. Little-endian, length-prefixed,
// strictly bounds-checked on read.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "db/value.hpp"

namespace janus::db {

/// A single logical mutation, as shipped through WAL and replication.
struct LogRecord {
  enum class Op : std::uint8_t { kUpsert = 0, kRemove = 1 };

  std::uint64_t lsn = 0;
  Op op = Op::kUpsert;
  std::string table;
  Row row;         // kUpsert: full row; kRemove: ignored
  std::string pk;  // kRemove: primary key; kUpsert: ignored

  bool operator==(const LogRecord&) const = default;
};

class ByteWriter {
 public:
  ByteWriter() = default;
  /// Append to `buf` instead of starting empty (take() hands it back).
  explicit ByteWriter(std::vector<std::uint8_t> buf) : buf_(std::move(buf)) {}

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void f64(double v);
  void str(std::string_view s);
  void value(const Value& v);
  void row(const Row& r);
  /// The bytes row(r.to_row()) writes, read from the stored cells.
  void row(const RowView& r);

  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  bool u8(std::uint8_t& out);
  bool u32(std::uint32_t& out);
  bool u64(std::uint64_t& out);
  bool f64(double& out);
  bool str(std::string& out);
  bool value(Value& out);
  bool row(Row& out);

  bool at_end() const { return pos_ == data_.size(); }
  std::size_t remaining() const { return data_.size() - pos_; }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// Record framing: [u32 payload_len][u32 crc32(payload)][payload].
std::vector<std::uint8_t> encode_record(const LogRecord& rec);
/// Append the framed record (lsn, op, table, row or pk) to `out`: the bytes
/// encode_record returns for that record, with no LogRecord built. The
/// database's write path frames each row of a chunk this way, in place.
void append_record(std::vector<std::uint8_t>& out, std::uint64_t lsn,
                   LogRecord::Op op, std::string_view table, const Row& row,
                   std::string_view pk);
/// Append the framed kUpsert record of a stored row, read where it lies:
/// the bytes append_record writes for row.to_row().
void append_record(std::vector<std::uint8_t>& out, std::uint64_t lsn,
                   std::string_view table, const RowView& row);
Result<LogRecord> decode_record_payload(std::span<const std::uint8_t> payload);

}  // namespace janus::db
