// Binary (de)serialization of rules and log records, shared by the WAL and
// snapshot files (and, for its primitives, the HA snapshot feed).
// Little-endian, length-prefixed, strictly bounds-checked on read.
//
// A rule is written as the row the store's first, generic encoder wrote for
// a qos_rules row: a four-value row whose values are tagged string, double,
// double, double. Log records still name their table, qos_rules, so WALs
// and snapshots written by that encoder still recover.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.hpp"
#include "db/table.hpp"

namespace janus::db {

/// The one table a log record or a snapshot names.
inline constexpr std::string_view kRulesTable = "qos_rules";

/// A single logical mutation of qos_rules, as the WAL frames it.
struct LogRecord {
  enum class Op : std::uint8_t { kUpsert = 0, kRemove = 1 };

  std::uint64_t lsn = 0;
  Op op = Op::kUpsert;
  RuleRow rule;  // kRemove: only the key

  bool operator==(const LogRecord&) const = default;
};

/// The bytes ByteWriter::rule writes for a rule whose key has `key_size`
/// bytes: the value count, the key's tag and size, the key, then three
/// tagged doubles.
constexpr std::size_t rule_bytes(std::size_t key_size) {
  return 4 + (1 + 4 + key_size) + 3 * (1 + 8);
}

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
  /// The row a qos_rules rule is written as (the file comment).
  void rule(const RuleView& rule);

  const std::vector<std::uint8_t>& bytes() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }
  /// Drop the bytes written, keeping the buffer's capacity.
  void clear() { buf_.clear(); }

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
  /// str() without the copy: `out` views the bytes read.
  bool view(std::string_view& out);
  /// A row ByteWriter::rule wrote; `out`'s key views the bytes read. False
  /// on a truncated row or one that is not a qos_rules row.
  bool rule(RuleView& out);

  bool at_end() const { return pos_ == data_.size(); }
  std::size_t remaining() const { return data_.size() - pos_; }

 private:
  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

/// Record framing: [u32 payload_len][u32 crc32(payload)][payload], the
/// payload being lsn, op, the table's name, then the rule (kUpsert) or its
/// key (kRemove).
std::vector<std::uint8_t> encode_record(const LogRecord& rec);
/// Append the framed record of `rule` to `out`: the bytes encode_record
/// returns for that record, with no LogRecord built. The database's write
/// path frames each rule of a chunk this way, where the rule lies.
void append_record(std::vector<std::uint8_t>& out, std::uint64_t lsn,
                   LogRecord::Op op, const RuleView& rule);
/// The record in a payload, or nothing for a record that names another
/// table than qos_rules.
Result<std::optional<LogRecord>> decode_record_payload(
    std::span<const std::uint8_t> payload);

}  // namespace janus::db
