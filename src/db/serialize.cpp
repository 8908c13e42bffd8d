#include "db/serialize.hpp"

#include <bit>
#include <cstring>

#include "common/crc32.hpp"

namespace janus::db {

namespace {

// The value tags of a row's values (the generic encoder's column types).
constexpr std::uint8_t kDoubleTag = 1;
constexpr std::uint8_t kStringTag = 2;
// Values in a qos_rules row: the key, the refill rate, capacity and credit.
constexpr std::uint32_t kRuleValues = 4;

}  // namespace

void ByteWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void ByteWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void ByteWriter::f64(double v) {
  u64(std::bit_cast<std::uint64_t>(v));
}

void ByteWriter::str(std::string_view s) {
  u32(static_cast<std::uint32_t>(s.size()));
  buf_.insert(buf_.end(), s.begin(), s.end());
}

void ByteWriter::rule(const RuleView& rule) {
  u32(kRuleValues);
  u8(kStringTag);
  str(rule.key);
  for (const double v : {rule.refill_per_sec, rule.capacity, rule.credit}) {
    u8(kDoubleTag);
    f64(v);
  }
}

bool ByteReader::u8(std::uint8_t& out) {
  if (pos_ + 1 > data_.size()) return false;
  out = data_[pos_++];
  return true;
}

bool ByteReader::u32(std::uint32_t& out) {
  if (pos_ + 4 > data_.size()) return false;
  out = 0;
  for (int i = 0; i < 4; ++i) out |= std::uint32_t{data_[pos_ + i]} << (8 * i);
  pos_ += 4;
  return true;
}

bool ByteReader::u64(std::uint64_t& out) {
  if (pos_ + 8 > data_.size()) return false;
  out = 0;
  for (int i = 0; i < 8; ++i) out |= std::uint64_t{data_[pos_ + i]} << (8 * i);
  pos_ += 8;
  return true;
}

bool ByteReader::f64(double& out) {
  std::uint64_t bits = 0;
  if (!u64(bits)) return false;
  out = std::bit_cast<double>(bits);
  return true;
}

bool ByteReader::str(std::string& out) {
  std::string_view bytes;
  if (!view(bytes)) return false;
  out.assign(bytes);
  return true;
}

bool ByteReader::view(std::string_view& out) {
  std::uint32_t len = 0;
  if (!u32(len)) return false;
  if (len > remaining()) return false;
  out = std::string_view(reinterpret_cast<const char*>(data_.data() + pos_),
                         len);
  pos_ += len;
  return true;
}

bool ByteReader::rule(RuleView& out) {
  std::uint32_t values = 0;
  std::uint8_t tag = 0;
  if (!u32(values) || values != kRuleValues || !u8(tag) ||
      tag != kStringTag || !view(out.key)) {
    return false;
  }
  for (double* v : {&out.refill_per_sec, &out.capacity, &out.credit}) {
    if (!u8(tag) || tag != kDoubleTag || !f64(*v)) return false;
  }
  return true;
}

std::vector<std::uint8_t> encode_record(const LogRecord& rec) {
  std::vector<std::uint8_t> out;
  append_record(out, rec.lsn, rec.op, rec.rule.view());
  return out;
}

void append_record(std::vector<std::uint8_t>& out, std::uint64_t lsn,
                   LogRecord::Op op, const RuleView& rule) {
  const std::size_t start = out.size();
  ByteWriter w(std::move(out));
  w.u32(0);  // payload length, patched below
  w.u32(0);  // payload CRC, patched below
  w.u64(lsn);
  w.u8(static_cast<std::uint8_t>(op));
  w.str(kRulesTable);
  if (op == LogRecord::Op::kUpsert) {
    w.rule(rule);
  } else {
    w.str(rule.key);
  }
  out = w.take();

  const std::size_t payload = start + 8;
  const auto len = static_cast<std::uint32_t>(out.size() - payload);
  const std::uint32_t crc = crc32(std::string_view(
      reinterpret_cast<const char*>(out.data() + payload), len));
  for (int i = 0; i < 4; ++i) {
    out[start + i] = static_cast<std::uint8_t>(len >> (8 * i));
    out[start + 4 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
  }
}

Result<std::optional<LogRecord>> decode_record_payload(
    std::span<const std::uint8_t> payload) {
  ByteReader r(payload);
  LogRecord rec;
  std::uint8_t op = 0;
  std::string_view table;
  if (!r.u64(rec.lsn)) return Error("record: truncated lsn");
  if (!r.u8(op) || op > static_cast<std::uint8_t>(LogRecord::Op::kRemove)) {
    return Error("record: bad op");
  }
  rec.op = static_cast<LogRecord::Op>(op);
  if (!r.view(table)) return Error("record: truncated table name");
  if (table != kRulesTable) return std::optional<LogRecord>();
  if (rec.op == LogRecord::Op::kUpsert) {
    RuleView rule;
    if (!r.rule(rule)) return Error("record: truncated or foreign row");
    rec.rule = {.key = std::string(rule.key),
                .refill_per_sec = rule.refill_per_sec,
                .capacity = rule.capacity,
                .credit = rule.credit};
  } else {
    if (!r.str(rec.rule.key)) return Error("record: truncated pk");
  }
  if (!r.at_end()) return Error("record: trailing bytes");
  return std::optional<LogRecord>(std::move(rec));
}

}  // namespace janus::db
