#include "db/serialize.hpp"

#include <bit>
#include <cstring>

#include "common/crc32.hpp"

namespace janus::db {

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

void ByteWriter::value(const Value& v) {
  u8(static_cast<std::uint8_t>(type_of(v)));
  switch (type_of(v)) {
    case ColumnType::kInt64:
      u64(static_cast<std::uint64_t>(std::get<std::int64_t>(v)));
      break;
    case ColumnType::kDouble:
      f64(std::get<double>(v));
      break;
    case ColumnType::kString:
      str(std::get<std::string>(v));
      break;
  }
}

void ByteWriter::row(const Row& r) {
  u32(static_cast<std::uint32_t>(r.size()));
  for (const auto& v : r) value(v);
}

void ByteWriter::row(const RowView& r) {
  u32(static_cast<std::uint32_t>(r.size()));
  u8(static_cast<std::uint8_t>(ColumnType::kString));
  str(r.key());
  for (std::size_t col = 1; col < r.size(); ++col) {
    u8(static_cast<std::uint8_t>(r.type(col)));
    u64(r.bits(col));  // value() writes an int64 or a double as these bits
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
  std::uint32_t len = 0;
  if (!u32(len)) return false;
  if (pos_ + len > data_.size()) return false;
  out.assign(reinterpret_cast<const char*>(data_.data() + pos_), len);
  pos_ += len;
  return true;
}

bool ByteReader::value(Value& out) {
  std::uint8_t tag = 0;
  if (!u8(tag)) return false;
  switch (static_cast<ColumnType>(tag)) {
    case ColumnType::kInt64: {
      std::uint64_t v = 0;
      if (!u64(v)) return false;
      out = static_cast<std::int64_t>(v);
      return true;
    }
    case ColumnType::kDouble: {
      double v = 0;
      if (!f64(v)) return false;
      out = v;
      return true;
    }
    case ColumnType::kString: {
      std::string v;
      if (!str(v)) return false;
      out = std::move(v);
      return true;
    }
  }
  return false;
}

bool ByteReader::row(Row& out) {
  std::uint32_t n = 0;
  if (!u32(n)) return false;
  if (n > remaining()) return false;  // each value needs >= 1 byte
  out.clear();
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    Value v;
    if (!value(v)) return false;
    out.push_back(std::move(v));
  }
  return true;
}

namespace {

/// Append [u32 payload_len][u32 crc32(payload)][payload] to `out`, where the
/// payload is lsn, op, table, then what `body` writes.
template <typename Body>
void frame_record(std::vector<std::uint8_t>& out, std::uint64_t lsn,
                  LogRecord::Op op, std::string_view table, Body&& body) {
  const std::size_t start = out.size();
  ByteWriter w(std::move(out));
  w.u32(0);  // payload length, patched below
  w.u32(0);  // payload CRC, patched below
  w.u64(lsn);
  w.u8(static_cast<std::uint8_t>(op));
  w.str(table);
  body(w);
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

}  // namespace

std::vector<std::uint8_t> encode_record(const LogRecord& rec) {
  std::vector<std::uint8_t> out;
  append_record(out, rec.lsn, rec.op, rec.table, rec.row, rec.pk);
  return out;
}

void append_record(std::vector<std::uint8_t>& out, std::uint64_t lsn,
                   LogRecord::Op op, std::string_view table, const Row& row,
                   std::string_view pk) {
  frame_record(out, lsn, op, table, [&](ByteWriter& w) {
    if (op == LogRecord::Op::kUpsert) {
      w.row(row);
    } else {
      w.str(pk);
    }
  });
}

void append_record(std::vector<std::uint8_t>& out, std::uint64_t lsn,
                   std::string_view table, const RowView& row) {
  frame_record(out, lsn, LogRecord::Op::kUpsert, table,
               [&](ByteWriter& w) { w.row(row); });
}

Result<LogRecord> decode_record_payload(std::span<const std::uint8_t> payload) {
  ByteReader r(payload);
  LogRecord rec;
  std::uint8_t op = 0;
  if (!r.u64(rec.lsn)) return Error("record: truncated lsn");
  if (!r.u8(op) || op > static_cast<std::uint8_t>(LogRecord::Op::kRemove)) {
    return Error("record: bad op");
  }
  rec.op = static_cast<LogRecord::Op>(op);
  if (!r.str(rec.table)) return Error("record: truncated table name");
  if (rec.op == LogRecord::Op::kUpsert) {
    if (!r.row(rec.row)) return Error("record: truncated row");
  } else {
    if (!r.str(rec.pk)) return Error("record: truncated pk");
  }
  if (!r.at_end()) return Error("record: trailing bytes");
  return rec;
}

}  // namespace janus::db
