#include "db/serialize.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"

namespace janus::db {
namespace {

TEST(ByteWriterReaderTest, PrimitivesRoundTrip) {
  ByteWriter w;
  w.u8(0xAB);
  w.u32(0xDEADBEEF);
  w.u64(0x1122334455667788ull);
  w.f64(-2.5);
  w.str("hello");

  ByteReader r(w.bytes());
  std::uint8_t a = 0;
  std::uint32_t b = 0;
  std::uint64_t c = 0;
  double d = 0;
  std::string s;
  EXPECT_TRUE(r.u8(a));
  EXPECT_TRUE(r.u32(b));
  EXPECT_TRUE(r.u64(c));
  EXPECT_TRUE(r.f64(d));
  EXPECT_TRUE(r.str(s));
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(a, 0xAB);
  EXPECT_EQ(b, 0xDEADBEEFu);
  EXPECT_EQ(c, 0x1122334455667788ull);
  EXPECT_DOUBLE_EQ(d, -2.5);
  EXPECT_EQ(s, "hello");
}

TEST(ByteWriterReaderTest, SpecialDoublesSurvive) {
  ByteWriter w;
  w.f64(0.0);
  w.f64(-0.0);
  w.f64(1e308);
  w.f64(5e-324);  // denormal min
  ByteReader r(w.bytes());
  double v = 1;
  EXPECT_TRUE(r.f64(v));
  EXPECT_EQ(v, 0.0);
  EXPECT_TRUE(r.f64(v));
  EXPECT_TRUE(std::signbit(v));
  EXPECT_TRUE(r.f64(v));
  EXPECT_DOUBLE_EQ(v, 1e308);
  EXPECT_TRUE(r.f64(v));
  EXPECT_DOUBLE_EQ(v, 5e-324);
}

TEST(ByteWriterReaderTest, RowRoundTrip) {
  const RuleRow original{.key = "pk", .refill_per_sec = 1.5, .capacity = 42.0,
                         .credit = -0.0};
  ByteWriter w;
  w.rule(original.view());
  ByteReader r(w.bytes());
  RuleView decoded;
  EXPECT_TRUE(r.rule(decoded));
  EXPECT_TRUE(r.at_end());
  EXPECT_EQ(decoded.key, original.key);
  EXPECT_EQ(decoded.refill_per_sec, original.refill_per_sec);
  EXPECT_EQ(decoded.capacity, original.capacity);
  EXPECT_TRUE(std::signbit(decoded.credit));
}

TEST(ByteReaderTest, TruncationFailsCleanly) {
  ByteWriter w;
  w.rule(RuleView{.key = "pk", .refill_per_sec = 2.0});
  const auto& full = w.bytes();
  for (std::size_t len = 0; len < full.size(); ++len) {
    ByteReader r(std::span(full.data(), len));
    RuleView out;
    EXPECT_FALSE(r.rule(out)) << "rule decoded from " << len << " bytes";
  }
}

TEST(ByteReaderTest, HugeDeclaredCountRejected) {
  ByteWriter w;
  w.u32(0xFFFFFFFF);  // row with 4 billion values
  ByteReader r(w.bytes());
  RuleView out;
  EXPECT_FALSE(r.rule(out));
  // A key longer than the bytes that follow it.
  ByteWriter key;
  key.u32(4);
  key.u8(2);  // the string tag
  key.u32(0xFFFFFFFF);
  ByteReader keyed(key.bytes());
  EXPECT_FALSE(keyed.rule(out));
}

LogRecord sample_upsert() {
  LogRecord rec;
  rec.lsn = 17;
  rec.op = LogRecord::Op::kUpsert;
  rec.rule = RuleRow{.key = "alice", .refill_per_sec = 100.0,
                     .capacity = 1000.0, .credit = 950.0};
  return rec;
}

TEST(LogRecordTest, UpsertRoundTrip) {
  const LogRecord rec = sample_upsert();
  auto framed = encode_record(rec);
  // Frame = 8-byte header + payload.
  ASSERT_GT(framed.size(), 8u);
  auto decoded = decode_record_payload(std::span(framed).subspan(8));
  ASSERT_TRUE(decoded.ok()) << decoded.error().message;
  ASSERT_TRUE(decoded.value().has_value());
  EXPECT_EQ(*decoded.value(), rec);
}

TEST(LogRecordTest, RemoveRoundTrip) {
  LogRecord rec;
  rec.lsn = 99;
  rec.op = LogRecord::Op::kRemove;
  rec.rule.key = "bob";
  auto framed = encode_record(rec);
  auto decoded = decode_record_payload(std::span(framed).subspan(8));
  ASSERT_TRUE(decoded.ok());
  ASSERT_TRUE(decoded.value().has_value());
  EXPECT_EQ(*decoded.value(), rec);
}

TEST(LogRecordTest, RecordOfAnotherTableDecodesToNothing) {
  // lsn, op, a table name other than qos_rules, then a row of any shape.
  ByteWriter w;
  w.u64(5);
  w.u8(static_cast<std::uint8_t>(LogRecord::Op::kUpsert));
  w.str("counts");
  w.u32(2);
  w.u8(2);
  w.str("k");
  w.u8(0);
  w.u64(7);
  auto decoded = decode_record_payload(w.bytes());
  ASSERT_TRUE(decoded.ok()) << decoded.error().message;
  EXPECT_FALSE(decoded.value().has_value());
}

TEST(LogRecordTest, FrameChecksumMatchesPayload) {
  auto framed = encode_record(sample_upsert());
  std::uint32_t declared_len = 0;
  for (int i = 0; i < 4; ++i) declared_len |= std::uint32_t{framed[i]} << (8 * i);
  EXPECT_EQ(declared_len, framed.size() - 8);
}

TEST(LogRecordTest, PayloadCorruptionDetectedByDecoder) {
  auto framed = encode_record(sample_upsert());
  // Flip the op byte to an invalid value.
  framed[8 + 8] = 0x7F;
  EXPECT_FALSE(decode_record_payload(std::span(framed).subspan(8)).ok());
}

TEST(LogRecordTest, TrailingGarbageRejected) {
  auto framed = encode_record(sample_upsert());
  framed.push_back(0xEE);
  EXPECT_FALSE(decode_record_payload(std::span(framed).subspan(8)).ok());
}

}  // namespace
}  // namespace janus::db
