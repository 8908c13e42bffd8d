// Seeded property tests for the DB serialize layer: random LogRecords
// round-trip through the WAL framing, every truncation is
// survivable (rejected, never a crash — sanitizers back this up), and the
// frame CRC catches any single-bit payload flip.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/crc32.hpp"
#include "common/rng.hpp"
#include "db/serialize.hpp"

namespace janus::db {
namespace {

constexpr std::uint64_t kSeed = 0x5E71A7'12Eull;

LogRecord random_record(Rng& rng) {
  LogRecord rec;
  rec.lsn = rng.next_u64();
  rec.rule.key.resize(rng.next_below(32));
  for (auto& c : rec.rule.key) c = static_cast<char>(rng.uniform_int(0, 255));
  if (rng.chance(0.5)) {
    rec.op = LogRecord::Op::kUpsert;
    // Finite doubles only: NaN would break operator== round-trip checks.
    rec.rule.refill_per_sec = rng.uniform(-1e12, 1e12);
    rec.rule.capacity = rng.uniform(-1e12, 1e12);
    rec.rule.credit = rng.uniform(-1e12, 1e12);
  } else {
    rec.op = LogRecord::Op::kRemove;
  }
  return rec;
}

/// encode_record frames as [u32 len][u32 crc][payload]; peel the framing.
std::span<const std::uint8_t> payload_of(const std::vector<std::uint8_t>& f) {
  return std::span(f).subspan(8);
}

std::uint32_t stored_crc(const std::vector<std::uint8_t>& f) {
  std::uint32_t crc = 0;
  for (int i = 0; i < 4; ++i) crc |= std::uint32_t{f[4 + i]} << (8 * i);
  return crc;
}

TEST(SerializePropertyTest, RandomRecordsRoundTrip) {
  Rng rng(kSeed);
  for (int i = 0; i < 1000; ++i) {
    const LogRecord rec = random_record(rng);
    const auto framed = encode_record(rec);
    ASSERT_GE(framed.size(), 8u);
    auto decoded = decode_record_payload(payload_of(framed));
    ASSERT_TRUE(decoded.ok()) << decoded.error().message;
    ASSERT_TRUE(decoded.value().has_value());
    EXPECT_EQ(*decoded.value(), rec);
  }
}

TEST(SerializePropertyTest, FramingCrcMatchesPayload) {
  Rng rng(kSeed ^ 1);
  for (int i = 0; i < 200; ++i) {
    const auto framed = encode_record(random_record(rng));
    const auto payload = payload_of(framed);
    const std::uint32_t actual = crc32(std::string_view(
        reinterpret_cast<const char*>(payload.data()), payload.size()));
    EXPECT_EQ(actual, stored_crc(framed));
  }
}

TEST(SerializePropertyTest, EveryTruncationIsRejectedNotCrashed) {
  Rng rng(kSeed ^ 2);
  for (int i = 0; i < 30; ++i) {
    const auto framed = encode_record(random_record(rng));
    const auto payload = payload_of(framed);
    for (std::size_t cut = 0; cut < payload.size(); ++cut) {
      auto r = decode_record_payload(payload.subspan(0, cut));
      EXPECT_FALSE(r.ok()) << "truncated payload (" << cut << "/"
                           << payload.size() << " bytes) decoded";
    }
  }
}

TEST(SerializePropertyTest, SingleBitFlipsAreAlwaysCaughtByFrameCrc) {
  // CRC32 detects every single-bit error, so torn-write detection in the
  // WAL cannot be fooled by one flipped bit anywhere in a payload.
  Rng rng(kSeed ^ 3);
  for (int i = 0; i < 100; ++i) {
    const auto framed = encode_record(random_record(rng));
    auto payload = std::vector<std::uint8_t>(framed.begin() + 8, framed.end());
    const std::size_t byte = rng.next_below(payload.size());
    payload[byte] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
    const std::uint32_t actual = crc32(std::string_view(
        reinterpret_cast<const char*>(payload.data()), payload.size()));
    EXPECT_NE(actual, stored_crc(framed));
    // And the decoder itself must never crash on the flipped bytes.
    (void)decode_record_payload(payload);
  }
}

TEST(SerializePropertyTest, RandomGarbageNeverCrashesDecoder) {
  Rng rng(kSeed ^ 4);
  for (int i = 0; i < 2000; ++i) {
    std::vector<std::uint8_t> junk(rng.next_below(128));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next_below(256));
    (void)decode_record_payload(junk);
  }
}

TEST(SerializePropertyTest, ByteWriterReaderPrimitivesRoundTrip) {
  Rng rng(kSeed ^ 5);
  for (int i = 0; i < 200; ++i) {
    const std::uint8_t a = static_cast<std::uint8_t>(rng.next_below(256));
    const std::uint32_t b = static_cast<std::uint32_t>(rng.next_u64());
    const std::uint64_t c = rng.next_u64();
    const double d = rng.uniform(-1e9, 1e9);
    std::string s(rng.next_below(64), '\0');
    for (auto& ch : s) ch = static_cast<char>(rng.uniform_int(0, 255));

    ByteWriter w;
    w.u8(a);
    w.u32(b);
    w.u64(c);
    w.f64(d);
    w.str(s);

    ByteReader r(w.bytes());
    std::uint8_t ra = 0;
    std::uint32_t rb = 0;
    std::uint64_t rc = 0;
    double rd = 0;
    std::string rs;
    ASSERT_TRUE(r.u8(ra));
    ASSERT_TRUE(r.u32(rb));
    ASSERT_TRUE(r.u64(rc));
    ASSERT_TRUE(r.f64(rd));
    ASSERT_TRUE(r.str(rs));
    EXPECT_TRUE(r.at_end());
    EXPECT_EQ(ra, a);
    EXPECT_EQ(rb, b);
    EXPECT_EQ(rc, c);
    EXPECT_EQ(rd, d);
    EXPECT_EQ(rs, s);
  }
}

}  // namespace
}  // namespace janus::db
