#include "common/string_util.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <string>

namespace janus {
namespace {

TEST(SplitTest, BasicSplit) {
  auto parts = split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(SplitTest, PreservesEmptyFields) {
  auto parts = split(",a,,b,", ',');
  ASSERT_EQ(parts.size(), 5u);
  EXPECT_EQ(parts[0], "");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[4], "");
}

TEST(SplitTest, EmptyInputYieldsOneEmptyField) {
  auto parts = split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(SplitNTest, LimitsFieldCount) {
  auto parts = split_n("GET /qos?a=b HTTP/1.1", ' ', 3);
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "GET");
  EXPECT_EQ(parts[1], "/qos?a=b");
  EXPECT_EQ(parts[2], "HTTP/1.1");
}

TEST(SplitNTest, LastFieldKeepsDelimiters) {
  auto parts = split_n("a:b:c:d", ':', 2);
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[1], "b:c:d");
}

TEST(TrimTest, RemovesSurroundingWhitespace) {
  EXPECT_EQ(trim("  hello  "), "hello");
  EXPECT_EQ(trim("\t\r\n x \n"), "x");
  EXPECT_EQ(trim("nospace"), "nospace");
  EXPECT_EQ(trim("   "), "");
  EXPECT_EQ(trim(""), "");
}

TEST(StartsWithTest, Basic) {
  EXPECT_TRUE(starts_with("HTTP/1.1", "HTTP/"));
  EXPECT_FALSE(starts_with("HTT", "HTTP/"));
  EXPECT_TRUE(starts_with("anything", ""));
}

TEST(IEqualsTest, CaseInsensitive) {
  EXPECT_TRUE(iequals("Content-Length", "content-length"));
  EXPECT_TRUE(iequals("", ""));
  EXPECT_FALSE(iequals("abc", "abd"));
  EXPECT_FALSE(iequals("abc", "abcd"));
}

// trim, iequals, to_lower and url_encode classify characters with plain
// ASCII comparisons; in the C locale (Janus never calls setlocale) that is
// exactly what <cctype> answers, for every byte value.
TEST(AsciiClassesTest, EveryByteMatchesTheCLocale) {
  for (int i = 0; i < 256; ++i) {
    const char c = static_cast<char>(i);
    const std::string one(1, c);
    const auto u = static_cast<unsigned char>(i);
    EXPECT_EQ(trim(one).empty(), std::isspace(u) != 0) << "byte " << i;
    EXPECT_EQ(to_lower(one), std::string(1, static_cast<char>(std::tolower(u))))
        << "byte " << i;
    const bool kept = url_encode(one) == one;
    EXPECT_EQ(kept, std::isalnum(u) != 0 || c == '-' || c == '_' ||
                        c == '.' || c == '~')
        << "byte " << i;
    for (int j = 0; j < 256; ++j) {
      const auto v = static_cast<unsigned char>(j);
      ASSERT_EQ(iequals(one, std::string(1, static_cast<char>(j))),
                std::tolower(u) == std::tolower(v))
          << "bytes " << i << ", " << j;
    }
  }
}

TEST(ParseI64Test, ValidAndInvalid) {
  EXPECT_EQ(parse_i64("123"), 123);
  EXPECT_EQ(parse_i64("-45"), -45);
  EXPECT_EQ(parse_i64("0"), 0);
  EXPECT_EQ(parse_i64(""), std::nullopt);
  EXPECT_EQ(parse_i64("12x"), std::nullopt);
  EXPECT_EQ(parse_i64("x12"), std::nullopt);
  EXPECT_EQ(parse_i64(" 12"), std::nullopt);
  EXPECT_EQ(parse_i64("99999999999999999999999"), std::nullopt);  // overflow
}

TEST(ParseU64Test, RejectsNegative) {
  EXPECT_EQ(parse_u64("42"), 42u);
  EXPECT_EQ(parse_u64("-1"), std::nullopt);
}

TEST(ParseDoubleTest, ValidAndInvalid) {
  EXPECT_DOUBLE_EQ(*parse_double("2.5"), 2.5);
  EXPECT_DOUBLE_EQ(*parse_double("-1e3"), -1000.0);
  EXPECT_EQ(parse_double("abc"), std::nullopt);
  EXPECT_EQ(parse_double("1.5x"), std::nullopt);
  EXPECT_EQ(parse_double(""), std::nullopt);
}

TEST(ToLowerTest, Basic) {
  EXPECT_EQ(to_lower("MiXeD"), "mixed");
  EXPECT_EQ(to_lower("123-ABC"), "123-abc");
}

TEST(UrlEncodeTest, KeepsUnreservedEncodesRest) {
  EXPECT_EQ(url_encode("abc-XYZ_0.9~"), "abc-XYZ_0.9~");
  EXPECT_EQ(url_encode("a b"), "a%20b");
  EXPECT_EQ(url_encode("a/b?c=d&e"), "a%2Fb%3Fc%3Dd%26e");
  EXPECT_EQ(url_encode(""), "");
}

TEST(UrlDecodeTest, RoundTripsEncode) {
  const std::string original = "tenant 42/photos?x=1&y=2\xFF";
  auto decoded = url_decode(url_encode(original));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, original);
}

TEST(UrlDecodeTest, PlusDecodesToSpace) {
  EXPECT_EQ(url_decode("a+b"), "a b");
}

TEST(UrlDecodeTest, RejectsMalformedEscapes) {
  EXPECT_EQ(url_decode("%"), std::nullopt);
  EXPECT_EQ(url_decode("%2"), std::nullopt);
  EXPECT_EQ(url_decode("%ZZ"), std::nullopt);
  EXPECT_EQ(url_decode("ok%20fine"), "ok fine");
}

}  // namespace
}  // namespace janus
