#include "common/string_util.hpp"

#include <charconv>

namespace janus {

// Character classes as the C locale defines them, the only locale Janus
// runs in (nothing calls setlocale): plain comparisons instead of a
// per-character call into the locale tables.
namespace {

/// isspace: space, \t, \n, \v, \f, \r.
bool ascii_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

/// tolower: A-Z only.
char ascii_lower(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

/// isalnum: 0-9, A-Z, a-z.
bool ascii_alnum(char c) {
  return (c >= '0' && c <= '9') || (c >= 'A' && c <= 'Z') ||
         (c >= 'a' && c <= 'z');
}

}  // namespace

std::vector<std::string_view> split(std::string_view s, char delim) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::vector<std::string_view> split_n(std::string_view s, char delim,
                                      std::size_t max_fields) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  while (out.size() + 1 < max_fields) {
    std::size_t pos = s.find(delim, start);
    if (pos == std::string_view::npos) break;
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  out.push_back(s.substr(start));
  return out;
}

std::string_view trim(std::string_view s) {
  std::size_t b = 0;
  std::size_t e = s.size();
  while (b < e && ascii_space(s[b])) ++b;
  while (e > b && ascii_space(s[e - 1])) --e;
  return s.substr(b, e - b);
}

bool starts_with(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (ascii_lower(a[i]) != ascii_lower(b[i])) return false;
  }
  return true;
}

std::optional<std::int64_t> parse_i64(std::string_view s) {
  std::int64_t value = 0;
  const char* begin = s.data();
  const char* end = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc{} || ptr != end || s.empty()) return std::nullopt;
  return value;
}

std::optional<std::uint64_t> parse_u64(std::string_view s) {
  std::uint64_t value = 0;
  const char* begin = s.data();
  const char* end = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc{} || ptr != end || s.empty()) return std::nullopt;
  return value;
}

std::optional<double> parse_double(std::string_view s) {
  // std::from_chars for double is available in GCC 11+.
  double value = 0;
  const char* begin = s.data();
  const char* end = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc{} || ptr != end || s.empty()) return std::nullopt;
  return value;
}

std::string to_lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = ascii_lower(c);
  return out;
}

namespace {
constexpr char kHex[] = "0123456789ABCDEF";

bool unreserved(char c) {
  return ascii_alnum(c) || c == '-' || c == '_' || c == '.' || c == '~';
}

int hex_val(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}
}  // namespace

std::string url_encode(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (unreserved(c)) {
      out.push_back(c);
    } else {
      out.push_back('%');
      out.push_back(kHex[(static_cast<unsigned char>(c) >> 4) & 0xF]);
      out.push_back(kHex[static_cast<unsigned char>(c) & 0xF]);
    }
  }
  return out;
}

std::optional<std::string> url_decode(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '%') {
      if (i + 2 >= s.size()) return std::nullopt;
      int hi = hex_val(s[i + 1]);
      int lo = hex_val(s[i + 2]);
      if (hi < 0 || lo < 0) return std::nullopt;
      out.push_back(static_cast<char>((hi << 4) | lo));
      i += 2;
    } else if (s[i] == '+') {
      out.push_back(' ');
    } else {
      out.push_back(s[i]);
    }
  }
  return out;
}

}  // namespace janus
