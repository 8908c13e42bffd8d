#include "db/rules_file.hpp"

#include <charconv>
#include <cstdio>
#include <cstring>
#include <vector>

#include "common/string_util.hpp"

namespace janus::db {

namespace {

/// `value` in the shortest form std::from_chars reads back exactly.
void append_number(std::string& out, double value) {
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  out.append(buf, ec == std::errc{} ? end : buf);
}

}  // namespace

Result<std::optional<RuleView>> parse_rule_line(std::string_view line,
                                                int lineno) {
  auto error = [lineno](std::string_view what) {
    return Error("rules line " + std::to_string(lineno) + ": " +
                 std::string(what));
  };
  std::string_view text = trim(line);
  if (text.empty() || text[0] == '#') return std::optional<RuleView>{};
  std::size_t eq = text.find('=');
  if (eq == std::string_view::npos) {
    return error("expected 'key = rate capacity [credit]'");
  }
  std::string_view key = trim(text.substr(0, eq));
  // Space-separated fields, empty ones skipped; a fourth means bad format.
  std::string_view fields[4];
  std::size_t count = 0;
  std::string_view rest = trim(text.substr(eq + 1));
  while (count < 4 && !rest.empty()) {
    const std::size_t space = rest.find(' ');
    if (space != 0) fields[count++] = rest.substr(0, space);
    if (space == std::string_view::npos) break;
    rest.remove_prefix(space + 1);
  }
  if (key.empty() || count < 2 || count > 3) return error("bad format");
  auto rate = parse_double(fields[0]);
  auto capacity = parse_double(fields[1]);
  auto credit = count == 3 ? parse_double(fields[2]) : capacity;
  if (!rate || !capacity || !credit) return error("bad number");
  const RuleView rule{.key = key, .refill_per_sec = *rate,
                      .capacity = *capacity, .credit = *credit};
  if (auto s = RuleStore::validate(rule); !s.ok()) {
    return error(s.error().message);
  }
  return std::optional<RuleView>(rule);
}

std::size_t count_lines(std::FILE* file) {
  std::rewind(file);
  char buf[16 * 1024];
  std::size_t lines = 0;
  char last = '\n';
  for (std::size_t got; (got = std::fread(buf, 1, sizeof(buf), file)) > 0;) {
    // memchr skips a line's bytes many at a time; std::count reads them
    // one by one (3x slower over perfbench's rules files).
    const char* const end = buf + got;
    for (const char* p = buf;
         (p = static_cast<const char*>(std::memchr(p, '\n', end - p)));
         ++p) {
      ++lines;
    }
    last = end[-1];
  }
  return lines + (last != '\n');
}

Status parse_rules_file(std::FILE* file, const RulesChunkFn& store) {
  std::rewind(file);
  std::vector<char> buf(kRulesReadBlock);
  std::vector<PackedRow> chunk;
  chunk.reserve(kRulesChunk);
  int lineno = 0;
  // Store the chunk's rules; a failure names the line reached.
  auto flush = [&]() -> Status {
    if (chunk.empty()) return Status::success();
    auto s = store(chunk);
    chunk.clear();
    if (!s.ok()) {
      return Error("rules line " + std::to_string(lineno) + ": " +
                   s.error().message);
    }
    return Status::success();
  };
  auto take_line = [&](std::string_view line) -> Status {
    auto rule = parse_rule_line(line, ++lineno);
    if (!rule.ok()) return Error(rule.error().message);
    if (!rule.value()) return Status::success();
    chunk.emplace_back(*rule.value());
    return chunk.size() == kRulesChunk ? flush() : Status::success();
  };
  Status status = Status::success();
  std::size_t held = 0;  // an unfinished line, moved to the buffer's front
  for (bool eof = false; !eof && status.ok();) {
    // A line longer than the buffer grows it.
    if (held == buf.size()) buf.resize(buf.size() * 2);
    const std::size_t got =
        std::fread(buf.data() + held, 1, buf.size() - held, file);
    eof = got == 0;  // a read error is taken as the end of the file
    const std::string_view data(buf.data(), held + got);
    std::size_t pos = 0;
    for (std::size_t nl; status.ok() &&
                         (nl = data.find('\n', pos)) != std::string_view::npos;
         pos = nl + 1) {
      status = take_line(data.substr(pos, nl - pos));
    }
    if (status.ok() && eof && pos < data.size()) {
      status = take_line(data.substr(pos));  // no final newline
    }
    // The chunk's keys lie in this block: store it before the block moves.
    if (status.ok()) status = flush();
    held = data.size() - pos;
    std::memmove(buf.data(), buf.data() + pos, held);
  }
  return status;
}

Status write_rules_file(const std::string& path,
                        std::span<const RuleRow> rules) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f) return Error("cannot write " + tmp);
  std::string text;
  for (const RuleRow& rule : rules) {
    text += rule.key;
    text += " = ";
    append_number(text, rule.refill_per_sec);
    text += ' ';
    append_number(text, rule.capacity);
    text += ' ';
    append_number(text, rule.credit);
    text += '\n';
  }
  const bool wrote =
      std::fwrite(text.data(), 1, text.size(), f) == text.size() &&
      std::fflush(f) == 0;
  std::fclose(f);
  if (!wrote || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Error("cannot write " + path);
  }
  return Status::success();
}

}  // namespace janus::db
