#include "db/rules_file.hpp"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <vector>

#include "common/string_util.hpp"

namespace janus::db {

namespace {

/// The lines in `f` (a last line without a newline counts), read through
/// `buf`; leaves `f` rewound.
std::size_t count_lines(std::FILE* f, std::vector<char>& buf) {
  std::size_t lines = 0;
  char last = '\n';
  for (std::size_t got;
       (got = std::fread(buf.data(), 1, buf.size(), f)) > 0;) {
    // memchr skips a line's bytes many at a time; std::count reads them
    // one by one (3x slower over perfbench's rules files).
    const char* const end = buf.data() + got;
    for (const char* p = buf.data();
         (p = static_cast<const char*>(std::memchr(p, '\n', end - p)));
         ++p) {
      ++lines;
    }
    last = end[-1];
  }
  std::rewind(f);
  return lines + (last != '\n');
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// One write chunk of parsed rules: packed rows that view the keys in the
/// read block.
class RuleChunk {
 public:
  explicit RuleChunk(RuleStore& store)
      : store_(store), merge_(store.size() > 0) {
    rows_.reserve(Database::kWriteChunkRows);
  }

  /// Add a validated rule, committing the chunk once it is full.
  Status add(const RuleView& rule, int lineno) {
    PackedRow row(rule);
    if (merge_ && !merge_held(row)) return Status::success();
    rows_.push_back(row);
    return rows_.size() == Database::kWriteChunkRows ? commit(lineno)
                                                     : Status::success();
  }

  /// Write the chunk's rules in one database chunk; a failure names line
  /// `lineno`.
  Status commit(int lineno) {
    if (rows_.empty()) return Status::success();
    auto s = store_.database().put(rows_);
    rows_.clear();
    if (!s.ok()) {
      return Error("rules line " + std::to_string(lineno) + ": " +
                   s.error().message);
    }
    return Status::success();
  }

 private:
  /// For a key the rules already hold, keep the held credit, clamped to the
  /// line's capacity, in `row`. False if the line changes neither the rate
  /// nor the capacity it holds, so there is nothing to write.
  bool merge_held(PackedRow& row) const {
    const std::optional<RuleView> held = held_rule(row);
    if (!held) return true;
    if (same_bits(held->refill_per_sec, row.rule.refill_per_sec) &&
        same_bits(held->capacity, row.rule.capacity)) {
      return false;
    }
    row.rule.credit = std::min(held->credit, row.rule.capacity);
    return true;
  }

  /// The rule held for `row`'s key, its key not to be read: the last row of
  /// this chunk that names it, else the table's.
  std::optional<RuleView> held_rule(const PackedRow& row) const {
    for (auto it = rows_.rbegin(); it != rows_.rend(); ++it) {
      if (it->hash == row.hash && it->rule.key == row.rule.key) {
        return it->rule;
      }
    }
    std::optional<RuleView> held;
    store_.database().table().read(
        row.rule.key, [&](const RuleView& rule) { held = rule; });
    return held;
  }

  RuleStore& store_;
  // The database held rules before the load (a restored snapshot and WAL).
  const bool merge_;
  std::vector<PackedRow> rows_;
};

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

Status load_rules(RuleStore& store, const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return Error("cannot open rules file: " + path);
  std::vector<char> buf(kRulesReadBlock);
  store.reserve(count_lines(f, buf));
  RuleChunk chunk(store);
  int lineno = 0;
  auto take_line = [&](std::string_view line) -> Status {
    auto rule = parse_rule_line(line, ++lineno);
    if (!rule.ok()) return Error(rule.error().message);
    if (!rule.value()) return Status::success();
    return chunk.add(*rule.value(), lineno);
  };
  Status status = Status::success();
  std::size_t held = 0;  // an unfinished line, moved to the buffer's front
  for (bool eof = false; !eof && status.ok();) {
    // A line longer than the buffer grows it.
    if (held == buf.size()) buf.resize(buf.size() * 2);
    const std::size_t got =
        std::fread(buf.data() + held, 1, buf.size() - held, f);
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
    // The chunk's keys lie in this block: commit before the block moves.
    if (status.ok()) status = chunk.commit(lineno);
    held = data.size() - pos;
    std::memmove(buf.data(), buf.data() + pos, held);
  }
  std::fclose(f);
  return status;
}

}  // namespace janus::db
