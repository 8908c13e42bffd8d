// The QoS server's rules loader (core::TableRules::load over
// db/rules_file.hpp, DESIGN.md §15.2) parses each read block's lines where
// they lie into chunks applied to the table's shards. These tests hold it to
// the line-by-line loader kept below as the reference (each line parsed into
// a RuleRow and stored with its own RuleStore::put): the same rules, each
// credit to the millicredit as the bucket keeps it, the same WAL bytes and
// LSNs, and the same error for a bad line, wherever the read blocks and the
// chunks fall. On a table that already holds rules (a restored WAL, or a
// reload) a held key keeps its credit.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "common/string_util.hpp"
#include "core/table_rules.hpp"
#include "db/rule_store.hpp"
#include "db/rules_file.hpp"
#include "db/wal.hpp"
#include "testing/fault_injector.hpp"

namespace janus::core {
namespace {

using db::Database;
using db::kRulesReadBlock;
using db::RuleRow;
using db::RuleStore;

// ---- the reference --------------------------------------------------------

/// The line parser janusd had before the loader moved into the database
/// library: a RuleRow that owns its key.
Result<std::optional<RuleRow>> reference_parse(std::string_view line,
                                               int lineno) {
  auto error = [lineno](std::string_view what) {
    return Error("rules line " + std::to_string(lineno) + ": " +
                 std::string(what));
  };
  std::string_view text = trim(line);
  if (text.empty() || text[0] == '#') return std::optional<RuleRow>{};
  std::size_t eq = text.find('=');
  if (eq == std::string_view::npos) {
    return error("expected 'key = rate capacity [credit]'");
  }
  std::string_view key = trim(text.substr(0, eq));
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
  RuleRow rule{.key = std::string(key), .refill_per_sec = *rate,
               .capacity = *capacity, .credit = *credit};
  if (auto s = RuleStore::validate(rule.view()); !s.ok()) {
    return error(s.error().message);
  }
  return std::optional<RuleRow>(std::move(rule));
}

/// `text` split into lines (a last line without a newline counts), each
/// parsed by reference_parse and stored with its own RuleStore::put.
Status reference_load(RuleStore& store, const std::string& text) {
  int lineno = 0;
  auto take = [&](std::string_view line) -> Status {
    auto rule = reference_parse(line, ++lineno);
    if (!rule.ok()) return Error(rule.error().message);
    if (!rule.value()) return Status::success();
    if (auto s = store.put(*rule.value()); !s.ok()) {
      return Error("rules line " + std::to_string(lineno) + ": " +
                   s.error().message);
    }
    return Status::success();
  };
  std::size_t pos = 0;
  for (std::size_t nl; (nl = text.find('\n', pos)) != std::string::npos;
       pos = nl + 1) {
    if (auto s = take(std::string_view(text).substr(pos, nl - pos));
        !s.ok()) {
      return s;
    }
  }
  return pos < text.size() ? take(std::string_view(text).substr(pos))
                           : Status::success();
}

// ---- seeded rules files ----------------------------------------------------

std::string spaces(Rng& rng, std::uint64_t most) {
  return std::string(rng.next_below(most + 1), ' ');
}

/// A finite non-negative number in one of the spellings from_chars reads.
std::string number(Rng& rng) {
  char out[64];
  switch (rng.next_below(6)) {
    case 0:
      return std::to_string(rng.next_below(100'000));
    case 1:
      std::snprintf(out, sizeof(out), "%.*f",
                    static_cast<int>(rng.next_below(7)),
                    rng.uniform() * 10'000);
      return out;
    case 2:
      std::snprintf(out, sizeof(out), "%.17g",
                    rng.lognormal(100.0, 3.0));
      return out;
    case 3:
      std::snprintf(out, sizeof(out), "%d.%d%c%d",
                    static_cast<int>(rng.next_below(10)),
                    static_cast<int>(rng.next_below(100)),
                    rng.next_below(2) ? 'e' : 'E',
                    static_cast<int>(rng.next_below(21)) - 10);
      return out;
    case 4:
      return rng.next_below(2) ? "-0" : "0.000";
    default:
      std::snprintf(out, sizeof(out), "%.17g",
                    static_cast<double>(rng.next_u64() >> 11) * 0x1p-30);
      return out;
  }
}

double value_of(const std::string& text) {
  double v = 0;
  std::from_chars(text.data(), text.data() + text.size(), v);
  return v;
}

/// One rule line, its terminator included: runs of spaces and tabs around
/// the key and the '=', two or three numbers, LF or CRLF.
std::string rule_line(Rng& rng, const std::string& key) {
  const std::string rate = number(rng);
  const std::string capacity = number(rng);
  std::string line = spaces(rng, 2) + (rng.next_below(8) ? "" : "\t") + key +
                     spaces(rng, 3) + "=" + (rng.next_below(8) ? "" : "\t") +
                     spaces(rng, 3) + rate + " " + spaces(rng, 3) + capacity;
  switch (rng.next_below(3)) {
    case 0:  // the credit defaults to the capacity
      break;
    case 1:
      line += " " + spaces(rng, 2) + capacity;
      break;
    default: {  // a credit below the capacity, exact as %.17g
      char credit[64];
      std::snprintf(credit, sizeof(credit), "%.17g",
                    value_of(capacity) * rng.uniform());
      line += " " + spaces(rng, 2) + credit;
      break;
    }
  }
  line += spaces(rng, 2);
  return line + (rng.next_below(3) ? "\n" : "\r\n");
}

/// Keys of 1 to 24 bytes, some with a space inside, drawn so that about a
/// third of the rules name a key an earlier rule named.
std::vector<std::string> key_pool(Rng& rng, std::size_t count) {
  static constexpr char kChars[] = "abcdefghijklmnopqrstuvwxyz0123456789-_./:";
  std::vector<std::string> keys;
  for (std::size_t i = 0; i < count; ++i) {
    std::string key = "k" + std::to_string(i);
    for (std::uint64_t n = rng.next_below(20); n > 0; --n) {
      key += kChars[rng.next_below(sizeof(kChars) - 1)];
    }
    if (rng.next_below(16) == 0) key.insert(1, " ");
    keys.push_back(key);
  }
  return keys;
}

/// A seeded rules file of 2,000 to 8,000 lines (one to several read
/// blocks): rules, comments, blank lines and, in most files, one line longer
/// than a read block (a comment, a key, or a run of spaces).
std::vector<std::string> rules_lines(Rng& rng) {
  const std::size_t count = 2'000 + rng.next_below(6'000);
  const std::vector<std::string> keys = key_pool(rng, count * 2 / 3);
  std::vector<std::string> lines;
  for (std::size_t i = 0; i < count; ++i) {
    switch (rng.next_below(12)) {
      case 0:
        lines.push_back(spaces(rng, 2) + "# note " + std::to_string(i) +
                        (rng.next_below(2) ? "\n" : "\r\n"));
        break;
      case 1:
        lines.push_back(
            std::vector<std::string>{"\n", "\r\n", "   \n", "\t\n"}
                [rng.next_below(4)]);
        break;
      default:
        lines.push_back(rule_line(rng, keys[rng.next_below(keys.size())]));
    }
  }
  const std::size_t at = rng.next_below(lines.size());
  const std::size_t longer = kRulesReadBlock + rng.next_below(40'000);
  switch (rng.next_below(4)) {
    case 0:
      lines.insert(lines.begin() + at, "#" + std::string(longer, 'c') + "\n");
      break;
    case 1:
      lines.insert(lines.begin() + at, rule_line(rng, std::string(longer, 'K')));
      break;
    case 2:
      lines.insert(lines.begin() + at,
                   "spacy =" + std::string(longer, ' ') + "1 2\n");
      break;
    default:
      break;
  }
  return lines;
}

std::string join(const std::vector<std::string>& lines, bool final_newline) {
  std::string text;
  for (const std::string& line : lines) text += line;
  if (!final_newline) {
    while (!text.empty() && (text.back() == '\n' || text.back() == '\r')) {
      text.pop_back();
    }
  }
  return text;
}

// ---- fixtures --------------------------------------------------------------

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Each rule's refill rate and capacity, as bits, and its credit in
/// millicredits, as a bucket holds it.
using Rules = std::map<std::string, std::array<std::uint64_t, 3>>;

std::array<std::uint64_t, 3> rule_bits(double refill_per_sec, double capacity,
                                       std::int64_t millicredits) {
  return {std::bit_cast<std::uint64_t>(refill_per_sec),
          std::bit_cast<std::uint64_t>(capacity),
          static_cast<std::uint64_t>(millicredits)};
}

Rules rules_of(const Database& db) {
  Rules out;
  db.table().scan([&](const db::RuleView& rule) {
    const LeakyBucket bucket(rule.capacity, rule.refill_per_sec, rule.credit,
                             TimePoint{});
    out[std::string(rule.key)] =
        rule_bits(rule.refill_per_sec, rule.capacity, bucket.millicredits());
  });
  return out;
}

Rules rules_of(const ShardedQosTable& table) {
  Rules out;
  for (std::size_t s = 0; s < table.shard_count(); ++s) {
    table.for_each_rule_in_shard(
        s, [&](std::string_view key, const QosEntry& entry) {
          out[std::string(key)] =
              rule_bits(entry.refill_per_sec(), entry.capacity(),
                        entry.bucket.millicredits());
        });
  }
  return out;
}

class RulesFileTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const auto& p : paths_) std::remove(p.c_str());
  }

  std::string temp_path(const std::string& tag) {
    std::string p =
        ::testing::TempDir() + "janus_rules_" + std::to_string(::getpid()) +
        "_" + ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        "_" + tag;
    std::remove(p.c_str());
    paths_.push_back(p);
    return p;
  }

  std::string write(const std::string& tag, const std::string& text) {
    const std::string path = temp_path(tag);
    std::FILE* f = std::fopen(path.c_str(), "wb");
    EXPECT_NE(f, nullptr) << path;
    if (f != nullptr) {
      std::fwrite(text.data(), 1, text.size(), f);
      std::fclose(f);
    }
    return path;
  }

  /// `rules` into `table`, each provisioned as a restored WAL leaves it.
  void hold(ShardedQosTable& table, const std::vector<RuleRow>& rules) {
    for (const RuleRow& r : rules) {
      table.provision(r.key, r.capacity, r.refill_per_sec, r.credit,
                      clock_.now());
    }
  }

  /// Every record in the WAL at `path`.
  static std::size_t records(const std::string& path) {
    std::size_t count = 0;
    EXPECT_TRUE(
        db::Wal::replay(path, [&](const db::LogRecord&) { ++count; }).ok());
    return count;
  }

  std::vector<std::string> paths_;
  ManualClock clock_;
};

/// The rule `table` holds for `key`, its credit as the bucket keeps it.
std::optional<RuleRow> get(ShardedQosTable& table, const std::string& key) {
  return table.with_entry(key, [&](QosEntry& e) {
    return RuleRow{.key = key, .refill_per_sec = e.refill_per_sec(),
                   .capacity = e.capacity(), .credit = e.bucket.credit()};
  });
}

// ---- equivalence -----------------------------------------------------------

TEST_F(RulesFileTest, LoadsWhatTheLineByLineLoaderLoaded) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const std::string text = join(rules_lines(rng), seed % 2 == 0);
    const std::string path = write("rules" + std::to_string(seed), text);

    Database reference_db;
    RuleStore reference(reference_db);
    const std::string reference_wal = temp_path("ref" + std::to_string(seed));
    ASSERT_TRUE(reference_db.enable_wal(reference_wal).ok());
    ASSERT_TRUE(reference_load(reference, text).ok());

    ShardedQosTable table(4);
    TableRules rules(table, clock_);
    const std::string wal = temp_path("wal" + std::to_string(seed));
    ASSERT_TRUE(rules.restore("", wal).ok());
    const auto loaded = rules.load(path);
    ASSERT_TRUE(loaded.ok()) << loaded.error().message;

    EXPECT_GT(table.rule_count(), 500u);
    EXPECT_EQ(rules_of(table), rules_of(reference_db));
    EXPECT_EQ(loaded.value(), reference_db.lsn()) << "a record per rule line";
    EXPECT_EQ(read_file(wal), read_file(reference_wal));
  }
}

TEST_F(RulesFileTest, BadLineFailsAsTheLineByLineLoaderFailed) {
  const std::vector<std::string> bad = {
      "no equals sign\n", "a = 1\n",         " = 1 2\n",
      "a = 1 2 3 4\n",    "a = x 2\n",       "a = 1 2 3\r\n",
      "a = -1 2\n",       "k = nan 1\n",     "k = 1 -nan\n",
      "k = 1 2 inf\n",    "k = 1\t2\n",      "k = +1 2\n",
  };
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    std::vector<std::string> lines = rules_lines(rng);
    const std::string& line = bad[rng.next_below(bad.size())];
    // Put the bad line's first byte at the first read block's end, less
    // 0..len+1 bytes: it starts or ends at the boundary, or spans it.
    std::string before;
    std::size_t i = 0;
    while (i < lines.size() && before.size() + lines[i].size() +
                                       line.size() + 8 < kRulesReadBlock) {
      before += lines[i++];
    }
    std::vector<std::string> file(lines.begin(), lines.begin() + i);
    if (seed % 3 == 0) {
      file.push_back(line);  // somewhere in the first block instead
    } else {
      const std::size_t shift = rng.next_below(line.size() + 2);
      const std::size_t pad = kRulesReadBlock - shift - before.size();
      file.push_back("#" + std::string(pad - 2, '-') + "\n");
      file.push_back(line);
    }
    file.insert(file.end(), lines.begin() + i, lines.end());
    const std::string text = join(file, seed % 2 == 0);
    const std::string path = write("bad" + std::to_string(seed), text);

    Database reference_db;
    RuleStore reference(reference_db);
    const Status expected = reference_load(reference, text);
    ASSERT_FALSE(expected.ok());

    // Into an empty table, applied chunk by chunk as it is parsed.
    ShardedQosTable table(4);
    TableRules rules(table, clock_);
    const auto got = rules.load(path);
    ASSERT_FALSE(got.ok());
    EXPECT_EQ(got.error().message, expected.error().message);

    // Into a table that holds a rule, checked whole first: the same error,
    // and the table as it was.
    ShardedQosTable held(4);
    hold(held, {{.key = "k", .refill_per_sec = 1, .capacity = 9,
                 .credit = 4}});
    TableRules checked(held, clock_);
    const auto refused = checked.load(path);
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.error().message, expected.error().message);
    EXPECT_EQ(held.node_count(), 1u);
    EXPECT_EQ(get(held, "k"), (RuleRow{"k", 1, 9, 4}));
  }
}

TEST_F(RulesFileTest, TableIsSizedForTheFileBeforeTheFirstChunk) {
  Rng rng(7);
  const std::string text = join(rules_lines(rng), true);
  const std::size_t lines = static_cast<std::size_t>(
      std::count(text.begin(), text.end(), '\n'));
  const std::string path = write("rules", text);
  // The table as the first chunk was applied to it: a load whose first WAL
  // record is torn stops right after that chunk.
  std::size_t buckets_at_first_write = 0;
  {
    ShardedQosTable first(4);
    TableRules first_rules(first, clock_);
    ASSERT_TRUE(first_rules.restore("", temp_path("wal")).ok());
    testing::FaultInjector::ArmSpec spec;
    spec.max_fires = 1;
    testing::ScopedFault torn(testing::FaultPoint::kDbWalPartialWrite, spec);
    ASSERT_FALSE(first_rules.load(path).ok());
    ASSERT_GT(first.rule_count(), 0u);
    ASSERT_LT(first.rule_count(), lines);
    buckets_at_first_write = first.bucket_count();
  }
  ShardedQosTable table(4);
  TableRules rules(table, clock_);
  ASSERT_TRUE(rules.load(path).ok());
  EXPECT_GE(buckets_at_first_write, lines);
  EXPECT_EQ(table.bucket_count(), buckets_at_first_write);
}

// ---- a table that already holds rules ---------------------------------------

TEST_F(RulesFileTest, HeldKeysKeepTheirCreditClampedToTheFile) {
  ShardedQosTable table(4);
  TableRules rules(table, clock_);
  const std::string wal = temp_path("wal");
  ASSERT_TRUE(rules.restore("", wal).ok());
  hold(table, {{"same", 1, 10, 3},
               {"smaller", 1, 10, 8},
               {"faster", 1, 10, 4},
               {"absent", 2, 20, 5}});

  const auto loaded = rules.load(write("rules",
                                       "same = 1 10\n"
                                       "smaller = 1 5 5\n"
                                       "faster = 2 10 10\n"
                                       "new = 1 10 7\n"));
  ASSERT_TRUE(loaded.ok()) << loaded.error().message;
  EXPECT_EQ(get(table, "same"), (RuleRow{"same", 1, 10, 3}));
  EXPECT_EQ(get(table, "smaller"), (RuleRow{"smaller", 1, 5, 5}));
  EXPECT_EQ(get(table, "faster"), (RuleRow{"faster", 2, 10, 4}));
  EXPECT_EQ(get(table, "new"), (RuleRow{"new", 1, 10, 7}));
  EXPECT_EQ(get(table, "absent"), (RuleRow{"absent", 2, 20, 5}));
  EXPECT_EQ(loaded.value(), 3u);
  EXPECT_EQ(records(wal), 3u) << "a rule whose rate and capacity are "
                                 "unchanged must write nothing";
}

TEST_F(RulesFileTest, HeldRulesTakeRepeatedKeysInOrderAcrossChunksAndBlocks) {
  // Between the two lines for `twice`: nothing, more than a chunk, and more
  // than a read block of other rules. Each later line sees the rule the
  // earlier one left, so the result is the same for every gap.
  for (const std::size_t gap : {std::size_t{0}, std::size_t{300},
                                std::size_t{5'000}}) {
    SCOPED_TRACE("gap " + std::to_string(gap));
    ShardedQosTable table(4);
    TableRules rules(table, clock_);
    const std::string wal = temp_path("wal" + std::to_string(gap));
    ASSERT_TRUE(rules.restore("", wal).ok());
    hold(table, {{.key = "held", .refill_per_sec = 1, .capacity = 10,
                  .credit = 2}});
    std::string text = "twice = 1 10 6\nheld = 1 4\n";
    for (std::size_t i = 0; i < gap; ++i) {
      text += "filler-" + std::to_string(i) + " = 1 2\n";
    }
    text += "twice = 1 10 9\nheld = 3 4\ntwice = 1 5\n";
    ASSERT_TRUE(rules.load(write("rules" + std::to_string(gap), text)).ok());
    EXPECT_EQ(get(table, "twice"), (RuleRow{"twice", 1, 5, 5}));
    EXPECT_EQ(get(table, "held"), (RuleRow{"held", 3, 4, 2}));
    // twice (new), held (capacity), held (rate), twice (capacity), fillers.
    EXPECT_EQ(records(wal), 4 + gap);
  }
}

TEST_F(RulesFileTest, ReloadingTheFileOnItsRecoveredWalWritesNothing) {
  std::string text;
  Rng rng(11);
  for (int i = 0; i < 3'000; ++i) {
    text += rule_line(rng, "tenant-" + std::to_string(i));
  }
  const std::string path = write("rules", text);
  const std::string wal = temp_path("wal");
  Rules first;
  {
    ShardedQosTable table(4);
    TableRules rules(table, clock_);
    ASSERT_TRUE(rules.restore("", wal).ok());
    ASSERT_TRUE(rules.load(path).ok());
    // tenant-5 spends its credit, and a check-point logs it.
    table.with_entry("tenant-5", [&](QosEntry& e) {
      e.go_live(clock_.now());
      e.bucket.set_credit(0.0);
      e.set_credit_changed(true);
      return true;
    });
    ASSERT_EQ(rules.checkpoint(), 1u);
    first = rules_of(table);
  }
  const std::vector<std::uint8_t> logged = read_file(wal);
  ShardedQosTable table(4);
  TableRules rules(table, clock_);
  ASSERT_TRUE(rules.restore("", wal).ok());
  ASSERT_TRUE(rules.load(path).ok());
  EXPECT_EQ(rules_of(table), first);
  EXPECT_EQ(get(table, "tenant-5")->credit, 0.0);
  EXPECT_EQ(read_file(wal), logged);
}

}  // namespace
}  // namespace janus::core
