// The rules table (DESIGN.md §15.3) keeps each rule in its hash node: the
// rate, capacity and credit cells, then the key once. These tests hold it to
// what a map of rules does: a seeded property test against a reference
// std::map<std::string, RuleRow>, doubles compared bit for bit, through
// puts, credit writes, removes, reads, scans, reserve, snapshots and WAL
// replay; and the WAL and snapshot bytes against the store's first, generic
// Row encoder, kept below as the reference, so files it wrote still recover.
#include <gtest/gtest.h>
#include <unistd.h>

#include <bit>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/crc32.hpp"
#include "common/rng.hpp"
#include "db/database.hpp"
#include "db/rule_store.hpp"

namespace janus::db {
namespace {

// ---- the reference: the generic Row encoder ---------------------------------

/// The encoder the store wrote its files with before it held one typed
/// table: a value is a one-byte type tag (0 int64, 1 double, 2 string) and
/// its bytes; a row is its value count, then its values.
namespace reference {

using Value = std::variant<std::int64_t, double, std::string>;
using Row = std::vector<Value>;

void value(ByteWriter& w, const Value& v) {
  w.u8(static_cast<std::uint8_t>(v.index()));
  if (const auto* i = std::get_if<std::int64_t>(&v)) {
    w.u64(static_cast<std::uint64_t>(*i));
  } else if (const auto* d = std::get_if<double>(&v)) {
    w.f64(*d);
  } else {
    w.str(std::get<std::string>(v));
  }
}

void row(ByteWriter& w, const Row& r) {
  w.u32(static_cast<std::uint32_t>(r.size()));
  for (const Value& v : r) value(w, v);
}

Row row_of(const RuleRow& rule) {
  return {rule.key, rule.refill_per_sec, rule.capacity, rule.credit};
}

/// [u32 payload_len][u32 crc32(payload)][payload], the payload being lsn,
/// op, table, then the row (an upsert) or the primary key (a remove).
void append_record(std::vector<std::uint8_t>& out, std::uint64_t lsn,
                   LogRecord::Op op, std::string_view table, const Row& r,
                   std::string_view pk) {
  ByteWriter payload;
  payload.u64(lsn);
  payload.u8(static_cast<std::uint8_t>(op));
  payload.str(table);
  if (op == LogRecord::Op::kUpsert) {
    row(payload, r);
  } else {
    payload.str(pk);
  }
  const std::vector<std::uint8_t>& bytes = payload.bytes();
  ByteWriter frame(std::move(out));
  frame.u32(static_cast<std::uint32_t>(bytes.size()));
  frame.u32(crc32(std::string_view(
      reinterpret_cast<const char*>(bytes.data()), bytes.size())));
  out = frame.take();
  out.insert(out.end(), bytes.begin(), bytes.end());
}

/// A snapshot: the magic, the table count, then each table's name, row
/// count and rows.
std::vector<std::uint8_t> snapshot(
    const std::vector<std::pair<std::string, std::vector<Row>>>& tables) {
  ByteWriter w;
  w.u32(0x4A444253);  // "JDBS"
  w.u32(static_cast<std::uint32_t>(tables.size()));
  for (const auto& [name, rows] : tables) {
    w.str(name);
    w.u32(static_cast<std::uint32_t>(rows.size()));
    for (const Row& r : rows) row(w, r);
  }
  return w.take();
}

}  // namespace reference

// ---- values -----------------------------------------------------------------

double from_bits(std::uint64_t bits) { return std::bit_cast<double>(bits); }
std::uint64_t bits_of(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Doubles a cell must keep bit for bit.
const std::vector<double>& edge_doubles() {
  static const std::vector<double> values = {
      0.0,
      -0.0,
      from_bits(0x7FF8000000000001ull),  // quiet NaN with a payload
      from_bits(0xFFF8DEADBEEF0000ull),  // negative quiet NaN, payload
      from_bits(0x0000000000000001ull),  // smallest denormal
      from_bits(0x800FFFFFFFFFFFFFull),  // largest negative denormal
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::max(),
      1.5,
  };
  return values;
}

double random_double(Rng& rng) {
  if (rng.chance(0.7)) {
    return edge_doubles()[rng.next_below(edge_doubles().size())];
  }
  return from_bits(rng.next_u64());  // any pattern, NaNs included
}

/// Keys of 0, 1, 15, 16 and 255 bytes, each byte drawn from all 256 values.
std::vector<std::string> key_pool(Rng& rng) {
  std::vector<std::string> keys;
  for (std::size_t size : {0, 1, 15, 16, 255}) {
    for (int copy = 0; copy < 3; ++copy) {
      std::string key(size, '\0');
      for (char& c : key) c = static_cast<char>(rng.next_below(256));
      keys.push_back(std::move(key));
    }
  }
  return keys;
}

RuleRow random_rule(Rng& rng, const std::string& key) {
  return {.key = key, .refill_per_sec = random_double(rng),
          .capacity = random_double(rng), .credit = random_double(rng)};
}

/// Rules equal, doubles by their bits (NaN == NaN, -0.0 != 0.0).
bool same_rule(const RuleRow& a, const RuleRow& b) {
  return a.key == b.key && bits_of(a.refill_per_sec) == bits_of(b.refill_per_sec) &&
         bits_of(a.capacity) == bits_of(b.capacity) &&
         bits_of(a.credit) == bits_of(b.credit);
}

RuleRow owned(const RuleView& r) {
  return {.key = std::string(r.key), .refill_per_sec = r.refill_per_sec,
          .capacity = r.capacity, .credit = r.credit};
}

using Oracle = std::map<std::string, RuleRow>;

/// Every rule the table visits, by key; a key seen twice fails the test.
Oracle contents(const Table& table) {
  Oracle out;
  table.scan([&](const RuleView& r) {
    EXPECT_TRUE(out.emplace(std::string(r.key), owned(r)).second)
        << "a key was visited twice";
  });
  return out;
}

void expect_same_contents(const Oracle& seen, const Oracle& oracle,
                          const std::string& what) {
  ASSERT_EQ(seen.size(), oracle.size()) << what;
  for (const auto& [key, rule] : oracle) {
    auto it = seen.find(key);
    ASSERT_TRUE(it != seen.end()) << what;
    EXPECT_TRUE(same_rule(it->second, rule)) << what;
  }
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, std::span<const std::uint8_t> bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

class TempFiles {
 public:
  ~TempFiles() {
    for (const auto& p : paths_) std::remove(p.c_str());
  }

  std::string path(const std::string& tag) {
    std::string p = ::testing::TempDir() + "janus_packed_" +
                    std::to_string(::getpid()) + "_" + tag;
    std::remove(p.c_str());
    paths_.push_back(p);
    paths_.push_back(p + ".tmp");
    return p;
  }

 private:
  std::vector<std::string> paths_;
};

// ---- the property test -------------------------------------------------------

void run_ops(std::uint64_t seed) {
  Rng rng(seed);
  TempFiles files;
  const std::string wal = files.path("wal_" + std::to_string(seed));
  const std::string snapshot = files.path("snap_" + std::to_string(seed));
  const std::vector<std::string> keys = key_pool(rng);
  auto any_key = [&] { return keys[rng.next_below(keys.size())]; };
  Database db;
  ASSERT_TRUE(db.enable_wal(wal).ok());
  Oracle oracle;

  for (std::uint64_t step = 0; step < 2000; ++step) {
    const std::string where =
        "seed " + std::to_string(seed) + " step " + std::to_string(step);
    SCOPED_TRACE(where);
    switch (rng.next_below(8)) {
      case 0:
      case 1: {  // put a chunk of rules, a key possibly twice
        std::vector<RuleRow> rules;
        for (std::uint64_t n = rng.next_below(6); n > 0; --n) {
          rules.push_back(random_rule(rng, any_key()));
        }
        std::vector<PackedRow> rows;
        for (const RuleRow& r : rules) rows.emplace_back(r.view());
        const std::uint64_t lsn = db.lsn();
        ASSERT_TRUE(db.put(rows).ok());
        EXPECT_EQ(db.lsn(), lsn + rules.size());
        for (const RuleRow& r : rules) oracle[r.key] = r;
        break;
      }
      case 2: {  // credit writes: some keys absent, some credits unchanged
        std::vector<std::string> names;
        std::vector<CreditWrite> writes;
        for (std::uint64_t n = rng.next_below(6); n > 0; --n) {
          names.push_back(any_key());
        }
        for (const std::string& name : names) {
          auto it = oracle.find(name);
          const double credit = it != oracle.end() && rng.chance(0.3)
                                    ? it->second.credit
                                    : random_double(rng);
          writes.push_back({name, credit});
        }
        std::size_t expected = 0;
        for (const CreditWrite& w : writes) {
          auto it = oracle.find(std::string(w.key));
          if (it == oracle.end() ||
              bits_of(it->second.credit) == bits_of(w.credit)) {
            continue;  // skipped without an LSN
          }
          it->second.credit = w.credit;
          ++expected;
        }
        const std::uint64_t lsn = db.lsn();
        auto written = db.write_credits(writes);
        ASSERT_TRUE(written.ok());
        EXPECT_EQ(written.value(), expected);
        EXPECT_EQ(db.lsn(), lsn + expected);
        break;
      }
      case 3: {  // remove
        const std::string key = any_key();
        ASSERT_TRUE(db.remove(key).ok());
        oracle.erase(key);
        break;
      }
      case 4: {  // read in place
        const std::string key = any_key();
        auto it = oracle.find(key);
        bool called = false;
        const bool found = db.table().read(key, [&](const RuleView& stored) {
          called = true;
          ASSERT_TRUE(it != oracle.end());
          EXPECT_TRUE(same_rule(owned(stored), it->second));
        });
        EXPECT_EQ(found, it != oracle.end());
        EXPECT_EQ(called, found);
        break;
      }
      case 5: {  // scan, and reserve, which changes no rule
        expect_same_contents(contents(db.table()), oracle, where);
        const std::size_t rules = rng.next_below(512);
        db.reserve(rules);
        EXPECT_GE(db.table().bucket_count(), rules);
        break;
      }
      case 6: {  // snapshot round trip, into a fresh database and this one
        ASSERT_TRUE(db.snapshot_to(snapshot).ok());
        Database restored;
        ASSERT_TRUE(restored.load_snapshot(snapshot).ok());
        expect_same_contents(contents(restored.table()), oracle, where);
        ASSERT_TRUE(db.load_snapshot(snapshot).ok());
        break;
      }
      case 7: {  // WAL replay rebuilds the table
        if (!rng.chance(0.2)) break;
        Database replayed;
        auto n = replayed.recover(wal);
        ASSERT_TRUE(n.ok()) << n.error().message;
        EXPECT_EQ(n.value(), db.lsn());
        EXPECT_EQ(replayed.lsn(), db.lsn());
        expect_same_contents(contents(replayed.table()), oracle, where);
        break;
      }
    }
    ASSERT_EQ(db.table().size(), oracle.size());
  }
  expect_same_contents(contents(db.table()), oracle, "the end");
  Database replayed;
  ASSERT_TRUE(replayed.recover(wal).ok());
  expect_same_contents(contents(replayed.table()), oracle, "the end's WAL");
}

TEST(PackedRowPropertyTest, TableMatchesAMapOfRows) {
  for (std::uint64_t seed : {1ull, 2ull, 0xC0FFEEull}) run_ops(seed);
}

// ---- byte compatibility -------------------------------------------------------

TEST(PackedRowFormatTest, LogAndSnapshotBytesMatchTheRowEncoder) {
  TempFiles files;
  const std::string wal = files.path("format_wal");
  const std::string snapshot = files.path("format_snapshot");
  Database db;
  RuleStore store(db);
  ASSERT_TRUE(db.enable_wal(wal).ok());

  // A seeded write sequence, and beside it the records the reference
  // encoder writes for it.
  Rng rng(0x5EED);
  Oracle rules;
  std::vector<std::uint8_t> expected;
  std::uint64_t lsn = 0;
  auto logged = [&](const RuleRow& rule) {
    reference::append_record(expected, ++lsn, LogRecord::Op::kUpsert,
                             "qos_rules", reference::row_of(rule), {});
  };

  std::vector<RuleRow> puts;
  for (int i = 0; i < 300; ++i) {  // more than one write chunk
    puts.push_back(random_rule(rng, "rule-" + std::to_string(i % 280)));
  }
  std::vector<PackedRow> rows;
  for (const RuleRow& r : puts) rows.emplace_back(r.view());
  ASSERT_TRUE(db.put(rows).ok());
  for (const RuleRow& r : puts) {
    logged(r);
    rules[r.key] = r;
  }

  std::vector<std::string> names;
  for (int i = 0; i < 290; i += 3) names.push_back("rule-" + std::to_string(i));
  std::vector<CreditWrite> credits;
  for (const std::string& name : names) {
    auto it = rules.find(name);
    const double credit = it != rules.end() && rng.chance(0.25)
                              ? it->second.credit
                              : random_double(rng);
    credits.push_back({name, credit});
  }
  ASSERT_TRUE(store.checkpoint_credits(credits).ok());
  for (const CreditWrite& w : credits) {
    auto it = rules.find(std::string(w.key));
    if (it == rules.end() || bits_of(it->second.credit) == bits_of(w.credit)) {
      continue;  // skipped without an LSN
    }
    it->second.credit = w.credit;
    logged(it->second);
  }

  ASSERT_TRUE(db.remove("rule-4").ok());
  reference::append_record(expected, ++lsn, LogRecord::Op::kRemove,
                           "qos_rules", {}, "rule-4");
  rules.erase("rule-4");
  ASSERT_EQ(db.lsn(), lsn);

  // WAL: every frame, byte for byte.
  EXPECT_EQ(read_file(wal), expected);

  // Snapshot: one table, qos_rules, each row as the reference writes it, in
  // the table's own order.
  ASSERT_TRUE(db.snapshot_to(snapshot).ok());
  std::vector<reference::Row> table_rows;
  Oracle seen;
  db.table().scan([&](const RuleView& r) {
    table_rows.push_back(reference::row_of(owned(r)));
    seen[std::string(r.key)] = owned(r);
  });
  expect_same_contents(seen, rules, "the table");
  EXPECT_EQ(read_file(snapshot),
            reference::snapshot({{"qos_rules", table_rows}}));
}

TEST(PackedRowFormatTest, FilesOfTheRowEncoderRecover) {
  // A snapshot and a WAL the reference wrote, as a database of the first
  // encoder left them after a compaction: a restart loads the snapshot,
  // then replays the WAL, skipping the records of another table.
  TempFiles files;
  const std::string wal = files.path("old_wal");
  const std::string snapshot = files.path("old_snapshot");
  Rng rng(0x01D);
  Oracle rules;
  std::vector<reference::Row> snapshot_rows;
  for (int i = 0; i < 40; ++i) {
    const RuleRow rule = random_rule(rng, "k" + std::to_string(i));
    snapshot_rows.push_back(reference::row_of(rule));
    rules[rule.key] = rule;
  }
  write_file(snapshot, reference::snapshot({{"qos_rules", snapshot_rows}}));

  std::vector<std::uint8_t> log;
  std::uint64_t lsn = 0;
  for (int i = 0; i < 60; ++i) {
    const std::string key = "k" + std::to_string(rng.next_below(50));
    if (rng.chance(0.15)) {
      reference::append_record(log, ++lsn, LogRecord::Op::kRemove,
                               "qos_rules", {}, key);
      rules.erase(key);
    } else if (rng.chance(0.15)) {
      reference::append_record(
          log, ++lsn, LogRecord::Op::kUpsert, "counts",
          {key, std::int64_t{7}, std::string("owner")}, {});
    } else {
      const RuleRow rule = random_rule(rng, key);
      reference::append_record(log, ++lsn, LogRecord::Op::kUpsert,
                               "qos_rules", reference::row_of(rule), {});
      rules[key] = rule;
    }
  }
  write_file(wal, log);

  Database db;
  ASSERT_TRUE(db.load_snapshot(snapshot).ok());
  auto replayed = db.recover(wal);
  ASSERT_TRUE(replayed.ok()) << replayed.error().message;
  EXPECT_EQ(replayed.value(), lsn);
  expect_same_contents(contents(db.table()), rules, "recovered");
}

}  // namespace
}  // namespace janus::db
