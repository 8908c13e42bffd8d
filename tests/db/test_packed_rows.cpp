// Packed rows (DESIGN.md §15.3): a Table keeps each row in its hash node, the
// key once and one 8-byte cell per non-key column. These tests hold it to
// what a map of Rows did: a seeded property test against a reference
// std::unordered_map<std::string, Row>, doubles compared bit for bit; the
// WAL, snapshot and replication bytes against what append_record and
// ByteWriter::row produce from the equivalent Rows; and the refusal of a
// string outside the key.
#include <gtest/gtest.h>
#include <unistd.h>

#include <bit>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "db/database.hpp"
#include "db/rule_store.hpp"
#include "db/table.hpp"

namespace janus::db {
namespace {

/// The three test schemas of this suite's other files, and qos_rules.
std::vector<Schema> schemas() {
  return {
      Schema{{{"key", ColumnType::kString},
              {"rate", ColumnType::kDouble},
              {"count", ColumnType::kInt64}}},
      Schema{{{"key", ColumnType::kString}, {"rate", ColumnType::kDouble}}},
      Schema{{{"key", ColumnType::kString},
              {"a", ColumnType::kInt64},
              {"b", ColumnType::kInt64}}},
      RuleStore::schema(),
  };
}

double from_bits(std::uint64_t bits) { return std::bit_cast<double>(bits); }

/// Doubles a packed cell must keep bit for bit.
const std::vector<double>& edge_doubles() {
  static const std::vector<double> values = {
      0.0,
      -0.0,
      from_bits(0x7FF8000000000001ull),  // quiet NaN with a payload
      from_bits(0xFFF8DEADBEEF0000ull),  // negative quiet NaN, payload
      from_bits(0x7FF4000000000000ull),  // signalling NaN
      from_bits(0x0000000000000001ull),  // smallest denormal
      from_bits(0x800FFFFFFFFFFFFFull),  // largest negative denormal
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::max(),
      1.5,
  };
  return values;
}

const std::vector<std::int64_t>& edge_ints() {
  static const std::vector<std::int64_t> values = {
      std::numeric_limits<std::int64_t>::min(),
      std::numeric_limits<std::int64_t>::max(),
      0,
      -1,
      42,
  };
  return values;
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

Value random_value(Rng& rng, ColumnType type) {
  if (type == ColumnType::kDouble) {
    if (rng.chance(0.7)) {
      return edge_doubles()[rng.next_below(edge_doubles().size())];
    }
    return from_bits(rng.next_u64());  // any pattern, NaNs included
  }
  if (rng.chance(0.7)) return edge_ints()[rng.next_below(edge_ints().size())];
  return static_cast<std::int64_t>(rng.next_u64());
}

Row random_row(Rng& rng, const Schema& schema, const std::string& key) {
  Row row{key};
  for (std::size_t col = 1; col < schema.columns.size(); ++col) {
    row.push_back(random_value(rng, schema.columns[col].type));
  }
  return row;
}

/// Values equal, doubles by their bits (NaN == NaN, -0.0 != 0.0).
bool same_value(const Value& a, const Value& b) {
  if (a.index() != b.index()) return false;
  if (const auto* d = std::get_if<double>(&a)) {
    return std::bit_cast<std::uint64_t>(*d) ==
           std::bit_cast<std::uint64_t>(std::get<double>(b));
  }
  return a == b;
}

bool same_row(const Row& a, const Row& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_value(a[i], b[i])) return false;
  }
  return true;
}

/// A view holds the row: its key, every cell's bits, and to_row().
bool view_holds(const RowView& view, const Row& row) {
  if (view.size() != row.size()) return false;
  if (view.key() != std::get<std::string>(row[0])) return false;
  for (std::size_t col = 1; col < row.size(); ++col) {
    if (view.bits(col) != cell_bits(row[col])) return false;
  }
  return same_row(view.to_row(), row);
}

using Oracle = std::unordered_map<std::string, Row>;

/// Every row the table visits (scan or dump), by key; a key seen twice
/// fails the test.
template <typename Rows>
std::map<std::string, Row> by_key(const Rows& rows) {
  std::map<std::string, Row> out;
  for (const Row& row : rows) {
    EXPECT_TRUE(out.emplace(std::get<std::string>(row[0]), row).second)
        << "a key was visited twice";
  }
  return out;
}

void expect_same_contents(const std::map<std::string, Row>& seen,
                          const Oracle& oracle, std::uint64_t step) {
  ASSERT_EQ(seen.size(), oracle.size()) << "step " << step;
  for (const auto& [key, row] : oracle) {
    auto it = seen.find(key);
    ASSERT_TRUE(it != seen.end()) << "step " << step;
    EXPECT_TRUE(same_row(it->second, row)) << "step " << step;
  }
}

void run_ops(std::uint64_t seed, const Schema& schema) {
  Rng rng(seed);
  const std::vector<std::string> keys = key_pool(rng);
  auto any_key = [&] { return keys[rng.next_below(keys.size())]; };
  Table table("t", schema);
  Oracle oracle;

  for (std::uint64_t step = 0; step < 3000; ++step) {
    SCOPED_TRACE("seed " + std::to_string(seed) + " step " +
                 std::to_string(step));
    switch (rng.next_below(10)) {
      case 0: {  // insert
        Row row = random_row(rng, schema, any_key());
        const std::string key = std::get<std::string>(row[0]);
        const bool fresh = !oracle.count(key);
        EXPECT_EQ(table.insert(row).ok(), fresh);
        if (fresh) oracle[key] = row;
        break;
      }
      case 1: {  // upsert
        Row row = random_row(rng, schema, any_key());
        ASSERT_TRUE(table.upsert(row).ok());
        oracle[std::get<std::string>(row[0])] = row;
        break;
      }
      case 2: {  // upsert_rows: the visitor sees each stored row in order
        std::vector<Row> rows;
        for (std::uint64_t n = rng.next_below(6); n > 0; --n) {
          rows.push_back(random_row(rng, schema, any_key()));
        }
        std::size_t seen = 0;
        const PackedRows packed(rows);
        table.upsert_rows(packed.rows(), [&](const RowView& stored) {
          ASSERT_LT(seen, rows.size());
          EXPECT_TRUE(view_holds(stored, rows[seen]));
          ++seen;
        });
        EXPECT_EQ(seen, rows.size());
        for (const Row& row : rows) oracle[std::get<std::string>(row[0])] = row;
        break;
      }
      case 3: {  // update_cells of one column, some keys absent
        const std::size_t col = 1 + rng.next_below(schema.columns.size() - 1);
        std::vector<std::string> names;
        for (std::uint64_t n = rng.next_below(6); n > 0; --n) {
          names.push_back(any_key());
        }
        std::vector<CellWrite> writes;
        for (const std::string& name : names) {
          writes.push_back({name, random_value(rng, schema.columns[col].type)});
        }
        auto writable = table.writable_column(schema.columns[col].name, writes);
        ASSERT_TRUE(writable.ok());
        ASSERT_EQ(writable.value(), col);
        std::vector<Row> expected;
        for (const CellWrite& w : writes) {
          auto it = oracle.find(std::string(w.pk));
          if (it == oracle.end()) continue;
          it->second[col] = w.value;
          expected.push_back(it->second);
        }
        std::size_t seen = 0;
        const std::size_t written =
            table.update_cells(col, writes, [&](const RowView& stored) {
              ASSERT_LT(seen, expected.size());
              EXPECT_TRUE(view_holds(stored, expected[seen]));
              ++seen;
            });
        EXPECT_EQ(written, expected.size());
        EXPECT_EQ(seen, expected.size());
        break;
      }
      case 4: {  // update_column by name
        const std::size_t col = 1 + rng.next_below(schema.columns.size() - 1);
        const std::string key = any_key();
        const Value value = random_value(rng, schema.columns[col].type);
        auto it = oracle.find(key);
        EXPECT_EQ(table.update_column(key, schema.columns[col].name, value).ok(),
                  it != oracle.end());
        if (it != oracle.end()) it->second[col] = value;
        break;
      }
      case 5: {  // remove
        const std::string key = any_key();
        EXPECT_EQ(table.remove(key), oracle.erase(key) == 1);
        break;
      }
      case 6: {  // get and read
        const std::string key = any_key();
        auto it = oracle.find(key);
        auto got = table.get(key);
        ASSERT_EQ(got.has_value(), it != oracle.end());
        if (got) {
          EXPECT_TRUE(same_row(*got, it->second));
        }
        bool called = false;
        const bool found = table.read(key, [&](const RowView& stored) {
          called = true;
          ASSERT_TRUE(it != oracle.end());
          EXPECT_TRUE(view_holds(stored, it->second));
        });
        EXPECT_EQ(found, it != oracle.end());
        EXPECT_EQ(called, found);
        break;
      }
      case 7: {  // scan
        std::vector<Row> rows;
        table.scan([&](const RowView& stored) {
          rows.push_back(stored.to_row());
          EXPECT_EQ(stored.size(), schema.columns.size());
        });
        expect_same_contents(by_key(rows), oracle, step);
        break;
      }
      case 8: {  // dump
        expect_same_contents(by_key(table.dump()), oracle, step);
        break;
      }
      case 9: {  // load: a random part of the rows, and one fresh row
        std::vector<Row> rows;
        Oracle loaded;
        for (const auto& [key, row] : oracle) {
          if (rng.chance(0.5)) continue;
          rows.push_back(row);
          loaded[key] = row;
        }
        Row fresh = random_row(rng, schema, any_key());
        loaded[std::get<std::string>(fresh[0])] = fresh;
        rows.push_back(std::move(fresh));
        ASSERT_TRUE(table.load(rows).ok());
        oracle = std::move(loaded);
        break;
      }
    }
    ASSERT_EQ(table.size(), oracle.size());
  }
  expect_same_contents(by_key(table.dump()), oracle, 3000);
}

TEST(PackedRowPropertyTest, TableMatchesAMapOfRows) {
  const std::vector<Schema> all = schemas();
  for (std::uint64_t seed : {1ull, 2ull, 0xC0FFEEull}) {
    for (const Schema& schema : all) run_ops(seed, schema);
  }
}

TEST(PackedRowTest, StringOutsideTheKeyIsRefusedByName) {
  const Schema schema{{{"key", ColumnType::kString},
                       {"rate", ColumnType::kDouble},
                       {"owner", ColumnType::kString}}};
  try {
    Table("t", schema);
    FAIL() << "a string column outside the key was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("'owner'"), std::string::npos)
        << e.what();
  }
  // Database::create_table returns the same refusal as its Status.
  Database db;
  const Status created = db.create_table("t", schema);
  ASSERT_FALSE(created.ok());
  EXPECT_NE(created.error().message.find("'owner'"), std::string::npos)
      << created.error().message;
  EXPECT_FALSE(db.has_table("t"));
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

class PackedRowFormatTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const auto& p : paths_) std::remove(p.c_str());
  }

  std::string temp_path(const std::string& tag) {
    std::string p = ::testing::TempDir() + "janus_packed_" +
                    std::to_string(::getpid()) + "_" + tag;
    std::remove(p.c_str());
    paths_.push_back(p);
    return p;
  }

 private:
  std::vector<std::string> paths_;
};

TEST_F(PackedRowFormatTest, LogSnapshotAndReplicationBytesMatchRows) {
  const std::string wal = temp_path("wal");
  const std::string snapshot = temp_path("snapshot");
  Database db;
  ASSERT_TRUE(db.create_table("qos_rules", RuleStore::schema()).ok());
  ASSERT_TRUE(db.create_table("counts", schemas()[2]).ok());
  ASSERT_TRUE(db.enable_wal(wal).ok());
  std::vector<LogRecord> replicated;
  db.add_observer([&](const LogRecord& rec) { replicated.push_back(rec); });

  // The fixed write sequence, and beside it the Rows each write leaves.
  Rng rng(0x5EED);
  Oracle rules;
  Oracle counts;
  std::vector<std::uint8_t> expected;
  std::uint64_t lsn = 0;
  auto logged = [&](const std::string& table, const Row& row) {
    append_record(expected, ++lsn, LogRecord::Op::kUpsert, table, row, {});
  };

  std::vector<Row> rule_rows;
  for (int i = 0; i < 300; ++i) {  // more than one write chunk
    rule_rows.push_back(random_row(rng, RuleStore::schema(),
                                   "rule-" + std::to_string(i % 280)));
  }
  ASSERT_TRUE(
      db.upsert_many("qos_rules", PackedRows(rule_rows).rows()).ok());
  for (const Row& row : rule_rows) {
    logged("qos_rules", row);
    rules[std::get<std::string>(row[0])] = row;
  }

  std::vector<Row> count_rows;
  for (int i = 0; i < 20; ++i) {
    count_rows.push_back(random_row(rng, schemas()[2], std::string(i, 'k')));
  }
  ASSERT_TRUE(db.upsert_many("counts", PackedRows(count_rows).rows()).ok());
  for (const Row& row : count_rows) {
    logged("counts", row);
    counts[std::get<std::string>(row[0])] = row;
  }

  std::vector<std::string> names;
  for (int i = 0; i < 290; i += 3) names.push_back("rule-" + std::to_string(i));
  std::vector<CellWrite> credits;
  for (const std::string& name : names) {
    credits.push_back({name, random_value(rng, ColumnType::kDouble)});
  }
  ASSERT_TRUE(db.update_column_many("qos_rules", "credit", credits).ok());
  for (const CellWrite& w : credits) {
    auto it = rules.find(std::string(w.pk));
    if (it == rules.end()) continue;  // skipped without an LSN
    it->second[3] = w.value;
    logged("qos_rules", it->second);
  }

  ASSERT_TRUE(db.remove("counts", std::string(4, 'k')).ok());
  append_record(expected, ++lsn, LogRecord::Op::kRemove, "counts", Row{},
                std::string(4, 'k'));
  counts.erase(std::string(4, 'k'));

  // WAL: every frame, byte for byte.
  EXPECT_EQ(read_file(wal), expected);

  // Replication: the records the observers saw encode to the same frames.
  std::vector<std::uint8_t> shipped;
  for (const LogRecord& rec : replicated) {
    const auto frame = encode_record(rec);
    shipped.insert(shipped.end(), frame.begin(), frame.end());
  }
  EXPECT_EQ(shipped, expected);
  ASSERT_EQ(replicated.size(), lsn);

  // Snapshot: the tables in name order, each row as ByteWriter::row writes
  // it, in the table's own order (dump's).
  ASSERT_TRUE(db.snapshot_to(snapshot).ok());
  ByteWriter w;
  w.u32(0x4A444253);  // "JDBS"
  w.u32(2);
  for (const auto& [name, oracle] :
       {std::pair<std::string, const Oracle*>{"counts", &counts},
        std::pair<std::string, const Oracle*>{"qos_rules", &rules}}) {
    const std::vector<Row> rows = db.table(name).dump();
    expect_same_contents(by_key(rows), *oracle, 0);
    w.str(name);
    w.u32(static_cast<std::uint32_t>(rows.size()));
    for (const Row& row : rows) w.row(row);
  }
  EXPECT_EQ(read_file(snapshot), w.bytes());
}

}  // namespace
}  // namespace janus::db
