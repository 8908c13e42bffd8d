// Puts and credit writes on the same keys, from two threads at once. Each
// write lands where the rule lies, under the table lock, and logs the rule
// as it then stands, in LSN order under the commit lock; so neither writer
// loses the other's column, and replaying the WAL rebuilds the live table
// exactly.
#include <gtest/gtest.h>
#include <unistd.h>

#include <bit>
#include <cstdio>
#include <map>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "db/database.hpp"

namespace janus::db {
namespace {

/// Every rule's refill rate, capacity and credit, as bits, by key.
std::map<std::string, std::vector<std::uint64_t>> rules_of(
    const Database& db) {
  std::map<std::string, std::vector<std::uint64_t>> out;
  db.table().scan([&](const RuleView& r) {
    out[std::string(r.key)] = {std::bit_cast<std::uint64_t>(r.refill_per_sec),
                               std::bit_cast<std::uint64_t>(r.capacity),
                               std::bit_cast<std::uint64_t>(r.credit)};
  });
  return out;
}

TEST(DatabaseConcurrencyTest, ConcurrentColumnUpdatesAreNotLost) {
  const std::string wal = ::testing::TempDir() + "janus_dbconc_" +
                          std::to_string(::getpid()) + ".wal";
  std::remove(wal.c_str());
  const std::vector<std::string> keys = {"a", "b", "c"};
  Database db;
  ASSERT_TRUE(db.enable_wal(wal).ok());

  // Writer A puts each key with rate i (and resets its credit to 0); writer
  // B writes credits 1..N into the same keys in chunks.
  constexpr int kIters = 400;
  std::thread puts([&] {
    for (int i = 1; i <= kIters; ++i) {
      std::vector<PackedRow> rows;
      for (const std::string& key : keys) {
        rows.emplace_back(RuleView{.key = key, .refill_per_sec = 1.0 * i,
                                   .capacity = 1e9, .credit = 0.0});
      }
      ASSERT_TRUE(db.put(rows).ok());
    }
  });
  std::thread credits([&] {
    for (int i = 1; i <= kIters; ++i) {
      std::vector<CreditWrite> writes;
      for (const std::string& key : keys) writes.push_back({key, 1.0 * i});
      ASSERT_TRUE(db.write_credits(writes).ok());
    }
  });
  puts.join();
  credits.join();

  // No credit write dropped the rate the last put wrote.
  for (const std::string& key : keys) {
    db.table().read(key, [&](const RuleView& r) {
      EXPECT_EQ(r.refill_per_sec, kIters) << key;
    });
  }
  Database recovered;
  auto replayed = recovered.recover(wal);
  ASSERT_TRUE(replayed.ok()) << replayed.error().message;
  EXPECT_EQ(replayed.value(), db.lsn());
  EXPECT_EQ(recovered.lsn(), db.lsn());
  EXPECT_EQ(rules_of(recovered), rules_of(db));
  std::remove(wal.c_str());
}

}  // namespace
}  // namespace janus::db
