#include "db/database.hpp"

#include <algorithm>

#include "db/snapshot.hpp"

namespace janus::db {

Status Database::enable_wal(const std::string& path) {
  MutexLock lock(commit_mu_);
  return log_.open(path);
}

Result<std::size_t> Database::recover(const std::string& path) {
  std::uint64_t max_lsn = 0;
  auto applied = Wal::replay(path, [&](const LogRecord& rec) {
    if (rec.op == LogRecord::Op::kUpsert) {
      const PackedRow row(rec.rule.view());
      table_.put(std::span(&row, 1), [](const RuleView&) {});
    } else {
      table_.remove(rec.rule.key);
    }
    max_lsn = std::max(max_lsn, rec.lsn);
  });
  if (!applied.ok()) return applied;
  MutexLock lock(commit_mu_);
  log_.advance_to(max_lsn);
  return applied;
}

Status Database::put(std::span<const PackedRow> rules) {
  for (std::size_t at = 0; at < rules.size(); at += kWriteChunkRows) {
    MutexLock lock(commit_mu_);
    log_.begin();
    table_.put(rules.subspan(at, std::min(kWriteChunkRows, rules.size() - at)),
               [&](const RuleView& rule) {
                 log_.add(LogRecord::Op::kUpsert, rule);
               });
    if (auto s = log_.commit(); !s.ok()) return s;
  }
  return Status::success();
}

Result<std::size_t> Database::write_credits(
    std::span<const CreditWrite> writes) {
  // The credit is written where the rule lies, under the table lock, so a
  // concurrent put of the same rule cannot be lost, and the logged full row
  // is the rule as it now stands.
  std::size_t written = 0;
  for (std::size_t at = 0; at < writes.size(); at += kWriteChunkRows) {
    MutexLock lock(commit_mu_);
    log_.begin();
    written += table_.write_credits(
        writes.subspan(at, std::min(kWriteChunkRows, writes.size() - at)),
        [&](const RuleView& rule) { log_.add(LogRecord::Op::kUpsert, rule); });
    if (auto s = log_.commit(); !s.ok()) return s.error();
  }
  return written;
}

Status Database::remove(std::string_view key) {
  MutexLock lock(commit_mu_);
  table_.remove(key);  // removing a missing rule is a logged no-op
  log_.begin();
  log_.add(LogRecord::Op::kRemove, RuleView{.key = key});
  return log_.commit();
}

Status Database::snapshot_locked(const std::string& path) const {
  // Writes to the table hold commit_mu_, so the scan sees one state.
  return write_snapshot(
      path, [&](const RuleVisitor& emit) { table_.scan(emit); });
}

Status Database::snapshot_to(const std::string& path) const {
  MutexLock lock(commit_mu_);
  return snapshot_locked(path);
}

Status Database::load_snapshot(const std::string& path) {
  Table fresh;
  const Status parsed = read_snapshot(path, [&](const RuleView& rule) {
    const PackedRow row(rule);
    fresh.put(std::span(&row, 1), [](const RuleView&) {});
  });
  if (!parsed.ok()) return parsed;
  MutexLock lock(commit_mu_);
  table_.swap(fresh);  // the old rules are freed with `fresh`, unlocked
  return Status::success();
}

Status Database::compact_wal(const std::string& snapshot_path) {
  MutexLock lock(commit_mu_);
  if (!log_.enabled()) return Error("compact: WAL is not enabled");
  if (auto s = snapshot_locked(snapshot_path); !s.ok()) return s;
  // The snapshot and its name are durable: the log it replaces can go.
  return log_.truncate();
}

}  // namespace janus::db
