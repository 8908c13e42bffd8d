#include "core/table_rules.hpp"

#include <sys/stat.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <span>

#include "db/rules_file.hpp"
#include "db/snapshot.hpp"

namespace janus::core {

Status TableRules::restore(const std::string& snapshot_path,
                           const std::string& wal_path) {
  MutexLock lock(mu_);
  const TimePoint now = clock_.now();
  if (!snapshot_path.empty() && std::filesystem::exists(snapshot_path)) {
    auto loaded = db::read_snapshot(snapshot_path, [&](const db::RuleView& r) {
      table_.provision(r.key, r.capacity, r.refill_per_sec, r.credit, now);
    });
    if (!loaded.ok()) return loaded;
  }
  if (wal_path.empty()) return Status::success();
  std::uint64_t max_lsn = 0;
  bool valid = true;
  auto replayed = db::Wal::replay(wal_path, [&](const db::LogRecord& rec) {
    max_lsn = std::max(max_lsn, rec.lsn);
    const db::RuleRow& r = rec.rule;
    if (rec.op == db::LogRecord::Op::kRemove) {
      table_.erase(r.key);
    } else if (LeakyBucket::valid(r.capacity, r.refill_per_sec, r.credit)) {
      table_.provision(r.key, r.capacity, r.refill_per_sec, r.credit, now);
    } else {
      valid = false;
    }
  });
  if (!replayed.ok()) {
    return Error("WAL recovery: " + replayed.error().message);
  }
  if (!valid) return Error("WAL recovery: a record holds no valid rule");
  log_.advance_to(max_lsn);
  return log_.open(wal_path);
}

TableRules::FileStamp TableRules::stamp_of(const std::string& path) {
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) return {};
  return {.device = static_cast<std::uint64_t>(st.st_dev),
          .inode = static_cast<std::uint64_t>(st.st_ino),
          .size = static_cast<std::int64_t>(st.st_size),
          .mtime_ns = static_cast<std::int64_t>(st.st_mtim.tv_sec) *
                          1'000'000'000 +
                      st.st_mtim.tv_nsec};
}

Result<std::size_t> TableRules::load_locked(const std::string& path) {
  // Stamped before it is opened: a file replaced from here on loads again.
  const FileStamp stamp = stamp_of(path);
  const std::unique_ptr<std::FILE, int (*)(std::FILE*)> file(
      std::fopen(path.c_str(), "rb"), &std::fclose);
  if (!file) {
    loaded_ = stamp;
    return Error("cannot open rules file: " + path);
  }
  ChunkLoad load{.now = clock_.now(), .merge = table_.node_count() > 0};
  Status checked = Status::success();
  if (load.merge || log_.enabled()) {
    // The whole file is checked before any of it is applied; the pass that
    // applies it reads the same open file.
    checked = db::parse_rules_file(
        file.get(),
        [](std::span<const db::PackedRow>) { return Status::success(); });
    // A writer still at work on the file: the next reload tries again.
    if (stamp_of(path) != stamp) {
      return Error("rules file changed while it was read: " + path);
    }
  }
  loaded_ = stamp;  // a bad file is tried once
  if (!checked.ok()) return checked.error();
  table_.reserve(db::count_lines(file.get()));
  rules_.reserve(db::kRulesChunk);
  auto applied = db::parse_rules_file(
      file.get(), [this, &load](std::span<const db::PackedRow> rows) {
        return apply_chunk(rows, load);
      });
  if (!applied.ok()) return applied.error();
  return load.stored;
}

Status TableRules::apply_chunk(std::span<const db::PackedRow> rows,
                               ChunkLoad& load) {
  rules_.clear();
  for (const db::PackedRow& row : rows) {
    rules_.push_back({.key = row.rule.key,
                      .hash = row.hash,
                      .refill_per_sec = row.rule.refill_per_sec,
                      .capacity = row.rule.capacity,
                      .credit = row.rule.credit});
  }
  table_.group_by_shard(
      rules_.size(), [this](std::size_t i) { return rules_[i].hash; },
      groups_);
  table_.apply_rules(rules_, groups_, load.merge, load.now);
  if (log_.enabled()) log_.begin();
  for (const LoadedRule& rule : rules_) {
    if (!rule.stored) continue;
    ++load.stored;
    if (log_.enabled()) {
      log_.add(db::LogRecord::Op::kUpsert,
               {.key = rule.key,
                .refill_per_sec = rule.refill_per_sec,
                .capacity = rule.capacity,
                .credit = rule.credit});
    }
  }
  return log_.enabled() ? log_.commit() : Status::success();
}

Result<std::size_t> TableRules::load(const std::string& path) {
  MutexLock lock(mu_);
  return load_locked(path);
}

Result<bool> TableRules::reload(const std::string& path) {
  MutexLock lock(mu_);
  if (stamp_of(path) == loaded_) return false;
  if (auto loaded = load_locked(path); !loaded.ok()) return loaded.error();
  return true;
}

std::size_t TableRules::checkpoint() {
  MutexLock lock(mu_);
  if (!log_.enabled()) return 0;
  const TimePoint now = clock_.now();
  std::size_t written = 0;
  for (std::size_t shard = 0; shard < table_.shard_count(); ++shard) {
    std::size_t used = 0;
    table_.for_each_in_shard(shard, [&](std::string_view key,
                                        QosEntry& entry) {
      if (entry.is_default()) return;
      const std::int64_t before = entry.bucket.millicredits();
      entry.bucket.refill(now);
      if (!entry.credit_changed() && entry.bucket.millicredits() == before) {
        return;
      }
      entry.set_credit_changed(false);
      if (used == copies_.size()) copies_.emplace_back();
      CreditCopy& c = copies_[used++];
      c.key.assign(key);
      c.refill_per_sec = entry.refill_per_sec();
      c.capacity = entry.capacity();
      c.credit = entry.bucket.credit();
    });
    // Logged with the shard unlocked, a WAL write per chunk.
    const std::span<const CreditCopy> copied(copies_.data(), used);
    for (std::size_t at = 0; at < copied.size(); at += db::kRulesChunk) {
      log_.begin();
      for (const CreditCopy& c : copied.subspan(
               at, std::min(db::kRulesChunk, copied.size() - at))) {
        log_.add(db::LogRecord::Op::kUpsert,
                 {.key = c.key,
                  .refill_per_sec = c.refill_per_sec,
                  .capacity = c.capacity,
                  .credit = c.credit});
      }
      (void)log_.commit();  // a failed append loses only these credits
    }
    written += used;
  }
  return written;
}

Status TableRules::compact(const std::string& snapshot_path) {
  MutexLock lock(mu_);
  if (!log_.enabled()) return Error("compact: WAL is not enabled");
  auto written = db::write_snapshot(
      snapshot_path, [&](const db::RuleVisitor& emit) {
        for (std::size_t s = 0; s < table_.shard_count(); ++s) {
          table_.for_each_rule_in_shard(
              s, [&](std::string_view key, const QosEntry& entry) {
                emit({.key = key,
                      .refill_per_sec = entry.refill_per_sec(),
                      .capacity = entry.capacity(),
                      .credit = entry.bucket.credit()});
              });
        }
      });
  if (!written.ok()) return written;
  // The snapshot and its name are durable: the log it replaces can go.
  return log_.truncate();
}

bool TableRules::logging() const {
  MutexLock lock(mu_);
  return log_.enabled();
}

}  // namespace janus::core
