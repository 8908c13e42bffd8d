#include "db/database.hpp"

#include <algorithm>
#include <stdexcept>

namespace janus::db {

Status Database::enable_wal(const std::string& path) {
  MutexLock lock(commit_mu_);
  auto wal = Wal::open(path);
  if (!wal.ok()) return Error(wal.error().message);
  wal_ = std::make_unique<Wal>(std::move(wal).take());
  return Status::success();
}

Result<std::size_t> Database::recover(const std::string& path) {
  std::uint64_t max_lsn = 0;
  auto applied = Wal::replay(path, [&](const LogRecord& rec) {
    Table* t = find_table(rec.table);
    if (!t) return;  // table dropped from the schema; skip its records
    if (rec.op == LogRecord::Op::kUpsert) {
      (void)t->upsert(rec.row);
    } else {
      (void)t->remove(rec.pk);
    }
    if (rec.lsn > max_lsn) max_lsn = rec.lsn;
  });
  if (!applied.ok()) return applied;
  if (max_lsn > lsn_.load()) lsn_.store(max_lsn, std::memory_order_release);
  return applied;
}

Status Database::create_table(const std::string& name, Schema schema) {
  if (Status valid = Table::check_schema(name, schema); !valid.ok()) {
    return valid;
  }
  MutexLock lock(commit_mu_);
  if (tables_.count(name)) return Error("table already exists: " + name);
  tables_[name] = std::make_unique<Table>(name, std::move(schema));
  return Status::success();
}

bool Database::has_table(std::string_view name) const {
  MutexLock lock(commit_mu_);
  return tables_.count(name) > 0;
}

const Table& Database::table(std::string_view name) const {
  const Table* t = find_table(name);
  if (!t) throw std::out_of_range("no table named " + std::string(name));
  return *t;
}

Table* Database::find_table(std::string_view name) {
  MutexLock lock(commit_mu_);
  return find_table_locked(name);
}

const Table* Database::find_table(std::string_view name) const {
  MutexLock lock(commit_mu_);
  return find_table_locked(name);
}

Table* Database::find_table_locked(std::string_view name) {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

const Table* Database::find_table_locked(std::string_view name) const {
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

void Database::ChunkLog::add(const std::string& table, const RowView& row) {
  if (framed) {
    append_record(frames, first_lsn + count, table, row);
    frame_ends.push_back(frames.size());
  }
  if (copied) {
    LogRecord& rec = next_record(LogRecord::Op::kUpsert, table);
    row.copy_to(rec.row);
    rec.pk.clear();
  }
  ++count;
}

void Database::ChunkLog::add_remove(const std::string& table,
                                    std::string_view pk) {
  if (framed) {
    append_record(frames, first_lsn + count, LogRecord::Op::kRemove, table,
                  Row{}, pk);
    frame_ends.push_back(frames.size());
  }
  if (copied) {
    LogRecord& rec = next_record(LogRecord::Op::kRemove, table);
    rec.row.clear();
    rec.pk = pk;
  }
  ++count;
}

LogRecord& Database::ChunkLog::next_record(LogRecord::Op op,
                                           const std::string& table) {
  if (count == records.size()) records.emplace_back();
  LogRecord& rec = records[count];
  rec.lsn = first_lsn + count;
  rec.op = op;
  rec.table = table;
  return rec;
}

Database::ChunkLog& Database::begin_chunk_locked() {
  chunk_.first_lsn = lsn_.load(std::memory_order_relaxed) + 1;
  chunk_.count = 0;
  chunk_.framed = wal_ != nullptr;
  chunk_.copied = !observers_.empty();
  chunk_.frames.clear();
  chunk_.frame_ends.clear();
  return chunk_;
}

Status Database::finish_chunk_locked() {
  std::size_t durable = chunk_.count;
  Status written = Status::success();
  if (chunk_.framed && chunk_.count > 0) {
    written = wal_->append_frames(chunk_.frames, chunk_.frame_ends, durable);
  }
  if (durable > 0) {
    lsn_.store(chunk_.first_lsn + durable - 1, std::memory_order_release);
  }
  if (chunk_.copied) {
    for (std::size_t i = 0; i < durable; ++i) {
      for (const auto& obs : observers_) obs(chunk_.records[i]);
    }
  }
  return written;
}

Status Database::upsert(const std::string& table_name, const Row& row) {
  const Table* t = find_table(table_name);
  if (!t) return Error("no table named " + table_name);
  if (!t->schema().matches(row)) {
    return Error("upsert: row does not match schema");
  }
  const PackedRows packed(std::span(&row, 1));
  return upsert_many(table_name, packed.rows());
}

Status Database::upsert_many(const std::string& table_name,
                             std::span<const PackedRow> rows) {
  Table* t = find_table(table_name);
  if (!t) return Error("no table named " + table_name);
  const std::size_t cells = t->schema().columns.size() - 1;
  for (const PackedRow& row : rows) {
    if (row.cells().size() != cells) {
      return Error("upsert: row does not match schema");
    }
  }
  for (std::size_t at = 0; at < rows.size(); at += kWriteChunkRows) {
    MutexLock lock(commit_mu_);
    ChunkLog& log = begin_chunk_locked();
    t->upsert_rows(
        rows.subspan(at, std::min(kWriteChunkRows, rows.size() - at)),
        [&](const RowView& row) { log.add(table_name, row); });
    if (auto s = finish_chunk_locked(); !s.ok()) return s;
  }
  return Status::success();
}

Status Database::remove(const std::string& table_name, std::string_view pk) {
  MutexLock lock(commit_mu_);
  Table* t = find_table_locked(table_name);
  if (!t) return Error("no table named " + table_name);
  t->remove(pk);  // removing a missing row is a logged no-op
  begin_chunk_locked().add_remove(table_name, pk);
  return finish_chunk_locked();
}

Status Database::update_column(const std::string& table_name,
                               std::string_view pk, std::string_view column,
                               Value value) {
  const CellWrite write{pk, std::move(value)};
  auto written = update_column_many(table_name, column, std::span(&write, 1));
  if (!written.ok()) return Error(written.error().message);
  if (written.value() == 0) {
    return Error("update: no row with key '" + std::string(pk) + "'");
  }
  return Status::success();
}

Result<std::size_t> Database::update_column_many(
    const std::string& table_name, std::string_view column,
    std::span<const CellWrite> writes) {
  Table* t = find_table(table_name);
  if (!t) return Error("no table named " + table_name);
  auto writable = t->writable_column(column, writes);
  if (!writable.ok()) return writable.error();
  const std::size_t col = writable.value();
  // The cell is written where the row lies, under the table lock, so a
  // concurrent update of another column of the same row cannot be lost, and
  // the logged full row is the row as it now stands.
  std::size_t written = 0;
  for (std::size_t at = 0; at < writes.size(); at += kWriteChunkRows) {
    MutexLock lock(commit_mu_);
    ChunkLog& log = begin_chunk_locked();
    written += t->update_cells(
        col, writes.subspan(at, std::min(kWriteChunkRows, writes.size() - at)),
        [&](const RowView& row) { log.add(table_name, row); });
    if (auto s = finish_chunk_locked(); !s.ok()) return s.error();
  }
  return written;
}

std::optional<Row> Database::get(std::string_view table_name,
                                 std::string_view pk) const {
  const Table* t = find_table(table_name);
  if (!t) return std::nullopt;
  return t->get(pk);
}

void Database::scan(std::string_view table_name,
                    const std::function<void(const Row&)>& fn) const {
  const Table* t = find_table(table_name);
  if (!t) return;
  Row row;
  t->scan([&](const RowView& stored) {
    stored.copy_to(row);
    fn(row);
  });
}

std::size_t Database::table_size(std::string_view table_name) const {
  const Table* t = find_table(table_name);
  return t ? t->size() : 0;
}

Status Database::reserve(std::string_view table_name, std::size_t rows) {
  Table* t = find_table(table_name);
  if (!t) return Error("no table named " + std::string(table_name));
  t->reserve(rows);
  return Status::success();
}

void Database::add_observer(Observer obs) {
  MutexLock lock(commit_mu_);
  observers_.push_back(std::move(obs));
}

namespace {
constexpr std::uint32_t kSnapshotMagic = 0x4A444253;  // "JDBS"
}  // namespace

Status Database::snapshot_locked(const std::string& path) const {
  ByteWriter w;
  w.u32(kSnapshotMagic);
  w.u32(static_cast<std::uint32_t>(tables_.size()));
  for (const auto& [name, table] : tables_) {
    w.str(name);
    // Writes to this database's tables hold commit_mu_ (recover runs
    // before any other use), so the count holds for the scan.
    w.u32(static_cast<std::uint32_t>(table->size()));
    table->scan([&](const RowView& row) { w.row(row); });
  }

  // Write-then-rename so a crash mid-snapshot never corrupts the previous
  // snapshot file.
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f) return Error("snapshot: cannot open " + tmp);
  const auto& bytes = w.bytes();
  const bool wrote =
      std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  const bool flushed = std::fflush(f) == 0;
  std::fclose(f);
  if (!wrote || !flushed) {
    std::remove(tmp.c_str());
    return Error("snapshot: short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Error("snapshot: rename to " + path + " failed");
  }
  return Status::success();
}

Status Database::snapshot_to(const std::string& path) const {
  MutexLock lock(commit_mu_);
  return snapshot_locked(path);
}

Status Database::load_snapshot(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return Error("snapshot: cannot open " + path);
  std::vector<std::uint8_t> bytes;
  std::uint8_t buf[64 * 1024];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    bytes.insert(bytes.end(), buf, buf + n);
  }
  std::fclose(f);

  ByteReader r(bytes);
  std::uint32_t magic = 0;
  std::uint32_t table_count = 0;
  if (!r.u32(magic) || magic != kSnapshotMagic) {
    return Error("snapshot: bad magic in " + path);
  }
  if (!r.u32(table_count)) return Error("snapshot: truncated header");

  MutexLock lock(commit_mu_);
  for (std::uint32_t t = 0; t < table_count; ++t) {
    std::string name;
    std::uint32_t row_count = 0;
    if (!r.str(name) || !r.u32(row_count)) {
      return Error("snapshot: truncated table header");
    }
    auto it = tables_.find(name);
    if (it == tables_.end()) {
      return Error("snapshot: no table named " + name +
                   " (create schemas before loading)");
    }
    std::vector<Row> rows;
    rows.reserve(row_count);
    for (std::uint32_t i = 0; i < row_count; ++i) {
      Row row;
      if (!r.row(row)) return Error("snapshot: truncated row");
      rows.push_back(std::move(row));
    }
    if (auto s = it->second->load(std::move(rows)); !s.ok()) return s;
  }
  if (!r.at_end()) return Error("snapshot: trailing bytes");
  return Status::success();
}

Status Database::compact_wal(const std::string& snapshot_path) {
  MutexLock lock(commit_mu_);
  if (!wal_) return Error("compact: WAL is not enabled");
  if (auto s = snapshot_locked(snapshot_path); !s.ok()) return s;
  const std::string wal_path = wal_->path();
  wal_.reset();  // close
  if (std::remove(wal_path.c_str()) != 0) {
    return Error("compact: cannot remove " + wal_path);
  }
  auto reopened = Wal::open(wal_path);
  if (!reopened.ok()) return Error(reopened.error().message);
  wal_ = std::make_unique<Wal>(std::move(reopened).take());
  return Status::success();
}

Status Database::apply(const LogRecord& rec) {
  MutexLock lock(commit_mu_);
  auto it = tables_.find(rec.table);
  if (it == tables_.end()) return Error("apply: no table named " + rec.table);
  Table& t = *it->second;
  if (rec.op == LogRecord::Op::kUpsert) {
    if (auto s = t.upsert(rec.row); !s.ok()) return s;
  } else {
    t.remove(rec.pk);
  }
  if (rec.lsn > lsn_.load(std::memory_order_relaxed)) {
    lsn_.store(rec.lsn, std::memory_order_release);
  }
  return Status::success();
}

}  // namespace janus::db
