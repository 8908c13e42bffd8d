// Snapshot files of the rules (§III-D): the WAL's compaction target. A
// snapshot is a magic number, a table count (1), the table's name
// (qos_rules), its row count, then each rule as ByteWriter::rule writes it
// (db/serialize.hpp). db::Database and the QoS server's rules log
// (core/table_rules.hpp) both read and write snapshots through these.
#pragma once

#include <functional>
#include <string>

#include "common/result.hpp"
#include "db/table.hpp"

namespace janus::db {

/// Write every rule `scan` hands to its visitor to a snapshot at `path`,
/// streamed through one buffer: the rules go to `path`.tmp, which is
/// fsynced, renamed into place, and then its directory fsynced, so that a
/// crash mid-write never corrupts the previous snapshot. On any failure the
/// temporary file is removed and `path` is left as it was.
Status write_snapshot(const std::string& path,
                      const std::function<void(const RuleVisitor&)>& scan);

/// Hand each rule of the snapshot at `path` to `fn`, read a block at a
/// time; the rule's key views the read buffer for the call. A truncated or
/// corrupt file, or one naming another table, fails after handing `fn` the
/// rules before the fault: a caller that must not keep part of a snapshot
/// collects them aside first.
Status read_snapshot(const std::string& path, const RuleVisitor& fn);

}  // namespace janus::db
