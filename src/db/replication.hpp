// Master/standby replication — the embedded equivalent of RDS Multi-AZ
// (paper §III-D). The master's commit stream is captured into a bounded
// queue; a pump (called from a thread or a simulator event) applies records
// to the standby in order. Failover = promote(): the standby simply becomes
// the new master, which is exactly the paper's DNS-swap semantics.
#pragma once

#include <cstddef>
#include <memory>

#include "common/blocking_queue.hpp"
#include "db/database.hpp"

namespace janus::db {

class Replicator {
 public:
  /// Attaches to `master` (registers a commit observer). Both databases must
  /// outlive the Replicator and have identical schemas. The master must not
  /// commit concurrently with destruction of the Replicator.
  Replicator(Database& master, Database& standby,
             std::size_t queue_capacity = 65536);

  Replicator(const Replicator&) = delete;
  Replicator& operator=(const Replicator&) = delete;

  /// Apply up to `max_records` pending records to the standby.
  /// Returns the number applied.
  std::size_t pump(std::size_t max_records = SIZE_MAX);

  /// Records captured but not yet applied.
  std::size_t lag() const { return queue_->size(); }

  /// Records dropped because the queue was full (replication broken; the
  /// standby must be re-seeded). Tests assert this stays zero.
  std::size_t dropped() const { return dropped_; }

  /// Promote the standby: detach from the master and stop capturing.
  /// Pending records are applied first (best effort).
  void promote();

  bool promoted() const { return promoted_; }

 private:
  Database& standby_;
  std::shared_ptr<BlockingQueue<LogRecord>> queue_;
  std::shared_ptr<bool> active_;
  std::size_t dropped_ = 0;
  bool promoted_ = false;
};

/// Seed a standby from a master snapshot: copies every table's rows.
/// Schemas must already exist on the standby.
Status seed_standby(const Database& master, Database& standby,
                    const std::vector<std::string>& tables);

}  // namespace janus::db
