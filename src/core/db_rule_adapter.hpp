// Adapters binding the AdmissionController's RuleSource/RuleSink interfaces
// to the embedded database's qos_rules table — the glue between the QoS
// server layer and the database layer (paper §II-D).
#pragma once

#include <algorithm>
#include <vector>

#include "core/admission.hpp"
#include "db/rule_store.hpp"

namespace janus::core {

/// First-touch and sync lookups: SELECT ... WHERE key = ?. The last
/// check-pointed credit becomes the bucket's starting level (§II-D:
/// "the replacement QoS server will use the last check-pointed credit
/// information from the database as the initial credit value").
class DbRuleSource final : public RuleSource {
 public:
  explicit DbRuleSource(db::RuleStore& store) : store_(store) {}

  std::optional<QosRule> fetch(std::string_view key) override {
    auto row = store_.get(key);
    if (!row) return std::nullopt;
    return QosRule{
        .key = row->key,
        .capacity = row->capacity,
        .refill_per_sec = row->refill_per_sec,
        .initial_credit = row->credit,
    };
  }

 private:
  db::RuleStore& store_;
};

/// Check-pointing: UPDATE qos_rules SET credit = ? WHERE key = ?, for one
/// shard's credits per call, written in place in the database's chunks.
class DbRuleSink final : public RuleSink {
 public:
  explicit DbRuleSink(db::RuleStore& store) : store_(store) {}

  void checkpoint(std::span<const KeyCredit> credits) override {
    // The write list views the pass's buffer one database chunk at a time,
    // so it never outgrows a chunk.
    constexpr std::size_t kChunk = db::Database::kWriteChunkRows;
    std::vector<db::CreditWrite> writes;
    writes.reserve(std::min(credits.size(), kChunk));
    for (std::size_t at = 0; at < credits.size(); at += kChunk) {
      writes.clear();
      for (const KeyCredit& c : credits.subspan(
               at, std::min(kChunk, credits.size() - at))) {
        writes.push_back({c.key, c.credit});
      }
      // Missing rules and unchanged credits are skipped.
      (void)store_.checkpoint_credits(writes);
    }
  }

 private:
  db::RuleStore& store_;
};

}  // namespace janus::core
