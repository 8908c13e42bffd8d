#include "core/admission.hpp"

#include "common/flight_recorder.hpp"

namespace janus::core {

AdmissionController::AdmissionController(Clock& clock, RuleSource& source,
                                         AdmissionConfig config)
    : clock_(clock),
      source_(source),
      config_(std::move(config)),
      table_(config_.table_shards),
      checks_(metrics_.counter("admission.checks")),
      allowed_(metrics_.counter("admission.allowed")),
      denied_(metrics_.counter("admission.denied")),
      fetches_(metrics_.counter("admission.db_fetches")),
      defaults_(metrics_.counter("admission.default_rules")) {}

QosEntry AdmissionController::make_entry(std::string_view key, TimePoint now) {
  fetches_.inc();
  if (auto rule = source_.fetch(key)) {
    rule->key = std::string(key);
    double credit = rule->initial_credit.value_or(rule->capacity);
    return QosEntry{
        .rule = *rule,
        .bucket = LeakyBucket(rule->capacity, rule->refill_per_sec, credit, now),
        .is_default = false,
    };
  }
  defaults_.inc();
  QosRule rule = config_.default_rule;
  rule.key = std::string(key);
  double credit = rule.initial_credit.value_or(rule.capacity);
  return QosEntry{
      .rule = rule,
      .bucket = LeakyBucket(rule.capacity, rule.refill_per_sec, credit, now),
      .is_default = true,
  };
}

Decision AdmissionController::decide(std::string_view key, std::uint32_t cost,
                                     bool consume) {
  checks_.inc();
  const TimePoint now = clock_.now();
  const bool lazy = config_.refill_mode == RefillMode::kOnAccess;
  const std::size_t hash = TransparentStringHash::hash_bytes(key);
  // 1-in-2^kDecisionSampleShift sampling keeps the armed recorder inside the
  // <3% BM_ServerDecisionContended budget (BENCH_PR6.json); the sketch adds
  // the sample stride as weight so reported counts stay approximately true.
  const bool sampled =
      FlightRecorder::enabled() && FlightRecorder::decision_sampled();

  // Runs under the key's shard lock, which also serializes the shard's
  // hot-key sketch: a sampled decision is noted without locking again.
  auto run = [&](QosEntry& entry, HotKeySketch& sketch,
                 Decision::Origin origin) {
    Decision d;
    d.origin = origin;
    if (lazy) entry.bucket.refill(now);
    d.allowed = consume ? entry.bucket.try_consume_no_refill(cost)
                        : entry.bucket.millicredits() >=
                              static_cast<std::int64_t>(cost) *
                                  LeakyBucket::kMillisPerCredit;
    d.remaining_millicredits = entry.bucket.millicredits();
    if (sampled) {
      sketch.note(key, hash, d.allowed, FlightRecorder::kDecisionSampleWeight);
    }
    return d;
  };

  // Fast path: the bucket is already cached.
  auto cached = table_.with_entry_prehashed(
      key, hash, [&](QosEntry& entry, HotKeySketch& sketch) {
        return run(entry, sketch, Decision::Origin::kCached);
      });
  Decision d;
  if (cached) {
    d = *cached;
  } else {
    // First touch: fetch the rule from the database *outside* the shard
    // lock (a slow DB round-trip must not block other keys in the shard),
    // then create-if-absent. If another thread won the race our fetched
    // rule is discarded and its entry is used — identical to the paper's
    // behaviour where concurrent first touches serialize on the table.
    // purity-ok: first-touch cold branch (DB fetch + rule/key copy)
    QosEntry fresh = make_entry(key, now);
    d = table_.with_entry_or_create_prehashed(
        key, hash, [&] { return std::move(fresh); },
        [&](QosEntry& entry, HotKeySketch& sketch) {
          return run(entry, sketch,
                     entry.is_default ? Decision::Origin::kDefault
                                      : Decision::Origin::kFetched);
        });
  }
  (d.allowed ? allowed_ : denied_).inc();
  if (sampled) {
    FlightRecorder::record(
        TraceEventType::kAdmission, TraceStage::kAdmission, hash,
        pack_admission_arg(d.allowed, static_cast<std::uint8_t>(d.origin),
                           d.remaining_millicredits),
        static_cast<std::uint64_t>(now.count()));
  }
  return d;
}

Decision AdmissionController::check(std::string_view key, std::uint32_t cost) {
  return decide(key, cost, /*consume=*/true);
}

Decision AdmissionController::probe(std::string_view key, std::uint32_t cost) {
  return decide(key, cost, /*consume=*/false);
}

void AdmissionController::refill_all() {
  const TimePoint now = clock_.now();
  table_.for_each(
      [&](const std::string&, QosEntry& entry) { entry.bucket.refill(now); });
}

std::size_t AdmissionController::sync_now() {
  const TimePoint now = clock_.now();
  std::size_t changed = 0;

  // Collect keys first; fetching from the DB under shard locks would stall
  // concurrent decisions on unrelated keys.
  std::vector<std::string> keys;
  keys.reserve(table_.size());
  table_.for_each(
      [&](const std::string& key, QosEntry&) { keys.push_back(key); });

  for (const auto& key : keys) {
    auto fetched = source_.fetch(key);
    table_.with_entry(key, [&](QosEntry& entry) {
      if (fetched) {
        const bool differs = entry.is_default ||
                             entry.rule.capacity != fetched->capacity ||
                             entry.rule.refill_per_sec != fetched->refill_per_sec;
        if (differs) {
          // "The corresponding leaky bucket ... is updated with the latest
          // values" (§III-C): adopt the new capacity/rate AND the database's
          // credit column, so an operator's quota reset takes effect on the
          // next sync tick rather than waiting for refill.
          entry.rule.capacity = fetched->capacity;
          entry.rule.refill_per_sec = fetched->refill_per_sec;
          entry.is_default = false;
          entry.bucket.reconfigure(fetched->capacity, fetched->refill_per_sec,
                                   now);
          entry.bucket.set_credit(
              fetched->initial_credit.value_or(fetched->capacity));
          ++changed;
        }
      } else if (!entry.is_default) {
        // Rule deleted from the database: demote to the default policy.
        entry.rule.capacity = config_.default_rule.capacity;
        entry.rule.refill_per_sec = config_.default_rule.refill_per_sec;
        entry.is_default = true;
        entry.bucket.reconfigure(config_.default_rule.capacity,
                                 config_.default_rule.refill_per_sec, now);
        ++changed;
      }
      return 0;
    });
  }
  return changed;
}

std::size_t AdmissionController::checkpoint_now(RuleSink& sink) {
  const TimePoint now = clock_.now();
  // Snapshot credits under the locks, write to the sink outside them.
  std::vector<std::pair<std::string, double>> credits;
  table_.for_each([&](const std::string& key, QosEntry& entry) {
    if (entry.is_default) return;
    entry.bucket.refill(now);
    credits.emplace_back(key, entry.bucket.credit());
  });
  for (const auto& [key, credit] : credits) sink.checkpoint(key, credit);
  return credits.size();
}

}  // namespace janus::core
