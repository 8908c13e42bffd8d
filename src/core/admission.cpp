#include "core/admission.hpp"

#include <vector>

#include "common/flight_recorder.hpp"

namespace janus::core {

AdmissionController::AdmissionController(Clock& clock, RuleSource& source,
                                         AdmissionConfig config)
    : AdmissionController(clock, std::move(config)) {
  source_ = &source;
}

AdmissionController::AdmissionController(Clock& clock, AdmissionConfig config)
    : clock_(clock),
      source_(nullptr),
      config_(std::move(config)),
      table_(config_.table_shards),
      checks_(metrics_.counter("admission.checks")),
      allowed_(metrics_.counter("admission.allowed")),
      denied_(metrics_.counter("admission.denied")),
      fetches_(metrics_.counter("admission.db_fetches")),
      defaults_(metrics_.counter("admission.default_rules")) {}

QosEntry AdmissionController::make_entry(std::string_view key, TimePoint now) {
  fetches_.inc();
  const std::optional<QosRule> fetched =
      source_ ? source_->fetch(key) : std::nullopt;
  if (!fetched) defaults_.inc();
  const QosRule& rule = fetched ? *fetched : config_.default_rule;
  return QosEntry::make(rule.capacity, rule.refill_per_sec,
                        rule.initial_credit.value_or(rule.capacity), now,
                        /*is_default=*/!fetched);
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
    if (entry.provisioned()) {
      // The first decision of a loaded rule: its refill clock starts now.
      entry.go_live(now);
      origin = Decision::Origin::kFetched;
    }
    d.origin = origin;
    const std::int64_t before = entry.bucket.millicredits();
    if (lazy) entry.bucket.refill(now);
    d.allowed = consume ? entry.bucket.try_consume_no_refill(cost)
                        : entry.bucket.millicredits() >=
                              static_cast<std::int64_t>(cost) *
                                  LeakyBucket::kMillisPerCredit;
    d.remaining_millicredits = entry.bucket.millicredits();
    if (d.remaining_millicredits != before) entry.set_credit_changed(true);
    if (sampled) {
      sketch.note(key, hash, d.allowed, FlightRecorder::kDecisionSampleWeight);
    }
    return d;
  };

  // Fast path: the bucket is already cached, or its rule loaded.
  auto cached = table_.with_entry_prehashed(
      key, hash, [&](QosEntry& entry, HotKeySketch& sketch) {
        return run(entry, sketch, Decision::Origin::kCached);
      });
  Decision d;
  if (cached) {
    d = *cached;
    if (d.origin == Decision::Origin::kFetched) fetches_.inc();
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
                     entry.is_default() ? Decision::Origin::kDefault
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
      [&](std::string_view, QosEntry& entry) { entry.bucket.refill(now); });
}

namespace {

/// A pass's copy-out buffer. Its slots, and the heap buffers of long keys,
/// are reused from shard to shard, so a pass holds about one shard's worth.
template <typename Slot>
class PassBuffer {
 public:
  void clear() { used_ = 0; }
  Slot& next() {
    if (used_ == slots_.size()) slots_.emplace_back();
    return slots_[used_++];
  }
  std::span<Slot> used() { return {slots_.data(), used_}; }

 private:
  std::vector<Slot> slots_;
  std::size_t used_ = 0;
};

/// Does `fetched` (nullopt: the key left the database) differ from the rule
/// an entry holds, (capacity, refill_per_sec, is_default)?
bool rule_changed(double capacity, double refill_per_sec, bool is_default,
                  const std::optional<QosRule>& fetched) {
  if (!fetched) return !is_default;
  return is_default || capacity != fetched->capacity ||
         refill_per_sec != fetched->refill_per_sec;
}

}  // namespace

std::size_t AdmissionController::sync_now() {
  if (!source_) return 0;
  struct CachedRule {
    std::string key;
    double capacity = 0.0;
    double refill_per_sec = 0.0;
    bool is_default = false;
  };
  const TimePoint now = clock_.now();
  std::size_t changed = 0;
  PassBuffer<CachedRule> cached;
  for (std::size_t shard = 0; shard < table_.shard_count(); ++shard) {
    cached.clear();
    table_.for_each_in_shard(shard, [&](std::string_view key,
                                        QosEntry& entry) {
      CachedRule& c = cached.next();
      c.key.assign(key);
      c.capacity = entry.capacity();
      c.refill_per_sec = entry.refill_per_sec();
      c.is_default = entry.is_default();
    });
    // Fetch with the shard unlocked: a database read under it would stall
    // concurrent decisions on unrelated keys. Only a changed rule takes the
    // shard lock again, and re-checks against the live entry under it.
    for (const CachedRule& c : cached.used()) {
      const std::optional<QosRule> fetched = source_->fetch(c.key);
      if (!rule_changed(c.capacity, c.refill_per_sec, c.is_default, fetched)) {
        continue;
      }
      table_.with_entry(c.key, [&](QosEntry& entry) {
        if (!rule_changed(entry.capacity(), entry.refill_per_sec(),
                          entry.is_default(), fetched)) {
          return 0;
        }
        if (fetched) {
          // "The corresponding leaky bucket ... is updated with the latest
          // values" (§III-C): adopt the new capacity/rate AND the database's
          // credit column, so an operator's quota reset takes effect on the
          // next sync tick rather than waiting for refill.
          entry.bucket.reconfigure(fetched->capacity,
                                   fetched->refill_per_sec, now);
          entry.bucket.set_credit(
              fetched->initial_credit.value_or(fetched->capacity));
          entry.set_default(false);
        } else {
          // Rule deleted from the database: demote to the default policy.
          entry.bucket.reconfigure(config_.default_rule.capacity,
                                   config_.default_rule.refill_per_sec, now);
          entry.set_default(true);
        }
        ++changed;
        return 0;
      });
    }
  }
  return changed;
}

std::size_t AdmissionController::checkpoint_now(RuleSink& sink) {
  const TimePoint now = clock_.now();
  std::size_t written = 0;
  PassBuffer<KeyCredit> credits;
  for (std::size_t shard = 0; shard < table_.shard_count(); ++shard) {
    credits.clear();
    table_.for_each_in_shard(shard, [&](std::string_view key,
                                        QosEntry& entry) {
      if (entry.is_default()) return;
      entry.bucket.refill(now);
      KeyCredit& c = credits.next();
      c.key.assign(key);
      c.credit = entry.bucket.credit();
    });
    // The sink writes to the database with the shard unlocked.
    if (credits.used().empty()) continue;
    sink.checkpoint(credits.used());
    written += credits.used().size();
  }
  return written;
}

}  // namespace janus::core
