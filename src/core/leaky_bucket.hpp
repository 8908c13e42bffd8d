// The leaky bucket with refill (paper §II-C, Fig. 3 and Eqs. 1-2):
//
//   f(t) = C + (A - B) * t,   clamped to 0 <= f(t) <= C
//
// where C is capacity, A the refill rate the tenant purchased, and B the
// consume rate. Credit is kept in integer *milli-credits* with nanosecond
// refill accounting so a 1-request-per-hour rule refills exactly and no
// floating-point drift accumulates across days of virtual time.
//
// The bucket keeps the rule's capacity and rate as given (40 bytes in all):
// it derives the whole-millicredit capacity and the nano-credit rate from
// them where it uses them, rounding the same way every time.
//
// The bucket itself is not synchronized; the owning QosTable shard holds the
// lock (mirroring the paper's synchronized-hash-map design).
#pragma once

#include <algorithm>
#include <cstdint>

#include "common/clock.hpp"

namespace janus::core {

class LeakyBucket {
 public:
  static constexpr std::int64_t kMillisPerCredit = 1000;

  /// A bucket created at `now` starts fully filled ("initially fully filled
  /// with an initial credit equal to the capacity", §II-C) unless an explicit
  /// starting credit (e.g. a recovered check-point) is given. Throws
  /// std::invalid_argument unless valid(capacity, refill_per_sec, credit).
  LeakyBucket(double capacity, double refill_per_sec, TimePoint now);
  LeakyBucket(double capacity, double refill_per_sec, double initial_credit,
              TimePoint now);

  /// The constructors' precondition: every value finite, capacity and rate
  /// not negative. (A credit outside [0, capacity] is clamped.) Callers
  /// holding values from a peer test it first, so a bad value is refused
  /// instead of thrown.
  static bool valid(double capacity, double refill_per_sec, double credit);

  /// Bring the water level up to date at time `now`. Idempotent; time moving
  /// backwards is ignored (monotonic clocks only).
  void refill(TimePoint now);

  /// Refill to `now`, then consume `cost` credits if fully available.
  /// Partial consumption never happens. Returns the admission decision.
  bool try_consume(std::uint32_t cost, TimePoint now);

  /// Consume without refilling — the paper's periodic-refill mode, where a
  /// house-keeping thread calls refill() on a timer (§III-C).
  bool try_consume_no_refill(std::uint32_t cost);

  /// Would try_consume succeed right now? Non-mutating except the refill.
  bool probe(std::uint32_t cost, TimePoint now);

  double credit() const {
    return static_cast<double>(millicredits_) / kMillisPerCredit;
  }
  std::int64_t millicredits() const { return millicredits_; }
  /// The capacity in whole millicredits, as the bucket fills to it.
  double capacity() const {
    return static_cast<double>(capacity_milli()) / kMillisPerCredit;
  }
  /// The capacity as configured, before that rounding.
  double exact_capacity() const { return capacity_; }
  double refill_per_sec() const { return refill_per_sec_; }

  /// Re-provision the bucket when the rule changes in the database (sync
  /// path, §II-D). Credit is clamped into the new [0, capacity]. Throws
  /// std::invalid_argument on a value the constructors refuse.
  void reconfigure(double capacity, double refill_per_sec, TimePoint now);

  /// Overwrite the credit (check-point recovery). Clamped to [0, capacity].
  void set_credit(double credit);

  /// Start refilling from `now`, gaining nothing for the time before it: a
  /// loaded rule's bucket starts its clock at the key's first decision.
  void restart_clock(TimePoint now) { last_refill_ = now; }

 private:
  std::int64_t capacity_milli() const;
  /// The rate in nano-credits per second.
  std::int64_t rate_nano_per_sec() const;
  void clamp_full(std::int64_t capacity_milli);

  double capacity_;
  double refill_per_sec_;
  std::int64_t millicredits_;
  TimePoint last_refill_;
  // Exact refill accounting: over dt nanoseconds the bucket gains
  // rate_nano_per_sec() * dt / 1e9 nano-credits. Two remainders keep the
  // arithmetic drift-free for arbitrarily slow rules and arbitrarily
  // frequent refills:
  //   rem_prod_  — nano-credit*ns product remainder (< 1e9)
  //   acc_nano_  — whole nano-credits not yet promoted to a millicredit
  //                (< 1e6)
  std::uint32_t rem_prod_;
  std::uint32_t acc_nano_;
};
static_assert(sizeof(LeakyBucket) == 40, "a bucket is 40 bytes");

}  // namespace janus::core
