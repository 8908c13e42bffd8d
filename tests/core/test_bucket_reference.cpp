// The 40-byte LeakyBucket against a reference copy of the 56-byte bucket it
// replaced. That bucket cached its capacity in whole millicredits and its
// rate in nano-credits per second, and kept both refill remainders as
// int64; the slim one keeps the exact doubles, derives the two integers
// where it uses them and keeps the remainders as uint32. Driven through the
// same seeded operations, the two must agree on every result and accessor
// after every step.
//
// The reference carries one change of arithmetic, the slim bucket's: a
// refill whose gain in nano-credits does not fit an int64 (a fast rule
// after a long idle) is promoted to millicredits in 128 bits. The 56-byte
// bucket wrapped it, leaving a negative credit
// (LeakyBucketTest.LongIdleAtAFastRateRefillsExactly).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>

#include "common/rng.hpp"
#include "core/leaky_bucket.hpp"

namespace janus::core {
namespace {

class ReferenceBucket {
 public:
  static constexpr std::int64_t kMillisPerCredit = 1000;

  ReferenceBucket(double capacity, double refill_per_sec,
                  double initial_credit, TimePoint now)
      : capacity_milli_(to_milli(capacity)),
        millicredits_(std::clamp(to_milli(initial_credit), std::int64_t{0},
                                 capacity_milli_)),
        refill_per_sec_(refill_per_sec),
        rem_prod_(0),
        acc_nano_(0),
        last_refill_(now) {
    if (!LeakyBucket::valid(capacity, refill_per_sec, initial_credit)) {
      throw std::invalid_argument("bad bucket");
    }
    set_rate(refill_per_sec);
  }

  void refill(TimePoint now) {
    const std::int64_t dt = (now - last_refill_).count();
    if (dt <= 0) return;
    last_refill_ = now;
    if (rate_nano_per_sec_ == 0 || millicredits_ >= capacity_milli_) {
      clamp_full();
      return;
    }
    const auto prod = static_cast<unsigned __int128>(rate_nano_per_sec_) *
                          static_cast<unsigned __int128>(dt) +
                      static_cast<unsigned __int128>(rem_prod_);
    const auto gained = prod / kNanosPerSec;
    rem_prod_ = static_cast<std::int64_t>(prod % kNanosPerSec);
    // The one change (see the top of the file): a gain too large for the
    // int64 arithmetic below is promoted in 128 bits.
    if (gained > static_cast<unsigned __int128>(
                     std::numeric_limits<std::int64_t>::max() -
                     kNanoPerMilli)) {
      const auto total = gained + static_cast<unsigned __int128>(acc_nano_);
      const auto milli = total / kNanoPerMilli;
      if (milli >= static_cast<unsigned __int128>(capacity_milli_ -
                                                  millicredits_)) {
        millicredits_ = capacity_milli_;
      } else {
        millicredits_ += static_cast<std::int64_t>(milli);
        acc_nano_ = static_cast<std::int64_t>(total % kNanoPerMilli);
      }
      clamp_full();
      return;
    }
    const auto gained_nano = static_cast<std::int64_t>(gained);

    const std::int64_t total_nano = acc_nano_ + gained_nano;
    std::int64_t gained_milli = total_nano / kNanoPerMilli;
    acc_nano_ = total_nano % kNanoPerMilli;

    if (gained_milli > capacity_milli_ - millicredits_) {
      millicredits_ = capacity_milli_;
    } else {
      millicredits_ += gained_milli;
    }
    clamp_full();
  }

  bool try_consume(std::uint32_t cost, TimePoint now) {
    refill(now);
    return try_consume_no_refill(cost);
  }

  bool try_consume_no_refill(std::uint32_t cost) {
    const std::int64_t need = static_cast<std::int64_t>(cost) * kMillisPerCredit;
    if (millicredits_ < need) return false;
    millicredits_ -= need;
    return true;
  }

  bool probe(std::uint32_t cost, TimePoint now) {
    refill(now);
    return millicredits_ >= static_cast<std::int64_t>(cost) * kMillisPerCredit;
  }

  double credit() const {
    return static_cast<double>(millicredits_) / kMillisPerCredit;
  }
  std::int64_t millicredits() const { return millicredits_; }
  double capacity() const {
    return static_cast<double>(capacity_milli_) / kMillisPerCredit;
  }
  double refill_per_sec() const { return refill_per_sec_; }

  void reconfigure(double capacity, double refill_per_sec, TimePoint now) {
    if (!LeakyBucket::valid(capacity, refill_per_sec, 0)) {
      throw std::invalid_argument("bad bucket");
    }
    refill(now);
    capacity_milli_ = to_milli(capacity);
    set_rate(refill_per_sec);
    millicredits_ = std::clamp(millicredits_, std::int64_t{0}, capacity_milli_);
    clamp_full();
  }

  void set_credit(double credit) {
    millicredits_ =
        std::clamp(to_milli(credit), std::int64_t{0}, capacity_milli_);
    rem_prod_ = 0;
    acc_nano_ = 0;
  }

 private:
  static constexpr std::int64_t kNanosPerSec = 1'000'000'000;
  static constexpr std::int64_t kNanoPerMilli = 1'000'000;

  static std::int64_t to_milli(double credits) {
    if (!(credits >= 0)) return 0;
    double m = credits * kMillisPerCredit;
    if (m > 9.0e18) return std::int64_t{9'000'000'000'000'000'000};
    return static_cast<std::int64_t>(std::llround(m));
  }

  void set_rate(double refill_per_sec) {
    refill_per_sec_ = refill_per_sec;
    double nano = refill_per_sec * 1e9;
    rate_nano_per_sec_ =
        nano > 9.0e18 ? std::int64_t{9'000'000'000'000'000'000}
                      : static_cast<std::int64_t>(std::llround(nano));
  }

  void clamp_full() {
    if (millicredits_ >= capacity_milli_) {
      millicredits_ = capacity_milli_;
      rem_prod_ = 0;
      acc_nano_ = 0;
    }
  }

  std::int64_t capacity_milli_;
  std::int64_t millicredits_;
  double refill_per_sec_;
  std::int64_t rate_nano_per_sec_;
  std::int64_t rem_prod_;
  std::int64_t acc_nano_;
  TimePoint last_refill_;
};

/// A capacity or credit: often with more than three decimals, sometimes on
/// a half-millicredit boundary, sometimes beyond what to_milli holds.
double random_amount(Rng& rng) {
  switch (rng.next_below(8)) {
    case 0:
      return 0.0;
    case 1:  // a half millicredit: rounds away from zero
      return static_cast<double>(rng.next_below(1'000'000)) / 1000.0 + 0.0005;
    case 2:
      return rng.uniform(0.0, 0.002);
    case 3:
      return rng.uniform(1e12, 1e16);  // to_milli saturates above 9e15
    case 4:
      return static_cast<double>(rng.next_below(1000));
    default:
      return rng.uniform(0.0, 1e6);
  }
}

/// A rate from 0 to 1e9 credits per second.
double random_rate(Rng& rng) {
  switch (rng.next_below(6)) {
    case 0:
      return 0.0;
    case 1:
      return 1.0 / 3600.0;  // one per hour
    case 2:
      return rng.uniform(0.0, 1.0);
    case 3:
      return rng.uniform(1e6, 1e9);
    case 4:
      return 1e9;
    default:
      return rng.uniform(0.0, 1e4);
  }
}

/// A step of 1 ns to days, sometimes backwards.
std::int64_t random_step(Rng& rng) {
  switch (rng.next_below(8)) {
    case 0:
      return 1;
    case 1:
      return -static_cast<std::int64_t>(rng.next_below(5'000'000'000));
    case 2:
      return static_cast<std::int64_t>(rng.next_below(1000));
    case 3:  // up to three days
      return static_cast<std::int64_t>(rng.next_below(259'200'000'000'000));
    case 4:
      return 0;
    default:
      return static_cast<std::int64_t>(rng.next_below(50'000'000));
  }
}

class SlimBucketPropertyTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(SlimBucketPropertyTest, MatchesTheReferenceBucketAtEveryStep) {
  Rng rng(GetParam());
  for (int bucket = 0; bucket < 200; ++bucket) {
    double capacity = random_amount(rng);
    double rate = random_rate(rng);
    const double initial = rng.chance(0.2) ? capacity : random_amount(rng);
    TimePoint now{static_cast<std::int64_t>(rng.next_below(1'000'000'000))};
    ReferenceBucket ref(capacity, rate, initial, now);
    LeakyBucket slim(capacity, rate, initial, now);
    for (int step = 0; step < 300; ++step) {
      now += Duration{random_step(rng)};
      const auto cost = static_cast<std::uint32_t>(rng.next_below(4));
      SCOPED_TRACE(::testing::Message()
                   << "seed " << GetParam() << " bucket " << bucket
                   << " step " << step << " capacity " << capacity
                   << " rate " << rate);
      switch (rng.next_below(7)) {
        case 0:
          ref.refill(now);
          slim.refill(now);
          break;
        case 1:
          ASSERT_EQ(slim.try_consume(cost, now), ref.try_consume(cost, now));
          break;
        case 2:
          ASSERT_EQ(slim.try_consume_no_refill(cost),
                    ref.try_consume_no_refill(cost));
          break;
        case 3:
          ASSERT_EQ(slim.probe(cost, now), ref.probe(cost, now));
          break;
        case 4:
          if (rng.chance(0.3)) {
            capacity = random_amount(rng);
            rate = random_rate(rng);
            ref.reconfigure(capacity, rate, now);
            slim.reconfigure(capacity, rate, now);
          } else {
            ref.refill(now);
            slim.refill(now);
          }
          break;
        case 5: {
          const double credit =
              rng.chance(0.1) ? std::numeric_limits<double>::quiet_NaN()
                              : random_amount(rng) - 1.0;
          ref.set_credit(credit);
          slim.set_credit(credit);
          break;
        }
        case 6:  // many tiny steps in a row: the remainders carry over
          for (int k = 0; k < 50; ++k) {
            now += Duration{1 + static_cast<std::int64_t>(rng.next_below(97))};
            ASSERT_EQ(slim.try_consume(0, now), ref.try_consume(0, now));
          }
          break;
      }
      ASSERT_EQ(slim.millicredits(), ref.millicredits());
      ASSERT_EQ(slim.credit(), ref.credit());
      ASSERT_EQ(slim.capacity(), ref.capacity());
      ASSERT_EQ(slim.refill_per_sec(), ref.refill_per_sec());
      ASSERT_EQ(slim.exact_capacity(), capacity);
      ASSERT_GE(slim.millicredits(), 0);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SlimBucketPropertyTest,
                         ::testing::Values(1u, 2u, 0xC0FFEEu, 90210u));

}  // namespace
}  // namespace janus::core
