#include "core/leaky_bucket.hpp"

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <tuple>

#include "common/rng.hpp"

namespace janus::core {
namespace {

TEST(LeakyBucketTest, StartsFull) {
  LeakyBucket b(1000.0, 100.0, kTimeZero);
  EXPECT_DOUBLE_EQ(b.credit(), 1000.0);
  EXPECT_DOUBLE_EQ(b.capacity(), 1000.0);
  EXPECT_DOUBLE_EQ(b.refill_per_sec(), 100.0);
}

TEST(LeakyBucketTest, ExplicitInitialCredit) {
  LeakyBucket b(1000.0, 100.0, 250.0, kTimeZero);
  EXPECT_DOUBLE_EQ(b.credit(), 250.0);
}

TEST(LeakyBucketTest, InitialCreditClampedToCapacity) {
  LeakyBucket b(100.0, 10.0, 500.0, kTimeZero);
  EXPECT_DOUBLE_EQ(b.credit(), 100.0);
}

TEST(LeakyBucketTest, RejectsNegativeParameters) {
  EXPECT_THROW(LeakyBucket(-1.0, 1.0, kTimeZero), std::invalid_argument);
  EXPECT_THROW(LeakyBucket(1.0, -1.0, kTimeZero), std::invalid_argument);
}

TEST(LeakyBucketTest, RejectsNonFiniteParameters) {
  // llround(NaN) is LLONG_MIN on x86-64: a NaN rate used to become a
  // negative refill that drove the credit below zero.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {nan, -nan, inf, -inf}) {
    EXPECT_FALSE(LeakyBucket::valid(bad, 1.0, 1.0)) << bad;
    EXPECT_FALSE(LeakyBucket::valid(1.0, bad, 1.0)) << bad;
    EXPECT_FALSE(LeakyBucket::valid(1.0, 1.0, bad)) << bad;
    EXPECT_THROW(LeakyBucket(bad, 1.0, kTimeZero), std::invalid_argument);
    EXPECT_THROW(LeakyBucket(1.0, bad, kTimeZero), std::invalid_argument);
    EXPECT_THROW(LeakyBucket(1.0, 1.0, bad, kTimeZero), std::invalid_argument);
    LeakyBucket ok(1.0, 1.0, kTimeZero);
    EXPECT_THROW(ok.reconfigure(bad, 1.0, kTimeZero), std::invalid_argument);
    EXPECT_THROW(ok.reconfigure(1.0, bad, kTimeZero), std::invalid_argument);
  }
  EXPECT_TRUE(LeakyBucket::valid(0.0, 0.0, 0.0));
  EXPECT_TRUE(LeakyBucket::valid(10.0, 1.0, -1.0));  // credit is clamped
}

TEST(LeakyBucketTest, ConsumeDecrementsExactly) {
  LeakyBucket b(10.0, 0.0, kTimeZero);
  EXPECT_TRUE(b.try_consume(1, kTimeZero));
  EXPECT_DOUBLE_EQ(b.credit(), 9.0);
  EXPECT_TRUE(b.try_consume(4, kTimeZero));
  EXPECT_DOUBLE_EQ(b.credit(), 5.0);
}

TEST(LeakyBucketTest, DeniesWhenInsufficientAndDoesNotPartiallyConsume) {
  LeakyBucket b(3.0, 0.0, kTimeZero);
  EXPECT_FALSE(b.try_consume(4, kTimeZero));
  EXPECT_DOUBLE_EQ(b.credit(), 3.0);  // untouched
  EXPECT_TRUE(b.try_consume(3, kTimeZero));
  EXPECT_FALSE(b.try_consume(1, kTimeZero));
}

TEST(LeakyBucketTest, RefillMatchesEquationOne) {
  // f(t) = C + (A - B) * t; here B = 0, starting from empty.
  LeakyBucket b(1000.0, 100.0, 0.0, kTimeZero);
  b.refill(seconds(3));
  EXPECT_DOUBLE_EQ(b.credit(), 300.0);  // 100/s * 3s
  b.refill(seconds(3) + millis(500));
  EXPECT_DOUBLE_EQ(b.credit(), 350.0);
}

TEST(LeakyBucketTest, CreditNeverExceedsCapacity) {
  LeakyBucket b(100.0, 1000.0, 0.0, kTimeZero);
  b.refill(seconds(3600));
  EXPECT_DOUBLE_EQ(b.credit(), 100.0);
}

TEST(LeakyBucketTest, CreditNeverNegative) {
  LeakyBucket b(5.0, 0.0, kTimeZero);
  for (int i = 0; i < 100; ++i) (void)b.try_consume(1, kTimeZero);
  EXPECT_GE(b.credit(), 0.0);
}

TEST(LeakyBucketTest, TimeMovingBackwardsIsIgnored) {
  LeakyBucket b(100.0, 10.0, 0.0, seconds(10));
  b.refill(seconds(5));  // earlier than creation
  EXPECT_DOUBLE_EQ(b.credit(), 0.0);
  b.refill(seconds(11));
  EXPECT_DOUBLE_EQ(b.credit(), 10.0);
}

TEST(LeakyBucketTest, BurstAfterIdleMatchesPaperExample) {
  // §II-C: rate 100/s, capacity 1000; after >10 s idle the bucket is full
  // and a 500/s burst is sustainable until depletion.
  LeakyBucket b(1000.0, 100.0, 0.0, kTimeZero);
  b.refill(seconds(10));
  EXPECT_DOUBLE_EQ(b.credit(), 1000.0);
  // Burst at 500/s: each second consumes 500 and refills 100.
  TimePoint t = seconds(10);
  int sustained_seconds = 0;
  for (int s = 0; s < 10; ++s) {
    bool all_ok = true;
    for (int i = 0; i < 500; ++i) {
      t += micros(2000);
      all_ok &= b.try_consume(1, t);
    }
    if (all_ok) ++sustained_seconds;
  }
  // 1000 / (500-100) = 2.5 s of burst capacity.
  EXPECT_GE(sustained_seconds, 2);
  EXPECT_LE(sustained_seconds, 3);
}

TEST(LeakyBucketTest, SustainedRateEqualsRefillRate) {
  // Offered 200/s against a 100/s rule: exactly ~100/s admitted once the
  // initial credit is gone.
  LeakyBucket b(50.0, 100.0, 0.0, kTimeZero);
  TimePoint t = kTimeZero;
  int admitted = 0;
  constexpr int kSeconds = 10;
  for (int i = 0; i < 200 * kSeconds; ++i) {
    t += micros(5000);  // 200/s arrivals
    if (b.try_consume(1, t)) ++admitted;
  }
  // Starting empty, exactly the refill budget (rate * horizon) is admitted.
  EXPECT_NEAR(admitted, 100 * kSeconds, 2);
}

TEST(LeakyBucketTest, SlowRuleRefillsExactlyOverLongHorizon) {
  // 1 request/hour: after 10 hours exactly 10 credits, no drift.
  const double per_hour = 1.0 / 3600.0;
  LeakyBucket b(100.0, per_hour, 0.0, kTimeZero);
  TimePoint t = kTimeZero;
  // Refill in awkward 7-ms steps for 10 virtual hours.
  const Duration step = millis(7);
  const std::int64_t steps = seconds(36000).count() / step.count();
  for (std::int64_t i = 0; i < steps; ++i) {
    t += step;
    b.refill(t);
  }
  b.refill(seconds(36000));
  EXPECT_NEAR(b.credit(), 10.0, 0.002);
}

TEST(LeakyBucketTest, ManySmallRefillsEqualOneBigRefill) {
  LeakyBucket a(1e6, 123.456, 0.0, kTimeZero);
  LeakyBucket bb(1e6, 123.456, 0.0, kTimeZero);
  TimePoint t = kTimeZero;
  Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    t += Duration{static_cast<std::int64_t>(rng.next_below(100000))};
    a.refill(t);
  }
  bb.refill(t);
  EXPECT_NEAR(a.credit(), bb.credit(), 0.001);
}

TEST(LeakyBucketTest, ZeroRateNeverRefills) {
  LeakyBucket b(10.0, 0.0, 5.0, kTimeZero);
  b.refill(seconds(100000));
  EXPECT_DOUBLE_EQ(b.credit(), 5.0);
}

TEST(LeakyBucketTest, ZeroCapacityDeniesEverything) {
  // The §II-D deny-all default rule.
  LeakyBucket b(0.0, 0.0, kTimeZero);
  EXPECT_FALSE(b.try_consume(1, seconds(100)));
  EXPECT_FALSE(b.probe(1, seconds(200)));
}

TEST(LeakyBucketTest, ProbeDoesNotConsume) {
  LeakyBucket b(5.0, 0.0, kTimeZero);
  EXPECT_TRUE(b.probe(5, kTimeZero));
  EXPECT_DOUBLE_EQ(b.credit(), 5.0);
  EXPECT_TRUE(b.try_consume(5, kTimeZero));
  EXPECT_FALSE(b.probe(1, kTimeZero));
}

TEST(LeakyBucketTest, NoRefillVariantIgnoresTime) {
  LeakyBucket b(10.0, 100.0, 0.0, kTimeZero);
  EXPECT_FALSE(b.try_consume_no_refill(1));  // empty, no time passed for it
  b.refill(seconds(1));                      // house-keeping thread fires
  EXPECT_TRUE(b.try_consume_no_refill(1));
}

TEST(LeakyBucketTest, ReconfigureKeepsCreditClamped) {
  LeakyBucket b(1000.0, 100.0, kTimeZero);
  b.reconfigure(200.0, 50.0, seconds(1));
  EXPECT_DOUBLE_EQ(b.capacity(), 200.0);
  EXPECT_DOUBLE_EQ(b.refill_per_sec(), 50.0);
  EXPECT_DOUBLE_EQ(b.credit(), 200.0);  // clamped down from 1000
}

TEST(LeakyBucketTest, ReconfigureSettlesOldRateFirst) {
  LeakyBucket b(1000.0, 100.0, 0.0, kTimeZero);
  b.reconfigure(1000.0, 0.0, seconds(2));
  // The 2 seconds before the change accrued at the old 100/s.
  EXPECT_DOUBLE_EQ(b.credit(), 200.0);
  b.refill(seconds(100));
  EXPECT_DOUBLE_EQ(b.credit(), 200.0);  // new rate is 0
}

TEST(LeakyBucketTest, SetCreditClamps) {
  LeakyBucket b(100.0, 10.0, kTimeZero);
  b.set_credit(42.0);
  EXPECT_DOUBLE_EQ(b.credit(), 42.0);
  b.set_credit(1e9);
  EXPECT_DOUBLE_EQ(b.credit(), 100.0);
  b.set_credit(-5.0);
  EXPECT_DOUBLE_EQ(b.credit(), 0.0);
}

TEST(LeakyBucketTest, FractionalCreditsAccumulate) {
  LeakyBucket b(10.0, 0.5, 0.0, kTimeZero);  // one credit per 2 s
  EXPECT_FALSE(b.try_consume(1, seconds(1)));
  EXPECT_TRUE(b.try_consume(1, seconds(2)));
  EXPECT_FALSE(b.try_consume(1, seconds(3)));
  EXPECT_TRUE(b.try_consume(1, seconds(4)));
}

TEST(LeakyBucketTest, LongIdleAtAFastRateRefillsExactly) {
  // The gain in nano-credits outgrows an int64 once rate x idle passes
  // about 9.2e9 credits; the bucket used to wrap it into a negative credit.
  LeakyBucket fast(1e12, 1e9, 0.0, kTimeZero);
  fast.refill(seconds(10));
  EXPECT_EQ(fast.millicredits(), 10'000'000'000'000);  // 1e10 credits

  LeakyBucket idle(1e12, 1e6, 0.0, kTimeZero);
  idle.refill(seconds(3 * 3600));
  EXPECT_EQ(idle.millicredits(), 10'800'000'000'000);  // 1.08e10 credits

  LeakyBucket small(100.0, 1e9, 0.0, kTimeZero);
  EXPECT_TRUE(small.try_consume(100, seconds(86'400)));
  EXPECT_EQ(small.millicredits(), 0);
  EXPECT_TRUE(small.probe(100, seconds(2 * 86'400)));
  EXPECT_EQ(small.millicredits(), 100'000);
}

TEST(LeakyBucketTest, ExactCapacityIsKeptAndRoundedWhereUsed) {
  LeakyBucket b(12.34567, 1.23456, kTimeZero);
  EXPECT_EQ(b.exact_capacity(), 12.34567);
  EXPECT_EQ(b.capacity(), 12.346);  // whole millicredits, half away from 0
  EXPECT_EQ(b.millicredits(), 12'346);
  b.reconfigure(0.0005, 0.0, kTimeZero);
  EXPECT_EQ(b.exact_capacity(), 0.0005);
  EXPECT_EQ(b.millicredits(), 1);
}

// ------------------------------------------------------- property sweeps

struct BucketParams {
  double capacity;
  double rate;
};

class LeakyBucketPropertyTest
    : public ::testing::TestWithParam<BucketParams> {};

// Invariant (Eq. 2): 0 <= f(t) <= C under arbitrary interleavings.
TEST_P(LeakyBucketPropertyTest, CreditAlwaysWithinBounds) {
  const auto [capacity, rate] = GetParam();
  LeakyBucket b(capacity, rate, kTimeZero);
  Rng rng(static_cast<std::uint64_t>(capacity * 1000 + rate));
  TimePoint t = kTimeZero;
  for (int i = 0; i < 20000; ++i) {
    t += Duration{static_cast<std::int64_t>(rng.next_below(20'000'000))};
    switch (rng.next_below(4)) {
      case 0:
        b.refill(t);
        break;
      case 1:
        (void)b.try_consume(static_cast<std::uint32_t>(1 + rng.next_below(3)),
                            t);
        break;
      case 2:
        (void)b.probe(1, t);
        break;
      case 3:
        (void)b.try_consume_no_refill(1);
        break;
    }
    ASSERT_GE(b.credit(), 0.0);
    ASSERT_LE(b.credit(), capacity + 1e-9);
  }
}

// Admitted requests never exceed initial credit + refill budget.
TEST_P(LeakyBucketPropertyTest, AdmissionNeverExceedsBudget) {
  const auto [capacity, rate] = GetParam();
  LeakyBucket b(capacity, rate, kTimeZero);
  Rng rng(static_cast<std::uint64_t>(capacity + rate * 7));
  TimePoint t = kTimeZero;
  std::int64_t admitted = 0;
  for (int i = 0; i < 50000; ++i) {
    t += Duration{static_cast<std::int64_t>(rng.next_below(2'000'000))};
    if (b.try_consume(1, t)) ++admitted;
  }
  const double budget = capacity + rate * to_seconds(t);
  EXPECT_LE(static_cast<double>(admitted), budget + 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    RateCapacitySweep, LeakyBucketPropertyTest,
    ::testing::Values(BucketParams{0.0, 0.0}, BucketParams{1.0, 1.0},
                      BucketParams{10.0, 0.1}, BucketParams{100.0, 10.0},
                      BucketParams{1000.0, 100.0},
                      BucketParams{1000.0, 10000.0},
                      BucketParams{100000.0, 1.0},
                      BucketParams{5.0, 0.001}));

}  // namespace
}  // namespace janus::core
