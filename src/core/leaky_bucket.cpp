#include "core/leaky_bucket.hpp"

#include <cmath>
#include <stdexcept>

namespace janus::core {

namespace {
constexpr std::int64_t kNanosPerSec = 1'000'000'000;
constexpr std::int64_t kNanoPerMilli = 1'000'000;  // nano-credits per millicredit

std::int64_t to_milli(double credits) {
  if (!(credits >= 0)) return 0;
  double m = credits * LeakyBucket::kMillisPerCredit;
  if (m > 9.0e18) return std::int64_t{9'000'000'000'000'000'000};
  return static_cast<std::int64_t>(std::llround(m));
}
}  // namespace

LeakyBucket::LeakyBucket(double capacity, double refill_per_sec, TimePoint now)
    : LeakyBucket(capacity, refill_per_sec, capacity, now) {}

LeakyBucket::LeakyBucket(double capacity, double refill_per_sec,
                         double initial_credit, TimePoint now)
    : capacity_milli_(to_milli(capacity)),
      millicredits_(std::clamp(to_milli(initial_credit), std::int64_t{0},
                               capacity_milli_)),
      refill_per_sec_(refill_per_sec),
      rem_prod_(0),
      acc_nano_(0),
      last_refill_(now) {
  if (!valid(capacity, refill_per_sec, initial_credit)) {
    throw std::invalid_argument(
        "LeakyBucket: non-finite value or negative capacity or rate");
  }
  set_rate(refill_per_sec);
}

bool LeakyBucket::valid(double capacity, double refill_per_sec,
                        double credit) {
  // NaN fails every ordered comparison, so `x >= 0` also refuses it.
  return std::isfinite(capacity) && capacity >= 0 &&
         std::isfinite(refill_per_sec) && refill_per_sec >= 0 &&
         std::isfinite(credit);
}

void LeakyBucket::set_rate(double refill_per_sec) {
  refill_per_sec_ = refill_per_sec;
  double nano = refill_per_sec * 1e9;
  rate_nano_per_sec_ =
      nano > 9.0e18 ? std::int64_t{9'000'000'000'000'000'000}
                    : static_cast<std::int64_t>(std::llround(nano));
}

void LeakyBucket::clamp_full() {
  if (millicredits_ >= capacity_milli_) {
    millicredits_ = capacity_milli_;
    // A full bucket holds no partial progress: excess refill is discarded
    // ("it cannot exceed the capacity of the bucket", §II-C).
    rem_prod_ = 0;
    acc_nano_ = 0;
  }
}

void LeakyBucket::refill(TimePoint now) {
  const std::int64_t dt = (now - last_refill_).count();
  if (dt <= 0) return;
  last_refill_ = now;
  if (rate_nano_per_sec_ == 0 || millicredits_ >= capacity_milli_) {
    clamp_full();
    return;
  }
  // nano-credits gained = rate * dt / 1e9, exactly, via 128-bit product.
  const auto prod = static_cast<unsigned __int128>(rate_nano_per_sec_) *
                        static_cast<unsigned __int128>(dt) +
                    static_cast<unsigned __int128>(rem_prod_);
  const auto gained_nano = static_cast<std::int64_t>(prod / kNanosPerSec);
  rem_prod_ = static_cast<std::int64_t>(prod % kNanosPerSec);

  // Promote whole millicredits, keep the nano remainder.
  const std::int64_t total_nano = acc_nano_ + gained_nano;
  std::int64_t gained_milli = total_nano / kNanoPerMilli;
  acc_nano_ = total_nano % kNanoPerMilli;

  // Saturating add (dt could be enormous under virtual time).
  if (gained_milli > capacity_milli_ - millicredits_) {
    millicredits_ = capacity_milli_;
  } else {
    millicredits_ += gained_milli;
  }
  clamp_full();
}

bool LeakyBucket::try_consume(std::uint32_t cost, TimePoint now) {
  refill(now);
  return try_consume_no_refill(cost);
}

bool LeakyBucket::try_consume_no_refill(std::uint32_t cost) {
  const std::int64_t need =
      static_cast<std::int64_t>(cost) * kMillisPerCredit;
  if (millicredits_ < need) return false;
  millicredits_ -= need;
  return true;
}

bool LeakyBucket::probe(std::uint32_t cost, TimePoint now) {
  refill(now);
  return millicredits_ >=
         static_cast<std::int64_t>(cost) * kMillisPerCredit;
}

void LeakyBucket::reconfigure(double capacity, double refill_per_sec,
                              TimePoint now) {
  if (!valid(capacity, refill_per_sec, 0)) {
    throw std::invalid_argument(
        "LeakyBucket: non-finite value or negative capacity or rate");
  }
  refill(now);  // settle the old rate up to the switch point
  capacity_milli_ = to_milli(capacity);
  set_rate(refill_per_sec);
  millicredits_ = std::clamp(millicredits_, std::int64_t{0}, capacity_milli_);
  clamp_full();
}

void LeakyBucket::set_credit(double credit) {
  millicredits_ = std::clamp(to_milli(credit), std::int64_t{0}, capacity_milli_);
  rem_prod_ = 0;
  acc_nano_ = 0;
}

}  // namespace janus::core
