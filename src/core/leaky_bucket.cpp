#include "core/leaky_bucket.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

namespace janus::core {

namespace {
constexpr std::int64_t kNanosPerSec = 1'000'000'000;
constexpr std::int64_t kNanoPerMilli = 1'000'000;  // nano-credits per millicredit
constexpr std::int64_t kMaxUnits = 9'000'000'000'000'000'000;

/// std::llround for 0 <= x <= 9e18, without the libm call: the fraction
/// that truncation leaves is exact, and a half rounds away from zero.
std::int64_t round_half_up(double x) {
  auto whole = static_cast<std::int64_t>(x);
  if (x - static_cast<double>(whole) >= 0.5) ++whole;
  return whole;
}

std::int64_t to_milli(double credits) {
  if (!(credits >= 0)) return 0;
  const double m = credits * LeakyBucket::kMillisPerCredit;
  if (m > 9.0e18) return kMaxUnits;
  return round_half_up(m);
}

/// n / D and n % D, with one 64-bit division (which the compiler turns into
/// a multiplication) whenever n fits 64 bits.
template <std::uint64_t D>
std::pair<unsigned __int128, std::uint64_t> divmod(unsigned __int128 n) {
  if ((n >> 64) == 0) {
    const auto low = static_cast<std::uint64_t>(n);
    return {low / D, low % D};
  }
  return {n / D, static_cast<std::uint64_t>(n % D)};
}
}  // namespace

LeakyBucket::LeakyBucket(double capacity, double refill_per_sec, TimePoint now)
    : LeakyBucket(capacity, refill_per_sec, capacity, now) {}

LeakyBucket::LeakyBucket(double capacity, double refill_per_sec,
                         double initial_credit, TimePoint now)
    : capacity_(capacity),
      refill_per_sec_(refill_per_sec),
      millicredits_(0),
      last_refill_(now),
      rem_prod_(0),
      acc_nano_(0) {
  if (!valid(capacity, refill_per_sec, initial_credit)) {
    throw std::invalid_argument(
        "LeakyBucket: non-finite value or negative capacity or rate");
  }
  millicredits_ = std::clamp(to_milli(initial_credit), std::int64_t{0},
                             capacity_milli());
}

bool LeakyBucket::valid(double capacity, double refill_per_sec,
                        double credit) {
  // NaN fails every ordered comparison, so `x >= 0` also refuses it.
  return std::isfinite(capacity) && capacity >= 0 &&
         std::isfinite(refill_per_sec) && refill_per_sec >= 0 &&
         std::isfinite(credit);
}

std::int64_t LeakyBucket::capacity_milli() const {
  return to_milli(capacity_);
}

std::int64_t LeakyBucket::rate_nano_per_sec() const {
  const double nano = refill_per_sec_ * 1e9;
  return nano > 9.0e18 ? kMaxUnits : round_half_up(nano);
}

void LeakyBucket::clamp_full(std::int64_t capacity_milli) {
  if (millicredits_ >= capacity_milli) {
    millicredits_ = capacity_milli;
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
  const std::int64_t capacity_milli = this->capacity_milli();
  const std::int64_t rate = rate_nano_per_sec();
  if (rate == 0 || millicredits_ >= capacity_milli) {
    clamp_full(capacity_milli);
    return;
  }
  // nano-credits gained = rate * dt / 1e9, exactly, via 128-bit product.
  const auto [gained_nano, rem_prod] = divmod<kNanosPerSec>(
      static_cast<unsigned __int128>(rate) *
          static_cast<unsigned __int128>(dt) +
      rem_prod_);
  rem_prod_ = static_cast<std::uint32_t>(rem_prod);

  // Promote whole millicredits, keep the nano remainder. A gain that
  // reaches the capacity fills the bucket: the gain can exceed any integer
  // the bucket holds (a fast rule after a long idle, or dt under virtual
  // time), so it is compared, never added, until it is known to fit.
  const auto [gained_milli, acc_nano] =
      divmod<kNanoPerMilli>(gained_nano + acc_nano_);
  if (gained_milli >= static_cast<unsigned __int128>(capacity_milli -
                                                     millicredits_)) {
    millicredits_ = capacity_milli;
    clamp_full(capacity_milli);
    return;
  }
  millicredits_ += static_cast<std::int64_t>(gained_milli);
  acc_nano_ = static_cast<std::uint32_t>(acc_nano);
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
  capacity_ = capacity;
  refill_per_sec_ = refill_per_sec;
  const std::int64_t capacity_milli = this->capacity_milli();
  millicredits_ = std::clamp(millicredits_, std::int64_t{0}, capacity_milli);
  clamp_full(capacity_milli);
}

void LeakyBucket::set_credit(double credit) {
  millicredits_ =
      std::clamp(to_milli(credit), std::int64_t{0}, capacity_milli());
  rem_prod_ = 0;
  acc_nano_ = 0;
}

}  // namespace janus::core
