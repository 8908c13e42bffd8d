#include "testing/fault_injector.hpp"

#include "common/flight_recorder.hpp"

namespace janus::testing {

namespace {

constexpr std::string_view kNames[kFaultPointCount] = {
    "net.udp.drop_tx",        "net.udp.drop_rx",  "net.udp.delay_us",
    "net.tcp.reset",          "net.tcp.short_read",
    "router.udp.drop_attempt", "db.wal.partial_write",
    "db.wal.corrupt_crc",     "db.wal.sync_fail", "server.slow_service",
    "cluster.bfd.drop",       "cluster.migrate.stall",
    "net.udp.eintr",
    "lb.probe.drop",
    "lb.probe.delay",
    "db.snapshot.sync_fail",
};

constexpr std::uint64_t kDefaultSeed = 0x6A616E7573'F417ull;  // "janus"+fault

// SplitMix64 step (common/rng.hpp has a class; the injector keeps raw state
// per point so seeding stays a plain loop under each point's lock).
std::uint64_t splitmix_next(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace

std::string_view fault_point_name(FaultPoint point) {
  return kNames[static_cast<std::size_t>(point)];
}

std::optional<FaultPoint> fault_point_from_name(std::string_view name) {
  for (std::size_t i = 0; i < kFaultPointCount; ++i) {
    if (kNames[i] == name) return static_cast<FaultPoint>(i);
  }
  return std::nullopt;
}

FaultInjector& FaultInjector::instance() {
  static FaultInjector injector;
  return injector;
}

FaultInjector::FaultInjector() { seed(kDefaultSeed); }

void FaultInjector::seed(std::uint64_t s) {
  for (std::size_t i = 0; i < kFaultPointCount; ++i) {
    Point& p = points_[i];
    MutexLock lock(p.mu);
    // Independent stream per point: same seed always yields the same
    // decision sequence at a given point, no matter what other points do.
    std::uint64_t base = s ^ (0x9E3779B97F4A7C15ull * (i + 1));
    p.rng = splitmix_next(base);
    p.hit_count = 0;
    p.fire_count = 0;
  }
}

void FaultInjector::arm(FaultPoint point, ArmSpec spec) {
  Point& p = points_[static_cast<std::size_t>(point)];
  MutexLock lock(p.mu);
  p.spec = spec;
  p.hit_count = 0;
  p.fire_count = 0;
  p.armed.store(true, std::memory_order_release);
}

void FaultInjector::disarm(FaultPoint point) {
  Point& p = points_[static_cast<std::size_t>(point)];
  MutexLock lock(p.mu);
  p.armed.store(false, std::memory_order_release);
}

void FaultInjector::disarm_all() {
  for (std::size_t i = 0; i < kFaultPointCount; ++i) {
    disarm(static_cast<FaultPoint>(i));
  }
}

bool FaultInjector::fire_slow(Point& p) {
  MutexLock lock(p.mu);
  // Re-check under the lock: a concurrent disarm() may have won the race
  // after the relaxed fast-path load.
  if (!p.armed.load(std::memory_order_relaxed)) return false;
  ++p.hit_count;
  if (p.hit_count <= p.spec.skip_first) return false;
  if (p.spec.probability < 1.0) {
    const double u =
        static_cast<double>(splitmix_next(p.rng) >> 11) * 0x1.0p-53;
    if (u >= p.spec.probability) return false;
  }
  ++p.fire_count;
  if (p.spec.max_fires != 0 && p.fire_count >= p.spec.max_fires) {
    p.armed.store(false, std::memory_order_release);
  }
  // Chaos observability hook: the fire lands in the flight recorder (arg =
  // point index; ts = 0 lets the renderer carry the ring's last timestamp
  // forward) and trips the one-shot trace auto-dump, so the rings around a
  // chaos event survive to disk. Legal under p.mu: rank kFaultPoint (94) <
  // kFlightRecorder (96).
  if (FlightRecorder::enabled()) {
    const auto index = static_cast<std::uint64_t>(&p - points_.data());
    FlightRecorder::instance().record(TraceEventType::kFault,
                                      TraceStage::kFault, 0, index, 0);
    FlightRecorder::instance().trigger_auto_dump(kNames[index]);
  }
  return true;
}

std::int64_t FaultInjector::param(FaultPoint point) const {
  const Point& p = points_[static_cast<std::size_t>(point)];
  MutexLock lock(p.mu);
  return p.spec.param;
}

std::uint64_t FaultInjector::fires(FaultPoint point) const {
  const Point& p = points_[static_cast<std::size_t>(point)];
  MutexLock lock(p.mu);
  return p.fire_count;
}

std::uint64_t FaultInjector::hits(FaultPoint point) const {
  const Point& p = points_[static_cast<std::size_t>(point)];
  MutexLock lock(p.mu);
  return p.hit_count;
}

}  // namespace janus::testing
