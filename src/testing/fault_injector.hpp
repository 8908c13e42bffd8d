// Process-wide, seeded fault injection for the real (non-sim) stack. The
// simulator can provoke loss and delay by construction; the real transport,
// WAL, and server threads cannot — so the paper's robustness claims ("if the
// router receives no reply from the QoS server after 5 retries, it returns a
// default reply", §III-B) were only ever exercised against the sim's loss
// model. FaultInjector closes that gap: named fault points are compiled into
// the production code paths permanently, and cost exactly one relaxed atomic
// load per site while disarmed, so shipping them is free and the chaos suite
// can arm them at runtime.
//
// Determinism contract: every point owns an independent SplitMix64 decision
// stream derived from the injector seed, and decisions at one point are
// serialized under that point's lock. A single-threaded driver therefore
// replays the exact same fault schedule for the same seed; multi-threaded
// drivers get per-point determinism up to thread interleaving. The chaos
// suite's determinism check (tests/chaos/) pins this down.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <optional>
#include <string_view>

#include "common/sync.hpp"

namespace janus::testing {

/// Every compiled-in fault site. Adding a value here requires a matching
/// name in fault_injector.cpp and a row in the DESIGN.md §7 table
/// (tools/check_faults_doc.sh fails the build's test run otherwise).
enum class FaultPoint : std::size_t {
  kNetUdpDropTx = 0,      // net.udp.drop_tx: sendto succeeds, datagram lost
  kNetUdpDropRx,          // net.udp.drop_rx: received datagram discarded
  kNetUdpDelayUs,         // net.udp.delay_us: sleep param µs before send
  kNetTcpReset,           // net.tcp.reset: read/write fails as peer reset
  kNetTcpShortRead,       // net.tcp.short_read: read at most param bytes
  kRouterUdpDropAttempt,  // router.udp.drop_attempt: one retry attempt lost
  kDbWalPartialWrite,     // db.wal.partial_write: torn append (param bytes)
  kDbWalCorruptCrc,       // db.wal.corrupt_crc: record lands with bad CRC
  kDbWalSyncFail,         // db.wal.sync_fail: fsync reports failure
  kServerSlowService,     // server.slow_service: inflate service by param µs
  kClusterBfdDrop,        // cluster.bfd.drop: liveness probe packet lost
                          // (partition simulation for the BFD session)
  kClusterMigrateStall,   // cluster.migrate.stall: sleep param µs before a
                          // migration batch is sent (slow hand-off)
  kNetUdpEintr,           // net.udp.eintr: batched receive syscall reports
                          // EINTR (signal mid-drain) before touching data
  kLbProbeDrop,           // lb.probe.drop: one Prequal probe round-trip lost
                          // (balancer must degrade to stale probes / RR)
  kLbProbeDelay,          // lb.probe.delay: sleep param µs before a probe is
                          // sent (slow probe plane, stale-probe pressure)
  kDbSnapshotSyncFail,    // db.snapshot.sync_fail: a snapshot's fsync
                          // reports failure. Last, so that every other
                          // point keeps its decision stream (seed())
  kCount,
};

inline constexpr std::size_t kFaultPointCount =
    static_cast<std::size_t>(FaultPoint::kCount);

/// Stable dotted name ("net.udp.drop_rx") for logs, docs, and the CLI.
std::string_view fault_point_name(FaultPoint point);
std::optional<FaultPoint> fault_point_from_name(std::string_view name);

class FaultInjector {
 public:
  /// The process-wide registry all fault sites consult.
  static FaultInjector& instance();

  struct ArmSpec {
    double probability = 1.0;      // chance each eligible hit fires
    std::uint64_t skip_first = 0;  // hits that pass through before eligible
    std::uint64_t max_fires = 0;   // auto-disarm after this many (0 = never)
    std::int64_t param = 0;        // point-specific knob (µs, bytes, ...)
  };

  void arm(FaultPoint point, ArmSpec spec);
  void arm(FaultPoint point) { arm(point, ArmSpec()); }
  void disarm(FaultPoint point);
  void disarm_all();

  /// Reset every point's decision stream (and hit/fire counters) from one
  /// seed. Same seed + same call sequence => same schedule.
  void seed(std::uint64_t s);

  /// Hot-path check, called from production code. Disarmed cost: one
  /// relaxed atomic load and a predictable branch.
  bool should_fire(FaultPoint point) {
    Point& p = points_[static_cast<std::size_t>(point)];
    if (!p.armed.load(std::memory_order_relaxed)) return false;
    return fire_slow(p);
  }

  /// The armed spec's param (0 if disarmed). Sites read this only after
  /// should_fire() returned true, so it is off the disarmed hot path.
  std::int64_t param(FaultPoint point) const;

  /// Times the point fired / was evaluated while armed (since last seed()).
  std::uint64_t fires(FaultPoint point) const;
  std::uint64_t hits(FaultPoint point) const;

 private:
  struct Point {
    std::atomic<bool> armed{false};
    // Leaf rank: fault sites live in arbitrary production code (WAL
    // append, TCP reads under the coordinator lock), so the per-point mu
    // must out-rank every lock that can be held at a site. Only the
    // flight-recorder registry (96) and the logger sit above it — the
    // chaos auto-dump fires from under p.mu.
    mutable Mutex mu{LockRank::kFaultPoint, "testing.fault_point"};
    ArmSpec spec JANUS_GUARDED_BY(mu);
    std::uint64_t rng JANUS_GUARDED_BY(mu) = 0;  // SplitMix64 state
    std::uint64_t hit_count JANUS_GUARDED_BY(mu) = 0;
    std::uint64_t fire_count JANUS_GUARDED_BY(mu) = 0;
  };

  FaultInjector();
  bool fire_slow(Point& p);

  std::array<Point, kFaultPointCount> points_;
};

/// RAII arm/disarm for tests: arms the point on construction, disarms it on
/// scope exit so one test cannot leak faults into the next.
class ScopedFault {
 public:
  explicit ScopedFault(FaultPoint point, FaultInjector::ArmSpec spec = {})
      : point_(point) {
    FaultInjector::instance().arm(point_, spec);
  }
  ~ScopedFault() { FaultInjector::instance().disarm(point_); }
  ScopedFault(const ScopedFault&) = delete;
  ScopedFault& operator=(const ScopedFault&) = delete;

 private:
  FaultPoint point_;
};

}  // namespace janus::testing
