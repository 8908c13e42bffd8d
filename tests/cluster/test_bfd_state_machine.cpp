// Deterministic BFD suite (DESIGN.md §11.4). Three layers:
//
//   1. Table-driven transitions: every (local state, received remote state)
//      pair against the simplified RFC 5880 table in net/bfd.hpp.
//   2. Exhaustive loss/reorder schedules: a mirrored pair of pure
//      BfdStateMachines driven tick-by-tick under EVERY loss bitmask and
//      every reordering window up to detect_multiplier intervals, asserting
//      the RFC detection-time invariant — the session drops iff a full
//      detection time passes with no received packet, never earlier.
//   3. Seeded FaultInjector streams: the cluster.bfd.drop decision stream
//      replays bit-identically for one seed, so a chaos schedule that kills
//      a session is reproducible from its seed alone.
//
// Everything here is clock-injected and socket-free except the last test,
// which proves the live BfdSession/BfdResponder pair reaches Up on loopback
// and decays to Down under an armed cluster.bfd.drop partition.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/clock.hpp"
#include "net/bfd.hpp"
#include "testing/fault_injector.hpp"

namespace janus::net {
namespace {

constexpr BfdTimers kTimers{.tx_interval = millis(10), .detect_multiplier = 3};

TimePoint at_ms(std::int64_t ms) { return TimePoint{millis(ms)}; }

// ---------------------------------------------------------------------------
// 1. The transition table, row by row.

struct TransitionCase {
  BfdState local;
  BfdState remote;
  BfdState expected;
};

class BfdTransitionTest : public ::testing::TestWithParam<TransitionCase> {};

/// Drive a fresh machine into `state` with packets the table already pins
/// down (Down -> Init via remote Down, Init -> Up via remote Up).
BfdStateMachine machine_in(BfdState state) {
  BfdStateMachine m(kTimers, at_ms(0));
  if (state == BfdState::kDown) return m;
  EXPECT_EQ(m.on_packet(BfdState::kDown, at_ms(1)), BfdState::kInit);
  if (state == BfdState::kInit) return m;
  EXPECT_EQ(m.on_packet(BfdState::kUp, at_ms(2)), BfdState::kUp);
  return m;
}

TEST_P(BfdTransitionTest, FollowsSimplifiedRfc5880Table) {
  const TransitionCase& c = GetParam();
  BfdStateMachine m = machine_in(c.local);
  ASSERT_EQ(m.state(), c.local);
  EXPECT_EQ(m.on_packet(c.remote, at_ms(3)), c.expected);
  EXPECT_EQ(m.state(), c.expected);
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, BfdTransitionTest,
    ::testing::Values(
        TransitionCase{BfdState::kDown, BfdState::kDown, BfdState::kInit},
        TransitionCase{BfdState::kDown, BfdState::kInit, BfdState::kUp},
        TransitionCase{BfdState::kDown, BfdState::kUp, BfdState::kDown},
        TransitionCase{BfdState::kInit, BfdState::kDown, BfdState::kInit},
        TransitionCase{BfdState::kInit, BfdState::kInit, BfdState::kUp},
        TransitionCase{BfdState::kInit, BfdState::kUp, BfdState::kUp},
        TransitionCase{BfdState::kUp, BfdState::kDown, BfdState::kDown},
        TransitionCase{BfdState::kUp, BfdState::kInit, BfdState::kUp},
        TransitionCase{BfdState::kUp, BfdState::kUp, BfdState::kUp}),
    [](const auto& param_info) {
      return std::string(bfd_state_name(param_info.param.local)) + "Recv" +
             std::string(bfd_state_name(param_info.param.remote));
    });

TEST(BfdStateMachineTest, DetectionTimeIsMultiplierTimesInterval) {
  BfdStateMachine m(kTimers, at_ms(0));
  EXPECT_EQ(m.detection_time(), millis(30));
}

TEST(BfdStateMachineTest, TickDecaysToDownJustPastDetectionTime) {
  BfdStateMachine m = machine_in(BfdState::kUp);
  // Last rx at t=2ms; detection time 30ms. The boundary is strictly
  // greater-than (RFC 5880 "a period of Detection Time passes without a
  // packet"): the session survives AT the detection time and drops past it.
  EXPECT_EQ(m.on_tick(at_ms(32)), BfdState::kUp);   // elapsed == 30ms
  EXPECT_EQ(m.on_tick(at_ms(33)), BfdState::kDown);  // elapsed > 30ms
  // Down never decays further and a fresh handshake restarts it.
  EXPECT_EQ(m.on_tick(at_ms(1000)), BfdState::kDown);
  EXPECT_EQ(m.on_packet(BfdState::kDown, at_ms(1001)), BfdState::kInit);
}

// ---------------------------------------------------------------------------
// 2. Exhaustive loss and reorder schedules.

/// One simulated probe interval of a mirrored session pair: each side sends
/// its current state; `a_loses`/`b_loses` drop the packet in the given
/// direction (a partition drops both). Delivery happens on the interval
/// boundary; ticks run on the boundary AND mid-interval, because the live
/// session loop polls faster than it transmits — that mid-interval tick is
/// what lets a detect_multiplier-long silence decay the session (the decay
/// boundary is strictly greater-than detection_time, see on_tick).
struct MirroredPair {
  BfdStateMachine a{kTimers, at_ms(0)};
  BfdStateMachine b{kTimers, at_ms(0)};

  void step(std::int64_t now_ms, bool a_to_b_lost, bool b_to_a_lost) {
    const BfdState a_sent = a.state();
    const BfdState b_sent = b.state();
    if (!b_to_a_lost) a.on_packet(b_sent, at_ms(now_ms));
    if (!a_to_b_lost) b.on_packet(a_sent, at_ms(now_ms));
    a.on_tick(at_ms(now_ms));
    b.on_tick(at_ms(now_ms));
    a.on_tick(at_ms(now_ms + 5));
    b.on_tick(at_ms(now_ms + 5));
  }

  /// Drive to bidirectional Up with a lossless handshake on the same 10ms
  /// cadence the loss schedules use (a uniform time base keeps the
  /// detection arithmetic exact across the establish/schedule seam).
  void establish() {
    for (int i = 1; i <= 4; ++i) step(10 * i, false, false);
    ASSERT_EQ(a.state(), BfdState::kUp);
    ASSERT_EQ(b.state(), BfdState::kUp);
  }
};

/// Longest run of consecutive set bits in `mask` (of `len` intervals),
/// measured to the END of the schedule — a trailing run is what leaves the
/// receiver packet-less when the post-schedule probe arrives.
int longest_loss_run(std::uint32_t mask, int len) {
  int best = 0;
  int run = 0;
  for (int i = 0; i < len; ++i) {
    run = (mask >> i) & 1 ? run + 1 : 0;
    best = std::max(best, run);
  }
  return best;
}

TEST(BfdLossScheduleTest, EveryLossMaskUpToDetectMultiplier) {
  // Every loss pattern across detect_multiplier + 1 = 4 probe intervals,
  // applied symmetrically (partition semantics: both directions drop). The
  // invariant: the pair stays Up through the schedule iff no loss run spans
  // a full detection time; any shorter gap is absorbed without a flap.
  const int len = kTimers.detect_multiplier + 1;
  for (std::uint32_t mask = 0; mask < (1u << len); ++mask) {
    MirroredPair pair;
    pair.establish();
    if (::testing::Test::HasFatalFailure()) return;
    bool observed_down = false;
    for (int i = 0; i < len; ++i) {
      const bool lost = (mask >> i) & 1;
      pair.step(50 + 10 * i, lost, lost);
      observed_down |= pair.a.state() == BfdState::kDown ||
                       pair.b.state() == BfdState::kDown;
    }
    // detect_multiplier consecutive losses starve the receiver past
    // detection_time by the lost run's final mid-interval tick; any shorter
    // run leaves elapsed <= detection_time at every tick, which the
    // strictly-greater decay boundary absorbs without a flap.
    const bool should_drop =
        longest_loss_run(mask, len) >= kTimers.detect_multiplier;
    EXPECT_EQ(observed_down, should_drop)
        << "mask=0x" << std::hex << mask << " run="
        << longest_loss_run(mask, len);
    if (!should_drop) {
      EXPECT_EQ(pair.a.state(), BfdState::kUp) << "mask=0x" << std::hex << mask;
      EXPECT_EQ(pair.b.state(), BfdState::kUp) << "mask=0x" << std::hex << mask;
    }
  }
}

TEST(BfdLossScheduleTest, AsymmetricLossDropsOnlyTheStarvedSide) {
  // Loss only in the b->a direction: a times out (it hears nothing); b keeps
  // hearing a's probes. b ends Down only once a's advertised Down reaches it.
  MirroredPair pair;
  pair.establish();
  for (int i = 0; i < kTimers.detect_multiplier; ++i) {
    pair.step(50 + 10 * i, /*a_to_b_lost=*/false, /*b_to_a_lost=*/true);
  }
  EXPECT_EQ(pair.a.state(), BfdState::kDown);
  EXPECT_EQ(pair.b.state(), BfdState::kUp);
  // One more exchanged interval propagates a's advertised Down and b follows.
  pair.step(80, false, true);
  EXPECT_EQ(pair.b.state(), BfdState::kDown);
}

/// The documented transition table (net/bfd.hpp), restated independently so
/// the reorder sweep checks the machine against the spec, not against
/// itself.
BfdState table_next(BfdState local, BfdState remote) {
  switch (local) {
    case BfdState::kDown:
      if (remote == BfdState::kDown) return BfdState::kInit;
      if (remote == BfdState::kInit) return BfdState::kUp;
      return BfdState::kDown;  // stale Up ignored until a fresh handshake
    case BfdState::kInit:
      return remote == BfdState::kDown ? BfdState::kInit : BfdState::kUp;
    case BfdState::kUp:
      return remote == BfdState::kDown ? BfdState::kDown : BfdState::kUp;
  }
  return BfdState::kDown;
}

TEST(BfdReorderScheduleTest, EveryPermutationOfAHandshakeWindow) {
  // Reordering: the remote's advertised states from one detection window
  // arrive in an arbitrary order. The end state is deliberately
  // order-dependent (a window ending in a stale Up while local is Down ends
  // Down — ghost Ups must not resurrect a session), so the invariant is not
  // "always Up": it is that the machine is a pure, memoryless fold of the
  // documented table over the arrival order, and that no packet inside the
  // window lets the tick decay fire.
  std::vector<BfdState> window{BfdState::kDown, BfdState::kInit, BfdState::kUp};
  std::sort(window.begin(), window.end());
  int reached_up = 0;
  do {
    BfdStateMachine m(kTimers, at_ms(0));
    BfdState expected = BfdState::kDown;
    std::int64_t now = 0;
    for (const BfdState remote : window) {
      expected = table_next(expected, remote);
      const BfdState next = m.on_packet(remote, at_ms(++now));
      EXPECT_EQ(next, expected)
          << "order: " << bfd_state_name(window[0]) << ","
          << bfd_state_name(window[1]) << "," << bfd_state_name(window[2]);
      // Packets keep arriving well inside detection time: no decay.
      EXPECT_EQ(m.on_tick(at_ms(now)), expected);
    }
    if (m.state() == BfdState::kUp) ++reached_up;
  } while (std::next_permutation(window.begin(), window.end()));
  // Sanity on the sweep itself: reordering can strand a window Down, but
  // most orders still complete the handshake.
  EXPECT_GT(reached_up, 0);
  EXPECT_LT(reached_up, 6);
}

TEST(BfdReorderScheduleTest, StaleUpAfterRestartIsIgnoredUntilHandshake) {
  // A reordered pre-crash "Up" arriving at a freshly Down machine must not
  // resurrect the session (Down + recv Up -> Down): promotion decisions are
  // armed on Up->Down edges and a ghost Up would flap the failover.
  BfdStateMachine m(kTimers, at_ms(0));
  EXPECT_EQ(m.on_packet(BfdState::kUp, at_ms(1)), BfdState::kDown);
  EXPECT_EQ(m.on_packet(BfdState::kUp, at_ms(2)), BfdState::kDown);
  // The orderly handshake still works afterwards.
  EXPECT_EQ(m.on_packet(BfdState::kDown, at_ms(3)), BfdState::kInit);
  EXPECT_EQ(m.on_packet(BfdState::kInit, at_ms(4)), BfdState::kUp);
}

// ---------------------------------------------------------------------------
// 3. Seeded FaultInjector loss streams.

/// Replay the cluster.bfd.drop decision stream against a mirrored pair and
/// return the joint state trajectory.
std::vector<std::pair<BfdState, BfdState>> run_faulted_schedule(
    std::uint64_t seed, int intervals) {
  auto& inj = testing::FaultInjector::instance();
  inj.seed(seed);
  testing::ScopedFault drop(testing::FaultPoint::kClusterBfdDrop,
                            {.probability = 0.45});
  MirroredPair pair;
  pair.establish();
  std::vector<std::pair<BfdState, BfdState>> trajectory;
  for (int i = 0; i < intervals; ++i) {
    // One decision per direction per interval, exactly like the live
    // session's receive path consulting should_fire on each datagram.
    const bool a_to_b = inj.should_fire(testing::FaultPoint::kClusterBfdDrop);
    const bool b_to_a = inj.should_fire(testing::FaultPoint::kClusterBfdDrop);
    pair.step(50 + 10 * i, a_to_b, b_to_a);
    trajectory.emplace_back(pair.a.state(), pair.b.state());
  }
  return trajectory;
}

TEST(BfdFaultStreamTest, SeededLossScheduleReplaysBitIdentically) {
  const auto first = run_faulted_schedule(0xB1D'5EEDull, 64);
  if (::testing::Test::HasFatalFailure()) return;
  const auto second = run_faulted_schedule(0xB1D'5EEDull, 64);
  EXPECT_EQ(first, second);
  // And a different seed takes a different trajectory (sanity that the
  // schedule actually depends on the stream, not on the mask being all-drop).
  const auto other = run_faulted_schedule(0xFACEull, 64);
  EXPECT_NE(first, other);
}

// ---------------------------------------------------------------------------
// Live session over loopback (the only sockets in this file).

TEST(BfdLiveSessionTest, ReachesUpThenPartitionDropsItWithinDetectionTime) {
  testing::FaultInjector::instance().disarm_all();
  auto responder = BfdResponder::start(
      {.listen = {"127.0.0.1", 0}, .timers = kTimers, .local_disc = 2},
      SteadyClock::instance());
  ASSERT_TRUE(responder.ok()) << responder.error().message;

  std::atomic<int> ups{0};
  std::atomic<int> downs{0};
  auto session = BfdSession::start(
      {.peer = responder.value()->local_addr(),
       .timers = kTimers,
       .local_disc = 1,
       .on_change =
           [&](BfdState, BfdState to) {
             if (to == BfdState::kUp) ups.fetch_add(1);
             if (to == BfdState::kDown) downs.fetch_add(1);
           }},
      SteadyClock::instance());
  ASSERT_TRUE(session.ok()) << session.error().message;

  const TimePoint t0 = SteadyClock::instance().now();
  while (session.value()->state() != BfdState::kUp &&
         SteadyClock::instance().now() - t0 < seconds(5)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(session.value()->state(), BfdState::kUp);
  EXPECT_EQ(ups.load(), 1);

  // Partition: both sides drop every probe on receive.
  {
    testing::ScopedFault partition(testing::FaultPoint::kClusterBfdDrop);
    const TimePoint cut = SteadyClock::instance().now();
    while (session.value()->state() != BfdState::kDown &&
           SteadyClock::instance().now() - cut < seconds(5)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_EQ(session.value()->state(), BfdState::kDown);
    // Detection time is measured from the last received probe, which landed
    // up to one tx interval BEFORE the partition was armed — so from the
    // cut the drop can come as early as (multiplier - 1) intervals. The
    // upper bound is the sub-second failover budget (DESIGN.md §11.4).
    const Duration elapsed = SteadyClock::instance().now() - cut;
    EXPECT_GE(elapsed, kTimers.tx_interval * (kTimers.detect_multiplier - 2));
    EXPECT_LT(elapsed, seconds(1));
    EXPECT_EQ(downs.load(), 1);
  }

  // Heal: the handshake re-establishes without restarting either side.
  const TimePoint heal = SteadyClock::instance().now();
  while (session.value()->state() != BfdState::kUp &&
         SteadyClock::instance().now() - heal < seconds(5)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(session.value()->state(), BfdState::kUp);
  session.value()->stop();
  responder.value()->stop();
}

}  // namespace
}  // namespace janus::net
