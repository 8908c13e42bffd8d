// Space-Saving top-k sketch for hot-key telemetry (DESIGN.md §10).
//
// One sketch lives inside each QosTable shard and is fed from the decision
// path, whose caller already holds the shard mutex. Readers (/statusz,
// /metrics) never take the shard mutex — each slot carries its own seqlock
// version so a snapshot is safe against the writer holding it.
//
// Space-Saving semantics: a miss evicts the current minimum-count slot and
// inherits its count as `overestimate`, so for any reported key
//   true_count <= hits <= true_count + overestimate
// and any key whose true count exceeds the minimum slot count is guaranteed
// present. Increments arrive pre-weighted (the admission path samples 1 in
// 2^kDecisionSampleShift decisions and passes weight 2^shift), which keeps
// the counts approximately true while costing the hot path almost nothing.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/hot_path.hpp"

namespace janus {

/// One merged row of the top-k view.
struct HotKeyCount {
  std::string key;            // truncated to HotKeySketch::kKeyBytes
  std::uint64_t hash = 0;
  std::uint64_t hits = 0;     // decisions (weighted; upper bound)
  std::uint64_t rejects = 0;  // denied decisions (weighted)
  std::uint64_t overestimate = 0;  // count inherited on eviction
};

class HotKeySketch {
 public:
  static constexpr std::size_t kSlots = 16;
  static constexpr std::size_t kKeyBytes = 48;

  /// Count one (weighted) decision for `key`. Single writer per sketch —
  /// the holder of the shard mutex; concurrent note() calls on the same
  /// sketch are a contract violation.
  JANUS_HOT_PATH void note(std::string_view key, std::uint64_t hash,
                           bool allowed, std::uint64_t weight) {
    Slot* min_slot = nullptr;
    std::uint64_t min_hits = ~std::uint64_t{0};
    for (Slot& slot : slots_) {
      const std::uint64_t v = slot.version.load(std::memory_order_relaxed);
      if (v == 0) {  // never used: free slot beats any eviction
        if (min_hits != 0 || min_slot == nullptr) {
          min_slot = &slot;
          min_hits = 0;
        }
        continue;
      }
      if (slot.hash.load(std::memory_order_relaxed) == hash) {
        // Monotonic count bump; no version dance needed, readers tolerate
        // a count that moves under them.
        slot.hits.fetch_add(weight, std::memory_order_relaxed);
        if (!allowed) slot.rejects.fetch_add(weight, std::memory_order_relaxed);
        return;
      }
      const std::uint64_t h = slot.hits.load(std::memory_order_relaxed);
      if (h < min_hits) {
        min_hits = h;
        min_slot = &slot;
      }
    }
    // Space-Saving eviction: replace the minimum, inherit its count as the
    // error bound. Seqlock so a concurrent snapshot never stitches the old
    // key to the new counts.
    Slot& slot = *min_slot;
    const std::uint64_t v = slot.version.load(std::memory_order_relaxed);
    const std::uint64_t inherited = (v == 0) ? 0 : min_hits;
    slot.version.store(v + 1, std::memory_order_relaxed);  // odd: mid-write
    std::atomic_thread_fence(std::memory_order_release);
    slot.hash.store(hash, std::memory_order_relaxed);
    const std::size_t n = key.size() < kKeyBytes ? key.size() : kKeyBytes;
    for (std::size_t i = 0; i < n; ++i) {
      slot.key[i].store(key[i], std::memory_order_relaxed);
    }
    slot.len.store(static_cast<std::uint32_t>(n), std::memory_order_relaxed);
    slot.hits.store(inherited + weight, std::memory_order_relaxed);
    slot.rejects.store(allowed ? 0 : weight, std::memory_order_relaxed);
    slot.overestimate.store(inherited, std::memory_order_relaxed);
    slot.version.store(v + 2, std::memory_order_release);
  }

  /// Copy the live slots. Lock-free; safe against a concurrent single
  /// writer. Rows arrive unsorted — the table-level merge sorts.
  void snapshot(std::vector<HotKeyCount>& out) const {
    for (const Slot& slot : slots_) {
      for (int attempt = 0; attempt < 4; ++attempt) {
        const std::uint64_t v1 = slot.version.load(std::memory_order_acquire);
        if (v1 == 0) break;        // empty
        if ((v1 & 1) != 0) continue;  // replacement in flight
        HotKeyCount row;
        row.hash = slot.hash.load(std::memory_order_relaxed);
        row.hits = slot.hits.load(std::memory_order_relaxed);
        row.rejects = slot.rejects.load(std::memory_order_relaxed);
        row.overestimate = slot.overestimate.load(std::memory_order_relaxed);
        std::uint32_t len = slot.len.load(std::memory_order_relaxed);
        if (len > kKeyBytes) len = kKeyBytes;
        row.key.resize(len);
        for (std::uint32_t i = 0; i < len; ++i) {
          row.key[i] = slot.key[i].load(std::memory_order_relaxed);
        }
        std::atomic_thread_fence(std::memory_order_acquire);
        if (slot.version.load(std::memory_order_relaxed) != v1) continue;
        out.push_back(std::move(row));
        break;
      }
    }
  }

 private:
  struct Slot {
    std::atomic<std::uint64_t> version{0};  // 0 empty; odd mid-replacement
    std::atomic<std::uint64_t> hash{0};
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> rejects{0};
    std::atomic<std::uint64_t> overestimate{0};
    std::atomic<std::uint32_t> len{0};
    std::array<std::atomic<char>, kKeyBytes> key{};
  };

  std::array<Slot, kSlots> slots_;
};

}  // namespace janus
