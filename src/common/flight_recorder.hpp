// Always-on flight recorder: per-thread fixed-size rings of compact binary
// trace events covering the whole decision path (stage enter/exit at the
// gateway, router and server worker, queue depth at dispatch, sampled
// admission verdicts, queue rejects, fault-point fires, watchdog stalls).
// Each ring has exactly one writer — the thread that registered it — so the
// hot path takes no lock and allocates nothing after the thread's first
// event. Readers (the /tracez admin endpoint, the chaos auto-dump) snapshot
// concurrently through a per-slot seqlock.
//
// Memory model: every slot field is a std::atomic. The writer publishes a
// slot by storing seq = odd (claim), payload fields relaxed, then seq = even
// (release). A reader loads seq (acquire), payload (relaxed), fences
// (acquire), then re-reads seq — a slot is accepted only when both loads
// agree on the same even value. This is exact on TSO hosts; on weakly
// ordered machines a reader can in principle accept a slot whose payload
// mixes two events (the second seq load is not ordered after the payload
// loads without a heavier barrier). Events are advisory diagnostics, so the
// cheap protocol wins; everything stays data-race-free (all-atomic fields),
// which is what TSan checks.
//
// Overhead budget (DESIGN.md §10): the disarmed cost of a record() site is
// one relaxed atomic load. The per-decision admission verdict (and the
// hot-key sketch note that rides the same gate) is 1-in-2^kDecisionSampleShift
// sampled through a thread-local counter, bounding the armed cost on
// BM_ServerDecisionContended to <3% (BENCH_PR6.json, floor enforced by
// tools/check_observability_doc.sh). Stage events fire only for traced
// requests, which are rare by construction.
//
// Header-only on purpose: fault_injector.cpp (janus_testing, which links
// only janus_sync) records fire events and triggers the auto-dump, so this
// file must not pull in Logger or anything else from janus_common.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/hot_path.hpp"
#include "common/sync.hpp"
#include "common/transparent_hash.hpp"

namespace janus {

/// Which pipeline stage emitted an event. Order is wire format (meta byte 1)
/// — append only.
enum class TraceStage : std::uint8_t {
  kGateway = 0,     // lb::GatewayBalancer::handle
  kRouter,          // router::RouterNode::handle (HTTP e2e span)
  kRouterUdp,       // router::RouterNode::dispatch (UDP call span)
  kServerListener,  // server listener: dispatch-time queue depth / rejects
  kServerWorker,    // server worker: decode -> decide -> reply span
  kAdmission,       // AdmissionController verdicts (sampled, always-on)
  kWatchdog,        // stalled-worker watchdog
  kFault,           // testing::FaultInjector fires
  kClusterMigrate,  // cluster resharding: extract/stream/install spans
  kClusterBfd,      // BFD liveness session state changes
  kGatewayProbe,    // lb::GatewayBalancer probe pool: one round-trip per
                    // backend (arg: published RIF, or ~0 on probe failure)
  kStageCount,
};

/// What an event means. Order is wire format (meta byte 0) — append only.
enum class TraceEventType : std::uint8_t {
  kStageEnter = 0,  // arg: free
  kStageExit,       // arg: status/allowed, stage-specific
  kQueueDepth,      // arg: ring depth observed at dispatch
  kAdmission,       // trace: key hash; arg: packed verdict (see below)
  kQueueReject,     // arg: target worker index
  kFault,           // arg: FaultPoint index
  kWatchdogStall,   // arg: stalled worker index
  kTypeCount,
};

inline std::string_view trace_stage_name(TraceStage s) {
  static constexpr std::string_view kNames[] = {
      "gateway",   "router",    "router.udp", "server.listener",
      "server.worker", "admission", "watchdog",   "fault",
      "cluster.migrate", "cluster.bfd", "gateway.probe",
  };
  const auto i = static_cast<std::size_t>(s);
  return i < static_cast<std::size_t>(TraceStage::kStageCount) ? kNames[i]
                                                               : "?";
}

inline std::string_view trace_event_type_name(TraceEventType t) {
  static constexpr std::string_view kNames[] = {
      "stage_enter", "stage_exit",  "queue_depth",    "admission",
      "queue_reject", "fault_fire", "watchdog_stall",
  };
  const auto i = static_cast<std::size_t>(t);
  return i < static_cast<std::size_t>(TraceEventType::kTypeCount) ? kNames[i]
                                                                  : "?";
}

/// kAdmission arg layout: bit 0 allowed, bits 1-2 Decision::Origin, bits
/// 8..62 remaining millicredits clamped to [0, 2^54].
inline std::uint64_t pack_admission_arg(bool allowed, std::uint8_t origin,
                                        std::int64_t millicredits) {
  const std::int64_t clamped =
      millicredits < 0 ? 0
                       : (millicredits > (std::int64_t{1} << 54)
                              ? (std::int64_t{1} << 54)
                              : millicredits);
  return (allowed ? 1u : 0u) |
         (static_cast<std::uint64_t>(origin & 0x3u) << 1) |
         (static_cast<std::uint64_t>(clamped) << 8);
}

/// One decoded event, as returned by snapshot(). `order` is the writer's
/// monotonic event index (survives ring wraparound).
struct TraceEvent {
  std::uint64_t order = 0;
  std::uint64_t ts_ns = 0;
  std::uint64_t trace = 0;  // hash_trace(X-Janus-Trace) or key hash
  std::uint64_t arg = 0;
  TraceEventType type = TraceEventType::kStageEnter;
  TraceStage stage = TraceStage::kGateway;
};

/// One ring's consistent-enough view: events sorted by write order.
struct RingSnapshot {
  std::uint32_t ring_id = 0;
  std::string label;
  std::vector<TraceEvent> events;
};

class FlightRecorder {
 public:
  /// Slots per ring; at 40 bytes/slot one thread's ring is ~80 KiB. Rings
  /// are registered on a thread's first event and never freed (a freed ring
  /// could be re-claimed while a snapshot walks it), so total footprint is
  /// bounded by the number of threads ever recording.
  static constexpr std::size_t kRingCapacity = 2048;

  /// Per-decision admission events (and hot-key sketch notes) keep 1 in
  /// 2^kDecisionSampleShift decisions; sketch increments are weighted by the
  /// sample stride so reported counts stay approximately true.
  static constexpr std::uint32_t kDecisionSampleShift = 4;
  static constexpr std::uint32_t kDecisionSampleWeight =
      1u << kDecisionSampleShift;

  static FlightRecorder& instance() {
    static FlightRecorder recorder;
    return recorder;
  }

  /// Global arm switch (default armed). Disarmed, every record() site costs
  /// one relaxed load; bench_micro_hotpath flips this off via JANUS_DEEP_OBS=0
  /// to measure the recorder-on/off ratio for BENCH_PR6.json.
  static void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  static bool enabled() { return enabled_.load(std::memory_order_relaxed); }

  /// 1-in-2^kDecisionSampleShift gate for per-decision telemetry. Thread
  /// local: no shared cache line on the decision path.
  static bool decision_sampled() {
    thread_local std::uint32_t seq = 0;
    return (++seq & (kDecisionSampleWeight - 1)) == 0;
  }

  static std::uint64_t hash_trace(std::string_view trace_id) {
    return trace_id.empty()
               ? 0
               : static_cast<std::uint64_t>(
                     TransparentStringHash::hash_bytes(trace_id));
  }

  /// Append one event to the calling thread's ring. Lock-free and
  /// allocation-free once the thread's ring exists (first call registers it
  /// under the kFlightRecorder mutex). `ts_ns` is caller-supplied — hot
  /// sites pass the timestamp they already computed; clock-less sites
  /// (fault fires) pass 0 and the renderer carries the ring's last seen
  /// timestamp forward.
  JANUS_HOT_PATH static void record(TraceEventType type, TraceStage stage,
                                    std::uint64_t trace, std::uint64_t arg,
                                    std::uint64_t ts_ns) {
    if (!enabled()) return;
    Ring* ring = tl_ring_;
    // purity-ok: once per thread — first event registers the ring under mu_
    if (ring == nullptr) ring = instance().register_ring();
    const std::uint64_t n = ring->next++;
    Slot& slot = ring->slots[n & (kRingCapacity - 1)];
    // Claim (odd), fill relaxed, publish (even, release). Single writer:
    // only this thread ever stores to this ring.
    slot.seq.store(2 * n + 1, std::memory_order_relaxed);
    slot.ts_ns.store(ts_ns, std::memory_order_relaxed);
    slot.trace.store(trace, std::memory_order_relaxed);
    slot.arg.store(arg, std::memory_order_relaxed);
    slot.meta.store(static_cast<std::uint64_t>(type) |
                        (static_cast<std::uint64_t>(stage) << 8),
                    std::memory_order_relaxed);
    slot.seq.store(2 * n + 2, std::memory_order_release);
  }

  /// Name the calling thread's ring ("server.worker.0", "router.http", ...)
  /// for the Perfetto thread_name metadata. Idempotent and cheap after the
  /// first call from a given thread.
  static void label_current_thread(std::string_view name) {
    thread_local bool labeled = false;
    if (labeled || !enabled()) return;
    labeled = true;
    Ring* ring = tl_ring_;
    // purity-ok: once per thread — first event registers the ring under mu_
    if (ring == nullptr) ring = instance().register_ring();
    FlightRecorder& fr = instance();
    // purity-ok: once per thread — labeling is latched by `labeled` above
    MutexLock lock(fr.mu_);
    // purity-ok: once per thread — labeling is latched by `labeled` above
    ring->label.assign(name);
  }

  /// Seqlock-consistent copy of every ring; events sorted by write order.
  std::vector<RingSnapshot> snapshot() const {
    std::vector<RingSnapshot> out;
    MutexLock lock(mu_);
    out.reserve(rings_.size());
    for (const auto& ring : rings_) {
      RingSnapshot snap;
      snap.ring_id = ring->id;
      snap.label = ring->label;
      snap.events.reserve(kRingCapacity);
      for (const Slot& slot : ring->slots) {
        TraceEvent ev;
        if (read_slot(slot, ev)) snap.events.push_back(ev);
      }
      std::sort(snap.events.begin(), snap.events.end(),
                [](const TraceEvent& a, const TraceEvent& b) {
                  return a.order < b.order;
                });
      out.push_back(std::move(snap));
    }
    return out;
  }

  // ---- chaos/watchdog auto-dump ------------------------------------------

  /// Arm (or with "" disarm) the one-shot auto-dump: the next fault-point
  /// fire or watchdog stall writes the rendered trace JSON to `path`.
  void set_auto_dump_path(std::string path) {
    MutexLock lock(mu_);
    auto_dump_path_ = std::move(path);
    dump_armed_.store(!auto_dump_path_.empty(), std::memory_order_release);
  }

  /// Fire the auto-dump if armed (one shot: first caller wins, re-arm via
  /// set_auto_dump_path). Safe to call while holding a fault-point mutex —
  /// rank kFlightRecorder sits above kFaultPoint. Returns true when a dump
  /// file was written.
  bool trigger_auto_dump(std::string_view reason) {
    bool expected = true;
    if (!dump_armed_.compare_exchange_strong(expected, false,
                                             std::memory_order_acq_rel)) {
      return false;
    }
    std::string path;
    {
      MutexLock lock(mu_);
      path = auto_dump_path_;
    }
    if (path.empty()) return false;
    const std::string json = render_trace_json(snapshot());
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    dump_count_.fetch_add(1, std::memory_order_relaxed);
    // No Logger here (janus_testing must stay linkable without
    // janus_common); stderr is the flight recorder's black-box channel.
    std::fprintf(stderr, "janus: flight recorder auto-dump (%.*s) -> %s\n",
                 static_cast<int>(reason.size()), reason.data(), path.c_str());
    return true;
  }

  std::uint64_t dump_count() const {
    return dump_count_.load(std::memory_order_relaxed);
  }

  /// Clear every ring's published events (tests). Writers must be quiescent;
  /// per-ring write cursors intentionally keep counting so event order stays
  /// monotonic across a reset.
  void reset() {
    MutexLock lock(mu_);
    for (const auto& ring : rings_) {
      for (Slot& slot : ring->slots) {
        slot.seq.store(0, std::memory_order_relaxed);
      }
    }
  }

  std::size_t ring_count() const {
    MutexLock lock(mu_);
    return rings_.size();
  }

  /// Render ring snapshots as chrome://tracing / Perfetto "trace event"
  /// JSON. Stage enter/exit pairs become complete ("X") slices, everything
  /// else instants ("i"); each ring is one tid with a thread_name metadata
  /// record. `trace_filter` (a hash_trace value) keeps only one request's
  /// events; 0 keeps everything. `pid` namespaces multi-process merges
  /// (tools/janus_trace_export fetches each node with its own pid).
  static std::string render_trace_json(const std::vector<RingSnapshot>& rings,
                                       std::uint64_t trace_filter = 0,
                                       int pid = 1);

 private:
  struct Slot {
    std::atomic<std::uint64_t> seq{0};  // 0 never written; odd mid-write;
                                        // 2*(order+1) published
    std::atomic<std::uint64_t> ts_ns{0};
    std::atomic<std::uint64_t> trace{0};
    std::atomic<std::uint64_t> arg{0};
    std::atomic<std::uint64_t> meta{0};  // type | stage << 8
  };

  struct Ring {
    explicit Ring(std::uint32_t ring_id) : id(ring_id) {}
    const std::uint32_t id;
    std::uint64_t next = 0;  // writer thread only
    std::array<Slot, kRingCapacity> slots;
    std::string label;  // guarded by FlightRecorder::mu_
  };

  FlightRecorder() = default;

  Ring* register_ring() {
    MutexLock lock(mu_);
    rings_.push_back(
        std::make_unique<Ring>(static_cast<std::uint32_t>(rings_.size())));
    tl_ring_ = rings_.back().get();
    return tl_ring_;
  }

  static bool read_slot(const Slot& slot, TraceEvent& ev) {
    for (int attempt = 0; attempt < 4; ++attempt) {
      const std::uint64_t s1 = slot.seq.load(std::memory_order_acquire);
      if (s1 == 0) return false;        // never written
      if ((s1 & 1) != 0) continue;      // mid-write, retry
      ev.ts_ns = slot.ts_ns.load(std::memory_order_relaxed);
      ev.trace = slot.trace.load(std::memory_order_relaxed);
      ev.arg = slot.arg.load(std::memory_order_relaxed);
      const std::uint64_t meta = slot.meta.load(std::memory_order_relaxed);
      std::atomic_thread_fence(std::memory_order_acquire);
      if (slot.seq.load(std::memory_order_relaxed) != s1) continue;  // torn
      ev.order = s1 / 2 - 1;
      const auto type = static_cast<std::uint8_t>(meta & 0xFF);
      const auto stage = static_cast<std::uint8_t>((meta >> 8) & 0xFF);
      if (type >= static_cast<std::uint8_t>(TraceEventType::kTypeCount) ||
          stage >= static_cast<std::uint8_t>(TraceStage::kStageCount)) {
        return false;  // torn-but-even on a weak-memory host: drop it
      }
      ev.type = static_cast<TraceEventType>(type);
      ev.stage = static_cast<TraceStage>(stage);
      return true;
    }
    return false;
  }

  inline static std::atomic<bool> enabled_{true};
  inline static thread_local Ring* tl_ring_ = nullptr;

  mutable Mutex mu_{LockRank::kFlightRecorder, "common.flight_recorder"};
  std::vector<std::unique_ptr<Ring>> rings_ JANUS_GUARDED_BY(mu_);
  std::string auto_dump_path_ JANUS_GUARDED_BY(mu_);
  std::atomic<bool> dump_armed_{false};
  std::atomic<std::uint64_t> dump_count_{0};
};

namespace flight_detail {

inline void append_json_escaped(std::string& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
}

inline void append_common_fields(std::string& out, std::uint64_t ts_ns,
                                 int pid, std::uint32_t tid) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "\"ts\":%.3f,\"pid\":%d,\"tid\":%u",
                static_cast<double>(ts_ns) / 1000.0, pid, tid);
  out += buf;
}

inline void append_trace_arg(std::string& out, const TraceEvent& ev) {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "\"args\":{\"trace\":\"%016" PRIx64 "\",\"arg\":%" PRIu64 "}",
                ev.trace, ev.arg);
  out += buf;
}

}  // namespace flight_detail

inline std::string FlightRecorder::render_trace_json(
    const std::vector<RingSnapshot>& rings, std::uint64_t trace_filter,
    int pid) {
  using flight_detail::append_common_fields;
  using flight_detail::append_json_escaped;
  using flight_detail::append_trace_arg;

  std::string out = "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"generator\":"
                    "\"janus-flight-recorder\"},\"traceEvents\":[";
  bool first = true;
  auto emit = [&](const std::string& fragment) {
    if (!first) out += ',';
    first = false;
    out += fragment;
  };

  struct OpenSpan {
    TraceStage stage;
    std::uint64_t trace;
    std::uint64_t ts_ns;
  };

  for (const RingSnapshot& ring : rings) {
    bool named = false;
    std::vector<OpenSpan> open;
    std::uint64_t last_ts = 0;
    auto ensure_name = [&] {
      if (named) return;
      named = true;
      std::string frag = "{\"name\":\"thread_name\",\"ph\":\"M\",";
      char buf[48];
      std::snprintf(buf, sizeof(buf), "\"pid\":%d,\"tid\":%u,", pid, ring.ring_id);
      frag += buf;
      frag += "\"args\":{\"name\":\"";
      append_json_escaped(frag,
                          ring.label.empty() ? "janus.thread" : ring.label);
      frag += "\"}}";
      emit(frag);
    };

    for (const TraceEvent& raw : ring.events) {
      TraceEvent ev = raw;
      if (ev.ts_ns == 0) ev.ts_ns = last_ts;  // clock-less sites (faults)
      last_ts = ev.ts_ns;
      if (trace_filter != 0 && ev.trace != trace_filter) continue;

      if (ev.type == TraceEventType::kStageEnter) {
        open.push_back({ev.stage, ev.trace, ev.ts_ns});
        continue;
      }
      if (ev.type == TraceEventType::kStageExit) {
        // Match the innermost open span of the same stage+trace; wraparound
        // can orphan an exit, which degrades to an instant below.
        bool paired = false;
        for (std::size_t i = open.size(); i-- > 0;) {
          if (open[i].stage == ev.stage && open[i].trace == ev.trace) {
            ensure_name();
            std::string frag = "{\"name\":\"";
            append_json_escaped(frag, trace_stage_name(ev.stage));
            frag += "\",\"cat\":\"janus\",\"ph\":\"X\",";
            char buf[64];
            std::snprintf(buf, sizeof(buf), "\"dur\":%.3f,",
                          static_cast<double>(ev.ts_ns - open[i].ts_ns) /
                              1000.0);
            append_common_fields(frag, open[i].ts_ns, pid, ring.ring_id);
            frag += ',';
            frag += buf;
            append_trace_arg(frag, ev);
            frag += '}';
            emit(frag);
            open.erase(open.begin() + static_cast<std::ptrdiff_t>(i));
            paired = true;
            break;
          }
        }
        if (paired) continue;
        // fall through: orphan exit becomes an instant
      }

      ensure_name();
      std::string frag = "{\"name\":\"";
      append_json_escaped(frag, trace_event_type_name(ev.type));
      frag += "\",\"cat\":\"";
      append_json_escaped(frag, trace_stage_name(ev.stage));
      frag += "\",\"ph\":\"i\",\"s\":\"t\",";
      append_common_fields(frag, ev.ts_ns, pid, ring.ring_id);
      frag += ',';
      append_trace_arg(frag, ev);
      frag += '}';
      emit(frag);
    }

    // Spans still open at snapshot time (request in flight) degrade to
    // instants rather than dangling "B" records.
    for (const OpenSpan& span : open) {
      ensure_name();
      std::string frag = "{\"name\":\"";
      append_json_escaped(frag, trace_stage_name(span.stage));
      frag += " (open)\",\"cat\":\"janus\",\"ph\":\"i\",\"s\":\"t\",";
      append_common_fields(frag, span.ts_ns, pid, ring.ring_id);
      char buf[64];
      std::snprintf(buf, sizeof(buf), ",\"args\":{\"trace\":\"%016" PRIx64
                    "\"}}",
                    span.trace);
      frag += buf;
      emit(frag);
    }
  }
  out += "]}\n";
  return out;
}

}  // namespace janus
