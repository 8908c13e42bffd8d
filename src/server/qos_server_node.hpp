// A QoS server node (paper §III-C): "the major components include (a) the
// local QoS table, (b) the UDP listener thread, (c) the worker threads, and
// (d) high-availability and system maintenance threads."
//
// One execution model (DESIGN.md §9.1), the paper's shared FIFO run to
// completion:
//
//   socket receive queue (the FIFO) ──> N workers: recvmmsg ──> decide
//   in place ──> sendmmsg
//
// N is the number of CPUs the node may run on (its affinity mask), one
// worker each.
//
// The listen socket's kernel receive queue is the FIFO and every worker is
// a listener: each blocks in recv_many, and the kernel wakes one blocked
// worker per datagram. Any worker decides any key under the key's shard
// mutex, and answers over the same socket the request arrived on; the
// server never tracks whether a response arrived — the router retries
// (§III-B). Refill, sync, checkpoint, compaction, migration and HA
// snapshots are locked passes over the table, run by their own threads.
//
// The table is the node's only rules store (DESIGN.md §15.2): start()
// loads the rules file (after the snapshot and the WAL, when configured)
// straight into it, and the sync pass reloads the file when it changes.
//
// Concurrency model (DESIGN.md §8): the node itself holds no locks. Shared
// state lives behind the annotated sync layer of its parts — the table's
// `core.qos_shard` shards, the periodic threads' `common.periodic` — plus
// atomics for the stop flag and counters.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "cluster/shard_map.hpp"
#include "common/clock.hpp"
#include "common/hot_path.hpp"
#include "common/metrics.hpp"
#include "common/periodic.hpp"
#include "core/admission.hpp"
#include "core/table_rules.hpp"
#include "net/admin_server.hpp"
#include "net/socket.hpp"
#include "wire/cluster_codec.hpp"

namespace janus::server {

struct QosServerConfig {
  core::AdmissionConfig admission;
  /// Maintenance intervals; <= 0 disables the corresponding thread.
  Duration refill_interval = millis(10);     // only used in kPeriodic mode
  Duration sync_interval = seconds(5);       // "configurable update interval"
  Duration checkpoint_interval = seconds(5); // "configurable update interval"
  Duration compact_interval = seconds(60);
  /// The rules' durability (DESIGN.md §15.2); empty: none. The check-point
  /// pass appends to the WAL, so without one the node runs no check-point
  /// thread. A restart reads the snapshot (when its file exists), then the
  /// WAL; the compaction pass, which needs both, folds the WAL into the
  /// snapshot.
  std::string wal_path;
  std::string snapshot_path;
  /// Stalled-worker watchdog tick; <= 0 disables it. A listen socket with a
  /// queued datagram and no answered request across two consecutive ticks
  /// counts a server.watchdog_stalls, records a flight-recorder event, and
  /// fires the one-shot trace auto-dump (if armed). Two ticks, not one: a
  /// datagram that lands on an idle node just before a tick is not a stall.
  Duration watchdog_interval = seconds(1);
  /// Slow-request exemplar threshold (µs) for the server's queue-wait and
  /// service histograms; < 0 disables exemplar capture.
  std::int64_t slow_exemplar_us = 5000;
};

class QosServerNode {
 public:
  /// Binds the UDP endpoint, loads the rules into the table (the snapshot
  /// and the WAL when configured, then the rules file at `rules_path`), and
  /// only then starts all threads: one worker per CPU in the calling
  /// thread's affinity mask (`net::affinity_cpus`; "N equals the number of
  /// vCPUs", §III-C), so `taskset -c` chooses N. The config is validated
  /// first: table_shards == 0 is rejected. A file that does not load fails
  /// the start with its error (`rules line N: ...`).
  static Result<std::unique_ptr<QosServerNode>> start(
      const net::SockAddr& listen, std::string rules_path,
      QosServerConfig config = {});

  /// The validation start() applies, exposed for tests: returns the config
  /// unchanged or the error that start() would surface.
  static Result<QosServerConfig> validate_config(QosServerConfig config);

  ~QosServerNode();
  QosServerNode(const QosServerNode&) = delete;
  QosServerNode& operator=(const QosServerNode&) = delete;

  net::SockAddr addr() const { return addr_; }
  /// N, the workers start() derived from the affinity mask.
  std::size_t worker_count() const { return workers_.size(); }
  core::AdmissionController& admission() { return *admission_; }
  MetricsRegistry& metrics() { return metrics_; }

  /// Mount the admin/observability HTTP endpoint (/metrics, /healthz,
  /// /statusz) — the QoS server's only HTTP surface. Returns the bound
  /// address.
  Result<net::SockAddr> start_admin(const net::SockAddr& addr,
                                    std::string node_name = "server");

  /// Prequal probe mirror (DESIGN.md §14): datagrams accepted but not yet
  /// answered — the UDP tier's requests-in-flight, served as a
  /// `"probe"` row on /statusz. Derived from the existing counters so the
  /// decision path pays nothing for the probe surface.
  std::int64_t requests_in_flight() const;

  /// Rules the table holds (the server.rules gauge, as of the last load,
  /// reload, migration or recount_rules()).
  std::size_t rule_count() const;
  /// Set the server.rules gauge from the table, after a change the node
  /// did not make itself (an HA replica's restore).
  void recount_rules();

  /// One maintenance pass; the periodic threads run these, tests call them
  /// to avoid waiting on wall-clock. sync_now() reloads the rules file when
  /// it changed (server.rules_reloads); checkpoint_now() logs the changed
  /// credits to the WAL (nothing without one). Each records its duration,
  /// one sample per pass, in server.sync_pass_us /
  /// server.checkpoint_pass_us.
  void sync_now();
  void checkpoint_now();
  /// Fold the WAL into the snapshot (requires both).
  Status compact_now();

  // ---- cluster runtime hooks (DESIGN.md §11, driven by ClusterAgent) -------
  //
  // The warm-path contract: when the node is not in cluster mode
  // (cluster_epoch_ == 0 and every inbound frame carries epoch 0) the whole
  // feature costs one predictable branch per request and zero allocations
  // (tests/perf/test_hotpath_allocs.cpp pins this). In cluster mode a frame
  // stamped with a stale epoch is NACKed with kStaleEpoch + the current
  // epoch instead of being decided against the wrong partition.

  /// Flip the node's cluster epoch. Called by the ClusterAgent the moment an
  /// EpochUpdate lands — BEFORE any migration work, so stale frames start
  /// bouncing immediately.
  void set_cluster_epoch(std::uint64_t epoch);
  std::uint64_t cluster_epoch() const {
    return cluster_epoch_.load(std::memory_order_acquire);
  }

  /// Open the inbound-migration window: until it elapses, current-epoch
  /// requests for keys NOT yet in the local table are silently dropped
  /// (server.cluster_deferred) instead of first-touch-created — admitting
  /// against a fresh default bucket while the old owner's bucket is still in
  /// flight is exactly the double-spend resharding must prevent. The router
  /// retry covers the dropped requests. The window self-closes on the warm
  /// path (one clock read, only while the window is open).
  void open_migration_window(Duration window);

  /// Ship every live entry whose owner under `map` is not `self_index`,
  /// grouped by new owner index (entries[i] -> map.members[i]). Pass
  /// wire::kNotAMember to extract everything (this node is leaving). A
  /// shipped rule's entry turns back to provisioned, so the node keeps the
  /// rule; a shipped default entry is dropped. Runs under the shard locks,
  /// concurrently with the workers.
  std::vector<std::vector<wire::MigrationEntry>> extract_disowned(
      const cluster::ShardMap& map, std::size_t self_index);

  /// Install entries streamed from an old owner (MigrationBatch). Existing
  /// entries are overwritten — the migrated credit is authoritative. An
  /// entry no bucket can hold (a peer's bad value, core::LeakyBucket::valid)
  /// is refused, never installed. Returns the entries installed.
  std::size_t install_migrated(const std::vector<wire::MigrationEntry>& entries);

  std::uint64_t migrated_in() const {
    return migrated_in_count_.load(std::memory_order_relaxed);
  }
  std::uint64_t migrated_out() const {
    return migrated_out_count_.load(std::memory_order_relaxed);
  }
  std::uint64_t stale_epoch_nacks() const {
    return stale_nacks_count_.load(std::memory_order_relaxed);
  }

  void stop();

 private:
  QosServerNode(net::UdpSocket socket, net::SockAddr addr,
                std::string rules_path, QosServerConfig config);
  /// start()'s load, before any thread runs.
  Status load_rules();
  void start_threads();

  static constexpr std::uint64_t kTimingSampleShift = 3;  // 1-in-8
  /// Max datagrams per recvmmsg: a worker's batch, decided and answered as
  /// a unit.
  static constexpr std::size_t kRecvBatch = 32;
  /// recv_many's "no timeout": a worker blocks until a datagram arrives or
  /// stop() shuts the socket's receive side.
  static constexpr Duration kWaitForever{-1};

  /// Timing sample over one receive batch: one datagram in every
  /// 1 << kTimingSampleShift carries the batch's receive time (one clock
  /// read per batch), the rest kTimeZero, so the latency histograms cost a
  /// branch per request (bench_micro_hotpath bounds it at <5%). The batch
  /// claims its sequence numbers from one node-wide counter with one
  /// fetch_add, so the ratio is exact however many threads receive.
  class BatchSampler {
   public:
    BatchSampler(std::atomic<std::uint64_t>& seq, std::size_t n)
        : next_(seq.fetch_add(n, std::memory_order_relaxed)) {}
    /// Stamp for the batch's next datagram, in receive order.
    TimePoint next() {
      if ((next_++ & ((1u << kTimingSampleShift) - 1)) != 0) return kTimeZero;
      if (at_ == kTimeZero) at_ = SteadyClock::instance().now();
      return at_;
    }

   private:
    std::uint64_t next_;
    TimePoint at_{kTimeZero};
  };

  /// What run_jobs consumes: a borrowed view of one request, built straight
  /// over a RecvBatch slot — the decision never touches a per-datagram heap
  /// copy at all, and the reply goes to the sender's address as the kernel
  /// wrote it.
  struct JobView {
    std::span<const std::uint8_t> data;
    const sockaddr_in* from = nullptr;
    TimePoint enqueued{kTimeZero};
  };

  /// Reused per-worker reply scratch: encoded frames, sendmmsg descriptors,
  /// and the per-job bookkeeping for timing records that happen after the
  /// batch flush. Sized once; warm batches allocate nothing new.
  struct ReplyBuffers {
    explicit ReplyBuffers(std::size_t batch);
    std::vector<std::vector<std::uint8_t>> outs;
    std::vector<net::UdpSocket::NativeDatagram> replies;
    std::vector<TimePoint> dequeued_at;
    std::vector<std::int64_t> wait_us;
    // Per-job key/trace views for the post-flush service exemplar. They
    // alias the receive batch's slots, which outlive the flush (the next
    // recv_many happens only after run_jobs returns).
    std::vector<std::string_view> keys;
    std::vector<std::string_view> traces;
  };

  /// Receive a batch from the shared listen socket, decide it in place,
  /// answer it with one send_many.
  JANUS_HOT_PATH_IO void worker_loop();

  /// Count a receive batch of n datagrams (server.received,
  /// server.recv_batch) and claim its n timing-sample slots.
  BatchSampler begin_batch(std::size_t n);
  /// Process one batch of request views: decode, decide under the shard
  /// locks, flush all replies in one batched send, record timings.
  JANUS_HOT_PATH_LOCKS void run_jobs(std::span<const JobView> jobs,
                                     ReplyBuffers& buf);
  /// True when the migration window is open and `key` has no live entry
  /// (absent, or a provisioned rule) — the request must be deferred
  /// (dropped) until its bucket arrives or the window elapses.
  bool defer_for_migration(std::string_view key);
  /// ",\"cluster\":{...}" /statusz fragment (empty outside cluster mode).
  std::string render_cluster_statusz() const;

  /// One watchdog tick (PeriodicTask): flags a listen socket with queued
  /// work but no answered request since the previous tick.
  void watchdog_pass();
  /// Pull the socket's monotonic receive-buffer drop counter and publish
  /// the delta into server.socket_dropped. Runs on the watchdog tick and
  /// once at stop() (no tick races stop(): the periodic tasks are joined
  /// first).
  void publish_socket_stats();
  /// Hot-key top-k rendered as extra Prometheus families for /metrics.
  std::string render_hot_key_metrics(const std::string& node) const;
  /// Hot-key top-k rendered as a ",\"hot_keys\":..." /statusz fragment.
  std::string render_hot_key_statusz() const;

  QosServerConfig config_;
  net::UdpSocket socket_;
  net::SockAddr addr_;
  std::string rules_path_;
  std::unique_ptr<core::AdmissionController> admission_;
  core::TableRules rules_;

  MetricsRegistry metrics_;
  Counter& received_;
  Counter& answered_;
  Counter& malformed_;
  Counter& socket_dropped_;    // server.socket_dropped (never in received_)
  Counter& watchdog_stalls_;   // server.watchdog_stalls
  HistogramMetric& queue_wait_us_;
  HistogramMetric& service_us_;
  Exemplar& queue_wait_exemplar_;  // slowest-sample trace/key, /statusz
  Exemplar& service_exemplar_;
  // Batch-size distributions: mean(server.recv_batch) is the direct
  // syscalls-amortized signal (datagrams per receive wakeup); likewise
  // server.send_batch for reply bursts. A worker answers its receive batch
  // as one burst, so the two means are equal.
  HistogramMetric& recv_batch_size_;
  HistogramMetric& send_batch_size_;
  Counter& stale_nacks_;       // server.stale_epoch_nacks
  Counter& cluster_deferred_;  // server.cluster_deferred (migration window)
  Counter& migrated_in_;       // server.migrated_in (entries)
  Counter& migrated_out_;      // server.migrated_out (entries)
  Gauge& cluster_epoch_gauge_; // server.cluster_epoch
  HistogramMetric& sync_pass_us_;        // server.sync_pass_us
  HistogramMetric& checkpoint_pass_us_;  // server.checkpoint_pass_us
  Gauge& rules_gauge_;                   // server.rules
  Counter& rules_reloads_;               // server.rules_reloads

  // Watchdog bookkeeping; touched only from the watchdog's PeriodicTask
  // thread, so plain fields suffice. The socket is flagged only after TWO
  // consecutive no-progress-with-backlog ticks (strikes).
  std::uint64_t watchdog_last_answered_ = 0;
  std::uint8_t watchdog_answered_strikes_ = 0;
  /// Last-published drop-counter snapshot (watchdog thread + stop() only,
  /// which never overlap — the periodic tasks are joined before stop()
  /// publishes the final delta).
  std::uint32_t socket_drops_last_ = 0;

  /// 0 = cluster mode off (every epoch check short-circuits on the first
  /// operand). Set only by the ClusterAgent under its own serialization.
  std::atomic<std::uint64_t> cluster_epoch_{0};
  /// Steady-clock ns deadline of the inbound-migration window; 0 = closed.
  std::atomic<std::int64_t> migrate_window_until_{0};
  std::atomic<std::uint64_t> migrated_in_count_{0};
  std::atomic<std::uint64_t> migrated_out_count_{0};
  std::atomic<std::uint64_t> stale_nacks_count_{0};
  /// BatchSampler sequence, shared by every receiving thread: every batch
  /// writes it, so it has a cache line to itself.
  alignas(64) std::atomic<std::uint64_t> timing_seq_{0};

  /// Read by every worker once per batch, written once: kept off
  /// timing_seq_'s line so those reads never miss on the workers' writes.
  alignas(64) std::atomic<bool> stopping_{false};
  std::vector<std::thread> workers_;
  std::vector<std::unique_ptr<PeriodicTask>> maintenance_;
  std::unique_ptr<net::AdminServer> admin_;
};

}  // namespace janus::server
