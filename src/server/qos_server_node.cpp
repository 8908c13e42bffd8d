#include "server/qos_server_node.hpp"

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <thread>

#include "common/flight_recorder.hpp"
#include "common/logging.hpp"
#include "net/affinity.hpp"
#include "testing/fault_injector.hpp"
#include "wire/codec.hpp"

namespace janus::server {

Result<QosServerConfig> QosServerNode::validate_config(QosServerConfig config) {
  if (config.admission.table_shards == 0) {
    return Error("QosServerConfig: admission.table_shards must be >= 1");
  }
  return config;
}

Result<std::unique_ptr<QosServerNode>> QosServerNode::start(
    const net::SockAddr& listen, std::string rules_path,
    QosServerConfig config) {
  auto validated = validate_config(std::move(config));
  if (!validated.ok()) return Error(validated.error().message);
  auto socket = net::UdpSocket::bind(listen);
  if (!socket.ok()) return Error(socket.error().message);
  auto addr = socket.value().local_addr();
  if (!addr.ok()) return Error(addr.error().message);
  std::unique_ptr<QosServerNode> node(
      new QosServerNode(std::move(socket).take(), addr.value(),
                        std::move(rules_path), std::move(validated).take()));
  if (auto s = node->load_rules(); !s.ok()) return Error(s.error().message);
  node->start_threads();
  return node;
}

QosServerNode::QosServerNode(net::UdpSocket socket, net::SockAddr addr,
                             std::string rules_path, QosServerConfig config)
    : config_(std::move(config)),
      socket_(std::move(socket)),
      addr_(std::move(addr)),
      rules_path_(std::move(rules_path)),
      admission_(std::make_unique<core::AdmissionController>(
          SteadyClock::instance(), config_.admission)),
      rules_(admission_->table(), SteadyClock::instance()),
      received_(metrics_.counter("server.received")),
      answered_(metrics_.counter("server.answered")),
      malformed_(metrics_.counter("server.malformed")),
      socket_dropped_(metrics_.counter("server.socket_dropped")),
      watchdog_stalls_(metrics_.counter("server.watchdog_stalls")),
      queue_wait_us_(metrics_.histogram("server.queue_wait_us")),
      service_us_(metrics_.histogram("server.service_us")),
      queue_wait_exemplar_(metrics_.exemplar("server.queue_wait_us")),
      service_exemplar_(metrics_.exemplar("server.service_us")),
      recv_batch_size_(metrics_.histogram("server.recv_batch")),
      send_batch_size_(metrics_.histogram("server.send_batch")),
      stale_nacks_(metrics_.counter("server.stale_epoch_nacks")),
      cluster_deferred_(metrics_.counter("server.cluster_deferred")),
      migrated_in_(metrics_.counter("server.migrated_in")),
      migrated_out_(metrics_.counter("server.migrated_out")),
      cluster_epoch_gauge_(metrics_.gauge("server.cluster_epoch")),
      sync_pass_us_(metrics_.histogram("server.sync_pass_us")),
      checkpoint_pass_us_(metrics_.histogram("server.checkpoint_pass_us")),
      rules_gauge_(metrics_.gauge("server.rules")),
      rules_reloads_(metrics_.counter("server.rules_reloads")) {
  queue_wait_exemplar_.set_threshold(config_.slow_exemplar_us);
  service_exemplar_.set_threshold(config_.slow_exemplar_us);
}

Status QosServerNode::load_rules() {
  // Restart order (DESIGN.md §15.2): the last snapshot, then the WAL
  // written since, then the rules file over them, so that a key whose last
  // record went into the snapshot keeps its check-pointed credit.
  if (auto s = rules_.restore(config_.snapshot_path, config_.wal_path);
      !s.ok()) {
    return s;
  }
  if (auto loaded = rules_.load(rules_path_); !loaded.ok()) {
    return loaded.error();
  }
  // No decision has run yet, so every entry holds a rule: the shards'
  // sizes count them without a walk of the table.
  rules_gauge_.set(static_cast<std::int64_t>(admission_->table().node_count()));
  return Status::success();
}

std::size_t QosServerNode::rule_count() const {
  return static_cast<std::size_t>(rules_gauge_.value());
}

void QosServerNode::recount_rules() {
  rules_gauge_.set(static_cast<std::int64_t>(admission_->table().rule_count()));
}

void QosServerNode::start_threads() {
  // start() runs this on its caller, so this is its mask.
  for (std::size_t i = 0, n = net::affinity_cpus(); i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  if (config_.admission.refill_mode == core::RefillMode::kPeriodic &&
      config_.refill_interval.count() > 0) {
    maintenance_.push_back(std::make_unique<PeriodicTask>(
        config_.refill_interval, [this] { admission_->refill_all(); }));
  }
  if (config_.sync_interval.count() > 0) {
    maintenance_.push_back(std::make_unique<PeriodicTask>(
        config_.sync_interval, [this] { sync_now(); }));
  }
  // Without a WAL a check-point has nowhere to write.
  if (config_.checkpoint_interval.count() > 0 && rules_.logging()) {
    maintenance_.push_back(std::make_unique<PeriodicTask>(
        config_.checkpoint_interval, [this] { checkpoint_now(); }));
  }
  if (config_.compact_interval.count() > 0 && rules_.logging() &&
      !config_.snapshot_path.empty()) {
    maintenance_.push_back(std::make_unique<PeriodicTask>(
        config_.compact_interval, [this] {
          if (auto s = compact_now(); !s.ok()) {
            JLOG_WARN("server: compaction failed: %s",
                      s.error().message.c_str());
          }
        }));
  }
  if (config_.watchdog_interval.count() > 0) {
    maintenance_.push_back(std::make_unique<PeriodicTask>(
        config_.watchdog_interval, [this] { watchdog_pass(); }));
  }
}

QosServerNode::~QosServerNode() { stop(); }

Result<net::SockAddr> QosServerNode::start_admin(const net::SockAddr& addr,
                                                 std::string node_name) {
  net::AdminOptions opts;
  opts.node_name = std::move(node_name);
  opts.healthy = [this] { return !stopping_.load(std::memory_order_relaxed); };
  opts.extra_metrics = [this](const std::string& node) {
    return render_hot_key_metrics(node);
  };
  opts.extra_statusz = [this] {
    char probe[48];
    std::snprintf(probe, sizeof(probe), ",\"probe\":{\"rif\":%lld}",
                  static_cast<long long>(requests_in_flight()));
    return probe + render_hot_key_statusz() + render_cluster_statusz();
  };
  auto admin = net::AdminServer::start(addr, metrics_, std::move(opts));
  if (!admin.ok()) return Error(admin.error().message);
  admin_ = std::move(admin).take();
  return admin_->addr();
}

std::int64_t QosServerNode::requests_in_flight() const {
  // Accepted minus retired (answered; malformed replies are counted
  // separately). Counters are sampled independently so a burst can
  // transiently skew the difference — clamp instead of asserting.
  const std::int64_t retired = answered_.value() + malformed_.value();
  const std::int64_t in = received_.value();
  return in > retired ? in - retired : 0;
}

namespace {

/// Prometheus label-value escaping (backslash, quote, newline) for the
/// key="" labels on the hot-key families.
std::string prom_escape(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

void append_hot_key_json(std::string& out,
                         const std::vector<HotKeyCount>& rows) {
  out += '[';
  bool first = true;
  for (const auto& row : rows) {
    if (!first) out += ',';
    first = false;
    out += "{\"key\":\"";
    flight_detail::append_json_escaped(out, row.key);
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "\",\"decisions\":%" PRIu64 ",\"rejects\":%" PRIu64
                  ",\"overestimate\":%" PRIu64 "}",
                  row.hits, row.rejects, row.overestimate);
    out += buf;
  }
  out += ']';
}

}  // namespace

std::string QosServerNode::render_hot_key_metrics(
    const std::string& node) const {
  // Top-16 keys by decision count as a gauge family keyed by the QoS key.
  // Gauges, not counters: Space-Saving counts can shrink when a slot is
  // evicted and re-inherited, and scrapes must tolerate key churn.
  const auto rows = admission_->hot_keys(/*by_rejects=*/false);
  const auto reject_rows = admission_->hot_keys(/*by_rejects=*/true);
  const std::string escaped_node = prom_escape(node);
  std::string out;
  auto family = [&](const char* fam, const std::vector<HotKeyCount>& list,
                    bool use_rejects) {
    out += "# TYPE ";
    out += fam;
    out += " gauge\n";
    for (const auto& row : list) {
      char buf[96];
      out += fam;
      out += "{node=\"" + escaped_node + "\",key=\"" + prom_escape(row.key) +
             "\"}";
      std::snprintf(buf, sizeof(buf), " %" PRIu64 "\n",
                    use_rejects ? row.rejects : row.hits);
      out += buf;
    }
  };
  family("janus_server_hot_key_decisions", rows, false);
  family("janus_server_hot_key_rejects", reject_rows, true);
  return out;
}

std::string QosServerNode::render_hot_key_statusz() const {
  std::string out = ",\"hot_keys\":";
  append_hot_key_json(out, admission_->hot_keys(/*by_rejects=*/false));
  out += ",\"hot_keys_by_rejects\":";
  append_hot_key_json(out, admission_->hot_keys(/*by_rejects=*/true));
  return out;
}

void QosServerNode::watchdog_pass() {
  if (stopping_.load(std::memory_order_acquire)) return;
  publish_socket_stats();
  const std::uint64_t ts =
      static_cast<std::uint64_t>(SteadyClock::instance().now().count());

  // The FIFO is the listen socket's receive queue. Two-strike rule: a
  // datagram that lands on an idle node just before a tick is one sampled
  // backlog with no progress, not a stall — the same across two ticks is.
  const auto answered =
      static_cast<std::uint64_t>(answered_.value());
  const std::size_t head_bytes = socket_.pending_bytes();
  if (head_bytes > 0 && answered == watchdog_last_answered_) {
    if (watchdog_answered_strikes_ < 2) ++watchdog_answered_strikes_;
    if (watchdog_answered_strikes_ >= 2) {
      watchdog_stalls_.inc();
      FlightRecorder::record(TraceEventType::kWatchdogStall,
                             TraceStage::kWatchdog, /*trace=*/0,
                             /*arg=*/0, ts);
      JLOG_WARN(
          "server: watchdog: listen socket has a queued datagram (%zu "
          "bytes) but no request completed for two full ticks",
          head_bytes);
      FlightRecorder::instance().trigger_auto_dump("watchdog stall");
    }
  } else {
    watchdog_answered_strikes_ = 0;
  }
  watchdog_last_answered_ = answered;
}

namespace {

/// Microseconds since `start`, for the pass histograms.
std::int64_t micros_since(TimePoint start) {
  return (SteadyClock::instance().now() - start).count() / 1000;
}

}  // namespace

void QosServerNode::sync_now() {
  const TimePoint start = SteadyClock::instance().now();
  // The paper's periodic sync (§II-D) re-reads every cached rule; here the
  // rules live in the table, so the pass is a reload of a changed file.
  auto reloaded = rules_.reload(rules_path_);
  if (!reloaded.ok()) {
    // A bad file applies nothing; a failed WAL write stops the load.
    JLOG_WARN("server: rules reload: %s", reloaded.error().message.c_str());
  } else if (reloaded.value()) {
    rules_reloads_.inc();
  }
  if (!reloaded.ok() || reloaded.value()) recount_rules();
  sync_pass_us_.record(micros_since(start));
}

void QosServerNode::checkpoint_now() {
  const TimePoint start = SteadyClock::instance().now();
  rules_.checkpoint();
  checkpoint_pass_us_.record(micros_since(start));
}

Status QosServerNode::compact_now() {
  if (config_.snapshot_path.empty()) {
    return Error("compact: no snapshot path");
  }
  return rules_.compact(config_.snapshot_path);
}

void QosServerNode::stop() {
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) return;
  // Maintenance first, then the workers. A worker answers every datagram
  // it received before it looks at stopping_ again, so it strands nothing;
  // unread datagrams stay in the socket, never counted. Workers wait in
  // recv_many without a timeout: shutting the socket's receive side ends
  // every blocked wait at once, and each worker then sees stopping_.
  for (auto& task : maintenance_) task->stop();
  socket_.shutdown_read();
  for (auto& w : workers_) {
    if (w.joinable()) w.join();
  }
  // Final drop-counter delta: the watchdog (now joined) can no longer race
  // this, and the workers are gone, so the snapshot is exact.
  publish_socket_stats();
  if (admin_) admin_->stop();
}

QosServerNode::BatchSampler QosServerNode::begin_batch(std::size_t n) {
  // Per-datagram semantics under batching: every datagram counts in
  // server.received and takes its own turn in the timing sample, exactly
  // as when they arrived one syscall apiece.
  received_.inc(static_cast<std::int64_t>(n));
  recv_batch_size_.record(static_cast<std::int64_t>(n));
  return BatchSampler(timing_seq_, n);
}

QosServerNode::ReplyBuffers::ReplyBuffers(std::size_t batch)
    : outs(batch),
      dequeued_at(batch, TimePoint{kTimeZero}),
      wait_us(batch, -1),
      keys(batch),
      traces(batch) {
  replies.reserve(batch);
}

void QosServerNode::run_jobs(std::span<const JobView> jobs,
                             ReplyBuffers& buf) {
  // Decisions are zero-copy: each JobView (and decode_request_view below)
  // aliases the receive batch's slot, and the admission check takes the key
  // as a string_view, so a warm-key request allocates nothing
  // (tests/perf/test_hotpath_allocs.cpp).
  buf.replies.clear();
  send_batch_size_.record(static_cast<std::int64_t>(jobs.size()));
  auto& faults = testing::FaultInjector::instance();

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const JobView& job = jobs[i];
    if (faults.should_fire(testing::FaultPoint::kServerSlowService)) {
      // Service-time inflation (§V's overload knee, provoked on demand):
      // the worker stalls param µs before touching the request. Fires per
      // datagram — a batch of N consults the point N times.
      // purity-ok: deterministic fault injection — chaos builds only
      std::this_thread::sleep_for(std::chrono::microseconds(
          faults.param(testing::FaultPoint::kServerSlowService)));
    }
    const bool timed = job.enqueued != kTimeZero;
    buf.wait_us[i] = -1;
    buf.dequeued_at[i] = TimePoint{kTimeZero};
    if (timed) {
      buf.dequeued_at[i] = SteadyClock::instance().now();
      buf.wait_us[i] = (buf.dequeued_at[i] - job.enqueued).count() / 1000;
      queue_wait_us_.record(buf.wait_us[i]);
    }

    auto req = wire::decode_request_view(job.data);
    wire::QosResponse resp;
    buf.keys[i] = {};
    buf.traces[i] = {};
    if (!req.ok()) {
      malformed_.inc();
      resp.status = wire::ResponseStatus::kMalformed;
      wire::encode_to(resp, buf.outs[i]);
      // purity-ok: amortized growth into the reserved reply descriptor list
      buf.replies.push_back({*job.from, buf.outs[i]});
      continue;
    }
    const wire::QosRequestView& r = req.value();
    resp.request_id = r.request_id;
    resp.status = wire::ResponseStatus::kOk;
    buf.keys[i] = r.key;
    buf.traces[i] = r.trace_id;

    // Cluster epoch gate (DESIGN.md §11.3). Outside cluster mode every
    // frame carries epoch 0 and this is one never-taken branch — the warm
    // path stays zero-allocation and mutex-free. A stale frame is NACKed
    // with the current epoch so the router re-routes against the new map
    // instead of this node deciding against a partition it no longer owns.
    if (r.epoch != 0) {
      const std::uint64_t current =
          cluster_epoch_.load(std::memory_order_acquire);
      if (r.epoch != current) {
        stale_nacks_.inc();
        stale_nacks_count_.fetch_add(1, std::memory_order_relaxed);
        resp.status = wire::ResponseStatus::kStaleEpoch;
        resp.epoch = current;
        wire::encode_to(resp, buf.outs[i]);
        answered_.inc();
        // purity-ok: amortized growth into the reserved reply descriptor list
        buf.replies.push_back({*job.from, buf.outs[i]});
        continue;
      }
      resp.epoch = current;
      if (defer_for_migration(r.key)) {
        // Inbound-migration window: this key's bucket is still in flight
        // from the old owner. No reply — the router's retry (or its
        // default-deny on exhaustion) guarantees zero over-admission.
        cluster_deferred_.inc();
        continue;
      }
    }
    // wait_us is -1 for untimed jobs, so a disabled/unsampled job can never
    // cross the (non-negative) exemplar threshold.
    queue_wait_exemplar_.record(buf.wait_us[i], r.trace_id, r.key);

    // Traced requests get an always-on worker span (enter -> reply flushed
    // is approximated by enter -> decision here; the flush is covered by
    // service_us). Traced traffic is rare, so the two clock reads stay off
    // the contended-decision budget.
    const bool span_traced = !r.trace_id.empty() && FlightRecorder::enabled();
    std::uint64_t trace_hash = 0;
    if (span_traced) {
      trace_hash = FlightRecorder::hash_trace(r.trace_id);
      FlightRecorder::record(
          TraceEventType::kStageEnter, TraceStage::kServerWorker, trace_hash,
          static_cast<std::uint64_t>(r.type),
          static_cast<std::uint64_t>(SteadyClock::instance().now().count()));
    }

    core::Decision decision;
    switch (r.type) {
      case wire::RequestType::kCheck:
        decision = admission_->check(r.key, r.cost);
        break;
      case wire::RequestType::kProbe:
        decision = admission_->probe(r.key, r.cost);
        break;
      case wire::RequestType::kSync:
        // Never refetches: a refetch would restore a spent bucket's
        // credit. Rules reach a running server through the rules file.
        decision = admission_->probe(r.key, 0);
        break;
    }
    if (span_traced) {
      FlightRecorder::record(
          TraceEventType::kStageExit, TraceStage::kServerWorker, trace_hash,
          decision.allowed ? 1 : 0,
          static_cast<std::uint64_t>(SteadyClock::instance().now().count()));
    }
    resp.allowed = decision.allowed;
    resp.remaining_millicredits = decision.remaining_millicredits;

    wire::encode_to(resp, buf.outs[i]);
    // Count before sending: a fast client must never observe a response
    // whose counter update is still pending (metrics are read by tests
    // and operators the moment a reply lands).
    answered_.inc();
    // purity-ok: amortized growth into the reserved reply descriptor list
    buf.replies.push_back({*job.from, buf.outs[i]});

    if (!r.trace_id.empty()) {
      // wait_us is -1 when this request was not in the 1-in-8 timing
      // sample. The key/trace views alias the datagram buffer; %.*s
      // prints them without materializing strings.
      // purity-ok: traced requests only — rare by construction
      JLOG_DEBUG("server: trace=%.*s key=%.*s allowed=%d wait_us=%lld",
                 static_cast<int>(r.trace_id.size()), r.trace_id.data(),
                 static_cast<int>(r.key.size()), r.key.data(),
                 decision.allowed ? 1 : 0,
                 static_cast<long long>(buf.wait_us[i]));
    }
  }

  // Fire-and-forget (§III-C): "the worker thread does not care about
  // whether the request router receives the response or not." One
  // sendmmsg covers the whole burst.
  (void)socket_.send_many_native(buf.replies);

  // service_us spans decide -> reply handed to the kernel, so the batch
  // flush is inside the measurement; one clock read serves the batch.
  const TimePoint flushed = SteadyClock::instance().now();
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    if (buf.dequeued_at[i] != kTimeZero) {
      const std::int64_t service_us =
          (flushed - buf.dequeued_at[i]).count() / 1000;
      service_us_.record(service_us);
      // keys/traces alias the receive batch's slots, still alive here.
      service_exemplar_.record(service_us, buf.traces[i], buf.keys[i]);
    }
  }
}

void QosServerNode::worker_loop() {
  // Run to completion: the listen socket's receive queue is the paper's
  // FIFO. Each worker blocks in recv_many, which the kernel
  // ends for one waiter per arriving datagram; the worker decides the whole
  // batch in place over the RecvBatch slots (under the shard mutexes) and
  // answers it with one sendmmsg. One wake-up per request, no hand-off, no
  // per-datagram copy.
  FlightRecorder::label_current_thread("server.worker");
  net::UdpSocket::RecvBatch batch(kRecvBatch);
  std::vector<JobView> views;
  // purity-ok: loop-start setup — sized once per thread, before any traffic
  views.reserve(batch.capacity());
  ReplyBuffers buf(batch.capacity());

  while (!stopping_.load(std::memory_order_relaxed)) {
    // No timeout: stop() wakes a blocked worker with shutdown_read.
    auto got = socket_.recv_many(batch, kWaitForever);
    if (!got.ok()) {
      // purity-ok: recv-error path only — never taken for healthy traffic
      JLOG_WARN("server: recv failed: %s", got.error().message.c_str());
      continue;
    }
    const std::size_t n = got.value();
    if (n == 0) continue;  // woken by stop(): re-check stopping_
    BatchSampler sample = begin_batch(n);
    views.clear();
    for (std::size_t i = 0; i < n; ++i) {
      // purity-ok: amortized growth into the reserved views scratch vector
      views.push_back(
          JobView{batch.data(i), &batch.native_from(i), sample.next()});
    }
    run_jobs(views, buf);
  }
}

void QosServerNode::publish_socket_stats() {
  // u32 arithmetic keeps the delta right across the kernel counter's wrap.
  const std::uint32_t drops = socket_.receive_drops();
  socket_dropped_.inc(static_cast<std::int64_t>(drops - socket_drops_last_));
  socket_drops_last_ = drops;
}

void QosServerNode::set_cluster_epoch(std::uint64_t epoch) {
  cluster_epoch_.store(epoch, std::memory_order_release);
  cluster_epoch_gauge_.set(static_cast<std::int64_t>(epoch));
}

void QosServerNode::open_migration_window(Duration window) {
  if (window.count() <= 0) return;
  const std::int64_t until =
      (SteadyClock::instance().now() + window).count();
  migrate_window_until_.store(until, std::memory_order_release);
}

bool QosServerNode::defer_for_migration(std::string_view key) {
  const std::int64_t until =
      migrate_window_until_.load(std::memory_order_acquire);
  if (until == 0) return false;
  const std::int64_t now = SteadyClock::instance().now().count();
  if (now >= until) {
    // Window elapsed: self-close so the steady state goes back to one
    // relaxed load. Racing workers may CAS-fail; either way it is closed.
    std::int64_t expected = until;
    migrate_window_until_.compare_exchange_strong(expected, 0);
    return false;
  }
  return !admission_->table().contains(key);
}

namespace {

wire::MigrationEntry to_migration_entry(std::string_view key,
                                        const core::QosEntry& entry) {
  return wire::MigrationEntry{.key = std::string(key),
                              .capacity = entry.capacity(),
                              .refill_per_sec = entry.refill_per_sec(),
                              .credit = entry.bucket.credit(),
                              .is_default = entry.is_default()};
}

core::QosEntry from_migration_entry(const wire::MigrationEntry& e,
                                    TimePoint now) {
  // Mirrors ha.cpp restore_table: the migrated credit is the authoritative
  // water level; the bucket resumes refilling from `now` on the new owner.
  return core::QosEntry::make(e.capacity, e.refill_per_sec, e.credit, now,
                              e.is_default);
}

}  // namespace

std::vector<std::vector<wire::MigrationEntry>> QosServerNode::extract_disowned(
    const cluster::ShardMap& map, std::size_t self_index) {
  std::vector<std::vector<wire::MigrationEntry>> out(map.size());
  const std::uint64_t ts =
      static_cast<std::uint64_t>(SteadyClock::instance().now().count());
  FlightRecorder::record(TraceEventType::kStageEnter,
                         TraceStage::kClusterMigrate, /*trace=*/0,
                         /*arg=*/map.epoch, ts);

  std::vector<std::string> doomed;
  admission_->table().for_each(
      [&](std::string_view key, core::QosEntry& entry) {
        const std::size_t owner = map.owner_of(key);
        if (owner == self_index) return;
        out[owner].push_back(to_migration_entry(key, entry));
        doomed.emplace_back(key);
      });
  // The node keeps each shipped rule, provisioned, as its rules file has it.
  for (const std::string& key : doomed) admission_->table().retire(key);

  std::size_t total = 0;
  for (const auto& bucket : out) total += bucket.size();
  migrated_out_.inc(static_cast<std::int64_t>(total));
  migrated_out_count_.fetch_add(total, std::memory_order_relaxed);
  FlightRecorder::record(
      TraceEventType::kStageExit, TraceStage::kClusterMigrate, /*trace=*/0,
      /*arg=*/total,
      static_cast<std::uint64_t>(SteadyClock::instance().now().count()));
  return out;
}

std::size_t QosServerNode::install_migrated(
    const std::vector<wire::MigrationEntry>& entries) {
  const TimePoint now = SteadyClock::instance().now();
  FlightRecorder::record(TraceEventType::kStageEnter,
                         TraceStage::kClusterMigrate, /*trace=*/0,
                         /*arg=*/entries.size(),
                         static_cast<std::uint64_t>(now.count()));

  std::size_t installed = 0;
  for (const wire::MigrationEntry& e : entries) {
    if (!core::LeakyBucket::valid(e.capacity, e.refill_per_sec, e.credit)) {
      continue;
    }
    // A provisioned rule is overwritten too: the migrated credit is the
    // key's, and the entry is live from here on.
    admission_->table().with_entry_or_create(
        e.key, [&] { return from_migration_entry(e, now); },
        [&](core::QosEntry& cur) { cur = from_migration_entry(e, now); });
    ++installed;
  }
  recount_rules();

  migrated_in_.inc(static_cast<std::int64_t>(installed));
  migrated_in_count_.fetch_add(installed, std::memory_order_relaxed);
  FlightRecorder::record(
      TraceEventType::kStageExit, TraceStage::kClusterMigrate, /*trace=*/0,
      /*arg=*/installed,
      static_cast<std::uint64_t>(SteadyClock::instance().now().count()));
  return installed;
}

std::string QosServerNode::render_cluster_statusz() const {
  const std::uint64_t epoch = cluster_epoch_.load(std::memory_order_acquire);
  if (epoch == 0) return {};
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                ",\"cluster\":{\"epoch\":%" PRIu64 ",\"migrated_in\":%" PRIu64
                ",\"migrated_out\":%" PRIu64 ",\"stale_nacks\":%" PRIu64 "}",
                epoch, migrated_in_count_.load(std::memory_order_relaxed),
                migrated_out_count_.load(std::memory_order_relaxed),
                stale_nacks_count_.load(std::memory_order_relaxed));
  return buf;
}

}  // namespace janus::server
