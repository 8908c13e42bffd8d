// A4: google-benchmark microbenchmarks of the per-request hot path — the
// operations every QoS decision pays: CRC32 partitioning, wire codec,
// leaky-bucket update, QoS-table lookup, and contended decisions under the
// shard mutexes.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <string_view>
#include <memory>
#include <mutex>  // sync-ok: baseline for the janus::Mutex overhead bench
#include <string>
#include <thread>
#include <functional>
#include <unordered_map>
#include <vector>

#include "common/crc32.hpp"
#include "common/flight_recorder.hpp"
#include "common/transparent_hash.hpp"
#include "common/histogram.hpp"
#include "common/metrics.hpp"
#include "common/sync.hpp"
#include "core/admission.hpp"
#include "core/key_router.hpp"
#include "net/socket.hpp"
#include "wire/codec.hpp"

namespace {

using namespace janus;

void BM_Crc32(benchmark::State& state) {
  const std::string key(static_cast<std::size_t>(state.range(0)), 'k');
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32(key));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32)->Arg(8)->Arg(36)->Arg(128)->Arg(1024);

// PR 4 acceptance pair: the scalar byte-at-a-time loop vs the slice-by-8
// kernel that crc32() now dispatches to at runtime. 64-byte keys (the
// paper's tenant/operation shape) must show >=2x (BENCH_PR4.json records
// the measured ratio; tools/run_bench_suite.sh regenerates it).
void BM_Crc32Scalar(benchmark::State& state) {
  const std::string key(static_cast<std::size_t>(state.range(0)), 'k');
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32_scalar(key));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32Scalar)->Arg(16)->Arg(64)->Arg(256);

void BM_Crc32Slice8(benchmark::State& state) {
  const std::string key(static_cast<std::size_t>(state.range(0)), 'k');
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32_slice8(key));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Crc32Slice8)->Arg(16)->Arg(64)->Arg(256);

// The transparent-hash contract, isolated: the same map type probed
// heterogeneously (string_view, no allocation — the post-PR4 decision path)
// vs through a temporary std::string (the pre-PR4 shape: one heap
// allocation per lookup once the key outgrows SSO).
using TransparentMap =
    std::unordered_map<std::string, int, TransparentStringHash,
                       std::equal_to<>>;

void BM_TableLookupTransparent(benchmark::State& state) {
  TransparentMap map;
  const std::string key = "tenant-12345/upload-photo-operation";
  map.emplace(key, 1);
  const std::string_view probe = key;
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.find(probe));
  }
}
BENCHMARK(BM_TableLookupTransparent);

void BM_TableLookupOwningKey(benchmark::State& state) {
  TransparentMap map;
  const std::string key = "tenant-12345/upload-photo-operation";
  map.emplace(key, 1);
  const std::string_view probe = key;
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.find(std::string(probe)));
  }
}
BENCHMARK(BM_TableLookupOwningKey);

void BM_KeyRouterIndex(benchmark::State& state) {
  core::KeyRouter router(20);
  const std::string key = "tenant-12345/photos";
  for (auto _ : state) {
    benchmark::DoNotOptimize(router.index_for(key));
  }
}
BENCHMARK(BM_KeyRouterIndex);

void BM_WireEncodeRequest(benchmark::State& state) {
  wire::QosRequest req;
  req.request_id = 42;
  req.key = "tenant-12345/photos";
  std::vector<std::uint8_t> buf;
  for (auto _ : state) {
    wire::encode_to(req, buf);
    benchmark::DoNotOptimize(buf.data());
  }
}
BENCHMARK(BM_WireEncodeRequest);

void BM_WireDecodeRequest(benchmark::State& state) {
  wire::QosRequest req;
  req.request_id = 42;
  req.key = "tenant-12345/photos";
  const auto bytes = wire::encode(req);
  for (auto _ : state) {
    auto decoded = wire::decode_request(bytes);
    benchmark::DoNotOptimize(decoded.ok());
  }
}
BENCHMARK(BM_WireDecodeRequest);

// Zero-copy decode: string_view fields aliasing the datagram buffer vs the
// owning decode above (two string copies per request).
void BM_WireDecodeRequestView(benchmark::State& state) {
  wire::QosRequest req;
  req.request_id = 42;
  req.key = "tenant-12345/photos";
  const auto bytes = wire::encode(req);
  for (auto _ : state) {
    auto decoded = wire::decode_request_view(bytes);
    benchmark::DoNotOptimize(decoded.ok());
  }
}
BENCHMARK(BM_WireDecodeRequestView);

void BM_LeakyBucketConsume(benchmark::State& state) {
  core::LeakyBucket bucket(1e12, 1e9, kTimeZero);
  TimePoint t = kTimeZero;
  for (auto _ : state) {
    t += nanos(100);
    benchmark::DoNotOptimize(bucket.try_consume(1, t));
  }
}
BENCHMARK(BM_LeakyBucketConsume);

class WarmSource final : public core::RuleSource {
 public:
  std::optional<core::QosRule> fetch(std::string_view key) override {
    return core::QosRule{.key = std::string(key), .capacity = 1e12,
                         .refill_per_sec = 1e9,
                         .initial_credit = std::nullopt};
  }
};

void BM_AdmissionCheckCached(benchmark::State& state) {
  SteadyClock clock;
  WarmSource source;
  core::AdmissionConfig cfg;
  cfg.table_shards = static_cast<std::size_t>(state.range(0));
  core::AdmissionController admission(clock, source, cfg);
  admission.check("hot-key");
  for (auto _ : state) {
    benchmark::DoNotOptimize(admission.check("hot-key").allowed);
  }
}
BENCHMARK(BM_AdmissionCheckCached)->Arg(1)->Arg(16);

// The annotated-lock zero-overhead contract (DESIGN.md §8): in release
// builds janus::Mutex must compile down to a bare std::mutex — identical
// layout (asserted below) and an uncontended lock/unlock within noise of
// the raw primitive (<1%; compare these two benches).
#ifdef NDEBUG
static_assert(sizeof(Mutex) == sizeof(std::mutex),
              "release janus::Mutex must carry no rank-detector state");
static_assert(sizeof(SharedMutex) == sizeof(std::shared_mutex),
              "release janus::SharedMutex must carry no rank-detector state");
#endif

void BM_StdMutexLockUnlock(benchmark::State& state) {
  std::mutex mu;  // sync-ok: the baseline this bench exists to compare against
  for (auto _ : state) {
    mu.lock();    // sync-ok: baseline
    benchmark::DoNotOptimize(&mu);
    mu.unlock();  // sync-ok: baseline
  }
}
BENCHMARK(BM_StdMutexLockUnlock);

void BM_JanusMutexLockUnlock(benchmark::State& state) {
  Mutex mu(LockRank::kPeriodic, "bench.mutex");
  for (auto _ : state) {
    mu.lock();    // sync-ok: measuring the wrapper itself
    benchmark::DoNotOptimize(&mu);
    mu.unlock();  // sync-ok: measuring the wrapper itself
  }
}
BENCHMARK(BM_JanusMutexLockUnlock);

void BM_HistogramRecord(benchmark::State& state) {
  Histogram h;
  std::int64_t v = 1;
  for (auto _ : state) {
    h.record(v);
    v = (v * 1103515245 + 12345) & 0xFFFFFF;
  }
}
BENCHMARK(BM_HistogramRecord);

// Striped thread-safe histogram vs the plain one above: the price of the
// observability layer's per-request record() on a contended hot path.
void BM_HistogramMetricRecord(benchmark::State& state) {
  static HistogramMetric h;
  std::int64_t v = 1;
  for (auto _ : state) {
    h.record(v);
    v = (v * 1103515245 + 12345) & 0xFFFFFF;
  }
  if (state.thread_index() == 0) h.reset();
}
BENCHMARK(BM_HistogramMetricRecord)->Threads(1)->Threads(4)->Threads(8);

// The <5% acceptance check: one QoS-server request as the listener + worker
// pair processes it — decode, admission check, encode, counter update,
// fire-and-forget UDP reply — with counters only (the seed's
// instrumentation) vs with the observability layer's sampled per-stage
// timing (QosServerNode stamps 1 in 2^kTimingSampleShift jobs; unsampled
// requests pay only a branch, sampled ones two clock reads and two
// striped-histogram records). Compare the two benches to bound the
// regression. Both arms fold the listener-side work into the same loop, so
// the comparison is conservative.
struct WorkerBenchRig {
  net::UdpSocket rx;   // bound sink; never read — replies are dropped
  net::UdpSocket tx;
  net::SockAddr to;
  SteadyClock clock;
  WarmSource source;
  core::AdmissionController admission;
  std::vector<std::uint8_t> frame;  // encoded request, decoded per iteration
  std::vector<std::uint8_t> out;

  WorkerBenchRig()
      : rx(net::UdpSocket::bind({"127.0.0.1", 0}).take()),
        tx(net::UdpSocket::bind({"127.0.0.1", 0}).take()),
        to(rx.local_addr().take()),
        admission(clock, source, {}) {
    wire::QosRequest req;
    req.request_id = 42;
    req.key = "tenant-12345/photos";
    frame = wire::encode(req);
    admission.check(req.key);  // warm the local table
  }

  void one_request(core::AdmissionController& adm) {
    auto req = wire::decode_request(frame);
    wire::QosResponse resp;
    resp.request_id = req.value().request_id;
    core::Decision d = adm.check(req.value().key);
    resp.allowed = d.allowed;
    resp.remaining_millicredits = d.remaining_millicredits;
    wire::encode_to(resp, out);
    benchmark::DoNotOptimize(tx.send_to(to, out).ok());
  }
};

void BM_AdmissionHotPathCountersOnly(benchmark::State& state) {
  WorkerBenchRig rig;
  MetricsRegistry reg;
  Counter& answered = reg.counter("server.answered");
  for (auto _ : state) {
    rig.one_request(rig.admission);
    answered.inc();
  }
}
BENCHMARK(BM_AdmissionHotPathCountersOnly);

void BM_AdmissionHotPathWithHistograms(benchmark::State& state) {
  WorkerBenchRig rig;
  MetricsRegistry reg;
  Counter& answered = reg.counter("server.answered");
  HistogramMetric& queue_wait = reg.histogram("server.queue_wait_us");
  HistogramMetric& service = reg.histogram("server.service_us");
  constexpr std::uint64_t kSampleMask = 7;  // kTimingSampleShift = 3
  std::uint64_t seq = 0;
  for (auto _ : state) {
    const bool timed = (seq++ & kSampleMask) == 0;  // listener-side stamp
    const TimePoint enqueued = timed ? rig.clock.now() : kTimeZero;
    TimePoint dequeued{kTimeZero};
    if (timed) {  // worker-side: dequeue timestamp + queue-wait record
      dequeued = rig.clock.now();
      queue_wait.record(
          std::max<std::int64_t>(0, (dequeued - enqueued).count() / 1000));
    }
    rig.one_request(rig.admission);
    answered.inc();
    if (timed) {
      service.record((rig.clock.now() - dequeued).count() / 1000);
    }
  }
}
BENCHMARK(BM_AdmissionHotPathWithHistograms);

// Syscall-batching sweep: N 64-byte datagrams over loopback, one
// send_many + recv_many drain per iteration. items/s is datagrams/s; the
// Arg(1) row is the per-datagram-syscall baseline the batch rows amortize
// against.
void BM_UdpBatchRoundTrip(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  auto sock = net::UdpSocket::bind({"127.0.0.1", 0}).take();
  const net::SockAddr self = sock.local_addr().take();
  const std::vector<std::uint8_t> payload(64, 0xAB);
  const std::vector<net::UdpSocket::OutDatagram> burst(
      n, net::UdpSocket::OutDatagram{self, payload});
  net::UdpSocket::RecvBatch batch(n);
  for (auto _ : state) {
    if (!sock.send_many(burst).ok()) state.SkipWithError("send_many failed");
    std::size_t got = 0;
    while (got < n) {
      auto r = sock.recv_many(batch, millis(200));
      if (!r.ok() || r.value() == 0) {
        state.SkipWithError("recv_many stalled");
        break;
      }
      got += r.value();
    }
    benchmark::DoNotOptimize(got);
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(n));
}
BENCHMARK(BM_UdpBatchRoundTrip)->Arg(1)->Arg(8)->Arg(32);

// ---- Contended decisions: the recorder-overhead subject (BENCH_PR6) -------
// Four threads decide interleaved slices of one 131 072-op warm-key mix —
// thread w takes ops w, w+4, w+8, ... — through AdmissionController::check
// under the shard mutexes, as the server's workers do. Keys are the paper's
// 64-byte tenant/operation shape (the CRC32 benchmarks' key shape); the mix
// is hot — half the ops hammer 4 keys — so the hot shards' mutexes contend.
// run_bench_suite.sh times this with the flight recorder armed and
// disarmed (JANUS_DEEP_OBS=0) for BENCH_PR6.json's recorder_overhead_ratio.
void BM_ServerDecisionContended(benchmark::State& state) {
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kOpsPerIter = 1u << 17;  // 131072
  constexpr std::size_t kKeys = 64;  // spans all 16 shards

  SteadyClock clock;
  WarmSource source;
  core::AdmissionConfig cfg;
  cfg.table_shards = 16;
  core::AdmissionController admission(clock, source, cfg);

  std::vector<std::string> keys;
  for (std::size_t i = 0; i < kKeys; ++i) {
    std::string key = "tenant-" + std::to_string(i) + "/checkout.place-order";
    key.resize(64, 'x');
    keys.push_back(std::move(key));
    admission.check(keys.back());  // warm: decisions below are all cached
  }
  // Hot shard mix: half the ops hammer keys 0..3 (which collide onto a few
  // hot shards), the rest round-robin over all 64.
  auto pick = [](std::size_t seq) {
    return (seq % 100) < 50 ? seq % 4 : seq % kKeys;
  };

  for (auto _ : state) {
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (std::size_t seq = t; seq < kOpsPerIter; seq += kThreads) {
          benchmark::DoNotOptimize(admission.check(keys[pick(seq)]).allowed);
        }
      });
    }
    for (auto& th : threads) th.join();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kOpsPerIter));
}
BENCHMARK(BM_ServerDecisionContended)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

}  // namespace

// Custom main instead of BENCHMARK_MAIN(): JANUS_DEEP_OBS=0 disarms the
// flight recorder (and with it the sampled hot-key/admission telemetry) so
// run_bench_suite.sh can measure the recorder-on/off ratio on
// BM_ServerDecisionContended for BENCH_PR6.json.
int main(int argc, char** argv) {
  if (const char* e = std::getenv("JANUS_DEEP_OBS");
      e != nullptr && std::string_view(e) == "0") {
    janus::FlightRecorder::set_enabled(false);
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
