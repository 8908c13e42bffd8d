#include "ladder.hpp"

#include <pthread.h>
#include <sched.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <thread>
#include <unordered_set>

#include "common/string_util.hpp"
#include "core/admission.hpp"
#include "core/db_rule_adapter.hpp"
#include "wire/codec.hpp"

namespace janus::perfbench {

namespace {

// Calls per network rung (about half a second each) and in-process calls per
// local rung.
constexpr std::uint64_t kNetCalls = 5000;
constexpr std::size_t kNetWarmCalls = 200;
constexpr std::uint64_t kLocalCalls = 100000;

int fail(const std::string& why) {
  std::fprintf(stderr, "janus_perfbench: %s\n", why.c_str());
  return 1;
}

/// The first `calls` keys of the workload's single-caller stream.
std::vector<std::uint64_t> ladder_stream(const Workload& w,
                                         std::uint64_t calls) {
  auto stream = w.stream(0, 1);
  std::vector<std::uint64_t> out(calls);
  for (auto& i : out) i = stream.next();
  return out;
}

/// Spans for one rung: a root span around the rung and one child per call
/// (network rungs) or per batch (in-process rungs).
class RungTrace {
 public:
  explicit RungTrace(SpanLog& log) : log_(log) {}

  void open(std::string_view rung) {
    root_ = next_id_++;
    root_name_ = log_.intern(rung);
    root_start_ = now_ns();
  }
  void child(std::uint32_t name, std::uint64_t t0, std::uint64_t t1) {
    log_.spans.push_back({next_id_++, root_, name, t0, t1});
  }
  void close() {
    log_.spans.push_back({root_, 0, root_name_, root_start_, now_ns()});
  }

 private:
  SpanLog& log_;
  std::uint64_t next_id_ = 1;
  std::uint64_t root_ = 0;
  std::uint32_t root_name_ = 0;
  std::uint64_t root_start_ = 0;
};

void rung_json(Json& j, std::string_view name,
               const std::vector<std::uint32_t>& lat, std::uint64_t failed,
               std::size_t warm) {
  double sum = 0;
  for (auto v : lat) {
    if (v != kFailedNs) sum += v;
  }
  const auto ok = static_cast<double>(lat.size() - failed);
  j.begin(name)
      .num("calls", static_cast<std::uint64_t>(lat.size()))
      .num("sent", static_cast<std::uint64_t>(lat.size() + warm))
      .num("failed", failed)
      .num("p50_us", percentile_us(lat, 0.50))
      .num("p90_us", percentile_us(lat, 0.90))
      .num("mean_us", ok > 0 ? sum / ok / 1000.0 : 0.0)
      .end();
}

void pin_to(const std::string& cpus) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (auto part : split(cpus, ',')) {
    if (auto cpu = parse_u64(part)) CPU_SET(static_cast<int>(*cpu), &set);
  }
  (void)pthread_setaffinity_np(pthread_self(), sizeof set, &set);
}

/// Times one call per key through `caller` after `warm` untimed calls.
void time_caller(Caller& caller, const std::vector<std::string>& keys,
                 std::size_t warm, RungTrace& trace, std::uint32_t call_name,
                 std::vector<std::uint32_t>& lat, std::uint64_t& failed) {
  for (std::size_t i = 0; i < warm; ++i) caller.call(keys[i % keys.size()]);
  for (const auto& key : keys) {
    const std::uint64_t t0 = now_ns();
    const Outcome o = caller.call(key);
    const std::uint64_t t1 = now_ns();
    trace.child(call_name, t0, t1);
    if (is_verdict(o)) {
      lat.push_back(clamp_ns(t1 - t0));
    } else {
      lat.push_back(kFailedNs);
      ++failed;
    }
  }
}

/// Same-size UDP round trip to an echo thread: no Janus code on the path.
Status time_floor(const std::vector<std::string>& keys, std::size_t warm,
                  const std::string& echo_cpus, RungTrace& trace,
                  std::uint32_t call_name, std::vector<std::uint32_t>& lat,
                  std::uint64_t& failed) {
  auto client = net::UdpSocket::bind({"127.0.0.1", 0});
  auto echo = net::UdpSocket::bind({"127.0.0.1", 0});
  if (!client.ok() || !echo.ok()) return Error("floor: cannot bind");
  auto echo_addr = echo.value().local_addr();
  if (!echo_addr.ok()) return Error("floor: no echo address");

  std::atomic<bool> stop{false};
  std::thread echoer([&] {
    pin_to(echo_cpus);
    while (!stop.load(std::memory_order_relaxed)) {
      auto dg = echo.value().recv(millis(50));
      if (dg.ok() && dg.value()) {
        (void)echo.value().send_to(dg.value()->from, dg.value()->data);
      }
    }
  });

  std::vector<std::uint8_t> frame;
  auto round_trip = [&](const std::string& key, std::uint64_t id) {
    wire::QosRequest req;
    req.request_id = id;
    req.key = key;
    wire::encode_to(req, frame);
    if (!client.value().send_to(echo_addr.value(), frame).ok()) return false;
    auto dg = client.value().recv(millis(1000));
    return dg.ok() && dg.value() && dg.value()->data.size() == frame.size();
  };
  std::uint64_t id = 1;
  for (std::size_t i = 0; i < warm; ++i) round_trip(keys[i % keys.size()], id++);
  for (const auto& key : keys) {
    const std::uint64_t t0 = now_ns();
    const bool ok = round_trip(key, id++);
    const std::uint64_t t1 = now_ns();
    trace.child(call_name, t0, t1);
    lat.push_back(ok ? clamp_ns(t1 - t0) : kFailedNs);
    if (!ok) ++failed;
  }
  stop.store(true);
  echoer.join();
  return Status::success();
}

}  // namespace

int cmd_ladder_net(const Args& args) {
  auto wr = workload_from(args);
  auto server = args.addr("server");
  auto out = args.get("out");
  if (!wr.ok() || !server || !out) {
    return fail("ladder-net needs --workload, --server and --out");
  }
  const Workload& w = wr.value();
  const std::size_t warm = kNetWarmCalls;
  std::vector<std::string> keys;
  for (std::uint64_t i : ladder_stream(w, kNetCalls)) keys.push_back(w.key(i));

  // Touch every ladder key once first, so each rung sees the same warm
  // table and no rung pays the first-touch fetch for the others.
  auto udp = Caller::make(Entry::kUdp, *server);
  for (const auto& key : keys) udp->call(key);

  SpanLog log;
  RungTrace trace(log);
  Json j;
  j.begin().begin("rungs");
  struct Rung {
    const char* name;
    Entry entry;
    std::optional<net::SockAddr> target;
  };
  const Rung rungs[] = {{"gateway", Entry::kHttp, args.addr("gateway")},
                        {"router", Entry::kHttp, args.addr("router")},
                        {"udp", Entry::kUdp, server}};
  for (const Rung& r : rungs) {
    if (!r.target) continue;
    auto caller = Caller::make(r.entry, *r.target);
    std::vector<std::uint32_t> lat;
    std::uint64_t failed = 0;
    trace.open(std::string("ladder.") + r.name);
    time_caller(*caller, keys, warm, trace,
                log.intern(r.entry == Entry::kHttp ? "http.get" : "udp.call"),
                lat, failed);
    trace.close();
    rung_json(j, r.name, lat, failed, warm);
  }
  {
    std::vector<std::uint32_t> lat;
    std::uint64_t failed = 0;
    trace.open("ladder.floor");
    if (auto s = time_floor(keys, warm, args.str("echo-cpus", ""), trace,
                            log.intern("udp.echo"), lat, failed);
        !s.ok()) {
      return fail(s.error().message);
    }
    trace.close();
    rung_json(j, "floor", lat, failed, warm);
  }
  j.end().end();
  if (auto spans = args.get("spans")) {
    if (auto s = write_spans(*spans, {log}); !s.ok()) {
      return fail(s.error().message);
    }
  }
  if (auto s = write_file(*out, j.text()); !s.ok()) return fail(s.error().message);
  return 0;
}

int cmd_ladder_local(const Args& args) {
  auto wr = workload_from(args);
  auto out = args.get("out");
  auto wal = args.get("wal");
  if (!wr.ok() || !out || !wal) {
    return fail("ladder-local needs --workload, --wal and --out");
  }
  const Workload& w = wr.value();
  const std::uint64_t table_keys = std::min<std::uint64_t>(
      static_cast<std::uint64_t>(args.num("table-keys", 0)), w.key_count());
  constexpr std::uint64_t kBatch = 1024;

  const std::vector<std::uint64_t> stream = ladder_stream(w, kLocalCalls);
  std::vector<std::string> keys;
  keys.reserve(stream.size());
  for (std::uint64_t i : stream) keys.push_back(w.key(i));
  std::vector<std::string> distinct;
  {
    std::unordered_set<std::uint64_t> seen;
    for (std::size_t n = 0; n < stream.size(); ++n) {
      if (seen.insert(stream[n]).second) distinct.push_back(keys[n]);
    }
  }

  SpanLog log;
  RungTrace trace(log);
  // Times `op(i)` for i in [0, n), one child span per batch; returns ns/op.
  auto timed = [&](std::string_view rung, std::size_t n, auto&& op) {
    trace.open(rung);
    const std::uint32_t batch = log.intern(std::string(rung) + ".batch");
    const std::uint64_t start = now_ns();
    for (std::size_t i = 0; i < n; i += kBatch) {
      const std::uint64_t t0 = now_ns();
      const std::size_t end = std::min<std::size_t>(n, i + kBatch);
      for (std::size_t k = i; k < end; ++k) op(k);
      trace.child(batch, t0, now_ns());
    }
    const std::uint64_t total = now_ns() - start;
    trace.close();
    return n == 0 ? 0.0 : static_cast<double>(total) / static_cast<double>(n);
  };

  Json j;
  j.begin();
  std::uint64_t sink = 0;  // keeps results observable
  {
    std::vector<db::RuleRow> rows(w.key_count());
    for (std::uint64_t i = 0; i < rows.size(); ++i) rows[i] = w.rule(i);
    db::Database database;
    db::RuleStore store(database);
    const double load_ns = timed("db.load", rows.size(), [&](std::size_t i) {
      sink += store.put(rows[i]).ok();
    });
    std::vector<db::RuleRow> again(stream.size());
    for (std::size_t n = 0; n < stream.size(); ++n) again[n] = w.rule(stream[n]);
    rows.clear();
    rows.shrink_to_fit();

    const double fetch_ns = timed("db.get", keys.size(), [&](std::size_t i) {
      sink += store.get(keys[i]).has_value();
    });
    const double put_ns = timed("db.put", again.size(), [&](std::size_t i) {
      sink += store.put(again[i]).ok();
    });

    core::DbRuleSource source(store);
    core::AdmissionController ac(SteadyClock::instance(), source);
    const double cold_ns =
        timed("core.check_cold", distinct.size(),
              [&](std::size_t i) { sink += ac.check(distinct[i]).allowed; });
    const double warm_ns =
        timed("core.check_warm", distinct.size(),
              [&](std::size_t i) { sink += ac.check(distinct[i]).allowed; });
    j.begin("db")
        .num("rules", w.key_count())
        .num("load_rules_per_s", load_ns > 0 ? 1e9 / load_ns : 0.0)
        .num("fetch_ns", fetch_ns)
        .num("put_ns", put_ns)
        .end();
    j.begin("core")
        .num("distinct_keys", static_cast<std::uint64_t>(distinct.size()))
        .num("check_cold_ns", cold_ns)
        .num("check_warm_ns", warm_ns)
        .end();
  }

  {
    std::vector<std::uint8_t> req_buf;
    std::vector<std::uint8_t> resp_buf;
    const double codec_ns = timed("wire.codec", keys.size(), [&](std::size_t i) {
      wire::QosRequest req;
      req.request_id = i + 1;
      req.key = keys[i];
      wire::encode_to(req, req_buf);
      auto decoded = wire::decode_request(req_buf);
      wire::QosResponse resp;
      resp.request_id = decoded.ok() ? decoded.value().request_id : 0;
      resp.allowed = true;
      resp.remaining_millicredits = static_cast<std::int64_t>(i);
      resp_buf.clear();
      wire::encode_to(resp, resp_buf);
      auto back = wire::decode_response(resp_buf);
      sink += back.ok() ? back.value().request_id : 0;
    });
    j.begin("wire").num("codec_ns", codec_ns).end();
  }

  {
    std::filesystem::remove(*wal);
    db::Database database;
    if (auto s = database.enable_wal(*wal); !s.ok()) return fail(s.error().message);
    db::RuleStore store(database);
    for (std::uint64_t i = 0; i < table_keys; ++i) sink += store.put(w.rule(i)).ok();
    core::DbRuleSource source(store);
    core::AdmissionController ac(SteadyClock::instance(), source);
    for (std::uint64_t i = 0; i < table_keys; ++i) {
      sink += ac.check(w.key(i)).allowed;
    }
    core::DbRuleSink rule_sink(store);
    const auto wal_before = std::filesystem::file_size(*wal);
    std::size_t written = 0;
    trace.open("db.checkpoint");
    const std::uint64_t t0 = now_ns();
    written = ac.checkpoint_now(rule_sink);
    const std::uint64_t t1 = now_ns();
    trace.child(log.intern("core.checkpoint_now"), t0, t1);
    trace.close();
    const auto wal_after = std::filesystem::file_size(*wal);
    j.begin("checkpoint")
        .num("table_keys", table_keys)
        .num("written", static_cast<std::uint64_t>(written))
        .num("ms", static_cast<double>(t1 - t0) / 1e6)
        .num("wal_bytes", static_cast<std::uint64_t>(wal_after - wal_before))
        .end();
  }
  std::filesystem::remove(*wal);
  j.num("sink", sink).end();

  if (auto spans = args.get("spans")) {
    if (auto s = write_spans(*spans, {log}); !s.ok()) return fail(s.error().message);
  }
  if (auto s = write_file(*out, j.text()); !s.ok()) return fail(s.error().message);
  return 0;
}

}  // namespace janus::perfbench
