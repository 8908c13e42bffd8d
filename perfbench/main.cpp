// janus_perfbench — the load side of perfbench/run.py.
//
//   janus_perfbench gen    --workload W --seed N --rules PATH
//   janus_perfbench probe  --workload W --target ip:port
//   janus_perfbench drive  --workload W --seed N --target ip:port
//                          --seconds S --out PATH
//                          [--traced-seconds T --spans PATH]
//   janus_perfbench ladder-net   (see ladder.cpp)
//   janus_perfbench ladder-local (see ladder.cpp)
//
// `drive` runs closed-loop callers against the workload's entry point and
// talks to run.py over stdin/stdout so run.py can read every process's
// counters while the callers are idle: it prints "ready" after warm-up and
// "measured" after each window, and waits for a line on stdin before each
// window starts.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <thread>

#include "harness.hpp"
#include "ladder.hpp"

using namespace janus;
using namespace janus::perfbench;

namespace {

// Four closed-loop callers: qos_check() blocks its caller, and the paper's
// modified ab is closed-loop.
constexpr unsigned kCallers = 4;
// Warm-up runs the stream at least this long after touching the corpus, so
// connections and caches are warm when the window starts.
constexpr double kWarmSeconds = 0.5;
// Samples are binned by completion time into slots this long; run.py reports
// the better quartile of the slots, so a stall of a few hundred milliseconds
// moves one slot and not the result.
constexpr std::uint64_t kSlotNs = 250'000'000;
constexpr double kProbeTimeoutSeconds = 30;

int usage(const char* why) {
  std::fprintf(stderr, "janus_perfbench: %s\n", why);
  return 2;
}

int cmd_gen(const Args& args) {
  auto w = workload_from(args);
  if (!w.ok()) return usage(w.error().message.c_str());
  auto path = args.get("rules");
  if (!path) return usage("gen needs --rules");
  if (auto s = w.value().write_rules(*path); !s.ok()) {
    return usage(s.error().message.c_str());
  }
  return 0;
}

/// Set-up ends at the first checked verdict through the entry point.
int cmd_probe(const Args& args) {
  auto w = workload_from(args);
  auto target = args.addr("target");
  if (!w.ok() || !target) return usage("probe needs --workload and --target");
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(kProbeTimeoutSeconds * 1e9);
  const std::string key(kProbeKey);
  while (now_ns() < deadline) {
    auto caller = Caller::make(w.value().entry(), *target);
    if (caller->call(key) == Outcome::kTrue) return 0;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return usage("probe: no verdict before the timeout");
}

// ---- drive ------------------------------------------------------------------

/// Counts over one phase, summed across callers.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t trues = 0;
  std::uint64_t falses = 0;
  std::uint64_t defaults = 0;
  std::uint64_t errors = 0;
  std::uint64_t unknown = 0;
  std::uint64_t first_touch = 0;
  std::vector<std::uint32_t> latency_ns;
  std::vector<std::uint16_t> slot;  // per sample: the slot it completed in

  void add(const Tally& o) {
    attempted += o.attempted;
    trues += o.trues;
    falses += o.falses;
    defaults += o.defaults;
    errors += o.errors;
    unknown += o.unknown;
    first_touch += o.first_touch;
    latency_ns.insert(latency_ns.end(), o.latency_ns.begin(),
                      o.latency_ns.end());
    slot.insert(slot.end(), o.slot.begin(), o.slot.end());
  }
};

/// Every verdict since the server started, for the contract checker.
struct ReplyLog {
  explicit ReplyLog(std::uint64_t keys) : trues(keys), first_sent(keys) {}
  std::vector<std::atomic<std::uint32_t>> trues;
  std::vector<std::atomic<std::uint64_t>> first_sent;  // ns; 0 = never sent
  std::atomic<std::uint64_t> falses{0};
};

class ClosedLoop {
 public:
  ClosedLoop(const Workload& w, const net::SockAddr& target, unsigned callers)
      : w_(w), log_(w.key_count()) {
    for (unsigned c = 0; c < callers; ++c) {
      callers_.push_back(Caller::make(w.entry(), target));
      streams_.push_back(w.stream(c, callers));
      spans_.emplace_back();
    }
  }

  /// Warm-up: every corpus key once (warm-key workloads), then the stream
  /// until `min_seconds` have passed. Connections open here and stay open.
  Tally warm_up(double min_seconds) {
    const unsigned n = static_cast<unsigned>(callers_.size());
    return run([&](unsigned c, Tally& t) {
      if (w_.warm_whole_corpus()) {
        for (std::uint64_t i = c; i < w_.key_count(); i += n) one(c, i, t, 0);
      }
      const std::uint64_t until = start_ + seconds_ns(min_seconds);
      while (now_ns() < until) one(c, streams_[c].next(), t, 0);
    });
  }

  /// One measured window: closed loop until `seconds` have passed. Samples
  /// are binned into kSlotNs slots; calls that complete after the deadline
  /// land in the last slot.
  Tally window(double seconds, bool traced, double* elapsed_s) {
    std::uint64_t end_ns = 0;
    const auto slots = std::max<std::uint64_t>(1, seconds_ns(seconds) / kSlotNs);
    Tally t = run([&](unsigned c, Tally& tally) {
      const std::uint64_t until = start_ + seconds_ns(seconds);
      const std::uint32_t name =
          spans_[c].intern(w_.entry() == Entry::kHttp ? "http.get gateway"
                                                      : "udp.call server");
      while (now_ns() < until) {
        const std::uint64_t t0 = now_ns();
        one(c, streams_[c].next(), tally, slots);
        if (traced) {
          // Ids are unique per caller without a shared counter.
          const std::uint64_t id =
              (std::uint64_t{c} << 40) + spans_[c].spans.size() + 1;
          spans_[c].spans.push_back({id, 0, name, t0, now_ns()});
        }
      }
    }, &end_ns);
    *elapsed_s = static_cast<double>(end_ns - start_) / 1e9;
    return t;
  }

  const ReplyLog& log() const { return log_; }
  const std::vector<SpanLog>& spans() const { return spans_; }
  std::uint64_t table_keys() const {
    std::uint64_t n = 0;
    for (const auto& t : log_.first_sent) {
      n += t.load(std::memory_order_relaxed) != 0;
    }
    return n;
  }

 private:
  static std::uint64_t seconds_ns(double s) {
    return static_cast<std::uint64_t>(s * 1e9);
  }

  /// Runs `body` on one thread per caller; returns the merged tally.
  template <typename Body>
  Tally run(Body body, std::uint64_t* end_ns = nullptr) {
    std::vector<Tally> tallies(callers_.size());
    std::vector<std::thread> threads;
    start_ = now_ns();
    for (unsigned c = 0; c < callers_.size(); ++c) {
      threads.emplace_back([&, c] { body(c, tallies[c]); });
    }
    for (auto& th : threads) th.join();
    if (end_ns) *end_ns = now_ns();
    Tally total;
    for (const Tally& t : tallies) total.add(t);
    return total;
  }

  void one(unsigned c, std::uint64_t index, Tally& t, std::uint64_t slots) {
    const std::string key = w_.key(index);
    const std::uint64_t t0 = now_ns();
    std::uint64_t never = 0;
    if (log_.first_sent[index].compare_exchange_strong(
            never, t0, std::memory_order_relaxed)) {
      ++t.first_touch;
    }
    const Outcome o = callers_[c]->call(key);
    const std::uint64_t t1 = now_ns();
    ++t.attempted;
    t.latency_ns.push_back(is_verdict(o) ? clamp_ns(t1 - t0) : kFailedNs);
    const std::uint64_t slot = (t1 - start_) / kSlotNs;
    t.slot.push_back(slots ? static_cast<std::uint16_t>(std::min(slot, slots - 1))
                           : 0);
    switch (o) {
      case Outcome::kTrue:
        ++t.trues;
        log_.trues[index].fetch_add(1, std::memory_order_relaxed);
        break;
      case Outcome::kFalse:
        ++t.falses;
        log_.falses.fetch_add(1, std::memory_order_relaxed);
        break;
      case Outcome::kDefault: ++t.defaults; break;
      case Outcome::kError: ++t.errors; break;
      case Outcome::kUnknown: ++t.unknown; break;
    }
  }

  const Workload& w_;
  std::vector<std::unique_ptr<Caller>> callers_;
  std::vector<Workload::Stream> streams_;
  std::vector<SpanLog> spans_;
  ReplyLog log_;
  std::uint64_t start_ = 0;
};

/// The paper's contract seen from outside: no key is admitted more than its
/// bucket allows between its first request and the last reply, and where no
/// rule can bind every verdict is TRUE. The server creates a bucket no
/// earlier than the key's first request, so that interval bounds its refill.
struct CheckResult {
  std::uint64_t keys_checked = 0;
  std::uint64_t over_admitted = 0;
  std::uint64_t unexpected_false = 0;
  std::uint64_t tightest_key = 0;  // smallest bound among checked keys
  double tightest_bound = INFINITY;

  bool ok() const { return over_admitted == 0 && unexpected_false == 0; }
};

CheckResult check_contract(const Workload& w,
                           const std::vector<std::uint64_t>& trues,
                           const std::vector<std::uint64_t>& first_sent,
                           std::uint64_t falses, std::uint64_t end_ns) {
  CheckResult r;
  for (std::uint64_t i = 0; i < trues.size(); ++i) {
    if (trues[i] == 0) continue;
    ++r.keys_checked;
    const db::RuleRow rule = w.rule(i);
    const double elapsed_s = static_cast<double>(end_ns - first_sent[i]) / 1e9;
    // One credit of slack covers the rules file's decimal round trip and the
    // bucket's milli-credit rounding.
    const double bound = rule.credit + rule.refill_per_sec * elapsed_s + 1.0;
    if (static_cast<double>(trues[i]) > bound) ++r.over_admitted;
    if (bound < r.tightest_bound) {
      r.tightest_bound = bound;
      r.tightest_key = i;
    }
  }
  if (w.quota_never_binds()) r.unexpected_false = falses;
  return r;
}

void tally_json(Json& j, std::string_view name, const Tally& t,
                double elapsed_s) {
  j.begin(name)
      .num("attempted", t.attempted)
      .num("true", t.trues)
      .num("false", t.falses)
      .num("default", t.defaults)
      .num("error", t.errors)
      .num("unknown", t.unknown)
      .num("first_touch", t.first_touch)
      .num("seconds", elapsed_s)
      .num("p50_us", percentile_us(t.latency_ns, 0.50))
      .num("p90_us", percentile_us(t.latency_ns, 0.90))
      .num("p99_us", percentile_us(t.latency_ns, 0.99));
  // Per-slot figures, so run.py can report the undisturbed slots.
  j.num("slot_seconds", static_cast<double>(kSlotNs) / 1e9);
  std::uint16_t slots = 0;
  for (auto s : t.slot) slots = std::max<std::uint16_t>(slots, s + 1);
  std::vector<std::vector<std::uint32_t>> by_slot(slots);
  std::vector<double> verdicts(slots, 0.0);
  for (std::size_t i = 0; i < t.latency_ns.size(); ++i) {
    by_slot[t.slot[i]].push_back(t.latency_ns[i]);
    if (t.latency_ns[i] != kFailedNs) verdicts[t.slot[i]] += 1;
  }
  std::vector<double> p50(slots), p90(slots);
  for (std::size_t s = 0; s < slots; ++s) {
    // A second with no reply at all is above any latency limit.
    p50[s] = by_slot[s].empty() ? INFINITY : percentile_us(by_slot[s], 0.50);
    p90[s] = by_slot[s].empty() ? INFINITY : percentile_us(by_slot[s], 0.90);
  }
  j.arr("slot_verdicts", verdicts).arr("slot_p50_us", p50).arr("slot_p90_us", p90);
  j.end();
}

bool wait_for_go() {
  std::string line;
  return static_cast<bool>(std::getline(std::cin, line));
}

void say(const char* line) {
  std::printf("%s\n", line);
  std::fflush(stdout);
}

int cmd_drive(const Args& args) {
  auto wr = workload_from(args);
  auto target = args.addr("target");
  auto out = args.get("out");
  if (!wr.ok() || !target || !out) {
    return usage("drive needs --workload, --target and --out");
  }
  const Workload& w = wr.value();
  const double seconds = args.num("seconds", 10);
  const double traced_seconds = args.num("traced-seconds", 0);

  ClosedLoop d(w, *target, kCallers);
  Tally warm = d.warm_up(kWarmSeconds);
  say("ready");
  if (!wait_for_go()) return usage("drive: stdin closed before the window");
  double elapsed = 0;
  Tally win = d.window(seconds, false, &elapsed);
  say("measured");
  Tally traced;
  double traced_elapsed = 0;
  if (traced_seconds > 0) {
    if (!wait_for_go()) return usage("drive: stdin closed before tracing");
    traced = d.window(traced_seconds, true, &traced_elapsed);
    say("measured");
    if (auto spans = args.get("spans")) {
      if (auto s = write_spans(*spans, d.spans()); !s.ok()) {
        return usage(s.error().message.c_str());
      }
    }
  }

  // Every verdict since the server started is checked, warm-up included.
  const std::uint64_t end_ns = now_ns();
  std::vector<std::uint64_t> trues(w.key_count());
  std::vector<std::uint64_t> first_sent(w.key_count());
  for (std::uint64_t i = 0; i < trues.size(); ++i) {
    trues[i] = d.log().trues[i].load(std::memory_order_relaxed);
    first_sent[i] = d.log().first_sent[i].load(std::memory_order_relaxed);
  }
  const std::uint64_t falses = d.log().falses.load();
  const CheckResult check =
      check_contract(w, trues, first_sent, falses, end_ns);

  // Negative controls: the same checker must reject a reply log that admits
  // one request more than the tightest bucket allows, and, where every
  // verdict must be TRUE, a log with one FALSE.
  bool planted_caught = false;
  if (check.keys_checked > 0) {
    std::vector<std::uint64_t> planted = trues;
    planted[check.tightest_key] =
        static_cast<std::uint64_t>(std::floor(check.tightest_bound)) + 1;
    planted_caught =
        check_contract(w, planted, first_sent, falses, end_ns).over_admitted > 0;
  }
  if (w.quota_never_binds()) {
    planted_caught =
        planted_caught &&
        !check_contract(w, trues, first_sent, falses + 1, end_ns).ok();
  }

  Json j;
  j.begin()
      .str("workload", w.name())
      .num("seed", w.seed())
      .num("callers", std::uint64_t{kCallers})
      .num("table_keys", d.table_keys());
  tally_json(j, "warmup", warm, 0);
  tally_json(j, "window", win, elapsed);
  if (traced_seconds > 0) tally_json(j, "traced", traced, traced_elapsed);
  j.begin("check")
      .boolean("ok", check.ok())
      .boolean("planted_caught", planted_caught)
      .num("keys_checked", check.keys_checked)
      .num("over_admitted", check.over_admitted)
      .num("unexpected_false", check.unexpected_false)
      .num("tightest_bound", check.tightest_bound)
      .end();
  j.end();
  if (auto s = write_file(*out, j.text()); !s.ok()) {
    return usage(s.error().message.c_str());
  }
  say("done");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return usage("usage: janus_perfbench <gen|probe|drive|ladder-net|"
                 "ladder-local> --flags...");
  }
  Args args(argc, argv, 2);
  if (!args.ok()) return usage(args.error().c_str());
  const std::string_view cmd = argv[1];
  if (cmd == "gen") return cmd_gen(args);
  if (cmd == "probe") return cmd_probe(args);
  if (cmd == "drive") return cmd_drive(args);
  if (cmd == "ladder-net") return cmd_ladder_net(args);
  if (cmd == "ladder-local") return cmd_ladder_local(args);
  return usage("unknown subcommand");
}
