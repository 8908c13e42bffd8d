// janusd — run one Janus node from the command line.
//
//   janusd server --listen 127.0.0.1:9100 --rules rules.conf
//                 [--wal janus.wal] [--shards 16]
//                 [--sync-ms 5000] [--checkpoint-ms 5000]
//                 [--snapshot janus.snap --compact-ms 60000]
//                 [--default-rate R --default-capacity C]
//                 [--cluster-listen ip:port] [--bfd-listen ip:port]
//                 [--migrate-window-ms 250]
//                 [--ha-listen ip:port] [--ha-master ip:port --ha-ms 500]
//   janusd router --listen 127.0.0.1:8080
//                 --backends 127.0.0.1:9100,127.0.0.1:9101
//                 [--timeout-us 100] [--retries 5] [--default-allow]
//   janusd router --listen 127.0.0.1:8080 --cluster
//                 --members udp:port/cluster:port/bfd:port,...
//                 [--standbys udp:port/cluster:port/bfd:port|-,...]
//                 [--bfd-ms 50] [--bfd-mult 3]
//   janusd gateway --listen 127.0.0.1:8000
//                 --backends 127.0.0.1:8080,127.0.0.1:8081
//                 [--policy round-robin|least-connections|prequal]
//                 [--timeout-ms 1000]
//                 [--probe-ms 5] [--probe-age-ms 250] [--probe-reuse 16]
//                 [--probe-d 3] [--probe-timeout-ms 50]
//
// Each role accepts only its own flags plus the observability flags below;
// any other flag exits 2 with a message naming it. So does a numeric value
// that does not parse or that its consumer cannot hold (a negative count,
// a multiplier past 255), and a value given to a switch
// (`--default-allow=false`): the node never starts on a value it would
// misread.
//
// Every role runs one thread per CPU in the process's affinity mask: pin
// the process with taskset to choose how many (`taskset -c 0,1 janusd
// server ...` runs two workers). No role has a thread-count flag.
//
// The server runs one execution model (DESIGN.md §9.1) over one datagram
// path (§13): its workers all receive from the listen socket with
// recvmmsg, decide each batch under the table's shard locks and answer it
// with one sendmmsg. HA (--ha-*) runs with every configuration janusd
// accepts.
//
// The router and gateway roles serve HTTP on one event loop per CPU
// (DESIGN.md §9.2).
//
// The gateway role is the paper's ELB tier: an L7 balancer in front of
// router nodes. Under `--policy prequal` the probe flags tune the async
// probe pool (interval, staleness bound T, reuse budget R, power-of-d) —
// see DESIGN.md §14.
//
// Cluster mode (DESIGN.md §11): `--cluster-listen` starts the server's
// control-plane agent (EpochUpdate / MigrationBatch over TCP) and
// `--bfd-listen` its liveness responder. A `--cluster` router embeds the
// coordinator: `--members` lists each slot's data/control/BFD endpoints
// (slashes separate the three ip:port fields; the latter two may be empty),
// `--standbys` optionally pairs each slot with a standby ("-" = none). All
// bound ports are printed on stdout (and flushed) so test fixtures can
// parse them when binding port 0.
//
// Observability flags (both roles):
//   --admin ip:port    mount /metrics (Prometheus), /healthz, /statusz,
//                      /tracez (flight-recorder Perfetto JSON)
//   --stats-ms N       log a one-line metrics snapshot every N ms
//   --log-level L      debug|info|warn|error|off (default info)
//   --trace-dump PATH  arm the one-shot flight-recorder auto-dump: the next
//                      chaos fault fire or stalled-worker watchdog hit
//                      writes the rings to PATH as Perfetto JSON
//
// The rules file is `key = rate capacity [credit]` per line, e.g.:
//
//   tenant-42 = 100 1000
//   10.0.0.7  = 5 20 12.5
//
// (db/rules_file.hpp). The server loads it straight into its QoS table,
// its only rules store, and on each --sync-ms tick loads it again when the
// file changed (size, mtime or inode), so a rule edit needs no restart.
// With --wal, a restart keeps the credit each key had at its last
// check-point, clamped to the file's capacity: it loads the --snapshot file
// when there is one, then replays the WAL, then loads the rules file over
// them. Without --wal there is no check-point.
//
// A SIGINT/SIGTERM stops the node cleanly.
#include <csignal>
#include <cstdio>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string_view>

#include "cluster/coordinator.hpp"
#include "common/flight_recorder.hpp"
#include "common/logging.hpp"
#include "common/metrics.hpp"
#include "common/periodic.hpp"
#include "common/string_util.hpp"
#include "lb/gateway_balancer.hpp"
#include "net/bfd.hpp"
#include "router/router_node.hpp"
#include "server/cluster_agent.hpp"
#include "server/ha.hpp"
#include "server/qos_server_node.hpp"

using namespace janus;

namespace {

volatile std::sig_atomic_t g_stop = 0;
void handle_signal(int) { g_stop = 1; }

using Flags = std::map<std::string, std::string>;

/// The values a numeric flag's consumer holds, bounds included.
struct Number {
  double lo;
  double hi;
  bool integer = true;
};

/// The longest wait a millisecond kernel timeout (poll, epoll_wait) takes:
/// the bound of every *-ms flag, and of --timeout-us in ms.
constexpr double kMaxMs = std::numeric_limits<int>::max();
/// Attempts and probe reuses: counts the consumer keeps in an int or more.
constexpr double kMaxCount = std::numeric_limits<int>::max();
/// Table shards only spread the workers' lock contention, and there is one
/// worker per CPU: 4096 times the default is past any useful count.
constexpr double kMaxShards = 1 << 16;
/// A span of time where 0 is a value: it turns a periodic pass off or
/// leaves no window.
constexpr Number kSpanMs{0, kMaxMs};
/// The interval of a task with no off switch: 0 would spin its thread.
constexpr Number kTickMs{1, kMaxMs};
/// A rule's rate or capacity: any finite non-negative number.
constexpr Number kRuleValue{0, std::numeric_limits<double>::max(), false};

/// The flags one role accepts: `values` take a text argument, `numbers` a
/// numeric one, `switches` none.
struct FlagSet {
  std::set<std::string_view> values;
  std::map<std::string_view, Number> numbers;
  std::set<std::string_view> switches;
};

/// Accepted by every role (see setup_observability), with --stats-ms.
constexpr std::string_view kObservabilityFlags[] = {"admin", "log-level",
                                                    "trace-dump"};

bool number_ok(const std::string& text, const Number& range) {
  const std::optional<double> v =
      range.integer ? std::optional<double>(parse_i64(text))
                    : parse_double(text);
  // NaN compares false, so it fails here too.
  return v && *v >= range.lo && *v <= range.hi;
}

/// A numeric flag's value, or `fallback` when it is absent. parse_flags
/// has already checked the value against the flag's range.
std::int64_t int_flag(const Flags& flags, const char* name,
                      std::int64_t fallback) {
  auto it = flags.find(name);
  return it == flags.end() ? fallback : parse_i64(it->second).value();
}

double real_flag(const Flags& flags, const char* name, double fallback) {
  auto it = flags.find(name);
  return it == flags.end() ? fallback : parse_double(it->second).value();
}

/// "--flag value" / "--flag=value" argument map; false (after printing) on
/// unknown syntax, on a flag `role` does not accept, on a value given to a
/// switch, and on a numeric value outside what its consumer holds.
bool parse_flags(int argc, char** argv, int first, const char* role,
                 const FlagSet& known, Flags& out) {
  for (int i = first; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (!starts_with(arg, "--")) {
      std::fprintf(stderr, "janusd: unexpected argument '%s'\n", argv[i]);
      return false;
    }
    std::string name(arg.substr(2));
    std::optional<std::string> value;
    if (auto eq = name.find('='); eq != std::string::npos) {
      value = name.substr(eq + 1);
      name.resize(eq);
    }
    const bool is_switch = known.switches.count(name) > 0;
    const auto number = known.numbers.find(name);
    if (!is_switch && number == known.numbers.end() &&
        known.values.count(name) == 0) {
      std::fprintf(stderr, "janusd %s: unknown flag '--%s'\n", role,
                   name.c_str());
      return false;
    }
    if (is_switch) {
      if (value) {
        std::fprintf(stderr, "janusd: --%s takes no value\n", name.c_str());
        return false;
      }
      out[name];
      continue;
    }
    if (!value) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "janusd: --%s needs a value\n", name.c_str());
        return false;
      }
      value = argv[++i];
    }
    if (number != known.numbers.end() && !number_ok(*value, number->second)) {
      const Number& r = number->second;
      char want[64];
      if (r.integer) {
        std::snprintf(want, sizeof(want), "an integer in %.0f..%.0f", r.lo,
                      r.hi);
      } else {
        std::snprintf(want, sizeof(want), "a finite number >= %g", r.lo);
      }
      std::fprintf(stderr, "janusd: bad --%s '%s' (expected %s)\n",
                   name.c_str(), value->c_str(), want);
      return false;
    }
    out[name] = std::move(*value);
  }
  return true;
}

Result<net::SockAddr> parse_addr(const std::string& text) {
  auto parts = split(text, ':');
  if (parts.size() != 2) return Error("expected ip:port, got " + text);
  auto port = parse_u64(parts[1]);
  if (!port || *port > 65535) return Error("bad port in " + text);
  return net::SockAddr{std::string(parts[0]),
                       static_cast<std::uint16_t>(*port)};
}

/// Shared handling of --log-level, --admin, --stats-ms for both roles.
/// `start_admin` mounts the node's admin endpoint; `registry` feeds the
/// periodic stats line. Returns false (after printing) on a bad flag value.
bool setup_observability(
    const Flags& flags, const char* role,
    MetricsRegistry& registry,
    const std::function<Result<net::SockAddr>(const net::SockAddr&)>&
        start_admin,
    std::unique_ptr<PeriodicTask>& stats_task) {
  if (auto it = flags.find("log-level"); it != flags.end()) {
    auto level = parse_log_level(it->second);
    if (!level) {
      std::fprintf(stderr, "janusd: bad --log-level '%s'\n",
                   it->second.c_str());
      return false;
    }
    Logger::instance().set_level(*level);
  }
  if (auto it = flags.find("admin"); it != flags.end()) {
    auto addr = parse_addr(it->second);
    if (!addr.ok()) {
      std::fprintf(stderr, "janusd: --admin: %s\n",
                   addr.error().message.c_str());
      return false;
    }
    auto bound = start_admin(addr.value());
    if (!bound.ok()) {
      std::fprintf(stderr, "janusd: admin endpoint: %s\n",
                   bound.error().message.c_str());
      return false;
    }
    std::printf("janusd: %s admin endpoint on %s\n", role,
                bound.value().to_string().c_str());
    // Fixtures and scripts poll redirected logs for this banner; a
    // block-buffered stdout would hold it back indefinitely.
    std::fflush(stdout);
  }
  if (const std::int64_t interval = int_flag(flags, "stats-ms", 0);
      interval > 0) {
    stats_task = std::make_unique<PeriodicTask>(
        millis(interval), [&registry] {
          JLOG_INFO("stats: %s", format_stats_line(registry).c_str());
        });
  }
  if (auto it = flags.find("trace-dump"); it != flags.end()) {
    if (it->second.empty()) {
      std::fprintf(stderr, "janusd: --trace-dump needs a path\n");
      return false;
    }
    // One-shot: the next chaos fault fire or watchdog-detected stall dumps
    // the flight-recorder rings here as Perfetto JSON (DESIGN.md §10).
    FlightRecorder::instance().set_auto_dump_path(it->second);
    std::printf("janusd: %s trace auto-dump armed -> %s\n", role,
                it->second.c_str());
  }
  return true;
}

/// Cluster member spec: "udpip:port[/clusterip:port[/bfdip:port]]" — the
/// control-plane and BFD fields may be empty or omitted.
Result<cluster::MemberSpec> parse_member_spec(std::string_view text,
                                              std::string name) {
  auto fields = split(text, '/');
  if (fields.empty() || fields.size() > 3) {
    return Error("bad member spec: " + std::string(text));
  }
  cluster::MemberSpec spec;
  spec.member.name = std::move(name);
  auto udp = parse_addr(std::string(fields[0]));
  if (!udp.ok()) return Error(udp.error().message);
  spec.member.udp_addr = udp.value();
  spec.member.cluster_addr = net::SockAddr{"0.0.0.0", 0};
  if (fields.size() >= 2 && !fields[1].empty()) {
    auto addr = parse_addr(std::string(fields[1]));
    if (!addr.ok()) return Error(addr.error().message);
    spec.member.cluster_addr = addr.value();
  }
  if (fields.size() >= 3 && !fields[2].empty()) {
    auto addr = parse_addr(std::string(fields[2]));
    if (!addr.ok()) return Error(addr.error().message);
    spec.bfd_addr = addr.value();
  }
  return spec;
}

int run_server(const Flags& flags) {
  auto listen_it = flags.find("listen");
  auto rules_it = flags.find("rules");
  if (listen_it == flags.end() || rules_it == flags.end()) {
    std::fprintf(stderr, "janusd server: --listen and --rules required\n");
    return 2;
  }
  auto listen = parse_addr(listen_it->second);
  if (!listen.ok()) {
    std::fprintf(stderr, "janusd: %s\n", listen.error().message.c_str());
    return 2;
  }

  server::QosServerConfig cfg;
  cfg.admission.table_shards =
      static_cast<std::size_t>(int_flag(flags, "shards", 16));
  cfg.sync_interval = millis(int_flag(flags, "sync-ms", 5000));
  cfg.checkpoint_interval = millis(int_flag(flags, "checkpoint-ms", 5000));
  cfg.compact_interval = millis(int_flag(flags, "compact-ms", 60000));
  cfg.admission.default_rule = core::limited_access_default(
      real_flag(flags, "default-capacity", 0.0),
      real_flag(flags, "default-rate", 0.0));
  if (auto it = flags.find("wal"); it != flags.end()) cfg.wal_path = it->second;
  if (auto it = flags.find("snapshot"); it != flags.end()) {
    cfg.snapshot_path = it->second;
  }

  // The node loads the snapshot, the WAL and the rules file into its table
  // before its first worker starts (DESIGN.md §15.2).
  auto node =
      server::QosServerNode::start(listen.value(), rules_it->second, cfg);
  if (!node.ok()) {
    std::fprintf(stderr, "janusd: %s\n", node.error().message.c_str());
    return 1;
  }
  std::printf("janusd: QoS server on %s (%zu rules, %zu workers)\n",
              node.value()->addr().to_string().c_str(),
              node.value()->rule_count(), node.value()->worker_count());
  // Flushed line-by-line: cluster test fixtures parse bound ports from a
  // pipe, where stdout is block-buffered by default.
  std::fflush(stdout);

  std::unique_ptr<PeriodicTask> stats_task;
  server::QosServerNode& srv = *node.value();
  if (!setup_observability(
          flags, "QoS server", srv.metrics(),
          [&srv](const net::SockAddr& a) {
            return srv.start_admin(a, "server@" + srv.addr().to_string());
          },
          stats_task)) {
    return 2;
  }

  // Cluster-mode companions: the HA snapshot master/replica threads, the
  // control-plane agent, and the BFD liveness responder (DESIGN.md §11).
  // HA comes first so the agent's promotion hook can capture the replica.
  std::unique_ptr<server::HaSnapshotServer> ha_server;
  std::unique_ptr<server::HaReplicaClient> ha_replica;
  if (auto it = flags.find("ha-listen"); it != flags.end()) {
    auto addr = parse_addr(it->second);
    if (!addr.ok()) {
      std::fprintf(stderr, "janusd: --ha-listen: %s\n",
                   addr.error().message.c_str());
      return 2;
    }
    auto ha = server::HaSnapshotServer::start(addr.value(), srv.admission());
    if (!ha.ok()) {
      std::fprintf(stderr, "janusd: ha server: %s\n",
                   ha.error().message.c_str());
      return 1;
    }
    ha_server = std::move(ha).take();
    std::printf("janusd: ha snapshot server on %s\n",
                ha_server->addr().to_string().c_str());
  }
  if (auto it = flags.find("ha-master"); it != flags.end()) {
    auto addr = parse_addr(it->second);
    if (!addr.ok()) {
      std::fprintf(stderr, "janusd: --ha-master: %s\n",
                   addr.error().message.c_str());
      return 2;
    }
    ha_replica = std::make_unique<server::HaReplicaClient>(
        addr.value(), srv.admission(), SteadyClock::instance(),
        millis(int_flag(flags, "ha-ms", 500)),
        [&srv] { srv.recount_rules(); });
    std::printf("janusd: ha replica pulling from %s\n",
                it->second.c_str());
  }
  std::unique_ptr<server::ClusterAgent> cluster_agent;
  if (auto it = flags.find("cluster-listen"); it != flags.end()) {
    auto addr = parse_addr(it->second);
    if (!addr.ok()) {
      std::fprintf(stderr, "janusd: --cluster-listen: %s\n",
                   addr.error().message.c_str());
      return 2;
    }
    server::ClusterAgentOptions copts;
    copts.migrate_window = millis(int_flag(flags, "migrate-window-ms", 250));
    // Promotion to active member halts snapshot restores from the old
    // master: a partitioned-but-alive master would otherwise keep handing
    // this node pre-failover credit, double-spending it (split brain).
    copts.on_promoted = [&ha_replica] {
      if (!ha_replica) return;
      ha_replica->stop();
      std::printf("janusd: ha replica stopped (promoted to active)\n");
      std::fflush(stdout);
    };
    auto agent = server::ClusterAgent::start(addr.value(), srv, copts);
    if (!agent.ok()) {
      std::fprintf(stderr, "janusd: cluster agent: %s\n",
                   agent.error().message.c_str());
      return 1;
    }
    cluster_agent = std::move(agent).take();
    std::printf("janusd: cluster agent on %s\n",
                cluster_agent->local_addr().to_string().c_str());
  }
  std::unique_ptr<net::BfdResponder> bfd;
  if (auto it = flags.find("bfd-listen"); it != flags.end()) {
    auto addr = parse_addr(it->second);
    if (!addr.ok()) {
      std::fprintf(stderr, "janusd: --bfd-listen: %s\n",
                   addr.error().message.c_str());
      return 2;
    }
    auto responder = net::BfdResponder::start(
        net::BfdResponder::Options{.listen = addr.value(),
                                   .timers = net::BfdTimers{},
                                   .local_disc = 2},
        SteadyClock::instance());
    if (!responder.ok()) {
      std::fprintf(stderr, "janusd: bfd responder: %s\n",
                   responder.error().message.c_str());
      return 1;
    }
    bfd = std::move(responder).take();
    std::printf("janusd: bfd responder on %s\n",
                bfd->local_addr().to_string().c_str());
  }
  std::fflush(stdout);

  while (!g_stop) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::printf("janusd: stopping\n");
  if (stats_task) stats_task->stop();
  // The agent drives migration passes over the node's table, so it stops
  // before the final checkpoint.
  if (cluster_agent) cluster_agent->stop();
  if (bfd) bfd->stop();
  if (ha_replica) ha_replica->stop();
  if (ha_server) ha_server->stop();
  node.value()->checkpoint_now();
  return 0;
}

int run_router(const Flags& flags) {
  const bool cluster_mode = flags.count("cluster") > 0;
  auto listen_it = flags.find("listen");
  auto backends_it = flags.find("backends");
  auto members_it = flags.find("members");
  if (listen_it == flags.end() ||
      (!cluster_mode && backends_it == flags.end()) ||
      (cluster_mode && members_it == flags.end())) {
    std::fprintf(stderr,
                 "janusd router: --listen and --backends (or --cluster "
                 "--members) required\n");
    return 2;
  }
  auto listen = parse_addr(listen_it->second);
  if (!listen.ok()) {
    std::fprintf(stderr, "janusd: %s\n", listen.error().message.c_str());
    return 2;
  }

  auto resolver = std::make_shared<router::StaticResolver>();
  std::vector<std::string> names;
  std::vector<cluster::MemberSpec> member_specs;
  if (cluster_mode) {
    for (auto part : split(members_it->second, ',')) {
      auto spec = parse_member_spec(part,
                                    "qos-" + std::to_string(names.size()));
      if (!spec.ok()) {
        std::fprintf(stderr, "janusd: --members: %s\n",
                     spec.error().message.c_str());
        return 2;
      }
      resolver->add(spec.value().member.name, spec.value().member.udp_addr);
      names.push_back(spec.value().member.name);
      member_specs.push_back(std::move(spec).take());
    }
    if (auto it = flags.find("standbys"); it != flags.end()) {
      std::size_t slot = 0;
      for (auto part : split(it->second, ',')) {
        if (slot >= member_specs.size()) {
          std::fprintf(stderr, "janusd: more --standbys than --members\n");
          return 2;
        }
        if (part != "-" && !part.empty()) {
          auto standby = parse_member_spec(
              part, member_specs[slot].member.name + "-standby");
          if (!standby.ok()) {
            std::fprintf(stderr, "janusd: --standbys: %s\n",
                         standby.error().message.c_str());
            return 2;
          }
          member_specs[slot].standby = standby.value().member;
          member_specs[slot].standby_bfd_addr = standby.value().bfd_addr;
        }
        ++slot;
      }
    }
  } else {
    for (auto part : split(backends_it->second, ',')) {
      auto addr = parse_addr(std::string(part));
      if (!addr.ok()) {
        std::fprintf(stderr, "janusd: %s\n", addr.error().message.c_str());
        return 2;
      }
      std::string name = "backend-" + std::to_string(names.size());
      resolver->add(name, addr.value());
      names.push_back(std::move(name));
    }
  }

  router::RouterConfig cfg;
  cfg.udp.timeout = micros(int_flag(flags, "timeout-us", 100));
  cfg.udp.max_retries = static_cast<int>(int_flag(flags, "retries", 5));
  cfg.udp.default_allow = flags.count("default-allow") > 0;

  // Declared before the router node so the map holder outlives it (the
  // router snapshots it on every dispatch).
  cluster::ShardMapHolder holder;

  auto node = router::RouterNode::start(listen.value(), names, resolver, cfg);
  if (!node.ok()) {
    std::fprintf(stderr, "janusd: %s\n", node.error().message.c_str());
    return 1;
  }
  std::printf("janusd: request router on %s (%zu backends)\n",
              node.value()->addr().to_string().c_str(), names.size());
  std::fflush(stdout);

  std::unique_ptr<PeriodicTask> stats_task;
  router::RouterNode& rn = *node.value();
  if (!setup_observability(
          flags, "request router", rn.metrics(),
          [&rn](const net::SockAddr& a) {
            return rn.start_admin(a, "router@" + rn.addr().to_string());
          },
          stats_task)) {
    return 2;
  }

  // Embedded cluster coordinator (DESIGN.md §11.2): bootstraps the epoch-1
  // map, publishes it to every member's control port, and probes the
  // members over BFD so a dead master's standby is promoted in
  // detect_multiplier x tx_interval.
  std::unique_ptr<cluster::ClusterCoordinator> coordinator;
  if (cluster_mode) {
    cluster::CoordinatorOptions copts;
    copts.bfd.tx_interval = millis(int_flag(flags, "bfd-ms", 50));
    copts.bfd.detect_multiplier =
        static_cast<std::uint8_t>(int_flag(flags, "bfd-mult", 3));
    copts.metrics = &rn.metrics();
    coordinator = std::make_unique<cluster::ClusterCoordinator>(
        holder, copts, SteadyClock::instance());
    auto epoch = coordinator->bootstrap(std::move(member_specs));
    if (!epoch.ok()) {
      std::fprintf(stderr, "janusd: cluster bootstrap: %s\n",
                   epoch.error().message.c_str());
      return 1;
    }
    rn.attach_shard_map(&holder);
    std::printf("janusd: cluster epoch %llu (%zu members)\n",
                static_cast<unsigned long long>(epoch.value()), names.size());
    std::fflush(stdout);
  }

  while (!g_stop) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::printf("janusd: stopping\n");
  if (stats_task) stats_task->stop();
  if (coordinator) coordinator->stop();
  return 0;
}

int run_gateway(const Flags& flags) {
  auto listen_it = flags.find("listen");
  auto backends_it = flags.find("backends");
  if (listen_it == flags.end() || backends_it == flags.end()) {
    std::fprintf(stderr,
                 "janusd gateway: --listen and --backends required\n");
    return 2;
  }
  auto listen = parse_addr(listen_it->second);
  if (!listen.ok()) {
    std::fprintf(stderr, "janusd: %s\n", listen.error().message.c_str());
    return 2;
  }
  std::vector<net::SockAddr> backends;
  for (auto part : split(backends_it->second, ',')) {
    auto addr = parse_addr(std::string(part));
    if (!addr.ok()) {
      std::fprintf(stderr, "janusd: %s\n", addr.error().message.c_str());
      return 2;
    }
    backends.push_back(addr.value());
  }
  if (backends.empty()) {
    std::fprintf(stderr, "janusd gateway: --backends is empty\n");
    return 2;
  }

  lb::GatewayConfig cfg;
  if (auto it = flags.find("policy"); it != flags.end()) {
    auto policy = lb::routing_policy_from_name(it->second);
    if (!policy) {
      std::fprintf(stderr, "janusd: bad --policy '%s'\n", it->second.c_str());
      return 2;
    }
    cfg.policy = *policy;
  }
  cfg.backend_timeout = millis(int_flag(flags, "timeout-ms", 1000));
  cfg.prequal.probe_interval = millis(int_flag(flags, "probe-ms", 5));
  cfg.prequal.max_probe_age = millis(int_flag(flags, "probe-age-ms", 250));
  cfg.prequal.probe_reuse_budget = int_flag(flags, "probe-reuse", 16);
  cfg.prequal.d_choices =
      static_cast<std::size_t>(int_flag(flags, "probe-d", 3));
  cfg.prequal.probe_timeout = millis(int_flag(flags, "probe-timeout-ms", 50));

  auto gw = lb::GatewayBalancer::start(listen.value(), std::move(backends),
                                       cfg);
  if (!gw.ok()) {
    std::fprintf(stderr, "janusd: %s\n", gw.error().message.c_str());
    return 1;
  }
  lb::GatewayBalancer& g = *gw.value();
  std::printf("janusd: gateway balancer on %s (%zu backends, policy %s)\n",
              g.addr().to_string().c_str(), g.per_backend_counts().size(),
              std::string(lb::routing_policy_name(g.config().policy))
                  .c_str());
  std::fflush(stdout);

  std::unique_ptr<PeriodicTask> stats_task;
  if (!setup_observability(
          flags, "gateway", g.metrics(),
          [&g](const net::SockAddr& a) {
            return g.start_admin(a, "gateway@" + g.addr().to_string());
          },
          stats_task)) {
    return 2;
  }

  while (!g_stop) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::printf("janusd: stopping\n");
  if (stats_task) stats_task->stop();
  g.stop();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Logger::instance().set_level(LogLevel::kInfo);
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  if (argc < 2) {
    std::fprintf(stderr, "usage: janusd <server|router|gateway> --flags...\n");
    return 2;
  }
  struct Role {
    const char* name;
    int (*run)(const Flags&);
    FlagSet flags;
  };
  const Role roles[] = {
      {"server", run_server,
       {.values = {"listen", "rules", "wal", "snapshot", "cluster-listen",
                   "bfd-listen", "ha-listen", "ha-master"},
        .numbers = {{"shards", {1, kMaxShards}},
                    {"sync-ms", kSpanMs},
                    {"checkpoint-ms", kSpanMs},
                    {"compact-ms", kTickMs},
                    {"default-rate", kRuleValue},
                    {"default-capacity", kRuleValue},
                    {"migrate-window-ms", kSpanMs},
                    {"ha-ms", kTickMs}},
        .switches = {}}},
      {"router", run_router,
       {.values = {"listen", "backends", "members", "standbys"},
        .numbers = {{"timeout-us", {0, kMaxMs * 1000}},
                    {"retries", {1, kMaxCount}},
                    {"bfd-ms", kTickMs},
                    {"bfd-mult", {1, 255}}},
        .switches = {"default-allow", "cluster"}}},
      {"gateway", run_gateway,
       {.values = {"listen", "backends", "policy"},
        .numbers = {{"timeout-ms", kSpanMs},
                    {"probe-ms", kTickMs},
                    {"probe-age-ms", kSpanMs},
                    {"probe-reuse", {1, kMaxCount}},
                    {"probe-d", {1, lb::PrequalPicker::kMaxChoices}},
                    {"probe-timeout-ms", kSpanMs}},
        .switches = {}}},
  };
  for (const Role& role : roles) {
    if (std::strcmp(argv[1], role.name) != 0) continue;
    FlagSet known = role.flags;
    known.values.insert(std::begin(kObservabilityFlags),
                        std::end(kObservabilityFlags));
    known.numbers.emplace("stats-ms", kTickMs);
    Flags flags;
    if (!parse_flags(argc, argv, 2, role.name, known, flags)) return 2;
    return role.run(flags);
  }
  std::fprintf(stderr, "janusd: unknown role '%s'\n", argv[1]);
  return 2;
}
