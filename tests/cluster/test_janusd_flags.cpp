// janusd's command line: every role accepts only its own flags (plus the
// observability flags). An unknown flag, a numeric value its consumer
// cannot hold, or a value given to a switch must stop the node before it
// binds anything — exit 2, naming the flag — instead of starting with the
// typo silently ignored or misread.
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "../server/server_model.hpp"
#include "cluster_fixture.hpp"
#include "common/clock.hpp"
#include "net/http.hpp"
#include "router/udp_qos_client.hpp"

namespace janus {
namespace {

struct Outcome {
  bool exited = false;  // false: still running at the deadline (killed)
  int code = -1;
  std::string output;   // stdout + stderr
};

/// Run janusd with `args`, collecting its output until it exits, `timeout`
/// passes, or the output contains `until` (non-empty); in the last two cases
/// it is killed. A non-zero `cpus` pins the child to that many CPUs of this
/// thread's mask, as `taskset -c` would.
Outcome run_janusd(const std::vector<std::string>& args, Duration timeout,
                   const std::string& until = {}, std::size_t cpus = 0) {
  Outcome out;
  // argv and the mask are built before fork: the child may only make
  // async-signal-safe calls.
  std::optional<cpu_set_t> mask;
  if (cpus > 0) {
    mask = server::cpus_from_here(cpus);
    if (!mask) return out;
  }
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(JANUS_JANUSD_BIN));
  for (const std::string& a : args) {
    argv.push_back(const_cast<char*>(a.c_str()));
  }
  argv.push_back(nullptr);
  int fds[2];
  if (::pipe(fds) != 0) return out;
  const pid_t pid = ::fork();
  if (pid == 0) {
    if (mask && ::sched_setaffinity(0, sizeof(*mask), &*mask) != 0) {
      ::_exit(126);
    }
    ::dup2(fds[1], STDOUT_FILENO);
    ::dup2(fds[1], STDERR_FILENO);
    ::close(fds[0]);
    ::close(fds[1]);
    ::execv(JANUS_JANUSD_BIN, argv.data());
    ::_exit(127);
  }
  ::close(fds[1]);
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  int status = 0;
  bool open = true;
  while (std::chrono::steady_clock::now() < deadline) {
    if (open) {
      pollfd pfd{fds[0], POLLIN, 0};
      if (::poll(&pfd, 1, 20) > 0) {
        char buf[512];
        const ssize_t n = ::read(fds[0], buf, sizeof(buf));
        if (n > 0) {
          out.output.append(buf, static_cast<std::size_t>(n));
        } else {
          open = false;
        }
      }
    } else {
      ::usleep(20'000);
    }
    if (::waitpid(pid, &status, WNOHANG) == pid) {
      out.exited = true;
      out.code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
      break;
    }
    if (!until.empty() && out.output.find(until) != std::string::npos) break;
  }
  if (!out.exited) {
    ::kill(pid, SIGKILL);
    ::waitpid(pid, &status, 0);
  }
  ::close(fds[0]);
  return out;
}

/// The flags each role needs to start, so only the flag under test can stop
/// it.
std::vector<std::string> startable(const std::string& role) {
  if (role == "server") {
    const std::string rules = ::testing::TempDir() + "janusd_flags.rules";
    std::FILE* f = std::fopen(rules.c_str(), "w");
    if (f != nullptr) {
      std::fputs("tenant = 1 1\n", f);
      std::fclose(f);
    }
    return {"server", "--listen", "127.0.0.1:0", "--rules", rules};
  }
  return {role, "--listen", "127.0.0.1:0", "--backends", "127.0.0.1:9"};
}

class JanusdFlagsTest : public ::testing::TestWithParam<std::string> {};

TEST_P(JanusdFlagsTest, UnknownFlagExitsTwoNamingIt) {
  std::vector<std::string> args = startable(GetParam());
  args.push_back("--no-such-flag");
  args.push_back("1");
  const Outcome out = run_janusd(args, seconds(5));
  ASSERT_TRUE(out.exited) << GetParam() << " started despite --no-such-flag:\n"
                          << out.output;
  EXPECT_EQ(out.code, 2) << out.output;
  EXPECT_NE(out.output.find("--no-such-flag"), std::string::npos)
      << "the message must name the unknown flag:\n" << out.output;
  EXPECT_EQ(out.output.find(" on 127.0.0.1:"), std::string::npos)
      << "nothing may be bound before the flags are checked:\n" << out.output;
}

INSTANTIATE_TEST_SUITE_P(
    Roles, JanusdFlagsTest, ::testing::Values("server", "router", "gateway"),
    [](const auto& param_info) { return param_info.param; });

TEST(JanusdRoleFlagsTest, FlagsOfAnotherRoleAreUnknown) {
  // --policy belongs to the gateway, --threading to no role at all.
  for (const char* flag : {"--policy", "--threading"}) {
    std::vector<std::string> args = startable("server");
    args.push_back(flag);
    args.push_back("x");
    const Outcome out = run_janusd(args, seconds(5));
    ASSERT_TRUE(out.exited) << "server started with " << flag << ":\n"
                            << out.output;
    EXPECT_EQ(out.code, 2) << out.output;
    EXPECT_NE(out.output.find(flag), std::string::npos) << out.output;
  }
}

TEST(JanusdRoleFlagsTest, SwitchOfARemovedModelIsUnknown) {
  // --pin-workers took no value. Rejected by name, it cannot swallow the
  // flag after it.
  std::vector<std::string> args = startable("server");
  args.push_back("--pin-workers");
  args.push_back("--workers");
  args.push_back("2");
  const Outcome out = run_janusd(args, seconds(5));
  ASSERT_TRUE(out.exited) << "server started with --pin-workers:\n"
                          << out.output;
  EXPECT_EQ(out.code, 2) << out.output;
  EXPECT_NE(out.output.find("'--pin-workers'"), std::string::npos)
      << out.output;
}

TEST(JanusdRoleFlagsTest, RemovedProviderFlagIsUnknown) {
  // The server has one datagram path, so --data-path is gone: even the
  // value that names that path stops the server before it binds.
  std::vector<std::string> args = startable("server");
  args.push_back("--data-path");
  args.push_back("mmsg");
  const Outcome out = run_janusd(args, seconds(5));
  ASSERT_TRUE(out.exited) << "server started with --data-path mmsg:\n"
                          << out.output;
  EXPECT_EQ(out.code, 2) << out.output;
  EXPECT_NE(out.output.find("'--data-path'"), std::string::npos)
      << out.output;
  EXPECT_EQ(out.output.find(" on 127.0.0.1:"), std::string::npos)
      << out.output;
}

TEST(JanusdRoleFlagsTest, GatewayWorkerCountIsUnknown) {
  // The gateway serves HTTP on one loop per CPU in its affinity mask, so
  // it has no worker count to set: --workers stops it before it binds.
  std::vector<std::string> args = startable("gateway");
  args.push_back("--workers");
  args.push_back("4");
  const Outcome out = run_janusd(args, seconds(5));
  ASSERT_TRUE(out.exited) << "gateway started with --workers 4:\n"
                          << out.output;
  EXPECT_EQ(out.code, 2) << out.output;
  EXPECT_NE(out.output.find("'--workers'"), std::string::npos) << out.output;
  EXPECT_EQ(out.output.find(" on 127.0.0.1:"), std::string::npos)
      << out.output;
}

TEST(JanusdRoleFlagsTest, ServerWorkerCountIsUnknown) {
  // The server runs one worker per CPU in its affinity mask, so it has no
  // worker count to set either: --workers stops it before it binds.
  std::vector<std::string> args = startable("server");
  args.push_back("--workers");
  args.push_back("4");
  const Outcome out = run_janusd(args, seconds(5));
  ASSERT_TRUE(out.exited) << "server started with --workers 4:\n"
                          << out.output;
  EXPECT_EQ(out.code, 2) << out.output;
  EXPECT_NE(out.output.find("'--workers'"), std::string::npos) << out.output;
  EXPECT_EQ(out.output.find(" on 127.0.0.1:"), std::string::npos)
      << out.output;
}

TEST(JanusdRoleFlagsTest, ValueFlagWithoutValueExitsTwo) {
  std::vector<std::string> args = startable("server");
  args.push_back("--shards");
  const Outcome out = run_janusd(args, seconds(5));
  ASSERT_TRUE(out.exited) << out.output;
  EXPECT_EQ(out.code, 2) << out.output;
  EXPECT_NE(out.output.find("--shards needs a value"), std::string::npos)
      << out.output;
}

TEST(JanusdRoleFlagsTest, BadNumericValueExitsTwoNamingIt) {
  // A value that does not parse used to fall back to the default, and a
  // negative count wrapped (--shards -1 reached reserve(SIZE_MAX) and
  // aborted). Each must stop the node before it binds, naming the flag.
  struct Row {
    const char* role;
    const char* flag;
    const char* value;
  };
  for (const Row& row : {Row{"server", "--shards", "-1"},
                         Row{"server", "--sync-ms", "xyz"},
                         Row{"server", "--default-rate", "x"},
                         Row{"router", "--timeout-us", "1e3"},
                         Row{"gateway", "--probe-d", "-2"}}) {
    std::vector<std::string> args = startable(row.role);
    args.push_back(row.flag);
    args.push_back(row.value);
    const Outcome out = run_janusd(args, seconds(5));
    const std::string what =
        std::string(row.role) + " " + row.flag + " " + row.value;
    ASSERT_TRUE(out.exited) << what << " started:\n" << out.output;
    EXPECT_EQ(out.code, 2) << what << ":\n" << out.output;
    EXPECT_NE(out.output.find(row.flag), std::string::npos)
        << what << ":\n" << out.output;
    EXPECT_EQ(out.output.find(" on 127.0.0.1:"), std::string::npos)
        << what << ":\n" << out.output;
  }
}

TEST(JanusdRoleFlagsTest, SwitchWithValueExitsTwo) {
  // --default-allow=false used to turn the switch on: the router answered
  // its default reply TRUE, fail-open where fail-closed was asked for.
  std::vector<std::string> args = startable("router");
  args.push_back("--default-allow=false");
  const Outcome out = run_janusd(args, seconds(5));
  ASSERT_TRUE(out.exited) << "router started with --default-allow=false:\n"
                          << out.output;
  EXPECT_EQ(out.code, 2) << out.output;
  EXPECT_NE(out.output.find("--default-allow"), std::string::npos)
      << out.output;
  EXPECT_EQ(out.output.find(" on 127.0.0.1:"), std::string::npos)
      << out.output;
}

TEST(JanusdRoleFlagsTest, UnknownRoleExitsTwo) {
  const Outcome out = run_janusd({"balancer", "--listen", "127.0.0.1:0"},
                                 seconds(5));
  ASSERT_TRUE(out.exited) << out.output;
  EXPECT_EQ(out.code, 2) << out.output;
  EXPECT_NE(out.output.find("unknown role 'balancer'"), std::string::npos)
      << out.output;
}

TEST(JanusdRoleFlagsTest, KnownServerFlagsStartTheNodeWithHa) {
  // The flags the one execution model keeps are accepted together, the HA
  // snapshot server included: the node binds and reports what it runs,
  // one worker for the one CPU it is pinned to.
  std::vector<std::string> args = startable("server");
  for (const char* a : {"--shards", "8", "--ha-listen", "127.0.0.1:0"}) {
    args.push_back(a);
  }
  const Outcome out = run_janusd(args, seconds(10),
                                 "janusd: ha snapshot server on ", 1);
  EXPECT_FALSE(out.exited) << "exit " << out.code << ":\n" << out.output;
  EXPECT_NE(out.output.find("janusd: QoS server on 127.0.0.1:"),
            std::string::npos)
      << out.output;
  EXPECT_NE(out.output.find(", 1 workers)\n"), std::string::npos)
      << out.output;
  EXPECT_NE(out.output.find("janusd: ha snapshot server on 127.0.0.1:"),
            std::string::npos)
      << out.output;
}

// ---- the rules file -----------------------------------------------------
//
// The loader reads the file in fixed-size blocks and applies its rules to
// the QoS table in chunks of 256; the grammar, its error messages and their
// line numbers are the ones the line-at-a-time loader had.

/// Write `text` to a rules file named after the running test and `tag`.
std::string rules_file(const std::string& tag, const std::string& text) {
  const std::string path =
      ::testing::TempDir() + "janusd_rules_" +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() + "_" +
      tag + ".conf";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f != nullptr) {
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
  }
  return path;
}

/// 4000 good rules, about 90 KB: longer than one read block and than
/// fifteen write chunks, so the lines after it sit past both boundaries.
std::string long_good_block() {
  std::string out;
  for (int i = 0; i < 4000; ++i) {
    out += "tenant-" + std::to_string(i) + " = 1 2\n";
  }
  return out;
}

TEST(JanusdRulesFileTest, MalformedLineIsRejectedWithItsNumber) {
  struct Row {
    std::string text;
    std::string message;
  };
  const std::string good = long_good_block();
  const std::vector<Row> rows = {
      {"a = 1 2\n# note\n\nno equals sign\n",
       "janusd: rules line 4: expected 'key = rate capacity [credit]'\n"},
      {"a = 1\n", "janusd: rules line 1: bad format\n"},
      {" = 1 2\n", "janusd: rules line 1: bad format\n"},
      {"a = 1 2 3 4\n", "janusd: rules line 1: bad format\n"},
      {"a = x 2\n", "janusd: rules line 1: bad number\n"},
      {"a = 1 2 3\n",
       "janusd: rules line 1: rule: credit outside [0, capacity]\n"},
      {"a = -1 2\r\n",
       "janusd: rules line 1: rule: negative capacity or refill rate\n"},
      {good + "late = 1 two\n", "janusd: rules line 4001: bad number\n"},
      {good + "tail = 1", "janusd: rules line 4001: bad format\n"},
      // The number grammar reads nan, -nan and inf; no rule may hold them.
      {"a = 1 2\nk = nan 1\n",
       "janusd: rules line 2: rule: refill rate, capacity and credit must "
       "be finite\n"},
      {"a = 1 2\n# note\nk = 1 -nan\n",
       "janusd: rules line 3: rule: refill rate, capacity and credit must "
       "be finite\n"},
      {good + "k = 1 2 inf\n",
       "janusd: rules line 4001: rule: refill rate, capacity and credit "
       "must be finite\n"},
  };
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const std::string path = rules_file(std::to_string(i), rows[i].text);
    const Outcome out = run_janusd(
        {"server", "--listen", "127.0.0.1:0", "--rules", path}, seconds(10));
    std::remove(path.c_str());
    ASSERT_TRUE(out.exited) << "row " << i << " started:\n" << out.output;
    EXPECT_EQ(out.code, 1) << "row " << i << ":\n" << out.output;
    EXPECT_EQ(out.output, rows[i].message) << "row " << i;
  }
}

TEST(JanusdRulesFileTest, MissingFileIsRejected) {
  const std::string path = ::testing::TempDir() + "janusd_no_such_rules_" +
                           std::to_string(::getpid()) + ".conf";
  std::remove(path.c_str());
  const Outcome out = run_janusd(
      {"server", "--listen", "127.0.0.1:0", "--rules", path}, seconds(10));
  ASSERT_TRUE(out.exited) << "started:\n" << out.output;
  EXPECT_EQ(out.code, 1) << out.output;
  EXPECT_EQ(out.output, "janusd: cannot open rules file: " + path + "\n");
}

TEST(JanusdRulesFileTest, CrlfLinesAndNoFinalNewlineAreAccepted) {
  const std::string path = rules_file(
      "crlf", long_good_block() +
                  "a = 1 2\r\n# note\r\n\r\nb = 3 4 1\r\n  c  =  5   6 ");
  const Outcome out =
      run_janusd({"server", "--listen", "127.0.0.1:0", "--rules", path},
                 seconds(10), " workers)");
  std::remove(path.c_str());
  EXPECT_FALSE(out.exited) << out.output;
  EXPECT_NE(out.output.find("(4003 rules, "), std::string::npos)
      << out.output;
}

// ---- reloading the rules file ------------------------------------------

class JanusdRulesReloadTest : public cluster_test::ClusterFixture {
 protected:
  /// TRUE verdicts for `requests` calls of `key` on `server`.
  static int admitted(const cluster_test::ServerProcess& server,
                      const std::string& key, int requests) {
    router::UdpClientConfig ccfg;
    ccfg.timeout = millis(500);
    router::UdpQosClient client(ccfg);
    int trues = 0;
    for (int i = 0; i < requests; ++i) {
      wire::QosRequest req;
      req.key = key;
      auto resp = client.call(server.udp, req);
      EXPECT_TRUE(resp.ok()) << (resp.ok() ? "" : resp.error().message);
      trues += resp.ok() && resp.value().allowed;
    }
    return trues;
  }

  /// The value of `metric` on the admin endpoint's Prometheus page.
  static long metric(const net::SockAddr& admin, const std::string& metric) {
    net::HttpClient http(admin, millis(1000));
    auto page = http.get("/metrics");
    if (!page.ok()) return -1;
    const std::string& body = page.value().body;
    const std::size_t at = body.find("\n" + metric + "{");
    if (at == std::string::npos) return -1;
    const std::size_t value = body.find("} ", at);
    return value == std::string::npos ? -1 : std::atol(&body[value + 2]);
  }
};

TEST_F(JanusdRulesReloadTest, RuleEditReachesARunningServer) {
  // The sync tick reloads an edited rules file: k keeps its spent credit,
  // clamped to its new capacity, and a key new to the file leaves the
  // default rule behind. No restart.
  write_rules("k = 0 10\n");
  cluster_test::ServerProcess& server = spawn_server(
      "reload", {"--sync-ms", "100", "--admin", "127.0.0.1:0"}, false);
  const net::SockAddr admin =
      wait_for_addr(server, "QoS server admin endpoint on ");
  EXPECT_EQ(metric(admin, "janus_server_rules"), 1);
  EXPECT_EQ(metric(admin, "janus_server_rules_reloads"), 0);
  EXPECT_EQ(admitted(server, "k", 3), 3);
  EXPECT_EQ(admitted(server, "n", 2), 0) << "n had a rule before the edit";

  // Rewritten in place: its size and mtime change.
  write_rules("k = 0 2\nn = 0 3\n");
  long reloads = 0;
  for (int i = 0; i < 100 && reloads < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    reloads = metric(admin, "janus_server_rules_reloads");
  }
  ASSERT_EQ(reloads, 1) << "no sync tick reloaded the edited file";
  EXPECT_EQ(metric(admin, "janus_server_rules"), 2);
  EXPECT_EQ(admitted(server, "k", 5), 2);
  EXPECT_EQ(admitted(server, "n", 5), 3);
  terminate(server);
}

// ---- restarting on a WAL ------------------------------------------------

class JanusdWalRestartTest : public cluster_test::ClusterFixture {
 protected:
  /// TRUE verdicts for `requests` calls of `key` on `server`.
  int admitted(const cluster_test::ServerProcess& server,
               const std::string& key, int requests) {
    router::UdpClientConfig ccfg;
    ccfg.timeout = millis(500);
    router::UdpQosClient client(ccfg);
    int trues = 0;
    for (int i = 0; i < requests; ++i) {
      wire::QosRequest req;
      req.key = key;
      req.cost = 1;
      auto resp = client.call(server.udp, req);
      EXPECT_TRUE(resp.ok()) << (resp.ok() ? "" : resp.error().message);
      trues += resp.ok() && resp.value().allowed;
    }
    return trues;
  }

  static long file_size(const std::string& path) {
    struct stat st {};
    return ::stat(path.c_str(), &st) == 0 ? static_cast<long>(st.st_size)
                                          : -1;
  }
};

TEST_F(JanusdWalRestartTest, CheckpointedCreditOutlivesARestart) {
  // Rate 0: only the credit a life starts with can admit.
  write_rules("k = 0 10\n");
  const std::string wal = rules_path_ + ".wal";
  std::remove(wal.c_str());
  const std::vector<std::string> flags = {"--wal", wal, "--sync-ms", "0",
                                          "--checkpoint-ms", "0"};

  cluster_test::ServerProcess& first = spawn_server("first", flags, false);
  EXPECT_EQ(admitted(first, "k", 12), 10);
  terminate(first);  // the last check-point writes k's credit, 0
  const long wal_bytes = file_size(wal);
  ASSERT_GT(wal_bytes, 0);

  cluster_test::ServerProcess& second = spawn_server("second", flags, false);
  EXPECT_EQ(file_size(wal), wal_bytes)
      << "loading the same rules on restart wrote the WAL";
  EXPECT_EQ(admitted(second, "k", 12), 0)
      << "the restart refilled a check-pointed bucket";
  terminate(second);
  std::remove(wal.c_str());
}

TEST_F(JanusdWalRestartTest, CompactedCreditOutlivesRestarts) {
  // A compaction folds the WAL into the snapshot. Life 2 never touches k,
  // so after its compaction k's spent credit is only in the snapshot, and
  // a restart that replayed the WAL alone took k's credit from the rules
  // file again.
  write_rules("k = 0 10\nj = 0 10\n");
  const std::string wal = rules_path_ + ".wal";
  const std::string snapshot = rules_path_ + ".snap";
  std::remove(wal.c_str());
  std::remove(snapshot.c_str());
  const std::vector<std::string> flags = {
      "--wal", wal, "--snapshot", snapshot, "--checkpoint-ms", "100",
      "--compact-ms", "300"};

  cluster_test::ServerProcess& first = spawn_server("first", flags, false);
  EXPECT_EQ(admitted(first, "k", 12), 10);
  terminate(first);

  cluster_test::ServerProcess& second = spawn_server("second", flags, false);
  EXPECT_EQ(admitted(second, "j", 3), 3);
  std::this_thread::sleep_for(std::chrono::milliseconds(1000));  // compactions
  terminate(second);
  ASSERT_GT(file_size(snapshot), 0);

  cluster_test::ServerProcess& third = spawn_server("third", flags, false);
  EXPECT_EQ(admitted(third, "k", 10), 0)
      << "the restart refilled a bucket check-pointed before a compaction";
  EXPECT_EQ(admitted(third, "j", 10), 7);
  terminate(third);
  std::remove(wal.c_str());
  std::remove(snapshot.c_str());
}

TEST_F(JanusdWalRestartTest, IdleCheckpointsLeaveTheWalAlone) {
  write_rules("k = 0 10\n");
  const std::string wal = rules_path_ + ".wal";
  std::remove(wal.c_str());
  const std::vector<std::string> flags = {"--wal", wal, "--sync-ms", "0",
                                          "--checkpoint-ms", "100"};
  cluster_test::ServerProcess& server = spawn_server("idle", flags, false);
  const long loaded = file_size(wal);
  EXPECT_EQ(admitted(server, "k", 3), 3);
  // The first tick after the spends writes k's credit once.
  for (int i = 0; i < 100 && file_size(wal) == loaded; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  const long spent = file_size(wal);
  ASSERT_GT(spent, loaded) << "no check-point wrote the spent credit";
  // Five more ticks with no request: no credit changed, nothing written.
  std::this_thread::sleep_for(std::chrono::milliseconds(500));
  EXPECT_EQ(file_size(wal), spent)
      << "a check-point of unchanged credits wrote the WAL";
  terminate(server);
  EXPECT_EQ(file_size(wal), spent) << "the final check-point wrote the WAL";
  std::remove(wal.c_str());
}

}  // namespace
}  // namespace janus
