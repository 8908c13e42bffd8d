#!/bin/sh
# Build and run the chaos / fault-injection / property suites, the QoS
# server's suites (its worker pool in every execution-model variant), the
# database and admission suites (the chunked write path, the house-keeping
# passes racing decisions), the HTTP tier's suites (its event loops, the
# router's UDP leg, the gateway's upstream pool, the end-to-end stack), the
# datagram socket's suites (the reused receive buffer and batch headers) and
# the metrics suites (striped counters and histograms), under the
# JANUS_SANITIZE presets (see the top-level CMakeLists.txt). The debug
# preset is a Debug build with no sanitizer: it runs the common suite whole,
# so the lock-rank detector's death tests run instead of skipping, and the
# database, admission, server, integration (HA and failover) and chaos (WAL
# recovery) suites under that detector (DESIGN.md §8).
#
# Usage:
#   tools/run_sanitizers.sh                  # address, thread, undefined, debug
#   tools/run_sanitizers.sh thread           # one preset only
#   tools/run_sanitizers.sh --fast           # ASan, chaos+fuzz subset (CTest)
#
# Each preset gets its own build tree (build-san-<preset>/) configured with
# -DJANUS_SANITIZER_CTEST=OFF so the nested build can never recurse into this
# script. Test binaries run directly with gtest filters instead of ctest:
# discovery adds nothing here and the filters keep the fast path fast.
#
# Every suite of every requested preset runs even when an earlier one
# fails; the failed suites are listed at the end.
#
# Exit codes: 0 on success, 1 if any suite failed, 77 if the toolchain lacks
# sanitizer support (CTest's SKIP_RETURN_CODE), anything else is a real
# failure (a doc guard, the purity lint or a build).
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)

mode=full
presets=""
for arg in "$@"; do
  case "$arg" in
    --fast) mode=fast ;;
    address|thread|undefined|debug) presets="$presets $arg" ;;
    *) echo "run_sanitizers: unknown argument '$arg'" >&2; exit 2 ;;
  esac
done
if [ -z "$presets" ]; then
  if [ "$mode" = fast ]; then
    presets="address"
  else
    presets="address thread undefined debug"
  fi
fi

cxx=${CXX:-c++}

# The lock-layer usage guard is pure grep: run it in every mode, before any
# build. Sanitizers find the races these rules prevent; cheaper to refuse
# the raw primitive than to catch the race.
"$repo_root/tools/check_sync_usage.sh" "$repo_root"

# Hot-path doc guard, same spirit: the chaos suites below exercise the
# batched I/O and zero-allocation paths, so refuse to run them against a
# DESIGN.md §9 that no longer matches the code.
"$repo_root/tools/check_hotpath_doc.sh"

# Execution-model doc guard: the chaos suites drive the one server model,
# so the §9.1 description must match the code too.
"$repo_root/tools/check_threading_doc.sh"

# Observability doc guard: the flight-recorder suites below lean on the §10
# event schema and the BENCH_PR6 overhead ceiling; keep them honest first.
"$repo_root/tools/check_observability_doc.sh"

# Cluster doc guard: full mode runs the cluster suite (below), which forks
# janusd processes against the §11 protocol — refuse drifted docs first.
"$repo_root/tools/check_cluster_doc.sh"

# Static-analysis doc guard: §12 must match the analyzer and fixtures.
"$repo_root/tools/check_purity_doc.sh"

# Data-path doc guard: the chaos suites run batched datagram I/O end to
# end, so the §13 datagram-path contract must match the code first.
"$repo_root/tools/check_datapath_doc.sh"

# Load-balancer doc guard: the gateway e2e and chaos suites run
# parameterized over all three routing policies, so the §14 probe/fallback
# contract (and the BENCH_PR10 acceptance floor) must match the code first.
"$repo_root/tools/check_lb_doc.sh"

# Full mode also runs the hot-path purity analyzer itself (plus its fixture
# self-test) up front: it needs only python3, and a purity regression should
# fail fast here rather than surface minutes later via run_static_analysis.
if [ "$mode" = full ]; then
  echo "== purity lint (tools/janus_purity_lint.py) =="
  "$repo_root/tools/janus_purity_lint.py" --engine=auto --check=all \
    --repo "$repo_root"
  "$repo_root/tools/janus_purity_lint.py" --self-test --repo "$repo_root"
fi

# Probe: a toolchain without sanitizer runtimes should skip, not fail.
supports() {
  [ "$1" = debug ] && return 0  # no sanitizer runtime needed
  printf 'int main(){return 0;}\n' \
    | "$cxx" -fsanitize="$1" -x c++ - -o /dev/null >/dev/null 2>&1
}

jobs=$(nproc 2>/dev/null || echo 4)

# "[preset] suite" for every suite that failed, one per line.
failed=""

# Run one suite (label, then the command); a failure is recorded, not fatal.
suite() {
  label=$1
  shift
  if ! "$@"; then
    echo "run_sanitizers: [$preset] $label FAILED" >&2
    failed="$failed  [$preset] $label
"
  fi
}

# The suites, runnable per-binary via gtest filters.
run_suites() {
  bindir=$1
  fast=$2
  suite chaos "$bindir/tests/janus_test_chaos" --gtest_brief=1
  suite fuzz "$bindir/tests/janus_test_wire" --gtest_brief=1 \
    --gtest_filter='CodecFuzzTest.*'
  if [ "$fast" = fast ]; then return 0; fi
  suite common "$bindir/tests/janus_test_common" --gtest_brief=1 \
    --gtest_filter='FaultInjectorTest.*:Counter*:MetricsRegistry*:HistogramMetric*'
  suite db "$bindir/tests/janus_test_db" --gtest_brief=1
  suite core "$bindir/tests/janus_test_core" --gtest_brief=1
  suite router "$bindir/tests/janus_test_router" --gtest_brief=1 \
    --gtest_filter='UdpClientFaultTest.*:RouterNodeTest.*'
  suite server "$bindir/tests/janus_test_server" --gtest_brief=1
  suite net "$bindir/tests/janus_test_net" --gtest_brief=1 \
    --gtest_filter='Http*:AdminServer*:SockAddr*:UdpSocket*'
  suite gateway "$bindir/tests/janus_test_lb" --gtest_brief=1 \
    --gtest_filter='GatewayBalancerTest.*'
  suite integration "$bindir/tests/janus_test_integration" --gtest_brief=1
  # Cluster control plane + process-level chaos rounds, via the dedicated
  # runner (per-process logs + orphaned-janusd detection). Only under ASan:
  # forked children each pay full sanitizer startup, and the BFD/agent races
  # the other presets would catch are covered in-process above.
  if [ "$bindir" = "$repo_root/build-san-address" ]; then
    suite cluster env BUILD_DIR="$bindir" "$repo_root/tools/run_cluster_tests.sh"
  fi
}

# The debug preset's suites: the lock-rank detector is on, so the common
# suite runs whole (SyncMutexDeathTest included), beside the suites whose
# code nests db.commit -> db.table -> db.wal, core.rules_log -> the shard
# locks -> db.wal, and the shard locks: HA, failover and WAL chaos included.
run_debug_suites() {
  bindir=$1
  suite common "$bindir/tests/janus_test_common" --gtest_brief=1
  suite db "$bindir/tests/janus_test_db" --gtest_brief=1
  suite core "$bindir/tests/janus_test_core" --gtest_brief=1
  suite server "$bindir/tests/janus_test_server" --gtest_brief=1
  suite integration "$bindir/tests/janus_test_integration" --gtest_brief=1
  suite chaos "$bindir/tests/janus_test_chaos" --gtest_brief=1
}

ran=0
for preset in $presets; do
  if ! supports "$preset"; then
    echo "run_sanitizers: $cxx does not support -fsanitize=$preset, skipping" >&2
    continue
  fi
  ran=1
  build_dir="$repo_root/build-san-$preset"
  echo "== [$preset] configure + build ($build_dir) =="
  if [ "$preset" = debug ]; then
    cmake -S "$repo_root" -B "$build_dir" \
      -DCMAKE_BUILD_TYPE=Debug \
      -DJANUS_SANITIZE= \
      -DJANUS_SANITIZER_CTEST=OFF >/dev/null
    cmake --build "$build_dir" -j "$jobs" \
      --target janus_test_common janus_test_db janus_test_core \
               janus_test_server janus_test_integration \
               janus_test_chaos >/dev/null
    echo "== [$preset] run the lock-rank detector's suites =="
    run_debug_suites "$build_dir"
    echo "== [$preset] clean =="
    continue
  fi
  cmake -S "$repo_root" -B "$build_dir" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DJANUS_SANITIZE="$preset" \
    -DJANUS_SANITIZER_CTEST=OFF >/dev/null
  if [ "$mode" = fast ]; then
    cmake --build "$build_dir" -j "$jobs" \
      --target janus_test_chaos janus_test_wire >/dev/null
  else
    cmake --build "$build_dir" -j "$jobs" \
      --target janus_test_chaos janus_test_wire janus_test_common \
               janus_test_db janus_test_core janus_test_router \
               janus_test_server \
               janus_test_net janus_test_lb janus_test_integration >/dev/null
  fi

  echo "== [$preset] run chaos / fault / property suites =="
  case "$preset" in
    address)
      ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1:abort_on_error=0}" \
        run_suites "$build_dir" "$mode" ;;
    thread)
      TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}" \
        run_suites "$build_dir" "$mode" ;;
    undefined)
      UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1}" \
        run_suites "$build_dir" "$mode" ;;
  esac
  echo "== [$preset] clean =="
done

if [ "$ran" -eq 0 ]; then
  echo "run_sanitizers: no requested sanitizer is supported by $cxx" >&2
  exit 77
fi

# Full mode also runs the static-analysis gate (Clang thread-safety build +
# clang-tidy); its exit 77 (no clang toolchain) is a skip here, not a failure.
if [ "$mode" = full ]; then
  echo "== static analysis (tools/run_static_analysis.sh) =="
  rc=0
  "$repo_root/tools/run_static_analysis.sh" || rc=$?
  if [ "$rc" -eq 77 ]; then
    echo "run_sanitizers: static analysis skipped (no clang)"
  elif [ "$rc" -ne 0 ]; then
    failed="$failed  static analysis (exit $rc)
"
  fi
fi

if [ -n "$failed" ]; then
  printf 'run_sanitizers: failed:\n%s' "$failed" >&2
  exit 1
fi
echo "run_sanitizers: all requested presets passed"
