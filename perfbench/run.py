#!/usr/bin/env python3
"""End-to-end benchmark of the janusd stack.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds janusd and janus_perfbench from the
checkout's sources into .bench_build/, starts fresh janusd processes on
ephemeral ports, drives the workload with four closed-loop callers, checks
every verdict, and prints one JSON object as the last line of stdout.

--trace 0 reports the end-to-end metrics. --trace 1 runs the workload again
untraced and traced, then the ladder, and reports the per-layer metrics
(see perfbench/README.md). Everything a run writes goes to
.bench_out/<workload>/.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
BUILD = ROOT / ".bench_build"
OUT = ROOT / ".bench_out"
JANUSD = BUILD / "janusd"
PERFBENCH = BUILD / "janus_perfbench"

# janusd's default sync and checkpoint interval. Where the server keeps it,
# every window starts WINDOW_PHASE_S after one of its housekeeping ticks, so
# every run sees the same number of sync/checkpoint passes at the same
# offsets.
HOUSEKEEPING_S = 5.0
WINDOW_PHASE_S = 1.0
RUN_DEADLINE_S = 170  # the harness must exit within 180 s of starting a run
# The routers' per-attempt UDP timeout, kUdpAttemptTimeout in harness.hpp.
ROUTER_TIMEOUT_US = 50_000
CLK_TCK = os.sysconf("SC_CLK_TCK")

# `setups`: set-up is repeated this many times per run and reported as the
# median; the last set-up is the stack that is measured. `wal`: the server
# keeps a write-ahead log, so loading the rules writes it. `housekeeping`:
# the server runs its default 5 s sync and checkpoint passes. On
# server-coldkeys each pass walks a table that grows by ~40k keys/s and
# stalls the workers for 1-2.5 s, a third of a 20 s window, so the passes
# are off there and the ladder times checkpoint_now at the workload's table
# size instead.
WORKLOADS = {
    "stack-uniform": {"stack": True, "wal": False, "housekeeping": True,
                      "setups": 15},
    "server-hotkey": {"stack": False, "wal": False, "housekeeping": True,
                      "setups": 7},
    "server-coldkeys": {"stack": False, "wal": True, "housekeeping": False,
                        "setups": 3},
}

BANNERS = {
    "server": ("janusd: QoS server on ", "janusd: QoS server admin endpoint on "),
    "router": ("janusd: request router on ",
               "janusd: request router admin endpoint on "),
    "gateway": ("janusd: gateway balancer on ",
                "janusd: gateway admin endpoint on "),
}

DATA_PATHS = {0: "auto", 1: "fallback", 2: "mmsg", 3: "uring"}
THREADING = {0: "shared-queue", 1: "shard-per-worker"}


class RunError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def on_deadline(signum, frame):
    raise RunError(f"run exceeded {RUN_DEADLINE_S} s")


# ---- build -------------------------------------------------------------------

def build():
    if not (ROOT / "src" / "CMakeLists.txt").exists():
        raise RunError(f"no Janus sources under {ROOT}")
    if not (BUILD / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(BENCH), "-B", str(BUILD),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs, "--target",
                    "janusd", "janus_perfbench"], check=True, stdout=sys.stderr)


def source_digest():
    """sha256 over the sources the build reads; the checkout has no .git."""
    h = hashlib.sha256()
    files = sorted([*ROOT.joinpath("src").rglob("*"), ROOT / "tools" / "janusd.cpp",
                    *BENCH.rglob("*")])
    for f in files:
        if f.is_file():
            h.update(str(f.relative_to(ROOT)).encode())
            h.update(f.read_bytes())
    return h.hexdigest()


def git_revision():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=5)
        return out.stdout.strip() if out.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        return None


# ---- CPU layout ----------------------------------------------------------------

def cpu_layout(stack):
    """Disjoint CPU sets, the same in every run. On the 4-CPU reference host:
    stack-uniform puts the callers, the gateway, both routers and the server
    on one CPU each; server-* give the callers two CPUs and the server two,
    and the ladder's gateway and routers share the second caller CPU."""
    cpus = sorted(os.sched_getaffinity(0))

    def pick(*idx):
        return sorted({cpus[i % len(cpus)] for i in idx})

    if stack:
        return {"generator": pick(0), "gateway": pick(1), "router": pick(2),
                "server": pick(3), "ladder": pick(0)}
    return {"generator": pick(0, 1), "server": pick(2, 3), "gateway": pick(1),
            "router": pick(1), "ladder": pick(0)}


# ---- processes -----------------------------------------------------------------

class Janusd:
    def __init__(self, role, name, args, cpus, log_path):
        self.role = role
        self.name = name
        self.log_path = log_path
        self.log_file = open(log_path, "w")
        self.proc = subprocess.Popen(
            [str(JANUSD), role, "--listen", "127.0.0.1:0", "--admin",
             "127.0.0.1:0", *args],
            stdout=self.log_file, stderr=subprocess.STDOUT,
            stdin=subprocess.DEVNULL,
            preexec_fn=lambda: os.sched_setaffinity(0, cpus))
        self.pid = self.proc.pid
        self.addr = None
        self.admin = None

    def wait_banners(self, timeout=60):
        data_marker, admin_marker = BANNERS[self.role]
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            text = Path(self.log_path).read_text()
            self.addr = self.addr or banner_addr(text, data_marker)
            self.admin = self.admin or banner_addr(text, admin_marker)
            if self.addr and self.admin:
                return
            if self.proc.poll() is not None:
                raise RunError(f"{self.role} exited early:\n{text}")
            time.sleep(0.002)
        raise RunError(f"{self.role}: no banner within {timeout} s")


def banner_addr(text, marker):
    pos = text.find(marker)
    if pos < 0:
        return None
    rest = text[pos + len(marker):].split(maxsplit=1)
    return rest[0] if rest else None


def stop(procs, timeout=30):
    """SIGTERM and reap; returns the roles that had to be killed."""
    for p in procs:
        if p.proc.poll() is None:
            p.proc.send_signal(signal.SIGTERM)
    survivors = []
    deadline = time.monotonic() + timeout
    for p in procs:
        try:
            p.proc.wait(timeout=max(0.1, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            p.proc.kill()
            p.proc.wait()
            survivors.append(p.role)
        p.log_file.close()
    procs.clear()
    return survivors


def pinned(cpus):
    return lambda: os.sched_setaffinity(0, cpus)


def perfbench(args, cpus):
    subprocess.run([str(PERFBENCH), *args], preexec_fn=pinned(cpus), check=True)


# ---- counters read from outside ---------------------------------------------

def scrape(admin):
    with urllib.request.urlopen(f"http://{admin}/metrics", timeout=10) as r:
        text = r.read().decode()
    out = {}
    for line in text.splitlines():
        if not line or line.startswith("#") or 'le="' in line:
            continue
        name, value = line.rsplit(" ", 1)
        out[name.split("{", 1)[0]] = float(value)
    return out


def cpu_ticks(pid):
    """utime + stime of the process, in clock ticks."""
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return int(fields[11]) + int(fields[12])


def proc_counters(pid):
    ctxsw = 0
    for task in os.listdir(f"/proc/{pid}/task"):
        try:
            with open(f"/proc/{pid}/task/{task}/status") as f:
                for line in f:
                    if "ctxt_switches:" in line:  # voluntary + nonvoluntary
                        ctxsw += int(line.split()[1])
        except FileNotFoundError:
            pass  # thread exited between listdir and open
    hwm_kb = 0
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                hwm_kb = int(line.split()[1])
    return {"cpu_us": cpu_ticks(pid) * 1e6 / CLK_TCK, "ctxsw": ctxsw,
            "hwm_mb": hwm_kb / 1024}


def host_cpu():
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return {"total": sum(fields[:8]), "steal": fields[7]}


def snapshot(procs):
    return {"host": host_cpu(),
            "procs": {p.name: {"metrics": scrape(p.admin),
                               **proc_counters(p.pid)} for p in procs}}


def delta(before, after, name, key):
    a, b = after["procs"][name], before["procs"][name]
    if key in ("cpu_us", "ctxsw"):
        return a[key] - b[key]
    return a["metrics"].get(key, 0.0) - b["metrics"].get(key, 0.0)


def steal_share(before, after):
    total = after["host"]["total"] - before["host"]["total"]
    return (after["host"]["steal"] - before["host"]["steal"]) / total if total else 0.0


# ---- one run -----------------------------------------------------------------

class Run:
    def __init__(self, workload, seed, seconds, trace):
        self.name = workload
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.dir = OUT / workload
        self.layout = cpu_layout(self.spec["stack"])
        self.procs = []
        self.lines = []  # human-readable report, printed before the JSON

    def common(self):
        return ["--workload", self.name, "--seed", str(self.seed % 2**64)]

    def spawn(self, role, args, cpus, name):
        p = Janusd(role, name, args, cpus, self.dir / f"{name}.log")
        self.procs.append(p)
        return p

    def set_up(self, index):
        """Fresh processes, then the first checked verdict through the entry
        point. Returns the seconds that took."""
        t0 = time.monotonic()
        args = ["--rules", str(self.rules)]
        if self.spec["wal"]:
            self.wal = self.dir / f"setup{index}.wal"
            args += ["--wal", str(self.wal)]
        if not self.spec["housekeeping"]:
            args += ["--sync-ms", "0", "--checkpoint-ms", "0"]
        server = self.spawn("server", args, self.layout["server"], "server")
        server.wait_banners()
        self.server = server
        self.server_started = time.monotonic()
        entry = server.addr
        if self.spec["stack"]:
            entry = self.front_end(server.addr, "")
        perfbench(["probe", *self.common(), "--target", entry],
               self.layout["generator"])
        self.entry = entry
        return time.monotonic() - t0

    def front_end(self, server_addr, suffix):
        """Gateway (round-robin) in front of two routers in front of the
        server; returns the gateway's address."""
        routers = [self.spawn("router", ["--backends", server_addr,
                                         "--timeout-us", str(ROUTER_TIMEOUT_US)],
                              self.layout["router"], f"router{i}{suffix}")
                   for i in range(2)]
        for r in routers:
            r.wait_banners()
        self.routers = routers
        gw = self.spawn("gateway",
                        ["--backends", ",".join(r.addr for r in routers)],
                        self.layout["gateway"], f"gateway{suffix}")
        gw.wait_banners()
        self.gateway = gw
        return gw.addr

    def tear_down(self):
        survivors = stop(self.procs)
        if survivors:
            raise RunError(f"janusd outlived SIGTERM: {', '.join(survivors)}")

    def execute(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        os.sched_setaffinity(0, self.layout["generator"])
        run_start = host_cpu()
        self.rules = self.dir / "rules.conf"
        perfbench(["gen", *self.common(), "--rules", str(self.rules)],
               self.layout["generator"])

        setups = []
        for i in range(self.spec["setups"]):
            setups.append(self.set_up(i))
            if i + 1 < self.spec["setups"]:
                self.tear_down()
                if self.spec["wal"]:
                    self.wal.unlink(missing_ok=True)

        statusz = json.loads(urllib.request.urlopen(
            f"http://{self.server.admin}/statusz", timeout=10).read())
        result = self.drive()
        if self.trace:
            self.ladders(result)
        self.tear_down()
        run_end = host_cpu()
        self.rules.unlink(missing_ok=True)
        if self.spec["wal"]:
            self.wal.unlink(missing_ok=True)

        env = self.environment(statusz, result, run_start, run_end)
        return self.report(result, setups, env)

    def drive(self):
        # The traced run splits its time between the untraced and the traced
        # window, so both see a table of the same size.
        untraced = self.seconds / 2 if self.trace else self.seconds
        traced = self.seconds / 2 if self.trace else 0
        cmd = [str(PERFBENCH), "drive", *self.common(), "--target", self.entry,
               "--seconds", str(untraced), "--traced-seconds", str(traced),
               "--spans", str(self.dir / "spans-workload.tsv"),
               "--out", str(self.dir / "drive.json")]
        d = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                             text=True, preexec_fn=pinned(self.layout["generator"]))
        try:
            expect(d, "ready")
            if self.spec["housekeeping"]:
                since = time.monotonic() - self.server_started
                time.sleep((WINDOW_PHASE_S - since) % HOUSEKEEPING_S)
            before = snapshot(self.procs)
            gen_before = proc_counters(d.pid)["cpu_us"]
            cpu_seconds = measure_window(d, untraced, [p.pid for p in self.procs])
            gen_cpu = proc_counters(d.pid)["cpu_us"] - gen_before
            after = snapshot(self.procs)
            if traced:
                traced_cpu = measure_window(d, traced, [p.pid for p in self.procs])
            expect(d, "done")
            if d.wait(timeout=60) != 0:
                raise RunError("drive failed")
        finally:
            if d.poll() is None:
                d.kill()
                d.wait()
        result = json.loads((self.dir / "drive.json").read_text())
        result["window"]["cpu_us_per_second"] = cpu_seconds
        if traced:
            result["traced"]["cpu_us_per_second"] = traced_cpu
        result["counters"] = (before, after)
        result["generator_cpu_share"] = gen_cpu / 1e6 / result["window"]["seconds"]
        return result

    def ladders(self, result):
        """Ladder over gateway -> router -> server. The server-* workloads have
        no front end, so one is started for the ladder, and the lb/router
        counters come from the ladder's calls instead of the workload's."""
        if not self.spec["stack"]:
            self.front_end(self.server.addr, "-ladder")
        tiers = [p for p in self.procs if p.role != "server"]
        before = snapshot(tiers)
        perfbench(["ladder-net", *self.common(), "--gateway", self.gateway.addr,
                "--router", self.routers[0].addr, "--server", self.server.addr,
                "--echo-cpus",
                ",".join(map(str, self.layout["server"])),
                "--spans", str(self.dir / "spans-ladder-net.tsv"),
                "--out", str(self.dir / "ladder-net.json")],
               self.layout["ladder"])
        after = snapshot(tiers)
        result["ladder_net"] = json.loads((self.dir / "ladder-net.json").read_text())
        if not self.spec["stack"]:
            result["front_counters"] = (before, after)
        self.tear_down()
        perfbench(["ladder-local", *self.common(),
                "--table-keys", str(result["table_keys"]),
                "--wal", str(self.dir / "ladder.wal"),
                "--spans", str(self.dir / "spans-ladder-local.tsv"),
                "--out", str(self.dir / "ladder-local.json")],
               self.layout["ladder"])
        result["ladder_local"] = json.loads(
            (self.dir / "ladder-local.json").read_text())

    def environment(self, statusz, result, run_start, run_end):
        before, after = result["counters"]
        server = after["procs"]["server"]["metrics"]
        return {
            "git_revision": git_revision(),
            "source_sha256": source_digest(),
            "build_mode": statusz.get("build", {}).get("mode"),
            "nproc": os.cpu_count(),
            "kernel": os.uname().release,
            "server_data_path": DATA_PATHS.get(
                int(server.get("janus_server_data_path", -1)), "unknown"),
            "server_threading_mode": THREADING.get(
                int(server.get("janus_server_threading_mode", -1)), "unknown"),
            "cpu_layout": self.layout,
            "steal_share_run": steal_share({"host": run_start}, {"host": run_end}),
            "steal_share_window": steal_share(before, after),
            "generator_cpu_share": result["generator_cpu_share"],
        }

    # ---- metrics -----------------------------------------------------------

    def report(self, r, setups, env):
        win = r["window"]
        verdicts = win["true"] + win["false"]
        failed = win["default"] + win["error"] + win["unknown"]
        before, after = r["counters"]
        janusd = list(after["procs"])
        cpu_us = sum(delta(before, after, n, "cpu_us") for n in janusd)
        thr, p50, p90, cpu = undisturbed(win)
        e2e = {
            "setup_s": (statistics.median(setups), "s"),
            "throughput_rps": (thr, "1/s"),
            "p50_us": (p50, "us"),
            "p90_us": (p90, "us"),
            "cpu_us_per_decision": (cpu, "us"),
            "rss_mb": (sum(after["procs"][n]["hwm_mb"] for n in janusd), "MiB"),
        }
        if not all(math.isfinite(v) for v, _ in e2e.values()):
            raise RunError(f"a metric is not finite: {e2e}")
        slots = f"{len(win['slot_verdicts'])} slots of {win['slot_seconds']} s"
        self.say("setup_s", *e2e["setup_s"],
                 "median of " + ", ".join(f"{s:.3f}" for s in setups))
        self.say("throughput_rps", *e2e["throughput_rps"],
                 f"upper quartile of {slots}; {verdicts} verdicts / "
                 f"{win['seconds']:.3f} s overall")
        self.say("p50_us", *e2e["p50_us"],
                 f"lower quartile of {slots}; {win['p50_us']:.3f} over all "
                 f"{win['attempted']} requests")
        self.say("p90_us", *e2e["p90_us"],
                 f"lower quartile of {slots}; {win['p90_us']:.3f} over all "
                 f"{win['attempted']} requests")
        self.say("failed_ratio", ratio(failed, win["attempted"]), "ratio",
                 f"{failed} failed ({win['default']} default, {win['error']} "
                 f"error, {win['unknown']} unknown) / {win['attempted']} attempted")
        self.say("cpu_us_per_decision", *e2e["cpu_us_per_decision"],
                 f"lower quartile of {len(win['cpu_us_per_second'])} seconds; "
                 f"{ratio(cpu_us, verdicts):.3f} overall = {cpu_us:.0f} us CPU of "
                 f"{len(janusd)} janusd / {verdicts} decisions")
        self.say("rss_mb", *e2e["rss_mb"], f"VmHWM summed over {len(janusd)} janusd")
        metrics = e2e
        if self.trace:
            metrics = self.per_layer(r)
        check = r["check"]
        correct = bool(check["ok"] and check["planted_caught"])
        self.lines.append(
            f"check: ok={check['ok']} planted_over_admit_caught="
            f"{check['planted_caught']} keys_checked={check['keys_checked']} "
            f"over_admitted={check['over_admitted']} "
            f"unexpected_false={check['unexpected_false']}")
        self.lines.append("env: " + json.dumps(env, sort_keys=True))
        (self.dir / "run.json").write_text(json.dumps(
            {"workload": self.name, "seed": self.seed, "seconds": self.seconds,
             "trace": self.trace, "env": env,
             "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
             "report": self.lines, "drive": {k: v for k, v in r.items()
                                             if k not in ("counters", "front_counters")}},
            indent=1, default=str))
        return {"correct": correct, "attempted": win["attempted"], "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}

    def say(self, name, value, unit, base):
        self.lines.append(f"{self.name} {name} = {value:.6g} {unit}  ({base})")

    def per_layer(self, r):
        win, traced = r["window"], r["traced"]
        before, after = r["counters"]
        front_before, front_after = r.get("front_counters", (before, after))
        rungs = r["ladder_net"]["rungs"]
        local = r["ladder_local"]
        m = {}

        def put(name, value, unit, base):
            m[name] = (value, unit)
            self.say(name, value, unit, base)

        def d(name, key, pair=(before, after)):
            return delta(pair[0], pair[1], name, key)

        front = (front_before, front_after)
        routers = [n for n in front_after["procs"] if n.startswith("router")]
        gw = next(n for n in front_after["procs"] if n.startswith("gateway"))
        gw_req = d(gw, "janus_gateway_requests", front)
        per_router = [d(n, "janus_router_requests", front) for n in routers]
        r_req = sum(per_router)
        where = "workload window" if self.spec["stack"] else "ladder calls"
        # The skew is the gateway's split; on the ladder, router0 also took
        # the router rung's direct calls.
        forwarded = list(per_router)
        if not self.spec["stack"]:
            forwarded[0] -= rungs["router"]["sent"]

        g, rt, u, fl = (rungs[k]["p50_us"] for k in ("gateway", "router", "udp", "floor"))
        put("ladder.gateway_p50_us", g, "us", f"{rungs['gateway']['calls']} calls")
        put("ladder.router_p50_us", rt, "us", f"{rungs['router']['calls']} calls")
        put("ladder.udp_p50_us", u, "us", f"{rungs['udp']['calls']} calls")
        put("lb.self_p50_us", g - rt, "us", "gateway rung - router rung")
        put("lb.cpu_us_per_req", ratio(d(gw, "cpu_us", front), gw_req), "us",
            f"{d(gw, 'cpu_us', front):.0f} us / {gw_req:.0f} requests, {where}")
        mean = sum(forwarded) / len(forwarded) if forwarded else 0
        put("lb.backend_skew", ratio(max(forwarded), mean), "ratio",
            f"gateway-forwarded router.requests {forwarded}, {where}")
        errs = d(gw, "janus_gateway_backend_errors", front)
        put("lb.backend_error_ratio", ratio(errs, gw_req), "ratio",
            f"{errs:.0f} / {gw_req:.0f} requests, {where}")

        r_cpu = sum(d(n, "cpu_us", front) for n in routers)
        r_ctx = sum(d(n, "ctxsw", front) for n in routers)
        retries = sum(d(n, "janus_router_udp_retries", front) for n in routers)
        defaults = sum(d(n, "janus_router_default_replies", front) for n in routers)
        rtt_sum = sum(d(n, "janus_router_udp_rtt_us_sum", front) for n in routers)
        rtt_n = sum(d(n, "janus_router_udp_rtt_us_count", front) for n in routers)
        put("router.self_p50_us", rt - u, "us", "router rung - udp rung")
        put("router.cpu_us_per_req", ratio(r_cpu, r_req), "us",
            f"{r_cpu:.0f} us / {r_req:.0f} requests, {where}")
        put("router.ctxsw_per_req", ratio(r_ctx, r_req), "count",
            f"{r_ctx:.0f} switches / {r_req:.0f} requests, {where}")
        put("router.retry_ratio", ratio(retries, r_req), "ratio",
            f"{retries:.0f} udp_retries / {r_req:.0f} requests, {where}")
        put("router.default_ratio", ratio(defaults, r_req), "ratio",
            f"{defaults:.0f} default_replies / {r_req:.0f} requests, {where}")
        put("router.udp_rtt_mean_us", ratio(rtt_sum, rtt_n), "us",
            f"udp_rtt_us sum {rtt_sum:.0f} / count {rtt_n:.0f}, {where}")

        recv = d("server", "janus_server_received")
        distinct = (sum(d(n, "janus_router_requests") for n in routers)
                    if self.spec["stack"] else win["attempted"])
        drops = d("server", "janus_server_fifo_dropped") + sum(
            d("server", k) for k in after["procs"]["server"]["metrics"]
            if k.startswith("janus_server_worker_queue_reject_w"))
        put("server.self_p50_us", u - fl, "us", "udp rung - floor rung")
        put("server.cpu_us_per_req", ratio(d("server", "cpu_us"), recv), "us",
            f"{d('server', 'cpu_us'):.0f} us / {recv:.0f} received")
        put("server.ctxsw_per_req", ratio(d("server", "ctxsw"), recv), "count",
            f"{d('server', 'ctxsw'):.0f} switches / {recv:.0f} received")
        put("server.dup_ratio", ratio(recv - distinct, distinct), "ratio",
            f"({recv:.0f} received - {distinct:.0f} distinct) / {distinct:.0f}")
        put("server.drop_ratio", ratio(drops, recv), "ratio",
            f"{drops:.0f} dropped / {recv:.0f} received")
        for short, hist, unit in (("recv_batch_mean", "recv_batch", "count"),
                                  ("send_batch_mean", "send_batch", "count"),
                                  ("queue_wait_mean_us", "queue_wait_us", "us"),
                                  ("service_mean_us", "service_us", "us")):
            s = d("server", f"janus_server_{hist}_sum")
            n = d("server", f"janus_server_{hist}_count")
            put(f"server.{short}", ratio(s, n), unit, f"sum {s:.0f} / count {n:.0f}")

        verdicts = win["true"] + win["false"]
        put("core.check_warm_ns", local["core"]["check_warm_ns"], "ns",
            f"{local['core']['distinct_keys']} keys")
        put("core.check_cold_ns", local["core"]["check_cold_ns"], "ns",
            f"{local['core']['distinct_keys']} first touches")
        put("core.first_touch_ratio", ratio(win["first_touch"], win["attempted"]),
            "ratio", f"{win['first_touch']} / {win['attempted']} requests")
        put("core.admit_ratio", ratio(win["true"], verdicts), "ratio",
            f"{win['true']} TRUE / {verdicts} verdicts")
        put("wire.codec_ns", local["wire"]["codec_ns"], "ns",
            "encode+decode of one request and one response")
        put("db.fetch_ns", local["db"]["fetch_ns"], "ns",
            f"RuleStore::get over {local['db']['rules']} rules")
        put("db.load_rules_per_s", local["db"]["load_rules_per_s"], "1/s",
            f"{local['db']['rules']} RuleStore::put")
        cp = local["checkpoint"]
        put("db.checkpoint_ms", cp["ms"], "ms",
            f"checkpoint_now of {cp['written']} entries, WAL-backed")
        put("db.checkpoint_wal_bytes_per_key", ratio(cp["wal_bytes"], cp["written"]),
            "B", f"{cp['wal_bytes']} WAL bytes / {cp['written']} entries checkpointed")
        put("net.udp_floor_p50_us", fl, "us", f"{rungs['floor']['calls']} echoes")
        put("workload.p99_us", win["p99_us"], "us", f"of {win['attempted']} requests")
        failed = win["default"] + win["error"] + win["unknown"]
        put("workload.failed_ratio", ratio(failed, win["attempted"]), "ratio",
            f"{failed} / {win['attempted']} attempted")
        thr, p50, _, _ = undisturbed(win)
        thr_t, p50_t, _, _ = undisturbed(traced)
        put("trace.p50_ratio", ratio(p50_t, p50), "ratio",
            f"traced {p50_t:.2f} us / untraced {p50:.2f} us")
        put("trace.throughput_ratio", ratio(thr_t, thr), "ratio",
            f"traced {thr_t:.0f} / untraced {thr:.0f} rps")
        return m


def measure_window(proc, seconds, pids):
    """Runs one window of the load generator. Reads the CPU time of `pids` at
    every whole second of it and returns the microseconds used per second."""
    go(proc)
    start = time.monotonic()
    samples = [sum(cpu_ticks(p) for p in pids)]
    for k in range(1, max(1, math.floor(seconds)) + 1):
        time.sleep(max(0.0, start + k - time.monotonic()))
        samples.append(sum(cpu_ticks(p) for p in pids))
    expect(proc, "measured")
    return [(b - a) * 1e6 / CLK_TCK for a, b in zip(samples, samples[1:])]


def quartile(values, upper):
    """The upper or lower quartile of `values`."""
    if len(values) < 2:
        return values[0]
    q = statistics.quantiles(values, n=4)
    return q[2] if upper else q[0]


def undisturbed(win):
    """Throughput, p50, p90 and CPU per decision of the window's undisturbed
    slots. On a shared host other guests only ever slow a slot down (stolen
    CPU time, a busy sibling hyperthread), so the better quartile of the
    slots estimates the program, while a change that slows every request
    moves it as much as it moves the mean."""
    n = len(win["slot_verdicts"])
    slot = win["slot_seconds"]
    durations = [slot] * (n - 1) + [win["seconds"] - slot * (n - 1)]
    inf = float("inf")
    rates = [v / d for v, d in zip(win["slot_verdicts"], durations)]
    p50 = [inf if v is None else v for v in win["slot_p50_us"]]
    p90 = [inf if v is None else v for v in win["slot_p90_us"]]
    # CPU per decision per whole second: the slots of that second.
    per = round(1 / slot)
    cpu = [c / v for k, c in enumerate(win["cpu_us_per_second"])
           if (v := sum(win["slot_verdicts"][k * per:(k + 1) * per]))]
    return (quartile(rates, True), quartile(p50, False), quartile(p90, False),
            quartile(cpu, False) if cpu else inf)


def ratio(num, den):
    return num / den if den else 0.0


def expect(proc, word):
    line = proc.stdout.readline().strip()
    if line != word:
        raise RunError(f"janus_perfbench said {line!r}, expected {word!r}")


def go(proc):
    proc.stdin.write("go\n")
    proc.stdin.flush()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    run = None
    try:
        build()
        signal.signal(signal.SIGALRM, on_deadline)
        signal.alarm(RUN_DEADLINE_S)
        run = Run(args.workload, args.seed, args.seconds, args.trace)
        result = run.execute()
        signal.alarm(0)
    except (RunError, subprocess.CalledProcessError, OSError, ValueError,
            KeyError) as e:
        signal.alarm(0)
        if run is not None:
            stop(run.procs, timeout=10)
        log(f"perfbench: {e}")
        return 1
    for line in run.lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
