#!/usr/bin/env python3
"""End-to-end benchmark of the SPIDER reproduction.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 e2ebench/run.py --write-pins

Run from the repository root. The first run builds spider_cli, spiderd and
the benchmark's own generator and traced replay into .bench_build (Release);
scratch data goes to .bench_work. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones, measured with no tracing; with --trace 1
they are the per-layer ones from the traced replay (e2e_trace) and the
daemon client's per-request spans. See e2ebench/README.md.
"""

import argparse
import hashlib
import http.client
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import oracle  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
WORK = os.path.join(ROOT, ".bench_work")
CLI = os.path.join(BUILD, "spider", "tools", "spider_cli")
DAEMON = os.path.join(BUILD, "spider", "tools", "spiderd")
GEN = os.path.join(BUILD, "e2e_gen")
TRACE = os.path.join(BUILD, "e2e_trace")
PEAK_RSS = os.path.join(BUILD, "e2e_peak_rss")
PINS = os.path.join(HERE, "pins.json")

# Inputs repeat every PIN_SEEDS seeds, so every dump a run can generate is
# pinned in pins.json.
PIN_SEEDS = 16

# Each workload: the dumps it generates (shape, entries, category tables;
# the CLI steps profile the first, the daemon serves those from index
# daemon_from on, default 0), the CLI thread count, how often each
# repeatable profile step runs per CLI round (steps much shorter than a
# second run several times), the CLI rounds and daemon job rounds per
# second of --seconds, and the daemon phase: workspaces served, session
# cache size and one round of the job mix (kind: jobs per round). With
# daemon_setup, the set-up also starts spiderd and the run checks one
# daemon report per kind against the CLI's (parity). Counts are fixed for
# a given --seconds (spiderd keeps every finished job, so its memory grows
# with the job count); at --seconds 10 a run lasts 35-60 s on the
# reference host. daemon-mixed's CLI steps profile the pdb-tall-narrow
# dump: over one of its 0.9 MB daemon dumps, host phases moved the
# write-heavy steps' medians by up to 2x.
WORKLOADS = {
    "pdb-paper-wide": {
        "dumps": [("paper-wide", 120, 20)],
        "threads": 1,
        "repeats": {"warm": 1, "nary": 1, "ucc": 2, "fd": 1},
        "cli_rounds_per_s": 0.5,
        "job_rounds_per_s": 1.0,
        "daemon_workspaces": 2,
        "max_sessions": 2,
        "mix": {"fd": 15},
        "daemon_setup": False,
    },
    "pdb-tall-narrow": {
        "dumps": [("tall-narrow", 1000, 0)],
        "threads": 2,
        "repeats": {"warm": 6, "nary": 4, "ucc": 4, "fd": 1},
        "cli_rounds_per_s": 0.7,
        "job_rounds_per_s": 2.4,
        "daemon_workspaces": 2,
        "max_sessions": 2,
        "mix": {"warm": 12, "nary": 4, "ucc": 4},
        "daemon_setup": False,
    },
    "daemon-mixed": {
        "dumps": [("tall-narrow", 1000, 0)] + [("tall-narrow", 120, 0)] * 4,
        "daemon_from": 1,
        "threads": 2,
        "repeats": {"warm": 10, "nary": 6, "ucc": 4, "fd": 1},
        "cli_rounds_per_s": 0.5,
        "job_rounds_per_s": 1.0,
        "daemon_workspaces": 4,
        "max_sessions": 2,
        "mix": {"warm": 12, "nocache": 2, "nary": 2, "ucc": 1, "fd": 2, "append": 1},
        "daemon_setup": True,
    },
}

# A run repeats whole CLI rounds (set-up, then every profile step), at
# least MIN_ROUNDS of them.
MIN_ROUNDS = 3
# job_tail_ms is this percentile of the daemon's measured job latencies. A
# run measures 300-840 jobs, so 30 or more lie beyond it; a run must see at
# least MIN_JOBS so ten or more do. Resampling one run's 280 daemon-mixed
# latencies moves the 95th percentile by 37-47% (quartile spread) and the
# 90th by 4-5%.
TAIL_PERCENTILE = 90
MIN_JOBS = 100
DAEMON_CLIENTS = 2
# Two job workers, the event loop and the client process: the load never
# has more busy threads than a 4-core host has cores.
DAEMON_WORKERS = 2


class BenchError(Exception):
    pass


T0 = time.perf_counter()


def log(msg):
    print("[e2ebench %6.1fs] %s" % (time.perf_counter() - T0, msg), file=sys.stderr,
          flush=True)


# ---- build and inputs ---------------------------------------------------------

def build():
    if not os.path.exists(os.path.join(HERE, "CMakeLists.txt")) or \
            not os.path.exists(os.path.join(ROOT, "src")):
        raise BenchError("run from the repository root (src/ and e2ebench/ needed)")
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target", "spider_cli",
                    "spiderd", "e2e_gen", "e2e_trace", "e2e_peak_rss"], check=True, stdout=sys.stderr)


def generate(shape, entries, category_tables, seed, out):
    shutil.rmtree(out, ignore_errors=True)
    cmd = [GEN, "--out=" + out, "--seed=%d" % seed, "--shape=" + shape,
           "--entries=%d" % entries]
    if category_tables:
        cmd.append("--category-tables=%d" % category_tables)
    subprocess.run(cmd, check=True)


def dump_pin(dirs):
    """Tables, attributes, rows, bytes and content hash of the dump(s)."""
    digest = hashlib.sha256()
    pin = {"tables": 0, "attributes": 0, "rows": 0, "bytes": 0}
    for d in dirs:
        for name in sorted(os.listdir(d)):
            with open(os.path.join(d, name), "rb") as f:
                data = f.read()
            digest.update(name.encode() + b"\0" + data)
            lines = data.count(b"\n")
            pin["tables"] += 1
            pin["attributes"] += data.split(b"\n", 1)[0].count(b",") + 1
            pin["rows"] += lines - 2
            pin["bytes"] += len(data)
    pin["sha256"] = digest.hexdigest()
    return pin


def dataset_seed(workload_seed, index):
    return (workload_seed % PIN_SEEDS) * 8 + index


def make_inputs(workload, seed, base):
    dirs = []
    for i, (shape, entries, tables) in enumerate(WORKLOADS[workload]["dumps"]):
        out = os.path.join(base, "csv%d" % i, "db%d" % i)
        generate(shape, entries, tables, dataset_seed(seed, i), out)
        dirs.append(out)
    return dirs


def write_pins():
    build()
    pins = {}
    for workload in WORKLOADS:
        pins[workload] = {}
        for s in range(PIN_SEEDS):
            dirs = make_inputs(workload, s, os.path.join(WORK, "pins"))
            pins[workload][str(s)] = dump_pin(dirs)
            log("pinned %s seed %d: %s" % (workload, s, pins[workload][str(s)]))
    shutil.rmtree(os.path.join(WORK, "pins"), ignore_errors=True)
    with open(PINS, "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")


def check_pin(workload, seed, dirs):
    with open(PINS) as f:
        pins = json.load(f)
    want = pins[workload][str(seed % PIN_SEEDS)]
    got = dump_pin(dirs)
    if got != want:
        raise BenchError("generated dump differs from pins.json for %s seed %d: "
                         "%s != %s (regenerate with --write-pins after a deliberate "
                         "change to src/datagen)" % (workload, seed, got, want))
    return got


def make_delta(tables, rng, out, rows=20):
    """A seeded delta dump: `rows` copies of existing rows of one table, with
    integer id columns continued past their maximum."""
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    names = sorted(t for t in tables if tables[t].row_count)
    table = tables[rng.choice(names)]
    bump = [i for i, (c, t) in enumerate(zip(table.columns, table.types))
            if t == "integer" and c in ("id", "entry_key")]
    top = {i: max(map(int, table.column_values(i))) for i in bump}
    lines = [",".join(table.columns), "#types:" + ",".join(table.types)]
    for k in range(rows):
        pick = rng.randrange(table.row_count)
        row = [column[pick] for column in table.data]
        for i in bump:
            row[i] = str(top[i] + 1 + k)
        lines.append(",".join(csv_field(v) for v in row))
    with open(os.path.join(out, table.name + ".csv"), "w") as f:
        f.write("\n".join(lines) + "\n")


def csv_field(v):
    if v is None:
        return ""
    if any(c in v for c in ',"\n\r'):
        return '"' + v.replace('"', '""') + '"'
    return v


# ---- timed processes --------------------------------------------------------

def run_timed(cmd, out_path=None):
    """Runs `cmd` through e2e_peak_rss; returns (seconds, stdout text, peak
    RSS MiB of `cmd` itself)."""
    out_path = out_path or os.path.join(WORK, "stdout.txt")
    rss_path = os.path.join(WORK, "peak_rss.txt")
    with open(out_path, "w") as out:
        start = time.perf_counter()
        proc = subprocess.Popen([PEAK_RSS, rss_path] + cmd, stdout=out,
                                stderr=subprocess.PIPE)
        _, err = proc.communicate()
        seconds = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError("%s failed (%d): %s" % (" ".join(cmd), proc.returncode,
                                                 err.decode(errors="replace")))
    with open(out_path) as f:
        text = f.read()
    with open(rss_path) as f:
        return seconds, text, int(f.read()) / 1024.0


def dir_bytes(path, suffixes=None):
    total = 0
    for name in os.listdir(path):
        full = os.path.join(path, name)
        if os.path.isfile(full) and (suffixes is None or name.endswith(suffixes)):
            total += os.path.getsize(full)
    return total


def copy_dir(src, dst):
    shutil.rmtree(dst, ignore_errors=True)
    shutil.copytree(src, dst)


class Counter:
    def __init__(self):
        self.attempted = 0
        self.failed = 0


# ---- CLI rounds -------------------------------------------------------------

def profile_cmd(ws, threads, *extra):
    return [CLI, "profile", ws, "--json", "--threads=%d" % threads] + list(extra)


class CliRounds:
    """Rounds of: set-up; cold, warm, n-ary, UCC and FD profiles; append and
    profile. Every step runs in place on the round's fresh workspace, in the
    order a user would take them. Each metric is the median of its samples
    over all rounds."""

    def __init__(self, spec, dirs, tables, seed, base, ops):
        self.spec, self.dirs, self.tables, self.base, self.ops = spec, dirs, tables, base, ops
        self.csv_bytes = dir_bytes(dirs[0], ".csv")
        self.delta = os.path.join(base, "delta", "db")
        make_delta(tables, random.Random(seed), self.delta)
        self.appended = oracle.copy_dump(tables)
        oracle.append_rows(self.appended, self.delta)
        self.expected = oracle.unary_inds(tables)
        self.expected_appended = oracle.unary_inds(self.appended)
        self.samples = {}
        self.rss = []
        self.first = {}
        self.rounds = 0
        self.stored_ratio = None

    def profile(self, kind, ws, *extra):
        self.ops.attempted += 1
        seconds, text, peak = run_timed(profile_cmd(ws, self.spec["threads"], *extra))
        self.rss.append(peak)
        self.samples.setdefault(kind, []).append(seconds)
        report = json.loads(text)
        if kind in self.first:
            # The oracle checks the first round's report of each kind; every
            # later round's report over the same data must list the same
            # results.
            if {k: report.get(k) for k in RESULT_KEYS} != \
                    {k: self.first[kind].get(k) for k in RESULT_KEYS}:
                raise oracle.CheckError("%s profile: round %d's results differ from "
                                        "round 0's" % (kind, self.rounds))
        else:
            self.first[kind] = report
        return seconds, report

    def round(self):
        round_dir = os.path.join(self.base, "round%d" % self.rounds)
        ws = setup(self.spec, self.dirs, round_dir, self.ops, self.samples)
        _, cold = self.profile("cold", ws, "--approach=spider-merge")
        oracle.check_unary(cold, self.tables, "cold profile", self.expected)
        if self.stored_ratio is None:
            self.stored_ratio = dir_bytes(ws, (".col", ".set", ".manifest")) / self.csv_bytes
        repeats = self.spec["repeats"]
        for _ in range(repeats["warm"]):
            _, warm = self.profile("warm", ws, "--approach=spider-merge")
            oracle.check_warm(warm, "warm profile")
            if oracle.reported_unary(warm) != self.expected:
                raise oracle.CheckError("warm profile: INDs differ from the oracle")
        for kind, flag in (("nary", "--approach=nary"), ("ucc", "--kind=ucc"),
                           ("fd", "--kind=fd")):
            for _ in range(repeats[kind]):
                self.profile(kind, ws, flag)
        self.ops.attempted += 1
        append_s = run_timed([CLI, "import", self.delta, "--workspace=" + ws, "--append"])[0]
        profile_s, report = self.profile("append", ws, "--approach=spider-merge")
        self.samples["append"][-1] = append_s + profile_s
        oracle.check_unary(report, self.appended, "profile after append",
                           self.expected_appended)
        if report["candidates_revalidated"] <= 0:
            raise oracle.CheckError("append: nothing was revalidated")
        self.rounds += 1

    def finish(self, metrics):
        oracle.check_nary(self.first["nary"], self.tables, "n-ary profile")
        oracle.check_unary(self.first["nary"], self.tables, "n-ary profile (unary base)",
                           self.expected)
        sql = oracle.Sql(self.tables)
        oracle.check_uccs(self.first["ucc"], sql, "ucc profile")
        oracle.check_fds(self.first["fd"], sql, "fd profile")
        for kind in ("cold", "warm", "nary", "ucc", "fd", "append"):
            metrics[kind + "_profile_s"] = statistics.median(self.samples[kind])
        metrics["setup_s"] = statistics.median(self.samples["setup"])
        metrics["peak_rss_mib"] = max(self.rss)
        metrics["stored_bytes_per_input_byte"] = self.stored_ratio


def setup(spec, dirs, round_dir, ops, samples):
    """The workload's set-up into a fresh directory: import of every dump
    (and, for daemon-mixed, spiderd's start until /healthz answers).
    Returns the first dump's workspace."""
    start = time.perf_counter()
    for i, d in enumerate(dirs):
        ops.attempted += 1
        run_timed([CLI, "import", d, "--workspace=" + os.path.join(round_dir, "w%d" % i),
                   "--backend=disk"])
    daemon = Daemon(round_dir, spec["max_sessions"]) if spec["daemon_setup"] else None
    samples.setdefault("setup", []).append(time.perf_counter() - start)
    if daemon:
        daemon.stop()
    return os.path.join(round_dir, "w0")


# ---- daemon phase ------------------------------------------------------------

class Daemon:
    def __init__(self, root, max_sessions):
        # One file per daemon: the set-up's daemons start while the loop's
        # daemon is running.
        self.err_path = root + ".spiderd.err"
        self.err = open(self.err_path, "w")
        self.proc = subprocess.Popen(
            [DAEMON, "--root=" + root, "--port=0", "--threads=%d" % DAEMON_WORKERS,
             "--max-sessions=%d" % max_sessions], stdout=subprocess.DEVNULL,
            stderr=self.err)
        try:
            self._wait_ready()
        except BaseException:
            self.stop()
            raise

    def _wait_ready(self):
        self.port = None
        deadline = time.time() + 30
        while self.port is None:
            if time.time() > deadline or self.proc.poll() is not None:
                raise BenchError("spiderd did not start")
            with open(self.err_path) as f:
                for line in f:
                    # spiderd writes the line in several pieces: read only
                    # a whole one, or the port may be cut short.
                    if line.startswith("spiderd serving") and line.endswith("\n"):
                        self.port = int(line.rsplit(":", 1)[1])
            time.sleep(0.002)
        while True:
            probe = Client(self.port)
            try:
                if probe.request("GET", "/healthz")[0] == 200:
                    break
            except OSError:
                pass
            finally:
                probe.conn.close()
            if time.time() > deadline:
                raise BenchError("spiderd /healthz never answered")
            time.sleep(0.002)

    def rss_mib(self, field="VmRSS"):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith(field + ":"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no %s for spiderd" % field)

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.err.close()


class Client:
    """One keep-alive HTTP connection; records round-trip times."""

    def __init__(self, port):
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)
        self.rtt = {"submit": [], "status": [], "report": []}

    def request(self, method, path, body=None, kind=None):
        start = time.perf_counter()
        self.conn.request(method, path, body=None if body is None else json.dumps(body),
                          headers={"Content-Type": "application/json"})
        response = self.conn.getresponse()
        data = response.read()
        if kind:
            self.rtt[kind].append((time.perf_counter() - start) * 1000)
        return response.status, data

    def run_job(self, body):
        """POST, poll to a terminal state, fetch the report. Returns
        (latency ms, state, report JSON text or None). The caller parses the
        report after the loop: a client parsing a large report would hold
        the interpreter lock while the other client measures a latency."""
        start = time.perf_counter()
        status, data = self.request("POST", "/jobs", body, "submit")
        if status != 202:
            return (time.perf_counter() - start) * 1000, "rejected", None
        job = json.loads(data)["id"]
        while True:
            status, data = self.request("GET", "/jobs/%d" % job, kind="status")
            state = json.loads(data)["state"]
            if state in ("finished", "failed", "cancelled"):
                break
            time.sleep(0.001)
        latency = (time.perf_counter() - start) * 1000
        status, data = self.request("GET", "/jobs/%d/report" % job, kind="report")
        return latency, state, data if status == 200 else None


JOB_BODIES = {
    "warm": {"approach": "spider-merge", "threads": 1},
    "nocache": {"approach": "spider-merge", "threads": 1, "profile-cache": False},
    "nary": {"approach": "nary", "threads": 1},
    "ucc": {"kind": "ucc", "threads": 1},
    "fd": {"kind": "fd", "threads": 1},
}


def start_daemon(spec, dirs, root, ops):
    """Imports the dumps under the daemon root (the first dump again for
    every further workspace, as hard links: only appends write to a
    workspace's column files) and starts spiderd."""
    for i in range(spec["daemon_workspaces"]):
        ws = os.path.join(root, "w%d" % i)
        if i < len(dirs):
            ops.attempted += 1
            run_timed([CLI, "import", dirs[i], "--workspace=" + ws, "--backend=disk"])
        else:
            if "append" in spec["mix"]:
                raise BenchError("appends need a workspace of their own per dump")
            shutil.copytree(os.path.join(root, "w0"), ws, copy_function=os.link)
    return Daemon(root, spec["max_sessions"])


def in_parallel(fn, n):
    """Runs fn(i, errors) for i in 0..n-1 on n threads; re-raises the first
    error a thread appended to `errors`."""
    errors = []
    threads = [threading.Thread(target=fn, args=(i, errors)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]


class DaemonLoop:
    """The closed loop against one spiderd: DAEMON_CLIENTS keep-alive
    clients in this process, each owning a disjoint share of the workspaces
    and running whole rounds of the job mix in a seeded order, against
    DAEMON_WORKERS job workers."""

    def __init__(self, spec, dirs, dumps, seed, base, ops):
        self.spec, self.base, self.ops = spec, base, ops
        self.root = os.path.join(base, "daemon")
        self.daemon = start_daemon(spec, dirs, self.root, ops)
        self.workspaces = range(spec["daemon_workspaces"])
        self.imported = len(dumps)
        self.versions = [[oracle.copy_dump(dumps[i] if i < len(dumps) else dumps[0])]
                         for i in self.workspaces]
        self.round_kinds = [k for k in sorted(spec["mix"]) for _ in range(spec["mix"][k])]
        self.rngs = [random.Random(seed * 1000 + c) for c in range(DAEMON_CLIENTS)]
        self.clients = [Client(self.daemon.port) for _ in range(DAEMON_CLIENTS)]
        self.appends = 0
        self.results = []  # (client, workspace, version, kind, latency, state, report)
        self.seconds = 0.0
        try:
            self.warm_up()
            # One whole round of the mix per client, also unmeasured, so
            # spiderd's heap and session cache are in the state the loop
            # keeps them in: the first jobs after start-up run up to 3x
            # slower and would otherwise make up much of the tail.
            self.run(1)
        except BaseException:
            self.stop()
            raise
        self.measured_from = len(self.results)
        self.seconds = 0.0
        for c in self.clients:
            c.rtt = {kind: [] for kind in c.rtt}
        self.rss_start = self.daemon.rss_mib()

    def warm_up(self):
        """Untimed: one job of each profiling kind of the mix per workspace,
        so the loop's jobs find their sets extracted and the daemon's own
        profile sealed."""
        self.warmups = []
        kinds = sorted(set(self.spec["mix"]) & {"warm", "nary", "ucc", "fd"})

        def warm(c, errors):
            try:
                for w in self.workspaces:
                    if w % DAEMON_CLIENTS != c:
                        continue
                    for kind in kinds:
                        _, state, report = self.clients[c].run_job(
                            dict(JOB_BODIES[kind], workspace="w%d" % w))
                        if state != "finished":
                            raise BenchError("warm-up %s job failed on w%d" % (kind, w))
                        self.warmups.append((None, w, 0, kind, 0, state, json.loads(report)))
            except Exception as e:  # noqa: BLE001 - re-raised below
                errors.append(e)

        self.ops.attempted += len(self.workspaces) * len(kinds)
        in_parallel(warm, DAEMON_CLIENTS)

    def job_body(self, c, w, kind):
        if kind != "append":
            return dict(JOB_BODIES[kind], workspace="w%d" % w), None
        self.appends += 1
        delta = os.path.join(self.base, "deltas", "c%d_%d" % (c, self.appends), "db")
        make_delta(self.versions[w][-1], self.rngs[c], delta, rows=5)
        return {"op": "import", "workspace": "w%d" % w,
                "source": os.path.abspath(delta), "append": True}, delta

    def client_rounds(self, c, rounds, errors):
        try:
            mine = [w for w in self.workspaces if w % DAEMON_CLIENTS == c]
            for _ in range(rounds):
                jobs = list(self.round_kinds)
                self.rngs[c].shuffle(jobs)
                while jobs:
                    kind = jobs.pop()
                    w = mine[len(jobs) % len(mine)]
                    body, delta = self.job_body(c, w, kind)
                    latency, state, report = self.clients[c].run_job(body)
                    version = len(self.versions[w]) - 1
                    if delta and state == "finished":
                        grown = oracle.copy_dump(self.versions[w][-1])
                        oracle.append_rows(grown, delta)
                        self.versions[w].append(grown)
                    self.results.append((c, w, version, kind, latency, state, report))
        except Exception as e:  # noqa: BLE001 - re-raised by run()
            errors.append(e)

    def run(self, rounds):
        """Every client runs `rounds` whole rounds of the mix; the loop's
        metrics cover all calls."""
        start = time.perf_counter()
        in_parallel(lambda c, errors: self.client_rounds(c, rounds, errors),
                    DAEMON_CLIENTS)
        self.seconds += time.perf_counter() - start

    def finish(self, metrics, trace):
        rss_end = self.daemon.rss_mib()
        self.results = [r[:6] + (json.loads(r[6]) if r[6] else None,) for r in self.results]
        finished = [r for r in self.results if r[5] == "finished"]
        self.ops.attempted += len(self.results)
        self.ops.failed += len(self.results) - len(finished)
        done = [r for r in self.results[self.measured_from:] if r[5] == "finished"]
        if len(done) < MIN_JOBS:
            raise BenchError("the daemon finished only %d jobs (< %d): the tail "
                             "percentile would have fewer than ten samples beyond it"
                             % (len(done), MIN_JOBS))
        latencies = sorted(r[4] for r in done)
        by_kind = {}
        for r in done:
            by_kind.setdefault(r[3], []).append(r[4])
        log("daemon: %d jobs in %.1f s; median ms by kind %s" % (
            len(done), self.seconds,
            {k: round(statistics.median(v), 1) for k, v in sorted(by_kind.items())}))
        if trace:
            timed = [r for r in done if "seconds" in r[6]]
            for kind in ("submit", "status", "report"):
                metrics["server.%s_ms" % kind] = statistics.median(
                    x for c in self.clients for x in c.rtt[kind])
            metrics["server.job_run_ms"] = statistics.median(
                r[6]["seconds"] * 1000 for r in timed)
            metrics["server.job_wait_ms"] = statistics.median(
                r[4] - r[6]["seconds"] * 1000 for r in timed)
            metrics["server.rss_mib_per_100_jobs"] = (
                rss_end - self.rss_start) / len(done) * 100
        else:
            metrics["daemon_rss_mib"] = self.daemon.rss_mib("VmHWM")
            metrics["jobs_per_s"] = len(done) / self.seconds
            metrics["job_p50_ms"] = statistics.median(latencies)
            metrics["job_tail_ms"] = statistics.quantiles(
                latencies, n=100)[TAIL_PERCENTILE - 1]
        check_daemon_reports(self.warmups + finished, self.versions, self.imported)
        if self.spec["daemon_setup"]:
            parity(self.daemon, self.root, self.ops)

    def stop(self):
        for c in self.clients:
            c.conn.close()
        self.daemon.stop()


RESULT_KEYS = ("satisfied_inds", "nary_inds", "uccs", "fds")


def check_daemon_reports(done, versions, dumps):
    """Checks one report per (data, version, job kind) against the oracle;
    every other report of the group must list the same results. Workspaces
    beyond the `dumps` imported ones hold the first dump and take no
    appends, so they share its data."""
    groups = {}
    for c, w, version, kind, latency, state, report in done:
        if kind == "append":
            continue
        results = {k: report.get(k) for k in RESULT_KEYS}
        key = (w if w < dumps else 0, version, "ind" if kind in ("warm", "nocache") else kind)
        if key in groups:
            if groups[key] != results:
                raise oracle.CheckError("daemon %s jobs on w%d (version %d) disagree"
                                        % (kind, w, version))
            continue
        groups[key] = results
        tables = versions[w][version]
        label = "daemon %s job on w%d (version %d)" % (kind, w, version)
        if kind in ("warm", "nocache", "nary"):
            oracle.check_unary(report, tables, label)
        if kind == "nary":
            oracle.check_nary(report, tables, label)
        if kind == "ucc":
            oracle.check_uccs(report, oracle.Sql(tables), label)
        if kind == "fd":
            oracle.check_fds(report, oracle.Sql(tables), label)
    for c, w, version, kind, latency, state, report in done:
        if kind == "warm" and version == 0 and c is not None:
            oracle.check_warm(report, "daemon warm job on w%d" % w)


def parity(daemon, root, ops):
    """One daemon report per kind equals the CLI's report over the same
    workspace state (the daemon's sets copied into a CLI workspace)."""
    client = Client(daemon.port)
    for kind, extra in (("warm", ["--approach=spider-merge"]),
                        ("nary", ["--approach=nary"]), ("ucc", ["--kind=ucc"]),
                        ("fd", ["--kind=fd"])):
        cli_ws = os.path.join(os.path.dirname(root), "parity_ws")
        copy_dir(os.path.join(root, "w0"), cli_ws)
        sets = os.path.join(root, ".sets-w0")
        for name in os.listdir(sets):
            shutil.copy2(os.path.join(sets, name), cli_ws)
        ops.attempted += 2
        cli = json.loads(run_timed(profile_cmd(cli_ws, 1, *extra))[1])
        _, state, report = client.run_job(dict(JOB_BODIES[kind], workspace="w0"))
        if state != "finished":
            raise BenchError("parity %s job failed" % kind)
        oracle.check_same_report(json.loads(report), cli, "parity " + kind)


# ---- the run ----------------------------------------------------------------

def run(workload, seed, seconds, trace):
    spec = WORKLOADS[workload]
    build()
    os.makedirs(WORK, exist_ok=True)
    base = os.path.join(WORK, workload)
    remove_scratch(base)
    os.makedirs(base)
    dirs = make_inputs(workload, seed, base)
    check_pin(workload, seed, dirs)
    dumps = [oracle.load_dump(d) for d in dirs]
    log("inputs generated, pinned and loaded")
    ops = Counter()
    metrics = {}
    if trace:
        trace_run(spec, dirs, dumps, seed, base, ops, metrics)
    # CLI rounds alternate with segments of the daemon's loop, so the
    # samples of every metric spread over the whole run: on a shared host
    # the cost of file writes swings for tens of seconds at a time.
    rounds = max(MIN_ROUNDS, round(seconds * spec["cli_rounds_per_s"]))
    job_rounds = max(1, round(seconds * spec["job_rounds_per_s"] / rounds))
    cli = None if trace else CliRounds(spec, dirs, dumps[0], seed, base, ops)
    served = spec.get("daemon_from", 0)
    loop = DaemonLoop(spec, dirs[served:], dumps[served:], seed, base, ops)
    log("daemon started and warmed up")
    try:
        for i in range(rounds):
            if cli:
                cli.round()
            loop.run(job_rounds)
            log("round %d of %d done" % (i + 1, rounds))
        loop.finish(metrics, trace)
    finally:
        loop.stop()
    if cli:
        cli.finish(metrics)
    log("every check passed")
    remove_scratch(base)
    return ops, metrics


def remove_scratch(path):
    """Removes a run's scratch tree and commits the removal (fsync of the
    parent directory), so the file-system work it causes ends inside this
    run instead of slowing the next run's timed steps."""
    shutil.rmtree(path, ignore_errors=True)
    fd = os.open(os.path.dirname(path), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def trace_run(spec, dirs, dumps, seed, base, ops, layer):
    """The traced replay over the first dump; the daemon loop then adds the
    server.* metrics from its client-side spans."""
    delta = os.path.join(base, "delta", "db")
    make_delta(dumps[0], random.Random(seed), delta)
    ops.attempted += 1
    _, text, _ = run_timed([TRACE, "--csv=" + dirs[0],
                            "--workspace=" + os.path.join(base, "trace_ws"),
                            "--scratch=" + os.path.join(base, "trace_scratch"),
                            "--threads=%d" % spec["threads"],
                            "--trace-out=" + os.path.join(WORK, "trace-%s.json" % (
                                os.path.basename(base))),
                            "--delta=" + delta])
    layer.update(json.loads(text.strip().splitlines()[-1]))
    # Tracing overhead: the untraced CLI cold profile against the traced
    # replay's spans for the same work (open + session + report JSON).
    pristine = os.path.join(base, "trace_pristine")
    ops.attempted += 2
    run_timed([CLI, "import", dirs[0], "--workspace=" + pristine, "--backend=disk"])
    cold = run_timed(profile_cmd(pristine, spec["threads"], "--approach=spider-merge"))[0]
    spans = layer["storage.open_s"] + layer["ind.session_s"] + layer["ind.report_json_s"]
    layer["trace.span_gap_ratio"] = (cold - spans) / cold


UNITS = {}


def load_units():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for m in bench["end_to_end"] + bench["per_layer"]:
        UNITS[m["name"]] = m["unit"]
    return bench


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-pins", action="store_true",
                        help="regenerate e2ebench/pins.json from src/datagen")
    args = parser.parse_args()
    if args.write_pins:
        write_pins()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    bench = load_units()
    if (os.cpu_count() or 1) < 4:
        log("warning: fewer than 4 CPUs; the daemon phase's busy threads exceed nproc")
    try:
        ops, metrics = run(args.workload, args.seed, args.seconds, args.trace)
    except oracle.CheckError as e:
        log("CHECK FAILED: %s" % e)
        return 1
    names = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
    missing = [n for n in names if n not in metrics]
    if missing:
        raise BenchError("metrics not measured: %s" % missing)
    # A failed check has returned above, so every reported output is correct.
    print(json.dumps({"correct": True, "attempted": ops.attempted, "failed": ops.failed,
                      "metrics": {n: {"value": metrics[n], "unit": UNITS[n]} for n in names}}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.CalledProcessError, OSError) as e:
        log("error: %s" % e)
        sys.exit(2)
