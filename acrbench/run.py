#!/usr/bin/env python3
"""acrbench: the repository benchmark (see acrbench/README.md).

    python3 acrbench/run.py --workload paper_grid --seed 11325013 \
        --seconds 35 --trace 0

Run from the root of a checkout. Builds the simulator from source
(Release) into .bench_build/, runs closed-loop rounds of the workload
for --seconds, checks every simulated result, prints a human summary
and, as the last stdout line, one JSON object: {"correct", "attempted",
"failed", "metrics"}. --trace 0 reports the end-to-end metrics, --trace
1 the per-layer metrics of a separate traced run. Work files, the
span trace and a full result record go to .acrbench/.

Every round of every workload runs the workload's grid two ways:
in-process (acrbench_inproc, a fresh process and Runner per pass) and
through the sweep fabric (a bench CLI in --jobs, --forks/--journal,
--listen/--connect/--cache and warm --cache replay modes).
"""

import argparse
import hashlib
import json
import math
import os
import platform
import re
import select
import shutil
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT = os.path.join(ROOT, ".acrbench")
# Per-run work files (child output, journals, caches); removed at exit.
WORKDIR = os.path.join(OUT, "work-%d" % os.getpid())
# Children run without the simulator's ACR_* knobs (ACR_PREFIX_SHARE,
# ACR_JOBS, ACR_CACHE, ...), which would change what is measured.
CHILD_ENV = {k: v for k, v in os.environ.items() if not k.startswith("ACR_")}

REFERENCE_SEED = 0xACCE55
FABRIC_WORKERS = 3
WARM_REPLAYS = 10
# Rounds a run makes even past --seconds: 3 untraced rounds give
# point_ms.p90 >= 10 samples beyond it on every workload; a traced
# round is longer and its metrics carry no bound.
MIN_ROUNDS = {0: 3, 1: 2}
CHILD_TIMEOUT_S = 120
BUILD_TIMEOUT_S = 850
# Past the build, a run ends within this many seconds even if a child
# hangs: children still running at the deadline are killed and their
# points count as failed.
RUN_DEADLINE_S = 165

# Paper figures for the ReCkpt-vs-Ckpt reductions (HPCA 2020,
# Sec. V): printed beside ours for information, never gated.
PAPER_REDUCTIONS = {"size": 23.91, "time": 11.92, "energy": 12.53}

WORKLOADS = {
    # grid: acrbench_inproc grid; workers: in-process closed-loop
    # threads; passes: in-process passes per round (untraced runs);
    # cli: sweep-fabric program; golden: expected CLI stdout.
    "paper_grid": {"grid": "paper_grid", "workers": 1, "passes": 2,
                   "cli": "acrbench_cli"},
    "recovery_sweep": {"grid": "recovery_sweep", "workers": 1, "passes": 1,
                       "cli": "acrbench_cli"},
    "sweep_fabric": {"grid": "fig06", "workers": FABRIC_WORKERS, "passes": 2,
                     "cli": "fig06_time_overhead",
                     "golden": os.path.join("tests", "golden",
                                            "fig06_grid.csv")},
}

BACKENDS = ("log", "replicated", "nvm")

# Per-pass counters: metric -> stat summed over the pass's points.
COUNT_STATS = {
    "cpu.instrs": "cores.instrs", "mem.dram_bytes": "dram.bytes",
    "acr.captures": "acr.captures", "acr.slice_instrs": "acr.sliceInstrs",
    "acr.addrmap_accesses": "acr.addrMapAccesses",
    "acr.addrmap_overflows": "acr.addrMapOverflows",
    "ckpt.records": "ckpt.records",
    "ckpt.establishments": "ckpt.establishments",
    "ckpt.logged_bytes": "ckpt.loggedBytes",
    "ckpt.omitted_bytes": "ckpt.omittedBytes",
    "ckpt.integrity_checks": "ckpt.integrityChecks",
    "ckpt.corrupt_reads": "ckpt.corruptReads",
    "ckpt.recoveries": "recoveries",
    "ckpt.restored_words": "rec.restoredWords",
    "ckpt.recomputed_words": "rec.recomputedWords",
    "ckpt.retargets": "rec.retargets",
    "ckpt.unrecoverable": "rec.unrecoverable",
}


class BenchError(Exception):
    """The benchmark cannot produce a result (exit 2, no JSON line)."""


def log(message):
    print(message, file=sys.stderr, flush=True)


# --------------------------------------------------------------------
# Child processes: every child writes to files under WORKDIR and is reaped
# with wait4, which also yields its peak resident set.

class Children:
    """Tracks every child process so none outlives the run."""

    def __init__(self):
        self.live = []
        self.peak_rss_kib = 0
        self.reaped = 0
        self.deadline = float("inf")

    def spawn(self, argv, stdout, stderr, env=None):
        with open(stdout, "wb") as out, open(stderr, "wb") as err:
            proc = subprocess.Popen(argv, stdout=out, stderr=err,
                                    stdin=subprocess.DEVNULL,
                                    env=env or CHILD_ENV, cwd=ROOT)
        self.live.append(proc)
        return proc

    def wait(self, proc, timeout=CHILD_TIMEOUT_S):
        """Reap @proc; returns its exit code (negative: signal). Blocks
        on a pidfd, so the exit is seen at once (launch-to-exit times of
        ~10 ms must not carry polling slack), and kills the child at the
        timeout or the run's deadline."""
        if proc.returncode is not None:  # already reaped by poll()
            self.live.remove(proc)
            return proc.returncode
        remaining = min(timeout, self.deadline - time.monotonic())
        pidfd = os.pidfd_open(proc.pid)
        try:
            exited, _, _ = select.select([pidfd], [], [], max(0, remaining))
        finally:
            os.close(pidfd)
        if not exited:
            proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
        self.live.remove(proc)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kib = max(self.peak_rss_kib, usage.ru_maxrss)
        self.reaped += 1
        return proc.returncode

    def run(self, argv, tag, env=None, timeout=CHILD_TIMEOUT_S):
        """Run to exit; returns (exit code, stdout, stderr, seconds)."""
        stdout = os.path.join(WORKDIR, tag + ".out")
        stderr = os.path.join(WORKDIR, tag + ".err")
        start = time.perf_counter()
        proc = self.spawn(argv, stdout, stderr, env)
        code = self.wait(proc, timeout)
        seconds = time.perf_counter() - start
        with open(stdout, encoding="utf-8", errors="replace") as f:
            out = f.read()
        with open(stderr, encoding="utf-8", errors="replace") as f:
            err = f.read()
        return code, out, err, seconds

    def stop_all(self):
        for proc in list(self.live):
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            self.live.remove(proc)


# --------------------------------------------------------------------
# Build and host guard

def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "acrbench")


def build(children):
    """Configure (Release) and build; returns the binary directory."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no simulator sources at %s/src: run from the "
                         "root of a full checkout" % ROOT)
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    bdir = build_dir()
    os.makedirs(bdir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", bdir,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", bdir, "-j", jobs],
    ]
    for i, argv in enumerate(steps):
        code, out, err, _ = children.run(argv, "build%d" % i,
                                         timeout=BUILD_TIMEOUT_S)
        if code != 0:
            raise BenchError("build step failed (%s):\n%s%s"
                             % (" ".join(argv), out[-4000:], err[-4000:]))
    return bdir


def host_info(children, bdir):
    code, out, err, _ = children.run(
        [os.path.join(bdir, "acrbench_inproc"), "info"], "info")
    if code != 0:
        raise BenchError("acrbench_inproc info failed: " + err)
    info = json.loads(out.strip().splitlines()[-1])
    if info["build_type"] != "Release" or not info["ndebug"]:
        raise BenchError("refusing to measure a %s build (want Release)"
                         % info["build_type"])
    if info["sanitized"] or "-fsanitize" in info["cxx_flags"]:
        raise BenchError("refusing to measure a sanitizer build")
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "none (not a git checkout)"
    if shutil.which("git") and os.path.isdir(os.path.join(ROOT, ".git")):
        git = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if git.returncode == 0:
            commit = git.stdout.strip()
    return {
        "nproc": os.cpu_count(), "cpu": cpu,
        "compiler": info["compiler"],
        "build_type": info["build_type"], "cxx_flags": info["cxx_flags"],
        "commit": commit, "tree_sha256": tree_digest(),
    }


def tree_digest():
    """sha256 over the measured sources, so a result names its code
    even where the checkout carries no git metadata."""
    digest = hashlib.sha256()
    for top in ("src", "bench", os.path.basename(BENCH_DIR)):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


# --------------------------------------------------------------------
# In-process passes

def read_jsonl(text):
    records = []
    for line in text.splitlines():
        line = line.strip()
        if line.startswith("{"):
            try:
                records.append(json.loads(line))
            except ValueError:
                pass  # a torn last line from an aborted process
    return records


def inproc_pass(children, bdir, spec, seed, trace, tag, ledger):
    """One in-process pass; restarts past a point that aborts the
    process, so an abort costs only that point (and whatever prefix
    sharing it would have fed). The record's "broken" flag says an
    abort split the pass, which makes its timings suspect."""
    argv = [os.path.join(bdir, "acrbench_inproc"), "pass",
            "--grid=" + spec["grid"], "--seed=%d" % seed,
            "--workers=%d" % spec["workers"]]
    if trace:
        argv.append("--trace")
    points, done, broken = {}, set(), False
    result = {"spans": []}
    attempt = 0
    while True:
        skip = sorted(done)
        extra = ["--skip=" + ",".join(map(str, skip))] if skip else []
        launched = time.perf_counter()
        code, out, err, _ = children.run(argv + extra,
                                         "%s-a%d" % (tag, attempt))
        started = set()
        for rec in read_jsonl(out):
            if rec["kind"] == "start":
                started.add(rec["index"])
            elif rec["kind"] == "point":
                points[rec["index"]] = rec
                done.add(rec["index"])
            elif rec["kind"] in ("grid", "pass"):
                result.update(rec)
            elif rec["kind"] == "spans":
                result["spans"] = rec["spans"]
                result["launched"] = launched
        if code == 0:
            break
        broken = True
        lost = started - done
        if not lost:
            ledger.fail("acrbench_inproc exited %d before any point: %s"
                        % (code, err.strip()[-400:]), 1)
            break
        for index in sorted(lost):
            ledger.fail("point %d aborted acrbench_inproc (exit %d): %s"
                        % (index, code, err.strip()[-400:]), 1)
            done.add(index)
        attempt += 1
    if "size" not in result:
        raise BenchError("acrbench_inproc pass printed nothing (exit %d): %s"
                         % (code, err.strip()[-800:]))
    ledger.attempted += len(done)
    result["points"] = points
    # Timings need the final "pass" record and an unsplit pass.
    result["broken"] = broken or "grid_wall_s" not in result
    return result


def inproc_layers(children, bdir, spec, seed, tag):
    launched = time.perf_counter()
    code, out, err, _ = children.run(
        [os.path.join(bdir, "acrbench_inproc"), "layers",
         "--grid=" + spec["grid"], "--seed=%d" % seed], tag)
    if code != 0:
        raise BenchError("layer probes failed (exit %d): %s"
                         % (code, err.strip()[-800:]))
    layers = {"launched": launched}
    for rec in read_jsonl(out):
        if rec["kind"] == "layers":
            layers.update(rec)
        elif rec["kind"] == "spans":
            layers["spans"] = rec["spans"]
    return layers


# --------------------------------------------------------------------
# Sweep-fabric modes

SWEEP_JOBS = re.compile(r"\[sweep\] \d+ points on \d+ job\(s\): ([\d.]+) ms "
                        r"wall, ([\d.]+) ms of work \(parallelism ([\d.]+)x\)")
SWEEP_LISTEN = re.compile(r"via --listen: [\d.]+ ms wall, (\d+) worker join")
SUPERVISION = re.compile(r"\[sweep\] supervision: .*?(\d+) retr\(y/ies\), "
                         r"(?:\d+ respawn\(s\), )?(\d+) quarantined")
CACHE = re.compile(r"\[sweep\] cache: (\d+) hit\(s\), (\d+) miss\(es\)")
LISTENING = re.compile(r"listening on 127\.0\.0\.1:(\d+)")


def cli_env(spec, seed):
    env = dict(CHILD_ENV)
    env["ACRBENCH_GRID"] = spec["grid"]
    env["ACRBENCH_SEED"] = str(seed)
    return env


def fabric_round(children, bdir, spec, seed, expected, points, tag,
                 ledger):
    """jobs, forks+journal, listen/connect+cold cache, warm replays.
    Every mode's stdout must equal the @expected lines byte for byte
    (a None line is a point that aborted in-process, counted there).
    Each invocation attempts the grid's @points points; a mismatch
    fails one point per differing tuple line, or every point when the
    expected text is a rendered table."""
    cli = [os.path.join(bdir, spec["cli"])]
    if spec["cli"] == "fig06_time_overhead":
        cli.append("--format=csv")
    env = cli_env(spec, seed)
    per_line = "golden" not in spec
    ok_codes = {0}
    if spec["cli"] == "acrbench_cli" and any(
            line and line.endswith(",1") for line in expected):
        ok_codes = {5}  # unrecoverable verdicts are results
    sample = {"retries": 0, "quarantined": 0}

    def check(mode, code, out, err):
        ledger.attempted += points
        if code not in ok_codes:
            ledger.fail("%s exited %d: %s" % (mode, code,
                                              err.strip()[-400:]), points)
            return False
        bad = count_mismatches(out.split("\n")[:-1], expected) \
            if out.endswith("\n") else points
        if bad and not per_line:
            bad = points
        if bad:
            ledger.fail("%s stdout differs from the reference in %d "
                        "line(s)" % (mode, bad), bad)
            return False
        m = SUPERVISION.search(err)
        if m:
            sample["retries"] += int(m.group(1))
            sample["quarantined"] += int(m.group(2))
        return True

    round_start = time.perf_counter()
    spans = [["fabric.round", round_start, None, -1, -1]]

    def span(name, seconds):
        end = time.perf_counter()
        spans.append([name, end - seconds, end, 0, -1])

    code, out, err, secs = children.run(
        cli + ["--jobs=%d" % FABRIC_WORKERS], tag + "-jobs", env)
    span("fabric.jobs", secs)
    check("--jobs", code, out, err)
    sample["jobs"] = secs
    m = SWEEP_JOBS.search(err)
    if m:
        sample["jobs_work_s"] = float(m.group(2)) / 1e3
        sample["jobs_parallelism"] = float(m.group(3))

    journal = os.path.join(WORKDIR, tag + ".journal")
    if os.path.exists(journal):
        os.remove(journal)
    code, out, err, secs = children.run(
        cli + ["--forks=%d" % FABRIC_WORKERS, "--journal=" + journal],
        tag + "-forks", env)
    span("fabric.forks", secs)
    check("--forks", code, out, err)
    sample["forks"] = secs
    sample["journal_bytes"] = os.path.getsize(journal) \
        if os.path.exists(journal) else 0

    cache = os.path.join(WORKDIR, tag + ".cache")
    if os.path.exists(cache):
        os.remove(cache)
    coord_out = os.path.join(WORKDIR, tag + "-listen.out")
    coord_err = os.path.join(WORKDIR, tag + "-listen.err")
    start = time.perf_counter()
    coord = children.spawn(cli + ["--listen=127.0.0.1:0", "--cache=" + cache],
                           coord_out, coord_err, env)
    port = None
    while port is None and coord.poll() is None and \
            time.perf_counter() - start < CHILD_TIMEOUT_S:
        with open(coord_err, encoding="utf-8", errors="replace") as f:
            m = LISTENING.search(f.read())
        if m:
            port = m.group(1)
        else:
            time.sleep(0.001)
    workers = []
    if port is not None:
        for w in range(FABRIC_WORKERS):
            workers.append(children.spawn(
                cli + ["--connect=127.0.0.1:" + port],
                os.path.join(WORKDIR, "%s-w%d.out" % (tag, w)),
                os.path.join(WORKDIR, "%s-w%d.err" % (tag, w)), env))
    code = children.wait(coord)
    worker_codes = [children.wait(w) for w in workers]
    sample["connect"] = time.perf_counter() - start
    span("fabric.connect", sample["connect"])
    with open(coord_out, encoding="utf-8", errors="replace") as f:
        out = f.read()
    with open(coord_err, encoding="utf-8", errors="replace") as f:
        err = f.read()
    if check("--listen", code, out, err) and any(worker_codes):
        ledger.fail("--connect worker exit codes %s" % worker_codes,
                    sum(1 for c in worker_codes if c))
    m = SWEEP_LISTEN.search(err)
    sample["worker_joins"] = int(m.group(1)) if m else 0

    hits = misses = 0
    sample["replay_ms"] = []
    for r in range(WARM_REPLAYS):
        code, out, err, secs = children.run(
            cli + ["--cache=" + cache], "%s-replay%d" % (tag, r), env)
        span("fabric.cache_replay", secs)
        check("--cache replay", code, out, err)
        sample["replay_ms"].append(secs * 1e3)
        m = CACHE.search(err)
        if m:
            hits += int(m.group(1))
            misses += int(m.group(2))
    sample["cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0
    spans[0][2] = time.perf_counter()
    sample["spans"] = spans
    return sample


# --------------------------------------------------------------------
# Correctness and accounting

class Ledger:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def fail(self, why, points):
        self.failed += points
        self.problems.append(why)
        log("FAIL: " + why)


def tuples_of(pass_rec):
    """The pass's tuples in grid order; None where a point aborted."""
    return [pass_rec["points"][i]["tuple"] if i in pass_rec["points"]
            else None for i in range(pass_rec["size"])]


def load_reference(name):
    path = os.path.join(BENCH_DIR, "reference", name + ".csv")
    with open(path, encoding="utf-8") as f:
        return [line.rstrip("\n") for line in f
                if line.strip() and not line.startswith("#")]


def count_mismatches(got, want):
    """Differing entries; None marks a point already counted as failed
    (it aborted), so it is not counted again."""
    bad = sum(1 for a, b in zip(got, want)
              if a is not None and b is not None and a != b)
    return bad + abs(len(got) - len(want))


def check_tuples(workload, spec, seed, first, tuples, ledger):
    """Compare a pass's simulated tuples with the run's first pass and,
    where one applies, the stored reference: the fig06 grid is always
    at the reference seed (paper_grid's points in fig06's order), the
    seeded grids only when run at it."""
    bad = count_mismatches(tuples, first)
    if bad:
        ledger.fail("%d simulated tuple(s) differ from the run's first "
                    "pass" % bad, bad)
    if spec["grid"] == "fig06":
        name = "paper_grid"
        reference = set(load_reference(name))
        bad = sum(1 for t in tuples if t is not None and t not in reference)
    elif seed == REFERENCE_SEED:
        name = workload
        bad = count_mismatches(tuples, load_reference(name))
    else:
        return
    if bad:
        ledger.fail("%d simulated tuple(s) differ from reference/%s.csv"
                    % (bad, name), bad)


def red(a, b):
    return 100.0 * (a - b) / a if a else 0.0


def reductions(tuples):
    """Average ReCkpt_NE-vs-Ckpt_NE reductions of checkpoint size, time
    overhead and energy overhead over the kernels (the paper's Sec. V
    headline numbers)."""
    rows = {}
    for line in tuples:
        if line is None:
            continue
        f = line.split(",")
        rows[(f[0], f[1], f[2], f[3])] = (float(f[4]), float(f[5]),
                                          float(f[8]))
    size, tim, energy = [], [], []
    for kernel in sorted({k[0] for k in rows}):
        base = rows.get((kernel, "NoCkpt", "e0", "s0"))
        ckpt = rows.get((kernel, "Ckpt_NE", "e0", "s0"))
        reckpt = rows.get((kernel, "ReCkpt_NE", "e0", "s0"))
        if not (base and ckpt and reckpt):
            return None
        size.append(red(ckpt[2], reckpt[2]))
        tim.append(red(ckpt[0] - base[0], reckpt[0] - base[0]))
        energy.append(red(ckpt[1] - base[1], reckpt[1] - base[1]))
    return {"size": statistics.mean(size), "time": statistics.mean(tim),
            "energy": statistics.mean(energy)}


# --------------------------------------------------------------------
# Metrics

def median(values):
    return statistics.median(values) if values else float("nan")


def p90(values):
    return statistics.quantiles(values, n=10)[8] if len(values) >= 2 \
        else median(values)


def pass_counts(rec):
    totals = {}
    peak_entries = 0
    for point in rec["points"].values():
        stats = point["stats"]
        for key, value in stats.items():
            totals[key] = totals.get(key, 0.0) + value
        peak_entries = max(peak_entries, stats.get("acr.addrMapPeakEntries", 0))
    counts = {m: totals.get(s, 0.0) for m, s in COUNT_STATS.items()}
    counts["acr.addrmap_peak_entries"] = peak_entries

    def ratio(a, b):
        return a / b if b else 0.0
    counts["cache.l1d_miss_ratio"] = ratio(
        totals.get("l1d.misses", 0), totals.get("l1d.hits", 0) +
        totals.get("l1d.misses", 0))
    counts["cache.l2_miss_ratio"] = ratio(
        totals.get("l2.misses", 0), totals.get("l2.hits", 0) +
        totals.get("l2.misses", 0))
    captures = totals.get("acr.captures", 0)
    counts["acr.capture_ratio"] = ratio(
        captures, captures + totals.get("acr.captureFailures", 0))
    counts["acr.unique_slice_ratio"] = ratio(
        totals.get("acr.uniqueSlices", 0), captures)
    counts["harness.slice_pass_runs"] = rec["slice_pass_runs"]
    return counts


def eligible_error_free(grid_points):
    """Error-free checkpointing runs that may resume from a prefix
    (Runner::run's eligibility: log backend, no storage faults)."""
    n = 0
    for line in filter(None, grid_points):
        f = line.split(",")
        if f[1] != "NoCkpt" and f[2] == "e0" and f[3] == "s0" \
                and "@" not in f[1]:
            n += 1
    return n


def covered(spans, lo, hi):
    """Length of [lo, hi] covered by the union of @spans."""
    ivs = sorted((max(s, lo), min(e, hi)) for s, e in spans if e > lo and s < hi)
    total, cur_s, cur_e = 0.0, None, None
    for s, e in ivs:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def pass_trace_metrics(rec):
    spans = rec["spans"]
    pass_span = next(s for s in spans if s[0] == "pass")
    inner = [(s[1], s[2]) for s in spans
             if s[0] in ("setup", "harness.Runner::run")]
    wall = pass_span[2] - pass_span[1]
    cover = covered(inner, pass_span[1], pass_span[2])
    return {
        "workloads.build_s": sum(s[2] - s[1] for s in spans
                                 if s[0] == "workloads.baseProgram"),
        "acr.slice_pass_s": sum(s[2] - s[1] for s in spans
                                if s[0] == "acr.profile"),
        "harness.runner_overhead_s": wall - cover,
        "trace.coverage": cover / wall if wall > 0 else 0.0,
    }


def layer_metrics(layers):
    m = {
        "cpu.bare_ns_per_instr": layers["bare_s"] * 1e9 / layers["instrs"],
        "cache.ns_per_access": layers["replay_s"] * 1e9 / layers["accesses"],
        "slice.observe_ns_per_instr":
            (layers["observe_s"] - layers["bare_s"]) * 1e9 / layers["instrs"],
        "acr.reckpt_extra_s": layers["reckpt_extra"],
    }
    for what in ("establish", "recovery"):
        total = 0.0
        for b in BACKENDS:
            m["ckpt.%s_s.%s" % (what, b)] = layers["%s.%s" % (what, b)]
            total += layers["%s.%s" % (what, b)]
        m["ckpt.%s_s" % what] = total
    return m


# --------------------------------------------------------------------

def write_trace(path, spans_by_source):
    """Spans as a flat list, times in seconds from the run's start:
    name, start, end, parent (index into the list or -1), pass, point."""
    flat = []
    for pass_id, origin, spans in spans_by_source:
        base = len(flat)
        for name, start, end, parent, point in spans:
            flat.append({"name": name, "start": origin + start,
                         "end": origin + end,
                         "parent": base + parent if parent >= 0 else -1,
                         "pass": pass_id, "point": point})
    with open(path, "w", encoding="utf-8") as f:
        json.dump(flat, f)


def declared_metrics():
    """(end_to_end, per_layer) as [(name, unit)] from BENCHMARK.json,
    the one list of what each mode reports."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        raise BenchError("cannot read %s: %s" % (path, e))
    return ([(m["name"], m["unit"]) for m in doc["end_to_end"]],
            [(m["name"], m["unit"]) for m in doc["per_layer"]])


def run(args):
    spec = WORKLOADS[args.workload]
    os.makedirs(WORKDIR, exist_ok=True)
    children = Children()
    try:
        return measure(args, spec, children)
    finally:
        children.stop_all()
        shutil.rmtree(WORKDIR, ignore_errors=True)


def measure(args, spec, children):
    end_to_end, per_layer = declared_metrics()
    t_build = time.perf_counter()
    bdir = build(children)
    log("acrbench: build ready in %.1f s" % (time.perf_counter() - t_build))
    host = host_info(children, bdir)
    children.peak_rss_kib = children.reaped = 0  # not the compiler's
    children.deadline = time.monotonic() + RUN_DEADLINE_S
    ledger = Ledger()
    tag = "%s-%d" % (args.workload, args.seed)
    trace = bool(args.trace)

    passes, broken_passes, traced_passes, fabric, layers = [], [], [], [], []
    first = expected = None
    run_start = time.perf_counter()
    trace_sources = []
    rounds = 0

    def untraced_pass(ptag):
        nonlocal first, expected
        rec = inproc_pass(children, bdir, spec, args.seed, False, ptag,
                          ledger)
        tuples = tuples_of(rec)
        if first is None:
            first = tuples
            if "golden" in spec:
                with open(os.path.join(ROOT, spec["golden"]),
                          encoding="utf-8") as f:
                    expected = f.read().split("\n")[:-1]
            else:
                expected = tuples
        check_tuples(args.workload, spec, args.seed, first, tuples, ledger)
        if not rec["broken"]:
            passes.append(rec)
        elif "grid_wall_s" in rec:
            broken_passes.append(rec)

    def traced_pass(rtag):
        rec = inproc_pass(children, bdir, spec, args.seed, True,
                          rtag + "-traced", ledger)
        if first is not None:
            check_tuples(args.workload, spec, args.seed, first,
                         tuples_of(rec), ledger)
        if not rec["broken"]:
            traced_passes.append(rec)
            trace_sources.append((rounds, rec["launched"] - run_start,
                                  rec["spans"]))

    while True:
        elapsed = time.perf_counter() - run_start
        if rounds >= MIN_ROUNDS[args.trace] and \
                elapsed + elapsed / rounds > args.seconds:
            break
        if time.monotonic() > children.deadline:
            break
        rtag = "%s-r%d" % (tag, rounds)
        # A traced run alternates which pass of a round goes first, so
        # trace.overhead_pct carries no ordering bias.
        if trace and rounds % 2 == 1:
            traced_pass(rtag)
        for k in range(1 if trace else spec["passes"]):
            untraced_pass("%s-pass%d" % (rtag, k))
        if trace and rounds % 2 == 0:
            traced_pass(rtag)
        if trace:
            lay = inproc_layers(children, bdir, spec, args.seed,
                                rtag + "-layers")
            trace_sources.append((rounds, lay["launched"] - run_start,
                                  lay["spans"]))
            layers.append(lay)
        if expected is not None:
            sample = fabric_round(children, bdir, spec, args.seed,
                                  expected, len(first), rtag, ledger)
            fabric.append(sample)
            trace_sources.append((rounds, -run_start, sample.pop("spans")))
        rounds += 1
    # Timings of passes an abort split are suspect; they are used only
    # when every pass was split, and the run is then not correct anyway.
    passes = passes or broken_passes
    if not passes or not fabric:
        raise BenchError("no complete pass: %s" % "; ".join(ledger.problems))

    # ---- end-to-end metrics (untraced passes only); a timing is the
    # median over the run's samples.
    walls = [p["grid_wall_s"] for p in passes]
    points_ms = [pt["ms"] for p in passes for pt in p["points"].values()]
    mips = [sum(pt["stats"].get("cores.instrs", 0)
                for pt in p["points"].values()) / p["grid_wall_s"] / 1e6
            for p in passes]
    e2e = {
        "grid_wall_s": (median(walls), len(walls)),
        "sim_mips": (median(mips), len(mips)),
        "point_ms.p50": (median(points_ms), len(points_ms)),
        "point_ms.p90": (p90(points_ms), len(points_ms)),
        "setup_s": (median([p["setup_s"] for p in passes]), len(passes)),
        "peak_rss_mib": (children.peak_rss_kib / 1024.0, children.reaped),
        "sweep_wall_s.jobs": (median([f["jobs"] for f in fabric]),
                              len(fabric)),
        "sweep_wall_s.forks": (median([f["forks"] for f in fabric]),
                               len(fabric)),
        "sweep_wall_s.connect": (median([f["connect"] for f in fabric]),
                                 len(fabric)),
        "cache_replay_ms": (median([ms for f in fabric
                                    for ms in f["replay_ms"]]),
                            WARM_REPLAYS * len(fabric)),
    }

    missing = [name for name, _ in end_to_end if name not in e2e]
    if missing:
        raise BenchError("no value for end-to-end metric(s) %s"
                         % ", ".join(missing))

    host["rounds"] = rounds
    host["seconds"] = round(time.perf_counter() - run_start, 3)
    print("acrbench %s seed=%d trace=%d: %d rounds in %.1f s"
          % (args.workload, args.seed, args.trace, rounds, host["seconds"]))
    print("host: nproc=%(nproc)s cpu=%(cpu)s compiler=%(compiler)s "
          "build=%(build_type)s flags=%(cxx_flags)s commit=%(commit)s "
          "tree=%(tree_sha256)s" % host)
    units = dict(end_to_end + per_layer)
    units["failed_frac"] = "fraction"
    for name, _ in end_to_end:
        value, n = e2e[name]
        print("  %-24s %14.6g %-9s n=%d" % (name, value, units[name], n))
    failed_frac = ledger.failed / ledger.attempted if ledger.attempted else 1
    print("  %-24s %14.6g %-9s n=%d" % ("failed_frac", failed_frac,
                                        "fraction", ledger.attempted))
    red = reductions(first or [])
    if red:
        print("  ReCkpt_NE vs Ckpt_NE (info, not gated): size -%.2f%% "
              "(paper %.2f%%), time overhead -%.2f%% (paper %.2f%%), "
              "energy overhead -%.2f%% (paper %.2f%%)"
              % (red["size"], PAPER_REDUCTIONS["size"], red["time"],
                 PAPER_REDUCTIONS["time"], red["energy"],
                 PAPER_REDUCTIONS["energy"]))

    metrics = {}
    if not trace:
        for name, unit in end_to_end:
            metrics[name] = {"value": e2e[name][0], "unit": unit}
    else:
        per = {}
        samples = [pass_trace_metrics(p) for p in traced_passes]
        for key in samples[0] if samples else []:
            per[key] = median([s[key] for s in samples])
        lm = [layer_metrics(lay) for lay in layers]
        for key in lm[0]:
            per[key] = median([s[key] for s in lm])
        per["harness.forks_overhead_s"] = median(
            [f["forks"] - f["jobs"] for f in fabric])
        per["harness.connect_overhead_s"] = median(
            [f["connect"] - f["forks"] for f in fabric])
        for key in ("jobs_work_s", "jobs_parallelism", "cache_hit_ratio",
                    "journal_bytes", "worker_joins", "retries",
                    "quarantined"):
            per["harness." + key] = median([f.get(key, 0) for f in fabric])
        counts = pass_counts(passes[0])
        per.update(counts)
        resumes = median([p["prefix_resumes"] for p in passes])
        per["harness.prefix_resume_ratio"] = resumes / max(
            1, eligible_error_free(first))
        traced_wall = median([p["grid_wall_s"] for p in traced_passes])
        per["trace.overhead_pct"] = 100.0 * (traced_wall - e2e["grid_wall_s"][0]) \
            / e2e["grid_wall_s"][0]
        missing = [name for name, _ in per_layer if name not in per]
        if missing:
            raise BenchError("no value for per-layer metric(s) %s: %s"
                             % (", ".join(missing),
                                "; ".join(ledger.problems)))
        for name, unit in per_layer:
            metrics[name] = {"value": per[name], "unit": unit}
            print("  %-30s %14.6g %s" % (name, per[name], unit))
        trace_path = os.path.join(OUT, "trace-%s.json" % tag)
        write_trace(trace_path, trace_sources)
        print("  spans written to %s" % os.path.relpath(trace_path, ROOT))

    bad = [k for k, m in metrics.items() if not math.isfinite(m["value"])]
    if bad:
        raise BenchError("non-finite metric(s) %s: %s"
                         % (", ".join(bad), "; ".join(ledger.problems)))

    record = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "host": host,
              "problems": ledger.problems, "metrics": metrics,
              "failed_frac": failed_frac,
              "samples": {
                  "grid_wall_s": walls,
                  "traced_grid_wall_s": [p["grid_wall_s"]
                                         for p in traced_passes],
                  "setup_s": [p["setup_s"] for p in passes],
                  "point_ms": [[p["points"][i]["ms"]
                                for i in sorted(p["points"])]
                               for p in passes],
                  "fabric": fabric}}
    with open(os.path.join(OUT, "result-%s-t%d.json" % (tag, args.trace)),
              "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1)
    print(json.dumps({"correct": ledger.failed == 0,
                      "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        return run(args)
    except BenchError as e:
        log("acrbench: " + str(e))
        return 2


if __name__ == "__main__":
    sys.exit(main())
