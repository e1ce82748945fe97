#!/usr/bin/env python3
"""End-to-end benchmark of psky_stream, with a traced per-layer split.

Usage (from the root of a checkout):

  python3 perfbench/run.py --workload anti-seq --seed 1 --seconds 25 --trace 0

Builds psky_stream and the benchmark's own driver (perfbench/driver.cc)
from source, makes the workload's inputs from the seed, then:

  --trace 0  runs psky_stream processes back to back (closed loop, one
             client, the source read as fast as the pipeline accepts it)
             for --seconds, at least MIN_REPS times, and reports the
             end-to-end metrics over those runs (README.md defines them);
  --trace 1  runs psky_stream once and the driver once with every layer
             call timed from outside, and reports the per-layer metrics.

Every run's output is checked against a reference computed by the driver
(see README.md for the gate per workload). The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}. All files are
written under the build directory ($CARGO_TARGET_DIR, default
.bench_build) inside the checkout.
"""

import argparse
import filecmp
import glob
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MIN_REPS = 2
CLK_TCK = os.sysconf("SC_CLK_TCK")


@dataclass(frozen=True)
class Workload:
    """One psky_stream posture. Sizes are in elements."""

    name: str
    dist: str
    steady: int  # elements processed after the window is full
    every: int  # K: report + heartbeat interval
    window: int = 100_000
    shards: int = 1
    audit: bool = False
    durable: bool = False  # CSV + queue + WAL + checkpoints + disk window
    emit: str = "counts"
    # Stream position of the prepared state every measured process resumes
    # from (0: processes start fresh). A durable workload's prepared run
    # checkpoints every `prep_every` elements and its newest checkpoint is
    # deleted, so the resume also replays a WAL tail of `prep_every`.
    prepared: int = 0
    prep_every: int = 0
    ckpt_every: int = 0
    segment_elems: int = 4096
    # Streams per run: process i of a run reads stream i % streams, whose
    # generator seed is seed * streams + i % streams.
    streams: int = 1

    @property
    def start(self):
        """Stream position where the measured process starts."""
        return self.prepared

    @property
    def total(self):
        """Stream length: the process ends here, on a report boundary."""
        return (self.prepared or self.window) + self.steady


# Why each workload exists: README.md and BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in [
        Workload("anti-seq", dist="anti", steady=500_000, every=10_000),
        Workload("anti-shard2", dist="anti", steady=500_000, every=10_000,
                 shards=2),
        # Recovery cost depends on the stream (checkpoint load 270-370 ms
        # on one seed, 600-620 ms on another), so one stream per run would
        # make setup_s a property of the seed. Three streams are cheap to
        # prepare here and, being coprime with the 4-vCPU rotation of
        # pin_cpus, each meets every vCPU.
        Workload("corr-durable", dist="corr", steady=60_000, every=2_000,
                 durable=True, emit="deltas", prepared=150_000,
                 prep_every=50_000, ckpt_every=10_000, streams=3),
        Workload("inde-audit", dist="inde", steady=25_000, every=500,
                 audit=True, prepared=100_000),
    ]
}

LAYER_METRICS = [
    # (name, unit)
    ("stream.parse_ns_per_elem", "ns"),
    ("stream.window_rotate_ns_per_elem", "ns"),
    ("overload.push_wait_ns_per_elem", "ns"),
    ("overload.pop_wait_ns_per_elem", "ns"),
    ("overload.ladder_ns_per_elem", "ns"),
    ("overload.queue_depth_mean", "count"),
    ("overload.peak_rung", "count"),
    ("overload.rung_transitions", "count"),
    ("wal.append_ns_per_elem", "ns"),
    ("wal.sync_ms_total", "ms"),
    ("wal.bytes_per_elem", "bytes"),
    ("segment_store.readahead_hit_ratio", "ratio"),
    ("segment_store.recycle_pressure", "count"),
    ("segment_store.resident_max", "count"),
    ("checkpoint.write_ms_mean", "ms"),
    ("checkpoint.count", "count"),
    ("recovery.load_ms", "ms"),
    ("recovery.wal_replay_ms", "ms"),
    ("recovery.tail_records", "count"),
    ("skytree.insert_ns_per_elem", "ns"),
    ("skytree.expire_ns_per_elem", "ns"),
    ("skytree.nodes_visited_per_step", "count"),
    ("skytree.elements_touched_per_step", "count"),
    ("skytree.evictions_per_step", "count"),
    ("skytree.candidates_mean", "count"),
    ("skytree.skyline_mean", "count"),
    ("delta.take_ns_per_step", "ns"),
    ("delta.events_per_step", "count"),
    ("emit.ns_per_line", "ns"),
    ("emit.lines", "count"),
    ("shard.route_ns_per_elem", "ns"),
    ("shard.merge_ms_per_report", "ms"),
    ("shard.merge_candidates_per_report", "count"),
    ("shard.merge_cell_skip_ratio", "ratio"),
    ("shard.imbalance", "ratio"),
    ("shard.lag_max", "count"),
    ("audit.step_ns_per_elem", "ns"),
    ("audit.audited", "count"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_frac", "ratio"),
]

END_TO_END = [
    ("elements_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cpu_s_per_melem", "s"),
    ("ok_frac", "ratio"),
]

# On a shared host each report interval runs at one of two speeds about
# 1.6x apart, in proportions that drift over minutes with the neighbours'
# load (README.md, "Host noise"). The median interval falls between the
# two; the fast tail of the pooled intervals does not move with the mix.
# elements_per_s is K over this percentile of the report intervals.
FAST_PERCENTILE = 10

# Layer self times must cover the traced wall time to within this share.
SPLIT_TOLERANCE = 0.05


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --- build -----------------------------------------------------------------


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configures once, then rebuilds incrementally. Returns binary paths."""
    for need in ("src/CMakeLists.txt", "tools/psky_stream.cc"):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise SystemExit(f"error: {need} not found: run from a checkout")
    out = os.path.join(build_dir(), "cmake")
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", out, "-j4"], stdout=sys.stderr,
                   check=True)
    return (os.path.join(out, "psky_stream"),
            os.path.join(out, "psky_bench_driver"))


# --- commands --------------------------------------------------------------


@dataclass
class Context:
    """Per-run inputs made from the seed, plus the reference output."""

    w: Workload
    seed: int
    work: str
    cli: str
    driver: str
    csv: str = ""
    prepared_dir: str = ""
    reference: str = ""


def common_flags(w):
    return ["--dims", "3", "--q", "0.3", "--window", str(w.window),
            "--batch-size", "64", "--emit", w.emit, "--every", str(w.every)]


def source_flags(ctx):
    w = ctx.w
    if w.durable:
        return ["--input", ctx.csv]
    return ["--generate", w.dist, "--seed", str(ctx.seed), "--count",
            str(w.total)]


def posture_flags(ctx, ckpt_dir):
    """The workload's psky_stream flags; the driver takes the same ones."""
    w = ctx.w
    flags = source_flags(ctx) + common_flags(w)
    if w.shards > 1:
        flags += ["--shards", str(w.shards)]
    if w.audit:
        flags += ["--audit-mode", "check"]
    if w.prepared:
        flags += ["--checkpoint-dir", ckpt_dir, "--resume"]
    if w.durable:
        flags += ["--max-queue", "4096", "--overload-policy", "block",
                  "--wal", "--checkpoint-every", str(w.ckpt_every),
                  "--window-store", "disk", "--segment-elems",
                  str(w.segment_elems)]
    return flags


def cli_cmd(ctx, ckpt_dir):
    return ([ctx.cli] + posture_flags(ctx, ckpt_dir) +
            ["--stats-interval", str(ctx.w.every)])


def driver_cmd(ctx, ckpt_dir, trace_path="", oracle=False):
    """The driver in the workload's own posture (traced or oracle-checked)."""
    cmd = [ctx.driver, "run"] + posture_flags(ctx, ckpt_dir)
    if trace_path:
        cmd += ["--trace", trace_path]
    if oracle:
        cmd += ["--oracle"]
    return cmd


def reference_cmd(ctx):
    """Sequential, in-memory, unaudited, uninterrupted: what every posture
    of the workload must print."""
    w = ctx.w
    cmd = [ctx.driver, "run"] + source_flags(ctx) + common_flags(w)
    if w.start:
        cmd += ["--emit-after", str(w.start)]
    return cmd


def run_to_file(cmd, out_path):
    with open(out_path, "wb") as out:
        subprocess.run(cmd, stdout=out, stderr=subprocess.PIPE, check=True)


def prepare(w, seed, cli, driver, work_root=None):
    """Makes the run's inputs and reference output from the seed."""
    work = os.path.join(work_root or os.path.join(build_dir(), "work"),
                        w.name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    ctx = Context(w, seed, work, cli, driver)
    ctx.prepared_dir = os.path.join(work, "prepared")
    if w.prepared and not w.durable:
        subprocess.run(
            [cli, "--generate", w.dist, "--seed", str(seed), "--count",
             str(w.prepared), "--checkpoint-dir", ctx.prepared_dir] +
            common_flags(w), stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, check=True)
    if w.durable:
        # The CSV holds the generator stream at round-trip precision; the
        # prepared state is a plain run over its first `prepared` lines.
        ctx.csv = os.path.join(work, "stream.csv")
        run_to_file([driver, "gen-csv", "--generate", w.dist, "--seed",
                     str(seed), "--count", str(w.total)], ctx.csv)
        prefix = os.path.join(work, "prefix.csv")
        with open(ctx.csv, "rb") as src, open(prefix, "wb") as dst:
            for _ in range(w.prepared):
                dst.write(src.readline())
        subprocess.run(
            [cli, "--input", prefix, "--dims", "3", "--q", "0.3", "--window",
             str(w.window), "--batch-size", "64", "--wal",
             "--checkpoint-dir", ctx.prepared_dir, "--checkpoint-every",
             str(w.prep_every), "--window-store", "disk", "--segment-elems",
             str(w.segment_elems), "--emit", "counts", "--every", "0"],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, check=True)
        ckpts = sorted(f for f in os.listdir(ctx.prepared_dir)
                       if f.startswith("ckpt-"))
        os.remove(os.path.join(ctx.prepared_dir, ckpts[-1]))
    # Workloads over the same stream share one reference (anti-shard2 must
    # print exactly what anti-seq prints), cached per driver build.
    key = (f"{w.dist}-s{seed}-n{w.total}-w{w.window}-k{w.every}-{w.emit}"
           f"-from{w.start}-{os.stat(driver).st_mtime_ns}")
    ctx.reference = os.path.join(build_dir(), "refs", key + ".out")
    if not os.path.exists(ctx.reference):
        os.makedirs(os.path.dirname(ctx.reference), exist_ok=True)
        run_to_file(reference_cmd(ctx), ctx.reference + ".tmp")
        os.replace(ctx.reference + ".tmp", ctx.reference)
    return ctx


def fresh_ckpt_dir(ctx, tag):
    """A private copy of the prepared state for one process.

    Made outside any timer, with earlier copies deleted and everything
    synced first, so write-back of earlier runs' files does not land in a
    measured one.
    """
    if not ctx.w.prepared:
        return ""
    for old in glob.glob(os.path.join(ctx.work, "ckpt-*")):
        shutil.rmtree(old)
    d = os.path.join(ctx.work, "ckpt-" + tag)
    shutil.copytree(ctx.prepared_dir, d)
    os.sync()
    return d


# --- one psky_stream process ---------------------------------------------


def pin_cpus(pid, w, rep):
    """Gives process `rep` of a run its own share of the vCPUs.

    On a shared virtual machine each vCPU runs at its own, drifting speed
    (on the 4-vCPU KVM guest the benchmark was defined on, a fixed spin
    loop took from 0.30 s to 0.57 s on different vCPUs within one
    minute), and a process stays on whichever vCPU it starts on. Pinning
    the processes of a run to successive vCPUs makes the run's median
    cover every vCPU instead of one. A single-threaded process gets one
    vCPU; a multi-threaded one (up to three threads) gets all but one.
    Threads the program starts later inherit the mask.
    """
    cpus = sorted(os.sched_getaffinity(0))
    k = cpus[rep % len(cpus)]
    threaded = w.shards > 1 or w.durable
    os.sched_setaffinity(pid, [c for c in cpus if c != k] if threaded
                         else [k])


HEARTBEAT = re.compile(r"^heartbeat step=(\d+) ")
RESUMED = re.compile(r"(?:resumed at|now at) step (\d+)")


def proc_cpu_s(pid):
    """User + system CPU of all threads of a live process."""
    try:
        with open(f"/proc/{pid}/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / CLK_TCK
    except (OSError, IndexError, ValueError):
        return None


def run_cli(ctx, tag, rep_index=0):
    """Runs one psky_stream process and measures it from outside.

    Interval stamps come from the unbuffered stderr heartbeat, which
    --stats-interval aligns with --every; stdout goes to a file (the
    program never flushes it, so stamps there would time buffer flushes).
    """
    w = ctx.w
    ckpt = fresh_ckpt_dir(ctx, tag)
    out_path = os.path.join(ctx.work, f"{tag}.out")
    cmd = cli_cmd(ctx, ckpt)
    marks = []  # (seconds since launch, step, cpu seconds)
    tail = []
    with open(out_path, "wb") as out:
        t0 = time.perf_counter()
        p = subprocess.Popen(cmd, stdout=out, stderr=subprocess.PIPE)
        try:
            pin_cpus(p.pid, w, rep_index)
            for raw in p.stderr:
                t = time.perf_counter() - t0
                line = raw.decode(errors="replace")
                m = HEARTBEAT.match(line) or (RESUMED.search(line)
                                              if w.prepared else None)
                if m:
                    marks.append((t, int(m.group(1)), proc_cpu_s(p.pid)))
                elif not line.startswith(("segment-heartbeat",
                                          "shard-heartbeat", "degradation:")):
                    tail.append(line)
        except BaseException:
            p.kill()
            raise
        finally:
            p.stderr.close()
            _, status, ru = os.wait4(p.pid, 0)
            t_exit = time.perf_counter() - t0
        p.returncode = os.waitstatus_to_exitcode(status)
    rep = {"exit": p.returncode, "out": out_path, "stderr": "".join(tail),
           "rss_mb": ru.ru_maxrss / 1024.0, "elements": w.total - w.start}
    full_step = w.start or w.window
    # The window is full at the first mark at full_step: the heartbeat at
    # step == window for fresh runs, the end of recovery (WAL replay
    # included) when resumed.
    steady = [mk for mk in marks if mk[1] >= full_step]
    if len(steady) < 3 or steady[-1][1] != w.total or steady[0][2] is None:
        rep["error"] = "missing heartbeats"
        return rep
    first, last = steady[0], steady[-1]
    n = last[1] - first[1]
    rep["setup_s"] = first[0]
    rep["elements_per_s"] = n / (last[0] - first[0])
    # CPU of all threads over wall time, from the window-full mark (CPU at
    # tick resolution) to exit (wait4, exact).
    rep["cores_busy"] = ((ru.ru_utime + ru.ru_stime - first[2]) /
                         (t_exit - first[0]))
    # Heartbeat-to-heartbeat only: a resumed run's first stretch starts at
    # the recovery mark, not on a K boundary.
    hb = steady[1:] if w.prepared else steady
    rep["intervals_ms"] = [(b[0] - a[0]) * 1e3 for a, b in zip(hb, hb[1:])]
    return rep


def check_rep(ctx, rep):
    """Correctness gate for one psky_stream process; returns a reason or ''."""
    if rep["exit"] != 0:
        return f"exit code {rep['exit']}: {rep['stderr'][-300:]}"
    if "error" in rep:
        return rep["error"]
    if not filecmp.cmp(rep["out"], ctx.reference, shallow=False):
        return "output differs from the reference"
    if ctx.w.audit and " 0 unrepaired" not in rep["stderr"]:
        return "auditor reported unrepaired violations"
    return ""


def percentile(values, p):
    """The p-th percentile (0 < p < 100) of at least two values."""
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def measure(ctxs, seconds):
    w = ctxs[0].w
    reps, failures = [], []
    start = time.perf_counter()
    # A process is started only if one as long as the longest so far still
    # ends within `seconds`, so a run does not overrun its time.
    longest = 0.0
    while (len(reps) < MIN_REPS or
           time.perf_counter() - start + longest <= seconds):
        ctx = ctxs[len(reps) % len(ctxs)]
        t = time.perf_counter()
        rep = run_cli(ctx, f"rep{len(reps)}", len(reps) + ctxs[0].seed)
        longest = max(longest, time.perf_counter() - t)
        rep["seed"] = ctx.seed
        rep["failure"] = check_rep(ctx, rep)
        if rep["failure"]:
            failures.append(rep["failure"])
            log(f"{w.name}: rep {len(reps)} (seed {ctx.seed}) failed: "
                f"{rep['failure']}")
        reps.append(rep)
        if len(failures) > MIN_REPS:
            break
    good = [r for r in reps if not r["failure"]]
    attempted = sum(r["elements"] for r in reps)
    failed = sum(r["elements"] for r in reps if r["failure"])
    metrics = {}
    if good:
        intervals = [x for r in good for x in r["intervals_ms"]]
        med = lambda k: statistics.median(r[k] for r in good)  # noqa: E731
        fast_ms = percentile(intervals, FAST_PERCENTILE)
        eps = w.every / (fast_ms / 1e3)
        metrics = {
            "elements_per_s": eps,
            "setup_s": med("setup_s"),
            "peak_rss_mb": med("rss_mb"),
            "cpu_s_per_melem": med("cores_busy") / eps * 1e6,
            "ok_frac": 1.0 - failed / attempted,
        }
        # For people only: host noise moves these by more than any bound
        # the benchmark may set (README.md, "Host noise").
        log(f"{w.name}: {len(good)} good runs of {len(reps)}, "
            f"{len(intervals)} report intervals, "
            f"{sum(1 for x in intervals if x < fast_ms)} below "
            f"p{FAST_PERCENTILE} = {fast_ms:.4g} ms; "
            f"p50 {percentile(intervals, 50):.4g} ms, "
            f"p90 {percentile(intervals, 90):.4g} ms; mean "
            f"{med('elements_per_s'):.4g} elements/s")
    raw = [{k: r.get(k) for k in ("seed", "setup_s", "elements_per_s",
                                  "cores_busy", "rss_mb", "failure",
                                  "intervals_ms")}
           for r in reps]
    return metrics, attempted, failed, failures, raw


# --- traced run --------------------------------------------------------------


def layer_metrics(trace, cli_eps):
    """Per-layer metrics over the steady phase of one traced driver run."""
    names = trace["layers"]
    iv = [i for i in trace["intervals"] if i["start"] >= trace["steady_step"]]
    if not iv:
        raise RuntimeError("traced run has no steady report interval")
    ns = {n: sum(i["ns"][k] for i in iv) for k, n in enumerate(names)}
    wall = sum(i["wall_ns"] for i in iv)
    n = iv[-1]["end"] - iv[0]["start"]
    base, end = trace["base"], iv[-1]["c"]
    d = {k: end[k] - base[k] for k in end if isinstance(end[k], int)}
    prod = trace["producer"]
    queued = prod["produced"] > 0
    per = lambda x, m: x / m if m else 0.0  # noqa: E731
    reports = len(iv)
    seg_total = d["seg_hits"] + d["seg_misses"]
    shard_steps = trace["steps"] if d["merges"] else 0
    sh = trace["shard_totals"]
    m = {
        "stream.parse_ns_per_elem":
            per(prod["parse_ns"], prod["produced"]) if queued
            else per(ns["parse"], n),
        "stream.window_rotate_ns_per_elem": per(ns["rotate"], n),
        "overload.push_wait_ns_per_elem": per(prod["push_ns"],
                                              prod["produced"]),
        "overload.pop_wait_ns_per_elem": per(ns["pop_wait"], n),
        "overload.ladder_ns_per_elem": per(ns["ladder"], n),
        "overload.queue_depth_mean": per(d["depth_sum"], d["depth_samples"]),
        "overload.peak_rung": end["peak_rung"],
        "overload.rung_transitions": end["rung_transitions"],
        "wal.append_ns_per_elem": per(ns["wal_append"], n),
        "wal.sync_ms_total": ns["wal_sync"] / 1e6,
        "wal.bytes_per_elem": per(d["wal_bytes"], d["wal_records"]),
        "segment_store.readahead_hit_ratio": per(d["seg_hits"], seg_total),
        "segment_store.recycle_pressure": d["seg_pressure"],
        "segment_store.resident_max": max(i["c"]["seg_resident"] for i in iv),
        "checkpoint.write_ms_mean": per(ns["checkpoint"], d["checkpoints"])
        / 1e6,
        "checkpoint.count": d["checkpoints"],
        "recovery.load_ms": trace["recovery_load_ns"] / 1e6,
        "recovery.wal_replay_ms": trace["recovery_replay_ns"] / 1e6,
        "recovery.tail_records": trace["tail_records"],
        "skytree.insert_ns_per_elem": per(ns["insert"], n),
        "skytree.expire_ns_per_elem": per(ns["expire"], n),
        # Shard trees run on worker threads: their counters are whole-run
        # totals read after the final barrier.
        "skytree.nodes_visited_per_step":
            per(sh["nodes"], shard_steps) if shard_steps
            else per(d["nodes"], n),
        "skytree.elements_touched_per_step":
            per(sh["touched"], shard_steps) if shard_steps
            else per(d["touched"], n),
        "skytree.evictions_per_step":
            per(sh["evictions"], shard_steps) if shard_steps
            else per(d["evictions"], n),
        "skytree.candidates_mean": statistics.mean(
            i["c"]["candidates"] for i in iv),
        "skytree.skyline_mean": statistics.mean(i["c"]["skyline"] for i in iv),
        "delta.take_ns_per_step": per(ns["delta"], n),
        "delta.events_per_step": per(d["delta_events"], n),
        "emit.ns_per_line": per(ns["emit"], d["emit_lines"]),
        "emit.lines": d["emit_lines"],
        "shard.route_ns_per_elem": per(ns["route"], n),
        "shard.merge_ms_per_report": per(ns["merge"], d["merges"]) / 1e6,
        "shard.merge_candidates_per_report": per(d["merge_candidates"],
                                                 d["merges"]),
        "shard.merge_cell_skip_ratio": per(
            d["merge_cell_skips"], d["merge_cell_skips"] + d["merge_probes"]),
        "shard.imbalance": end["imbalance"],
        "shard.lag_max": end["lag"],
        "audit.step_ns_per_elem": per(ns["audit"], n),
        "audit.audited": d["audited"],
        "trace.overhead_frac": 1.0 - (n / (wall / 1e9)) / cli_eps,
        "trace.unattributed_frac": 1.0 - sum(ns.values()) / wall,
    }
    return m, {"traced_elements_per_s": n / (wall / 1e9),
               "layer_self_s": {k: v / 1e9 for k, v in ns.items() if v},
               "wall_s": wall / 1e9, "steady_elements": n}


def traced(ctx):
    rep = run_cli(ctx, "untraced")
    failure = check_rep(ctx, rep)
    trace_path = os.path.join(ctx.work, "trace.json")
    out_path = os.path.join(ctx.work, "traced.out")
    cmd = driver_cmd(ctx, fresh_ckpt_dir(ctx, "traced"), trace_path)
    with open(out_path, "wb") as out:
        p = subprocess.Popen(cmd, stdout=out, stderr=subprocess.PIPE)
        try:
            pin_cpus(p.pid, ctx.w, 0)
            _, err = p.communicate()
        except BaseException:
            p.kill()
            p.wait()
            raise
    metrics, info = {}, {}
    if p.returncode != 0:
        failure = failure or f"driver exit {p.returncode}: {err!r}"
    elif not failure:
        if not filecmp.cmp(out_path, rep["out"], shallow=False):
            failure = "traced driver output differs from psky_stream's"
        metrics, info = layer_metrics(json.load(open(trace_path)),
                                      rep["elements_per_s"])
        if abs(metrics["trace.unattributed_frac"]) > SPLIT_TOLERANCE:
            failure = failure or "layer self times do not add up to wall time"
    if failure:
        log(f"{ctx.w.name}: traced run failed: {failure}")
    else:
        info["untraced_elements_per_s"] = rep["elements_per_s"]
        log(f"{ctx.w.name}: " + json.dumps(info))
    return metrics, failure


# --- main --------------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--raw", help="also write every process's raw numbers "
                    "to this JSON file")
    args = ap.parse_args(argv)
    w = WORKLOADS[args.workload]
    cli, driver = build()
    ctxs = [prepare(w, args.seed * w.streams + j, cli, driver,
                    os.path.join(build_dir(), "work", str(j)))
            for j in range(w.streams)]
    if args.trace:
        metrics, failure = traced(ctxs[0])
        units = dict(LAYER_METRICS)
        attempted = 2 * (w.total - w.start)
        failed = attempted if failure else 0
        raw = None
    else:
        metrics, attempted, failed, failures, raw = measure(ctxs,
                                                            args.seconds)
        units = dict(END_TO_END)
        failure = "; ".join(failures)
    for k, v in metrics.items():
        print(f"{w.name} {k} = {v:.6g} {units[k]}")
    if args.raw:
        with open(args.raw, "w") as f:
            json.dump({"workload": w.name, "seed": args.seed,
                       "metrics": metrics, "reps": raw}, f)
    print(json.dumps({
        "correct": not failure and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics.get(k, 0.0), "unit": u}
                    for k, u in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
