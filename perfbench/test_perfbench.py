#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

1. Every workload at small N: the driver runs the workload's posture with
   the NaiveSkylineOperator alongside (it exits non-zero at the first
   report, or under --emit deltas the first step, that disagrees), and
   psky_stream's output must pass the same gate the benchmark applies.
2. The counts later PRs may claim repeat exactly across two traced runs
   of one seed, and the layer self times add up to the traced wall time.
3. A CSV written by the driver reads back as exactly the generator stream.
"""

import dataclasses
import filecmp
import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

CLI, DRIVER = run.build()
WORK = os.path.join(run.build_dir(), "test-work")

SMALL = {
    "anti-seq": dict(window=300, steady=2000, every=100),
    "anti-shard2": dict(window=300, steady=2000, every=100),
    "corr-durable": dict(window=300, steady=2000, every=100, prepared=600,
                         prep_every=200, ckpt_every=100, segment_elems=64),
    "inde-audit": dict(window=300, steady=2000, every=100, prepared=600),
}

# Large enough for the ladder and checkpoint cadence to behave as in the
# benchmark, small enough to run in about a minute.
MEDIUM = {
    "anti-seq": dict(steady=100_000),
    "anti-shard2": dict(steady=100_000),
    "corr-durable": dict(steady=20_000),
    "inde-audit": dict(window=10_000, steady=5_000, prepared=10_000),
}

EXACT = ["skytree.candidates_mean", "skytree.skyline_mean",
         "skytree.nodes_visited_per_step", "checkpoint.count",
         "overload.peak_rung"]


def traced_metrics(ctx, tag):
    trace = os.path.join(ctx.work, f"{tag}.json")
    subprocess.run(
        run.driver_cmd(ctx, run.fresh_ckpt_dir(ctx, tag), trace),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, check=True)
    with open(trace) as f:
        return run.layer_metrics(json.load(f), 1.0)[0]


class SmallNAgainstNaive(unittest.TestCase):
    def test_each_workload(self):
        for name, size in SMALL.items():
            with self.subTest(workload=name):
                w = dataclasses.replace(run.WORKLOADS[name], **size)
                for seed in (1, 2):
                    ctx = run.prepare(w, seed, CLI, DRIVER, WORK)
                    out = os.path.join(ctx.work, "oracle.out")
                    with open(out, "wb") as f:
                        res = subprocess.run(
                            run.driver_cmd(ctx, run.fresh_ckpt_dir(ctx, "o"),
                                           oracle=True),
                            stdout=f, stderr=subprocess.PIPE)
                    self.assertEqual(res.returncode, 0, res.stderr)
                    self.assertTrue(filecmp.cmp(out, ctx.reference, False))
                    rep = run.run_cli(ctx, "cli")
                    self.assertEqual(run.check_rep(ctx, rep), "")


class ExactCountsAndSplit(unittest.TestCase):
    def test_counts_repeat_and_layers_add_up(self):
        for name, size in MEDIUM.items():
            with self.subTest(workload=name):
                w = dataclasses.replace(run.WORKLOADS[name], **size)
                ctx = run.prepare(w, 3, CLI, DRIVER, WORK)
                a = traced_metrics(ctx, "a")
                b = traced_metrics(ctx, "b")
                for k in EXACT:
                    self.assertEqual(a[k], b[k], k)
                for m in (a, b):
                    self.assertLessEqual(abs(m["trace.unattributed_frac"]),
                                         run.SPLIT_TOLERANCE)
                if w.durable:
                    self.assertGreater(a["checkpoint.count"], 0)
                    self.assertEqual(a["overload.peak_rung"], 4)


class CsvRoundTrip(unittest.TestCase):
    def test_csv_reads_the_generator_stream(self):
        w = dataclasses.replace(run.WORKLOADS["anti-seq"], window=500,
                                steady=3000, every=250)
        ctx = run.prepare(w, 4, CLI, DRIVER, WORK)
        csv = os.path.join(ctx.work, "stream.csv")
        with open(csv, "wb") as f:
            subprocess.run([DRIVER, "gen-csv", "--generate", "anti", "--seed",
                            "4", "--count", str(w.total)], stdout=f,
                           check=True)
        out = os.path.join(ctx.work, "csv.out")
        with open(out, "wb") as f:
            subprocess.run([DRIVER, "run", "--input", csv] +
                           run.common_flags(w), stdout=f,
                           stderr=subprocess.DEVNULL, check=True)
        self.assertTrue(filecmp.cmp(out, ctx.reference, False))


if __name__ == "__main__":
    try:
        unittest.main()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
