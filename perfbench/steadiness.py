#!/usr/bin/env python3
"""Run-to-run steadiness of the end-to-end metrics, from two interleaved sets.

Usage (from the root of a checkout):

    python3 perfbench/steadiness.py --runs 10 [--workloads anti-seq,...]
        [--seconds 15] [--out perfbench/results/steadiness.json]

For each workload it runs perfbench/run.py --runs times, seed 1..runs,
alternating the runs between set A and set B, so both sets see the same
minutes of host drift. It keeps every run's raw numbers and reports, per
metric: the spread over all runs (interquartile range as a share of the
median, as statistics.quantiles(n=4) gives it), each set's median and
spread, and the set-to-set difference of the medians. Bounds in
BENCHMARK.json are set from these figures. One traced run (seed 1) per
workload records the per-layer split next to them.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402


def spread(values):
    """Interquartile range as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def summarize(runs):
    out = {}
    for name, _ in run.END_TO_END:
        vals = [r["metrics"][name] for r in runs if name in r["metrics"]]
        sets = {s: [r["metrics"][name] for r in runs
                    if r["set"] == s and name in r["metrics"]]
                for s in ("A", "B")}
        if len(vals) < 4 or min(len(v) for v in sets.values()) < 2:
            continue
        med = {s: statistics.median(v) for s, v in sets.items()}
        out[name] = {
            "median": statistics.median(vals),
            "spread": spread(vals),
            "set_A_median": med["A"],
            "set_B_median": med["B"],
            "set_A_spread": spread(sets["A"]) if len(sets["A"]) > 2 else None,
            "set_B_spread": spread(sets["B"]) if len(sets["B"]) > 2 else None,
            "set_diff": med["B"] / med["A"] - 1.0 if med["A"] else 0.0,
        }
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=None,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--workloads", default=",".join(run.WORKLOADS))
    ap.add_argument("--out", default=os.path.join(HERE, "results",
                                                  "steadiness.json"))
    args = ap.parse_args()
    seconds = args.seconds
    if seconds is None:
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            seconds = json.load(f)["run_seconds"]
    report = {"seconds": seconds, "runs": args.runs, "workloads": {}}
    for name in args.workloads.split(","):
        runs = []
        for i in range(args.runs):
            seed = i + 1
            with tempfile.NamedTemporaryFile(suffix=".json") as raw:
                res = subprocess.run(
                    [sys.executable, os.path.join(HERE, "run.py"),
                     "--workload", name, "--seed", str(seed), "--seconds",
                     str(seconds), "--trace", "0", "--raw", raw.name],
                    stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                    text=True, check=True, cwd=run.ROOT)
                detail = json.load(open(raw.name))
            result = json.loads(res.stdout.strip().splitlines()[-1])
            for rep in detail["reps"]:
                rep["intervals"] = len(rep.pop("intervals_ms") or [])
            runs.append({"set": "AB"[i % 2], "seed": seed,
                         "correct": result["correct"],
                         "metrics": {k: v["value"] for k, v in
                                     result["metrics"].items()},
                         "reps": detail["reps"]})
            print(f"{name} seed {seed}: " + " ".join(
                f"{k}={v:.4g}" for k, v in runs[-1]["metrics"].items()),
                flush=True)
        summary = summarize(runs)
        res = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", name,
             "--seed", "1", "--seconds", str(seconds), "--trace", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            check=True, cwd=run.ROOT)
        traced = json.loads(res.stdout.strip().splitlines()[-1])
        report["workloads"][name] = {
            "summary": summary, "runs": runs,
            "traced_seed_1": {"correct": traced["correct"],
                              "metrics": {k: v["value"] for k, v in
                                          traced["metrics"].items()}}}
        for k, s in summary.items():
            print(f"{name:13s} {k:16s} median={s['median']:.4g} "
                  f"spread={s['spread']:.3f} set-diff={s['set_diff']:+.3f}",
                  flush=True)
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(report, f, indent=1)


if __name__ == "__main__":
    main()
