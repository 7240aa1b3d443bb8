#!/usr/bin/env python3
"""Tiny-size self-check of the benchmark.

    python3 perfbench/selfcheck.py [--scale 0.05]

Runs every workload through run.py at a small scale and checks:
  - the result format: the last stdout line has exactly the keys correct,
    attempted, failed and metrics, and reports every end-to-end metric
    (--trace 0) or every per-layer metric (--trace 1) of BENCHMARK.json with
    its unit;
  - a clean run passes the output gate (correct, no failed cell);
  - the counters of two traced runs repeat exactly;
  - the gate counts injected faults instead of crashing: one flipped bit in
    a Spark cell fails exactly that cell, and a throwing Spark call fails
    every cell of its attribute.
Exits non-zero on the first failed check.
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sn-table5", "ca-sweep", "serve")


def metric_names(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def run(workload, scale, trace, fault="none", seed=7):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), "--scale", str(scale), "--fault", fault]
    p = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    if p.returncode != 0:
        raise AssertionError("%s exited with %d" % (" ".join(cmd[1:]), p.returncode))
    res = json.loads(p.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
    assert isinstance(res["attempted"], int) and res["attempted"] >= 1, res
    assert isinstance(res["failed"], int), res
    return res


def check(cond, what):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        sys.exit(1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--scale", type=float, default=0.05)
    a = ap.parse_args()
    e2e, layers = metric_names("end_to_end"), metric_names("per_layer")
    for w in WORKLOADS:
        res = run(w, a.scale, 0)
        check(res["correct"] and res["failed"] == 0, "%s: clean run passes the gate" % w)
        check({k: m["unit"] for k, m in res["metrics"].items()} == e2e,
              "%s: every end-to-end metric, with its unit" % w)
        check(all(isinstance(m["value"], float) and m["value"] > 0 for m in res["metrics"].values()),
              "%s: end-to-end values are positive numbers" % w)

        t1, t2 = run(w, a.scale, 1), run(w, a.scale, 1)
        check(t1["correct"] and t2["correct"], "%s: traced runs pass the gate" % w)
        check({k: m["unit"] for k, m in t1["metrics"].items()} == layers,
              "%s: every per-layer metric, with its unit" % w)
        counts = [k for k, u in layers.items() if u in ("count", "tuples") and k.startswith("core.")]
        same = all(t1["metrics"][k]["value"] == t2["metrics"][k]["value"] for k in counts)
        check(same, "%s: %d core counters repeat exactly across two traced runs" % (w, len(counts)))

        flip = run(w, a.scale, 1, fault="flip")
        check(not flip["correct"] and flip["failed"] == 1, "%s: one flipped bit fails one cell" % w)
        throw = run(w, a.scale, 1, fault="throw")
        check(not throw["correct"] and throw["failed"] >= 1,
              "%s: a throwing call fails its cells (%d) without a crash" % (w, throw["failed"]))
    print("self-check passed")


if __name__ == "__main__":
    main()
