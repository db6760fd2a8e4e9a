#!/usr/bin/env python3
"""Self-test of the fixed-work benchmark.

    python3 fixedbench/selftest.py

Runs every workload at a tiny size twice (untraced) and once traced, through
fixedbench/run.py, and asserts:
  * both untraced runs report correct results with no failed op;
  * every exact count (overruns, nodes, hits, rows, ...) is identical
    between the two runs, pass for pass;
  * every end-to-end metric of BENCHMARK.json is printed with its unit, and
    the traced run prints every per-layer metric with its unit.
Exits non-zero on the first violated assertion.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCALE = "0.05"
SEED = "20090911"


def run(workload, trace):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               workload, "--seed", SEED, "--seconds", "1", "--trace",
               str(trace), "--scale", SCALE]
    out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
    if out.returncode != 0:
        sys.exit("FAIL %s trace=%d exited %d:\n%s" %
                 (workload, trace, out.returncode, out.stderr[-2000:]))
    lines = out.stdout.strip().splitlines()
    passes = [line.split(",", 4)[4] for line in lines
              if re.match(r"pass \d+: ", line)]
    return json.loads(lines[-1]), passes


def check_metrics(workload, result, spec):
    for metric in spec:
        got = result["metrics"].get(metric["name"])
        if got is None or got.get("unit") != metric["unit"]:
            sys.exit("FAIL %s: metric %s missing or not in %s: %r" %
                     (workload, metric["name"], metric["unit"], got))
        if not isinstance(got.get("value"), (int, float)):
            sys.exit("FAIL %s: metric %s has no number" %
                     (workload, metric["name"]))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    for workload in [w["name"] for w in bench["workloads"]]:
        first, first_passes = run(workload, 0)
        second, second_passes = run(workload, 0)
        for result in (first, second):
            if not result["correct"] or result["failed"] != 0:
                sys.exit("FAIL %s: correct=%s failed=%d" %
                         (workload, result["correct"], result["failed"]))
            check_metrics(workload, result, bench["end_to_end"])
        common = min(len(first_passes), len(second_passes))
        if common == 0 or first_passes[:common] != second_passes[:common]:
            sys.exit("FAIL %s: exact counts differ between runs:\n%s\n%s" %
                     (workload, first_passes, second_passes))
        if first["metrics"]["overruns"] != second["metrics"]["overruns"]:
            sys.exit("FAIL %s: overruns differ between runs" % workload)
        traced, _ = run(workload, 1)
        check_metrics(workload, traced, bench["per_layer"])
        print("ok %-16s %s" % (workload, first_passes[0].strip()))
    print("selftest passed")


if __name__ == "__main__":
    main()
