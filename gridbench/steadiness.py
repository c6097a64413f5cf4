#!/usr/bin/env python3
"""Steadiness report: how far each end-to-end metric spreads across seeds.

    python3 gridbench/steadiness.py [--sets 1|2]

Runs `run.py` RUNS times on every workload of BENCHMARK.json for its
`run_seconds`, each time with another seed (1, 2, ...), and prints per
end-to-end metric the median, the quartiles and the spread
(q3 - q1) / median next to the metric's bound. A metric is `steady` when
its spread is under a third of its bound and `ok` when under the bound.
With `--sets 2` the same seeds run twice and the report also compares the
two sets' medians, as a regression check between two runs of identical
code would. Exit code 1 when any spread is over its bound or a second
median is worse than the first by more than the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNS = 10


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf"), med, q1, q3


def worse_by(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`."""
    if not first:
        return 0.0
    delta = (second - first) / abs(first)
    return delta if better == "lower" else -delta


def run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, timeout=600)
    lines = done.stdout.decode().strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if done.returncode != 0 or not result or not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: run failed")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--sets", type=int, choices=(1, 2), default=1)
    args = p.parse_args()

    failed = False
    for workload in [w["name"] for w in spec["workloads"]]:
        sets = [[run(workload, seed, spec["run_seconds"]) for seed in range(1, RUNS + 1)]
                for _ in range(args.sets)]
        print(f"{workload}: seeds 1-{RUNS}, {args.sets} set(s)")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            first = [r[name] for r in sets[0]]
            sp, med, q1, q3 = spread(first)
            verdict = "steady" if sp < bound / 3 else "ok" if sp <= bound else "WIDE"
            if verdict == "WIDE":
                failed = True
            line = (f"  {name:<24} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g}"
                    f" spread {sp:7.2%} bound {bound:5.0%} {verdict}")
            if len(sets) == 2:
                second = statistics.median([r[name] for r in sets[1]])
                w = worse_by(med, second, m["better"])
                line += f" | set2 median {second:.6g} worse {w:+7.2%}"
                if w > bound:
                    line += " REGRESSED"
                    failed = True
            print(line, flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
