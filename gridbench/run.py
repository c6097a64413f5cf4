#!/usr/bin/env python3
"""Benchmark runner for the Condor-G simulation suite.

    python3 gridbench/run.py --workload grid_campaign --seed 1 --seconds 20 --trace 0

Run from the repository root. Builds the `gridbench` crate (release,
offline) into $CARGO_TARGET_DIR (default `.bench_build`), then runs the
workload in fresh processes, one run per process, with the same seed until
`--seconds` have passed. Every run must pass the correctness gate:

* the ledger balances: every submitted job reached exactly one terminal
  outcome, none lost, none reported twice, done + failed = submitted;
* every run of the invocation has the same outcome digest and the same
  sim metrics (they are a function of the seed alone);
* with --trace 1, the traced runs' digest equals the untraced runs';
* the pooled turnaround sample leaves at least ten samples beyond p99.9;
* grid_campaign: the first campaign's digest at one shard per core equals
  its digest at one shard (checked once per invocation, in an extra
  unmeasured run).

With --trace 0, each run starts SETUP_PROBES set-up-only processes before
each of its campaigns and after the last (`--setup-probes`); `setup_s` is
the shortest of all their set-up times.

The last stdout line is one JSON object: `correct`, `attempted` (jobs
submitted over the measured runs and the shard check's run), `failed` (jobs
that failed, were lost or reported twice, plus every job of a run that
broke a gate) and `metrics`:
the `end_to_end` metrics of BENCHMARK.json with --trace 0, its `per_layer`
metrics with --trace 1. A failed gate exits 1 after printing the result.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")

# Sim metrics and counts: bit-identical across runs of one seed.
SIM_KEYS = (
    "job_done_frac",
    "job_fail_frac",
    "sim_turnaround_p50_s",
    "sim_turnaround_p999_s",
    "sim_makespan_s",
    "turnaround_samples",
    "events",
)
# A single run may not exceed this much address space (a collapsing
# staging run grows without bound; fail it instead of the machine).
MEMORY_LIMIT = 3 << 30
RUN_TIMEOUT_S = 150
# Measured runs per invocation, at least (even past --seconds): two, so
# every invocation checks that a seed repeats its outcome.
MIN_RUNS = 2
# Set-up-only processes before each campaign of a --trace 0 run, and after
# its last.
SETUP_PROBES = 5


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")


def build():
    """Build the benchmark binary; returns its path or None."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", MANIFEST]
    try:
        done = subprocess.run(cmd, env=env, cwd=ROOT, timeout=870,
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"build failed: {e}")
        return None
    if done.returncode != 0:
        log(done.stdout.decode(errors="replace")[-4000:])
        log("build failed")
        return None
    path = os.path.join(target_dir(), "release", "gridbench")
    return path if os.path.exists(path) else None


def limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def run_once(binary, workload, seed, shards, trace, extra=()):
    """One workload run in its own process; returns its JSON record."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--shards", str(shards), "--trace", "1" if trace else "0", *extra]
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              preexec_fn=limit_memory)
    except subprocess.TimeoutExpired:
        log(f"run timed out: {' '.join(cmd)}")
        return None
    if done.returncode != 0:
        log(done.stderr.decode(errors="replace")[-2000:])
        log(f"run exited {done.returncode}: {' '.join(cmd)}")
        return None
    lines = done.stdout.decode().strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def problems(r, reference):
    """Why run `r` fails the correctness gate (empty when it passes)."""
    out = []
    if not r["balanced"]:
        out.append("ledger unbalanced")
    if r["digests"] != reference["digests"]:
        out.append(f"digests {r['digests']} != {reference['digests']}")
    for k in SIM_KEYS:
        if r[k] != reference[k]:
            out.append(f"{k} {r[k]} != {reference[k]}")
    if not r["p999_tail_ok"]:
        out.append("fewer than ten samples beyond p99.9")
    return out


def gate(records, reference, single=None):
    """Check every run; returns (all passed, jobs attempted, jobs charged as
    failed). A run's own failed, lost and duplicated jobs count as failed,
    and every job of a run that breaks the gate does. `single` is the
    grid_campaign shard check's one-shard run of the first campaign, whose
    digest must equal the reference's first."""
    ok, attempted, bad_jobs = True, 0, 0
    for r in records:
        attempted += r["submitted"]
        why = problems(r, reference)
        if why:
            ok = False
            bad_jobs += r["submitted"]
            log(f"gate failed ({r['workload']} seed {r['seed']} shards "
                f"{r['shards']} trace {r['trace']}): {'; '.join(why)}")
        else:
            bad_jobs += r["failed"] + r["lost"] + r["duplicates"] + r["unknown"]
    if single is not None:
        attempted += single["submitted"]
        if not single["balanced"] or single["digests"][0] != reference["digests"][0]:
            log(f"gate failed: digest at 1 shard {single['digests'][0]} != "
                f"{reference['digests'][0]} at {reference['shards']} shards")
            ok = False
            bad_jobs += single["submitted"]
        else:
            bad_jobs += single["failed"]
    return ok, attempted, bad_jobs


def measure(binary, args, shards):
    """Repeat runs until --seconds passed; returns (runs, traced runs)."""
    runs, traced = [], []
    start = time.monotonic()
    probes = ("--setup-probes", str(0 if args.trace else SETUP_PROBES))
    while True:
        r = run_once(binary, args.workload, args.seed, shards, False, probes)
        if r is None:
            return None
        runs.append(r)
        if args.trace:
            t = run_once(binary, args.workload, args.seed, shards, True)
            if t is None:
                return None
            traced.append(t)
        elapsed = time.monotonic() - start
        per_round = elapsed / len(runs)
        enough = len(runs) >= (1 if args.trace else MIN_RUNS)
        if enough and elapsed + per_round > args.seconds:
            return runs, traced


def end_to_end(runs, attempted, bad_jobs):
    first = runs[0]
    return {
        # Per campaign, not per run, in reference seconds: each slice of a
        # campaign is scaled by the host-speed probes around it, so a
        # neighbour that halves the host's speed for a while does not halve
        # the figure (see README, "Host speed").
        "jobs_per_ref_s": statistics.median(
            [x for r in runs for x in r["campaign_jobs_per_ref_s"]]),
        # The shortest, not the median: on a shared VM one glidein_pool
        # set-up takes about 1.4 or 2.2 ms depending on the host's phase,
        # and a median or quartile flips between the two modes with the
        # share of slow phases; interference only ever adds time.
        "setup_s": min(x for r in runs for x in r["setup_probe_s"]),
        "peak_rss_mb": statistics.median([r["peak_rss_mb"] for r in runs]),
        # Passing runs balance, so their jobs not charged are the done ones.
        "job_done_frac": (attempted - bad_jobs) / attempted,
        "sim_turnaround_p50_s": first["sim_turnaround_p50_s"],
        "sim_turnaround_p999_s": first["sim_turnaround_p999_s"],
        "sim_makespan_s": first["sim_makespan_s"],
    }


def per_layer(runs, traced, bad_jobs, attempted):
    names = sorted(traced[0]["layers"])
    out = {n: statistics.median([t["layers"][n] for t in traced]) for n in names}
    plain = statistics.median([r["run_s"] for r in runs])
    out["gridsim.world.ns_per_event"] = statistics.median(
        [r["run_s"] / r["events"] * 1e9 for r in runs])
    out["gridbench.host.jobs_per_s"] = statistics.median(
        [x for r in runs for x in r["campaign_jobs_per_s"]])
    out["gridbench.host.probe_s"] = statistics.median(
        [x for r in runs for x in r["probe_s"]])
    out["trace.overhead_frac"] = statistics.median([t["run_s"] for t in traced]) / plain - 1
    out["gridbench.ledger.job_fail_frac"] = bad_jobs / attempted
    return out


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    args.seed %= 1 << 64  # the binary takes an unsigned 64-bit seed

    try:
        spec = load_spec()
    except (OSError, ValueError) as e:
        log(f"cannot read BENCHMARK.json: {e}")
        return 1
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"unknown workload {args.workload}")
        return 2
    binary = build()
    if binary is None:
        return 1

    shards = nproc() if args.workload == "grid_campaign" else 1
    measured = measure(binary, args, shards)
    if measured is None:
        return 1
    runs, traced = measured
    reference = runs[0]
    single = None
    if args.workload == "grid_campaign" and shards > 1:
        # The shard-count invariance check, on the first campaign only.
        single = run_once(binary, args.workload, args.seed, 1, False,
                          ("--campaigns", "1"))
        if single is None:
            return 1
    ok, attempted, bad_jobs = gate(runs + traced, reference, single)

    if args.trace:
        values = per_layer(runs, traced, bad_jobs, attempted)
        wanted = spec["per_layer"]
    else:
        values = end_to_end(runs, attempted, bad_jobs)
        wanted = spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            log(f"metric {m['name']} not measured")
            ok = False
            continue
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    print(f"{args.workload} seed {args.seed}: {len(runs)} runs"
          + (f" + {len(traced)} traced" if traced else "")
          + f", {reference['submitted']} jobs each, shards {shards}, "
          f"digests {' '.join(reference['digests'])}")
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": ok, "attempted": attempted,
                      "failed": bad_jobs, "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
