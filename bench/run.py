"""Benchmark entry point: one workload, one seed, one JSON line.

    python3 bench/run.py --workload figures --seed 1 --seconds 24 --trace 0

Run from the repository root.  A run starts MEASURING_PROCESSES fresh
processes one after another, each of which runs whole rounds of the workload
for its share of --seconds and checks every output (see README.md).  Before
each of them, and once more at the end, SETUP_PROBES short processes stop at
the first call into a solver, for setup_s.  Every process runs with
OPENBLAS_NUM_THREADS=1.  The last line of stdout is the result; failed
operations are listed on stderr.  With --trace 1 a single process runs half
its time untraced and half traced, and the result holds the per-layer
metrics instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("figures", "ew_random", "ew_large_n", "se_mimo")
# Each Python process runs at its own speed (hash seed, memory layout), so
# solve time is the median over several processes rather than one.  Two
# processes of half the run each leave room for three rounds of the longest
# workload in each.
MEASURING_PROCESSES = 2
SETUP_PROBES = 3
CHILD_TIMEOUT_S = 170.0


def _child(args: list[str], deadline: float) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    spawned_at = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "child.py"), *args, repr(spawned_at)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"workload process did not finish within {CHILD_TIMEOUT_S:.0f} s")
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise RuntimeError("workload process printed no result")
    return json.loads(lines[-1])


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    if not (ROOT / "src" / "riscoupling" / "__init__.py").is_file():
        raise RuntimeError(f"no package source under {ROOT / 'src'}")
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    probe = [workload, str(seed), "setup-only", "0"]
    processes = 1 if trace else MEASURING_PROCESSES
    setups, results = [], []
    for _ in range(processes):
        setups += [_child(probe, deadline)["setup_s"] for _ in range(SETUP_PROBES)]
        res = _child([workload, str(seed), repr(seconds / processes), str(trace)], deadline)
        setups.append(res["setup"]["setup_s"])
        results.append(res)
    setups += [_child(probe, deadline)["setup_s"] for _ in range(SETUP_PROBES)]

    # Every process must write what the first one wrote; an operation whose
    # output differs fails in each round of the process that wrote it.
    first = results[0]
    failed = sum(r["failed"] for r in results)
    for i, r in enumerate(results[1:], start=2):
        differs = [k for k, d in r["digests"].items() if first["digests"].get(k) != d
                   and k not in r["reasons"]]
        failed += r["rounds"] * len(differs)
        for k in differs:
            first["reasons"][f"{k} process {i}"] = "output differs from the first process"
    for key, reason in first["reasons"].items():
        print(f"failed {key}: {reason}", file=sys.stderr)

    if trace:
        metrics = first["per_layer"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(r["wall_s"] for r in results), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in results),
                            "unit": "MB"},
            "objective_gmean": {"value": first["objective_gmean"], "unit": "1"},
        }
    return {"correct": all(r["complete"] and r["digests"].keys() == first["digests"].keys()
                           for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, OSError, ValueError, KeyError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
