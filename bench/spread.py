"""Run the benchmark on several seeds and report the spread of each metric.

    python3 bench/spread.py --runs 10 --first-seed 1

For every workload in BENCHMARK.json and every end-to-end metric it prints the median, the first and
third quartiles (statistics.quantiles, n=4) and the quartile distance as a
share of the median, beside the metric's bound from BENCHMARK.json, and the
failed share of the operations.  Run from the repository root.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for w in [workload["name"] for workload in spec["workloads"]]:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = spec["command"] + ["--workload", w, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL, text=True, check=True).stdout
            runs.append(json.loads(out.strip().splitlines()[-1]))
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"{w}: failed share {sorted(shares)}, correct {all(r['correct'] for r in runs)}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            print(f"  {name:16s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {(q3 - q1) / med:.4f}  (bound {bound})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
