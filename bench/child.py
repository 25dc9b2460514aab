"""One workload process.  Started by run.py; not meant to be run by hand.

    python3 bench/child.py WORKLOAD SEED SECONDS TRACE SPAWNED_AT
    python3 bench/child.py WORKLOAD SEED setup-only 0 SPAWNED_AT

SPAWNED_AT is the CLOCK_MONOTONIC time at which run.py started this process,
so setup time covers interpreter start.  The last line of stdout is a JSON
object for run.py.
"""

import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

_BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(_BENCH.parent / "src"), str(_BENCH)]


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


# Later rounds are compared with the first, and wall_s is a median of rounds,
# so every measuring process runs at least this many.
MIN_ROUNDS = 3


class Rounds:
    """Runs whole rounds of a workload's operations and keeps what the checks need."""

    def __init__(self, workloads, verify, inputs):
        self.workloads, self.verify, self.inputs = workloads, verify, inputs
        self.first = None           # outputs of the first round, checked in full
        self.snaps = []             # every round's outputs reduced to exact values

    def run(self, limit: float, tracer=None) -> tuple[list[float], list[dict]]:
        """Whole rounds for up to limit seconds of solve time, at least MIN_ROUNDS.

        Beyond those, a round starts only if, at the length of the last one,
        it ends within the limit.  Returns each round's solve time and, with
        a tracer, each round's per-layer metrics.
        """
        times, layers = [], []
        while len(times) < MIN_ROUNDS or sum(times) + times[-1] <= limit:
            if self.inputs.workload == "figures":
                for f in self.workloads.OUT_DIR.glob("*.csv"):
                    f.unlink()
            mark = tracer.mark() if tracer else None
            a = _now()
            outputs = self.workloads.run_round(self.inputs)
            times.append(_now() - a)
            if tracer:
                layers.append(tracer.round_metrics(mark))
            self.snaps.append(self.verify.snapshot(self.inputs, outputs))
            if self.first is None:
                self.first = outputs
        return times, layers


def main(argv: list[str]) -> dict:
    workload, seed, seconds, trace, spawned_at = argv
    t0 = _now()
    import riscoupling  # noqa: F401  (numpy comes with it)
    t1 = _now()
    import workloads
    inputs = workloads.make_inputs(workload, int(seed))
    t2 = _now()
    setup = {"setup_s": t2 - float(spawned_at), "import_s": t1 - t0, "inputs_s": t2 - t1}
    if seconds == "setup-only":
        return setup

    import verify
    budget = float(seconds)
    rounds = Rounds(workloads, verify, inputs)
    result: dict = {"setup": setup}
    if trace == "0":
        times, _ = rounds.run(budget)
        result["wall_s"] = statistics.median(times)
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        import tracing
        plain, _ = rounds.run(budget / 2)
        tracer = tracing.Tracer()
        tracer.install(extra_modules=[workloads])
        try:
            traced, layers = rounds.run(budget / 2, tracer)
        finally:
            tracer.uninstall()
        workloads.OUT_DIR.mkdir(exist_ok=True)
        tracer.save(workloads.OUT_DIR / f"spans-{workload}.npz")
        layer = {k: statistics.median(r[k] for r in layers) for k in layers[0]}
        layer["setup.import.s"] = setup["import_s"]
        layer["setup.inputs.s"] = setup["inputs_s"]
        layer["tracing.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        result["per_layer"] = {k: {"value": layer[k], "unit": unit}
                               for k, unit in tracing.PER_LAYER.items()}

    # Checks, outside every timed region: the first round in full, every
    # later round by exact comparison with the first.
    verdicts, objectives, complete = verify.verify(inputs, rounds.first, verify.load_reference())
    failing = {key for key, reason in verdicts.items() if reason is not None}
    reasons = {str(key): verdicts[key] for key in sorted(failing, key=str)}
    failed = 0
    for k, snap in enumerate(rounds.snaps, start=1):
        complete &= snap.keys() == rounds.snaps[0].keys()
        differs = {key for key in snap if snap[key] != rounds.snaps[0].get(key)}
        for key in differs - failing:
            reasons[f"{key} round {k}"] = "output differs from round 1"
        failed += len(failing | differs)
    digests = {str(key): hashlib.sha256(repr(value).encode()).hexdigest()
               for key, value in rounds.snaps[0].items()}
    result.update(
        digests=digests,
        reasons=reasons,
        rounds=len(rounds.snaps),
        attempted=len(rounds.snaps) * len(verdicts),
        failed=failed,
        complete=bool(complete) and len(verdicts) > 0,
        objective_gmean=statistics.geometric_mean(objectives),
    )
    return result


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
