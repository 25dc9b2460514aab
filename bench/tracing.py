"""Per-layer timing from outside the package.

Tracer.install() replaces the package's module-level public functions (and
the private per-update objective) with wrappers that record one span per
call: name, start, end and the span that was open when it was called.  Every
module binding of a function is replaced, because modules import each other's
functions by name.  Spans are kept in memory and written out by save().
"""

from __future__ import annotations

import os
import sys
import time
from array import array

import numpy as np

# (module, function) pairs wrapped; the span name is "<module>.<function>".
TRACED = (
    ("experiments", "run_sweep"),
    ("experiments", "write_csv"),
    ("channel", "build_los_scenario"),
    ("channel", "evaluate_channel"),
    ("channel", "psd_inv_sqrt"),
    ("decoupling", "array_gain"),
    ("baselines", "no_coupling_gain"),
    ("baselines", "ignore_mc_gain"),
    ("baselines", "naive_elementwise"),
    ("elementwise", "optimize"),
    ("elementwise", "coordinate_ascent"),
    ("elementwise", "element_params"),
    ("elementwise", "optimal_theta_siso"),
    ("elementwise", "theta_to_delta_x"),
    ("elementwise", "apply_update"),
    ("elementwise", "_objective"),
    ("elementwise", "init_context"),
    ("elementwise", "refactor"),
    ("elementwise", "siso_derivatives"),
    ("elementwise", "trust_region_step"),
    ("elementwise", "gram_factors"),
    ("elementwise", "optimal_theta_se"),
)

# Per-layer metrics: name -> unit.  ".s" is total time in calls, ".calls" a count.
PER_LAYER = {
    "setup.import.s": "s",
    "setup.inputs.s": "s",
    "experiments.run_sweep.s": "s",
    "experiments.write_csv.s": "s",
    "experiments.records": "count",
    "experiments.csv_bytes": "B",
    "channel.build_los_scenario.calls": "count",
    "channel.build_los_scenario.s": "s",
    "channel.evaluate_channel.calls": "count",
    "channel.evaluate_channel.s": "s",
    "channel.psd_inv_sqrt.calls": "count",
    "channel.psd_inv_sqrt.s": "s",
    "decoupling.array_gain.calls": "count",
    "decoupling.array_gain.s": "s",
    "baselines.no_coupling_gain.s": "s",
    "baselines.ignore_mc_gain.s": "s",
    "baselines.naive_elementwise.s": "s",
    "baselines.naive_elementwise.sweeps": "count",
    "elementwise.element_params.s": "s",
    "elementwise.optimal_theta_siso.s": "s",
    "elementwise.theta_to_delta_x.s": "s",
    "elementwise.apply_update.s": "s",
    "elementwise.objective.s": "s",
    "elementwise.optimize.s": "s",
    "elementwise.sweeps": "count",
    "elementwise.updates": "count",
    "elementwise.us_per_update": "us",
    "elementwise.not_converged": "count",
    "elementwise.init_context.calls": "count",
    "elementwise.init_context.s": "s",
    "elementwise.refactor.calls": "count",
    "elementwise.refactor.s": "s",
    "elementwise.accel.attempts": "count",
    "elementwise.accel.kept": "count",
    "elementwise.trust_region_step.s": "s",
    "elementwise.siso_derivatives.s": "s",
    "elementwise.gram_factors.s": "s",
    "elementwise.optimal_theta_se.s": "s",
    "tracing.overhead_s": "s",
}


def _span_name(module: str, func: str) -> str:
    return f"{module}.{func.lstrip('_')}"


class Tracer:
    """Records spans of the wrapped functions; see the module docstring."""

    def __init__(self):
        self.names = [_span_name(m, f) for m, f in TRACED]
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._open = [-1]                   # stack of open span indices
        self._returns: list[tuple[int, object, tuple, dict]] = []
        self._keep_returns = {self.names.index(n) for n in (
            "experiments.run_sweep", "experiments.write_csv", "elementwise.coordinate_ascent",
            "elementwise.optimize", "baselines.naive_elementwise")}
        self._saved: list[tuple[str, object, object]] = []

    def _wrap(self, name_id: int, fn):
        keep = name_id in self._keep_returns
        clock = time.perf_counter
        names, starts, ends, parents, stack = (self._name, self._start, self._end,
                                               self._parent, self._open)
        returns = self._returns

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if keep:
                returns.append((name_id, result, args, kwargs))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, extra_modules=()) -> None:
        """Wrap every binding of the traced functions in the package and in extra_modules."""
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "riscoupling" or n.startswith("riscoupling."))]
        modules += list(extra_modules)
        for i, (mod, func) in enumerate(TRACED):
            original = getattr(sys.modules[f"riscoupling.{mod}"], func)
            wrapper = self._wrap(i, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._saved.append((m, attr, value))
                        setattr(m, attr, wrapper)

    def uninstall(self) -> None:
        for m, attr, value in reversed(self._saved):
            setattr(m, attr, value)
        self._saved.clear()

    def mark(self) -> tuple[int, int]:
        """Where the next span and return go; what follows a mark is one round."""
        return len(self._name), len(self._returns)

    def round_metrics(self, mark: tuple[int, int]) -> dict:
        """Per-layer metrics of the spans and returns recorded since mark."""
        span_from, returns_from = mark
        name = np.frombuffer(self._name, dtype=np.int32)[span_from:]
        dur = (np.frombuffer(self._end)[span_from:] - np.frombuffer(self._start)[span_from:])
        parent = np.frombuffer(self._parent, dtype=np.int32)[span_from:]
        ids = {n: i for i, n in enumerate(self.names)}
        calls = np.bincount(name, minlength=len(self.names))
        total = np.bincount(name, weights=dur, minlength=len(self.names))
        m = {}
        for n, i in ids.items():
            m[f"{n}.calls"] = int(calls[i])
            m[f"{n}.s"] = float(total[i])
        # element updates made by optimize: element_params -> coordinate_ascent -> optimize
        all_names = np.frombuffer(self._name, dtype=np.int32)
        all_parent = np.frombuffer(self._parent, dtype=np.int32)
        ep = np.flatnonzero(name == ids["elementwise.element_params"])
        ca = parent[ep]
        grand = all_parent[ca]
        updates = int(np.sum(all_names[grand[grand >= 0]] == ids["elementwise.optimize"]))

        records = csv_bytes = ew_sweeps = naive_sweeps = not_conv = kept = 0
        for name_id, result, args, kwargs in self._returns[returns_from:]:
            n = self.names[name_id]
            if n == "experiments.run_sweep":
                records += len(result)
            elif n == "experiments.write_csv":
                path = kwargs.get("path", args[1] if len(args) > 1 else None)
                csv_bytes += os.path.getsize(path)
            elif n == "elementwise.optimize":
                ew_sweeps += result.sweeps
                not_conv += int(not result.converged)
            elif n == "baselines.naive_elementwise":
                naive_sweeps += result.sweeps
            elif n == "elementwise.coordinate_ascent":
                n_elem = args[0].n
                kept += result.trace.size - 1 - n_elem * result.sweeps
        out = {
            "experiments.run_sweep.s": m["experiments.run_sweep.s"],
            "experiments.write_csv.s": m["experiments.write_csv.s"],
            "experiments.records": records,
            "experiments.csv_bytes": csv_bytes,
            "baselines.naive_elementwise.sweeps": naive_sweeps,
            "elementwise.sweeps": ew_sweeps,
            "elementwise.updates": updates,
            "elementwise.us_per_update": (1e6 * m["elementwise.optimize.s"] / updates
                                          if updates else 0.0),
            "elementwise.not_converged": not_conv,
            "elementwise.accel.attempts": m["elementwise.trust_region_step.calls"],
            "elementwise.accel.kept": kept,
        }
        for key in PER_LAYER:
            if key not in out and key in m:
                out[key] = m[key]
        return out

    def save(self, path) -> None:
        """Write every recorded span: names, start and end times, parent span index."""
        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.frombuffer(self._name, dtype=np.int32),
            start=np.frombuffer(self._start), end=np.frombuffer(self._end),
            parent=np.frombuffer(self._parent, dtype=np.int32))
