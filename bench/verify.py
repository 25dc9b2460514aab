"""Turn a round's outputs into per-operation verdicts.

verify() checks every operation of the first round against the computations
in checks.py; snapshot() reduces any round's outputs to values that must
repeat exactly, so later rounds are compared with the first.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from riscoupling.experiments import parse_config  # the sweep spec, for the expected rows

import checks
from workloads import BENCH, OUT_DIR, Inputs, Raised

REFERENCE = BENCH / "data" / "decoupled_reference.json"
ITERATIVE = ("ElementWise", "ElementWiseNaive")
MAX_SWEEPS = 500      # OptimizerConfig's default cap


def load_reference(path: Path = REFERENCE) -> dict:
    doc = json.loads(path.read_text(encoding="utf-8"))
    return {(r["N"], r["spacing"], r["alpha_tx"], r["alpha_rx"], r["gamma_loss"]): float(r["gain"])
            for r in doc["rows"]}


# --- figures ---------------------------------------------------------------


def _read_csv(path: Path) -> dict:
    """{(method, N, spacing, alpha_tx, alpha_rx, gamma_loss): [(sweep_index, gain, flags)]}."""
    groups: dict = {}
    with open(path, encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            key = (row["method"], int(row["N"]), float(row["spacing"]), float(row["alpha_tx"]),
                   float(row["alpha_rx"]), float(row["gamma_loss"]))
            flags = tuple(f for f in row["flags"].split(";") if f)
            groups.setdefault(key, []).append((int(row["sweep_index"]), float(row["array_gain"]), flags))
    return {k: sorted(v) for k, v in groups.items()}


def _figure_specs(inputs: Inputs):
    for path in inputs.configs:
        spec = parse_config(path.read_text(encoding="utf-8"))
        yield path, spec


def _check_closed_form(method: str, s, rows, reference: dict) -> str | None:
    if len(rows) != 1 or rows[0][0] != -1:
        return f"expected one closed-form row, got {len(rows)}"
    value = rows[0][1]
    if not (math.isfinite(value) and value > 0.0):
        return f"gain {value!r} is not a positive number"
    if method == "NoCoupling":
        return checks.close(value, checks.no_coupling_gain(s.n, s.spacing, s.alpha_tx, s.alpha_rx),
                            checks.CLOSED_FORM_RTOL, "NoCoupling against (|a_DR^T a_RS| + N)^2/4")
    if method == "IgnoreMC":
        ref, cond = checks.ignore_mc_gain(s)
        if cond > checks.IGNORE_MC_MAX_COND:
            return None
        return checks.close(value, ref, checks.CLOSED_FORM_RTOL, "IgnoreMC against a dense solve",
                            checks.CLOSED_FORM_ATOL)
    if method == "Decoupled":
        key = (s.n, s.spacing, s.alpha_tx, s.alpha_rx, s.gamma_loss)
        if key in reference:
            return checks.close(value, reference[key], checks.DECOUPLED_RTOL,
                                "Decoupled against the extended-precision reference")
        if s.spacing == 0.5 and s.gamma_loss == 0.0:
            # Re(Z_R) = R I at half-wavelength spacing, so the gain is NoCoupling's
            ref = checks.no_coupling_gain(s.n, s.spacing, s.alpha_tx, s.alpha_rx)
            return checks.close(value, ref, checks.CLOSED_FORM_RTOL, "half-wavelength Decoupled")
        return "no extended-precision reference for this row (make_reference.py covers N <= 32)"
    return f"no check for method {method}"


def _check_sweeps(rows, ignore_mc: float, max_sweeps: int) -> str | None:
    indices = [r[0] for r in rows]
    if indices != list(range(len(rows))):
        return "sweep rows are not numbered 0..S-1"
    values = np.array([r[1] for r in rows])
    flagged = "not_converged" in rows[-1][2]
    return (checks.monotone(values)
            or checks.honest_convergence(not flagged, len(rows), max_sweeps)
            or (None if values[-1] >= ignore_mc * (1 - checks.MONOTONE_SLACK) else
                f"final gain {values[-1]!r} below the x = 0 (IgnoreMC) gain {ignore_mc!r}"))


def verify_figures(inputs: Inputs, reference: dict):
    """Verdicts per (config, method, scenario), objective values and completeness."""
    verdicts, objectives, complete = {}, [], True
    for path, spec in _figure_specs(inputs):
        groups = _read_csv(OUT_DIR / spec.output)
        expected = {(m.value, s.n, s.spacing, s.alpha_tx, s.alpha_rx, s.gamma_loss): s
                    for s in spec.scenarios() for m in spec.methods}
        complete &= set(groups) == set(expected)
        for key, s in expected.items():
            method, rows = key[0], groups.get(key, [])
            errors = [f for r in rows for f in r[2] if f.startswith("error:")]
            if not rows:
                reason = "no rows written"
            elif errors:
                reason = f"flagged {errors[0]}"
            elif method in ITERATIVE:
                reason = _check_sweeps(rows, checks.ignore_mc_gain(s)[0], spec.max_sweeps)
                other = groups.get(("ElementWiseNaive",) + key[1:])
                if reason is None and method == "ElementWise" and other:
                    reason = checks.traces_agree(np.array([r[1] for r in rows]),
                                                 np.array([r[1] for r in other]))
                if spec.scenario_id.startswith("fig3"):
                    objectives.append(rows[-1][1])
            else:
                reason = _check_closed_form(method, s, rows, reference)
            verdicts[(path.name,) + key] = reason
    return verdicts, objectives, complete


def snapshot_figures(inputs: Inputs) -> dict:
    """The written CSVs without their wall-time column, keyed like the verdicts."""
    snap = {}
    for path, spec in _figure_specs(inputs):
        for key, rows in _read_csv(OUT_DIR / spec.output).items():
            snap[(path.name,) + key] = rows
    return snap


# --- optimizer workloads -----------------------------------------------------


def _blocks(op) -> tuple[dict, bool]:
    if op.scenario is None:
        return op.blocks, True
    return checks.siso_blocks(op.scenario), False


def objective(op, res) -> float:
    """The objective the workload reports: SE in bits, or the SISO array gain."""
    b, se = _blocks(op)
    return float(res.trace[-1]) if se else float(res.trace[-1]) / b["norm"]


def verify_ops(inputs: Inputs, outputs: dict):
    verdicts, objectives = {}, []
    for op in inputs.ops:
        res = outputs[(op.key, op.method)]
        if isinstance(res, Raised):
            verdicts[(op.key, op.method)] = f"raised {res.error}"
            continue
        b, se = _blocks(op)
        reason = (checks.monotone(res.trace)
                  or checks.honest_convergence(res.converged, res.sweeps, MAX_SWEEPS)
                  or checks.final_matches_state(float(res.trace[-1]), b, res.state.x, se)
                  or checks.start_not_beaten(res.trace, b, se)
                  or (checks.coordinate_optimal(b, res.state.x, se) if res.converged else None))
        dense = outputs.get((op.key, "ElementWiseNaive"))
        if reason is None and op.method == "ElementWise" and hasattr(dense, "trace"):
            reason = checks.traces_agree(res.trace, dense.trace)
        verdicts[(op.key, op.method)] = reason
        objectives.append(objective(op, res))
    return verdicts, objectives, True


def snapshot_ops(outputs: dict) -> dict:
    return {k: res if isinstance(res, Raised) else
            (res.trace.tobytes(), res.state.x.tobytes(), res.sweeps, res.converged)
            for k, res in outputs.items()}


def verify(inputs: Inputs, outputs: dict, reference: dict):
    """(verdicts {op: None or reason}, objective values, whether every output was present)."""
    if inputs.workload == "figures":
        return verify_figures(inputs, reference)
    return verify_ops(inputs, outputs)


def snapshot(inputs: Inputs, outputs: dict) -> dict:
    if inputs.workload == "figures":
        return snapshot_figures(inputs)
    return snapshot_ops(outputs)
