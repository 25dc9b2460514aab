"""Inputs and operations of the four benchmark workloads.

Every workload's inputs are fixed draws from recorded generator seeds, so the
work of a round and the set of failing operations do not depend on the
benchmark's --seed, which only sets the order the operations of a round run in.
Drawing the inputs from --seed was measured to move se_mimo's solve time by
20% between seeds (the sweep count depends on the channel draw), and the
C06 breaches of ew_random appear on some draws only.

An operation is one (scenario, method) result.  run_round() executes all of
them through the package's public functions and returns their outputs; the
checks in checks.py read those outputs afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from riscoupling import (
    ImpedanceChannel,
    OptimizerConfig,
    RisState,
    Scenario,
    build_los_scenario,
    cli,
    naive_elementwise,
    optimize,
)

from checks import coupling_matrix

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SHIPPED_CONFIGS = ROOT / "src" / "riscoupling" / "configs"
BENCH_CONFIGS = BENCH / "configs"
OUT_DIR = ROOT / ".bench_out"

WORKLOADS = ("figures", "ew_random", "ew_large_n", "se_mimo")

# Recorded generator seeds.  ew_random draws from the C07 scenario
# distribution with a seed the acceptance tests do not use; its draw 7, the
# last one taken, breaks C06 (see README).
EW_RANDOM_SEED = 1
EW_RANDOM_DRAWS = 8
EW_LARGE_SEED = 14
EW_LARGE_DRAWS = 3
SE_SEED = 8
SE_DRAWS = 6
SE_SCALE = 4.0          # ohms per unit of i.i.d. CN(0, 1) entry of Z_DR and Z_RS
SE_R = 50.0


def figure_configs() -> list[Path]:
    """Every shipped figure config, then the benchmark's own large-array config."""
    return sorted(SHIPPED_CONFIGS.glob("fig*.cfg")) + sorted(BENCH_CONFIGS.glob("*.cfg"))


@dataclass
class Op:
    """One (scenario, method) operation of an optimizer workload."""

    key: str
    method: str                  # ElementWise, ElementWiseNaive or SpectralEfficiency
    scenario: Scenario | None    # SISO line scenario, or None for se_mimo
    blocks: dict = field(default_factory=dict)   # se_mimo: z_ds, z_dr, z_rs, z_r


@dataclass
class Inputs:
    workload: str
    configs: list[Path]          # figures
    ops: list[Op]                # optimizer workloads


def _c07_scenario(rng: np.random.Generator, n_lo: int, n_hi: int,
                  spacing: tuple[float, float], gains: bool) -> Scenario:
    return Scenario(
        n=int(rng.integers(n_lo, n_hi + 1)),
        spacing=float(rng.uniform(*spacing)),
        alpha_tx=float(rng.uniform(0, np.pi)),
        alpha_rx=float(rng.uniform(0, np.pi)),
        gamma_dr=float(rng.uniform(0.2, 1.0)) if gains else 1.0,
        gamma_rs=float(rng.uniform(0.2, 1.0)) if gains else 1.0,
    )


def _se_ops() -> list[Op]:
    rng = np.random.default_rng(SE_SEED)
    ops = []
    for i in range(SE_DRAWS):
        k, m = (int(v) for v in rng.integers(2, 5, size=2))
        n = int(rng.integers(4, 17))
        spacing = float(rng.uniform(0.2, 0.5))

        def cn(*shape):
            return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)

        blocks = {"z_ds": cn(k, m), "z_dr": SE_SCALE * cn(k, n), "z_rs": SE_SCALE * cn(n, m),
                  "z_r": coupling_matrix(n, spacing, SE_R)}
        ops.append(Op(f"se{i}_K{k}_M{m}_N{n}", "SpectralEfficiency", None, blocks))
    return ops


def make_inputs(workload: str, seed: int) -> Inputs:
    """The workload's operations, in the order --seed sets."""
    order = np.random.default_rng(seed)
    if workload == "figures":
        configs = figure_configs()
        return Inputs(workload, [configs[i] for i in order.permutation(len(configs))], [])
    if workload == "ew_random":
        rng = np.random.default_rng(EW_RANDOM_SEED)
        scenarios = [_c07_scenario(rng, 1, 16, (0.1, 0.5), gains=True)
                     for _ in range(EW_RANDOM_DRAWS)]
        ops = [Op(f"draw{i}", method, s) for i, s in enumerate(scenarios)
               for method in ("ElementWise", "ElementWiseNaive")]
    elif workload == "ew_large_n":
        rng = np.random.default_rng(EW_LARGE_SEED)
        scenarios = [Scenario(n=32, spacing=0.25, alpha_tx=0.0, alpha_rx=np.pi)]
        scenarios += [_c07_scenario(rng, 32, 128, (0.2, 0.5), gains=False)
                      for _ in range(EW_LARGE_DRAWS)]
        ops = [Op(f"geom{i}_N{s.n}", "ElementWise", s) for i, s in enumerate(scenarios)]
    elif workload == "se_mimo":
        ops = _se_ops()
    else:
        raise ValueError(f"unknown workload {workload!r} (known: {', '.join(WORKLOADS)})")
    return Inputs(workload, [], [ops[i] for i in order.permutation(len(ops))])


@dataclass(frozen=True)
class Raised:
    """The outcome of an operation that raised instead of returning."""

    error: str


def _run_op(op: Op):
    try:
        return _solve(op)
    except Exception as exc:  # the operation failed; the checks report it
        return Raised(f"{type(exc).__name__}: {exc}")


def _solve(op: Op):
    if op.method == "SpectralEfficiency":
        b = op.blocks
        ch = ImpedanceChannel(b["z_ds"], b["z_dr"], b["z_rs"], b["z_r"], SE_R)
        return optimize(ch, RisState.zeros(ch.n), OptimizerConfig(objective="spectral_efficiency"))
    runner = optimize if op.method == "ElementWise" else naive_elementwise
    return runner(build_los_scenario(op.scenario), RisState.zeros(op.scenario.n))


def run_round(inputs: Inputs) -> dict:
    """Run every operation once.

    Returns the outputs, keyed by (op key, method), or for figures the CLI's
    exit code keyed by config file name.
    """
    if inputs.workload == "figures":
        OUT_DIR.mkdir(exist_ok=True)
        return {path.name: cli.main(["run", "--config", str(path), "--out", str(OUT_DIR)])
                for path in inputs.configs}
    return {(op.key, op.method): _run_op(op) for op in inputs.ops}
