"""Batch experiment runner: config parsing, method dispatch, CSV output.

A sweep spec is the Cartesian product of its axes (N, spacing, gamma_loss,
angle pairs); every (scenario, method) pair yields one record, iterative
methods one record per sweep.  Records are sorted, which fixes the order of
the CSV rows.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .baselines import (
    MethodId,
    grid_search_phase,
    ignore_mc_gain,
    naive_elementwise,
    no_coupling_gain,
    single_element_gain,
)
from .channel import RisState, Scenario, build_los_scenario
from .decoupling import array_gain, effective_channel
from .elementwise import OptimizerConfig, optimize
from .errors import InvalidArgumentError, RisCouplingError

CSV_HEADER = ("scenario_id,method,N,spacing,alpha_tx,alpha_rx,gamma_loss,"
              "sweep_index,array_gain,array_gain_db,wall_time_s,flags")

NAMED_ANGLES = {
    "front-fire": (np.pi / 2, np.pi / 2),
    "end-fire": (0.0, np.pi),
    "corner": (np.pi / 2, 0.0),
    "oblique": (np.pi / 4, np.pi / 4),
}

_REQUIRED_KEYS = ("N", "spacing", "angles", "methods")
_KNOWN_KEYS = _REQUIRED_KEYS + (
    "scenario_id", "gamma_loss", "R", "tol", "max_sweeps",
    "gamma_dr", "gamma_rs", "output",
)


class ConfigError(InvalidArgumentError):
    """Malformed sweep configuration; message carries line/key context."""


@dataclass(frozen=True)
class SweepSpec:
    scenario_id: str
    n_list: tuple[int, ...]
    spacing_list: tuple[float, ...]
    angle_pairs: tuple[tuple[float, float], ...]
    methods: tuple[MethodId, ...]
    gamma_loss_list: tuple[float, ...] = (0.0,)
    gamma_dr: float = 1.0
    gamma_rs: float = 1.0
    R: float = 50.0
    tol: float = 1e-10
    max_sweeps: int = 500
    output: str = ""

    def __post_init__(self):
        if not self.n_list or not self.spacing_list or not self.angle_pairs:
            raise ConfigError("sweep axes must be nonempty")
        if not self.methods:
            raise ConfigError("methods list must be nonempty")
        if not self.output:
            object.__setattr__(self, "output", f"{self.scenario_id}.csv")

    def scenarios(self) -> list[Scenario]:
        return [
            Scenario(n=n, spacing=d, alpha_tx=atx, alpha_rx=arx,
                     gamma_dr=self.gamma_dr, gamma_rs=self.gamma_rs,
                     gamma_loss=g, R=self.R)
            for n in self.n_list
            for d in self.spacing_list
            for (atx, arx) in self.angle_pairs
            for g in self.gamma_loss_list
        ]


@dataclass
class SweepRecord:
    scenario_id: str
    method: str
    n: int
    spacing: float
    alpha_tx: float
    alpha_rx: float
    gamma_loss: float
    sweep_index: int          # -1 for closed-form methods
    array_gain: float
    wall_time_s: float
    flags: tuple[str, ...] = ()

    @property
    def array_gain_db(self) -> float:
        return 10.0 * np.log10(self.array_gain) if self.array_gain > 0 else float("nan")

    def sort_key(self):
        return (self.scenario_id, self.method, self.n, self.spacing,
                self.alpha_tx, self.alpha_rx, self.gamma_loss, self.sweep_index)


def _parse_angle(token: str, lineno: int) -> tuple[float, float]:
    token = token.strip()
    if token in NAMED_ANGLES:
        return NAMED_ANGLES[token]
    if ":" in token:
        try:
            atx, arx = (float(p) for p in token.split(":"))
            return (atx, arx)
        except ValueError:
            pass
    raise ConfigError(f"line {lineno}: bad angle spec {token!r} "
                      f"(expected one of {sorted(NAMED_ANGLES)} or 'atx:arx')")


def parse_config(text: str) -> SweepSpec:
    """Parse a flat key-value sweep config (lists comma-separated, # comments)."""
    raw: dict[str, tuple[str, int]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = (p.strip() for p in line.split("=", 1))
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = (value, lineno)
    for key in _REQUIRED_KEYS:
        if key not in raw:
            raise ConfigError(f"missing required key {key!r}")

    def floats(key, default):
        if key not in raw:
            return default
        value, lineno = raw[key]
        try:
            return tuple(float(p) for p in value.split(","))
        except ValueError:
            raise ConfigError(f"line {lineno}: non-numeric value for {key!r}: {value!r}")

    def scalar(key, cast, default):
        if key not in raw:
            return default
        value, lineno = raw[key]
        try:
            return cast(value)
        except ValueError:
            raise ConfigError(f"line {lineno}: non-numeric value for {key!r}: {value!r}")

    value, lineno = raw["N"]
    try:
        n_list = tuple(int(p) for p in value.split(","))
    except ValueError:
        raise ConfigError(f"line {lineno}: non-integer value for 'N': {value!r}")

    value, lineno = raw["angles"]
    angle_pairs = tuple(_parse_angle(tok, lineno) for tok in value.split(";"))

    value, lineno = raw["methods"]
    methods = []
    for tok in value.split(","):
        tok = tok.strip()
        try:
            methods.append(MethodId(tok))
        except ValueError:
            raise ConfigError(f"line {lineno}: unknown method {tok!r} "
                              f"(known: {[m.value for m in MethodId]})")

    return SweepSpec(
        scenario_id=raw.get("scenario_id", ("sweep", 0))[0],
        n_list=n_list,
        spacing_list=floats("spacing", None),
        angle_pairs=angle_pairs,
        methods=tuple(methods),
        gamma_loss_list=floats("gamma_loss", (0.0,)),
        gamma_dr=scalar("gamma_dr", float, 1.0),
        gamma_rs=scalar("gamma_rs", float, 1.0),
        R=scalar("R", float, 50.0),
        tol=scalar("tol", float, 1e-10),
        max_sweeps=scalar("max_sweeps", int, 500),
        output=raw.get("output", ("", 0))[0],
    )


def _run_method(spec: SweepSpec, s: Scenario, method: MethodId,
                trace_elements: bool) -> list[SweepRecord]:
    def record(sweep_index, gain, elapsed, flags=()):
        return SweepRecord(
            scenario_id=spec.scenario_id, method=method.value, n=s.n,
            spacing=s.spacing, alpha_tx=s.alpha_tx, alpha_rx=s.alpha_rx,
            gamma_loss=s.gamma_loss, sweep_index=sweep_index,
            array_gain=gain, wall_time_s=elapsed, flags=tuple(flags),
        )

    t0 = time.perf_counter()
    try:
        if method is MethodId.DECOUPLED:
            gain = array_gain(s)
            return [record(-1, gain, time.perf_counter() - t0)]
        if method is MethodId.NO_COUPLING:
            return [record(-1, no_coupling_gain(s), time.perf_counter() - t0)]
        if method is MethodId.IGNORE_MC:
            return [record(-1, ignore_mc_gain(s), time.perf_counter() - t0)]
        if method is MethodId.GRID_ORACLE:
            eff = effective_channel(build_los_scenario(s))
            gain = grid_search_phase(eff) / single_element_gain(s)
            return [record(-1, gain, time.perf_counter() - t0)]
        # iterative methods
        ch = build_los_scenario(s)
        cfg = OptimizerConfig(max_sweeps=spec.max_sweeps, tol=spec.tol)
        runner = optimize if method is MethodId.ELEMENT_WISE else naive_elementwise
        res = runner(ch, RisState.zeros(s.n), cfg)
        elapsed = time.perf_counter() - t0
        flags = []
        if res.saturation_events:
            flags.append("saturation")
        if not res.converged:
            flags.append("not_converged")
        trace = res.trace / single_element_gain(s)
        if trace_elements:
            return [record(i, float(g), elapsed, flags) for i, g in enumerate(trace)]
        # one record per completed sweep, taken where the sweep closed
        sweep_vals = trace[res.sweep_ends]
        return [record(i, float(g), elapsed, flags) for i, g in enumerate(sweep_vals)]
    except RisCouplingError as exc:
        elapsed = time.perf_counter() - t0
        return [record(-1, 0.0, elapsed, (f"error:{type(exc).__name__}",))]


def run_sweep(spec: SweepSpec, trace_elements: bool = False) -> list[SweepRecord]:
    """Execute every (scenario, method) pair in turn; records are sorted to fix the CSV order."""
    records = [r for s in spec.scenarios() for m in spec.methods
               for r in _run_method(spec, s, m, trace_elements)]
    records.sort(key=SweepRecord.sort_key)
    return records


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_csv(records: list[SweepRecord], path) -> None:
    """Write records with the fixed header, LF endings, shortest round-trip floats."""
    lines = [CSV_HEADER]
    for r in records:
        lines.append(",".join([
            r.scenario_id,
            r.method,
            str(r.n),
            _fmt(float(r.spacing)),
            _fmt(float(r.alpha_tx)),
            _fmt(float(r.alpha_rx)),
            _fmt(float(r.gamma_loss)),
            str(r.sweep_index),
            _fmt(float(r.array_gain)),
            _fmt(float(r.array_gain_db)),
            _fmt(float(r.wall_time_s)),
            ";".join(r.flags),
        ]))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
