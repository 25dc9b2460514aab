"""Batch experiment runner: config parsing, method dispatch, CSV output.

A sweep spec is the Cartesian product of its axes (N, spacing, gamma_loss,
angle pairs); every (scenario, method) pair yields one record, iterative
methods one record per sweep.  A record holds the Scenario it ran, all eight
fields; the CSV writes N, spacing, the angles and gamma_loss, which are all that
vary within one sweep.  Scenarios run array by array, the angle pairs
innermost, so that each array's impedance matrix Z_R is built once per sweep
and shared, with its O(N^3) factorisations, by its angle pairs (ArrayFactors.of):
the closed-form rows read the factors and the steering vectors, building no
channel, and the other rows' LOS channels share Z_R.  Records are sorted, which
fixes the order of the CSV rows.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .baselines import (
    MethodId,
    grid_search_phase,
    ignore_mc_gain,
    naive_elementwise,
    no_coupling_gain,
)
from .channel import RisState, Scenario, build_los_scenario, one_blas_thread, single_element_gain
from .decoupling import array_gain
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


class ConfigError(InvalidArgumentError):
    """Malformed sweep configuration; message carries line/key context."""


@dataclass(frozen=True)
class SweepSpec:
    """The sweep schema.  Omitted physics knobs take the Scenario defaults, the
    optimizer knobs the OptimizerConfig defaults; every value is checked here."""

    n_list: tuple[int, ...]
    spacing_list: tuple[float, ...]
    angle_pairs: tuple[tuple[float, float], ...]
    methods: tuple[MethodId, ...]
    scenario_id: str = "sweep"
    gamma_loss_list: tuple[float, ...] = (Scenario.gamma_loss,)
    gamma_dr: float = Scenario.gamma_dr
    gamma_rs: float = Scenario.gamma_rs
    R: float = Scenario.R
    tol: float = OptimizerConfig.tol
    max_sweeps: int = OptimizerConfig.max_sweeps
    output: str = ""

    def __post_init__(self):
        try:
            scenarios = self.scenarios()
            self.optimizer_config()
        except InvalidArgumentError as exc:
            raise ConfigError(str(exc)) from None
        if not scenarios or not self.methods:
            raise ConfigError("sweep axes and methods must be nonempty")
        # a repeated point would write rows that cannot be told apart
        for name, points in (("scenario", scenarios), ("method", self.methods)):
            repeated = [p for p, count in Counter(points).items() if count > 1]
            if repeated:
                raise ConfigError(f"repeated {name} {repeated[0]!r}")
        if not self.scenario_id or set(self.scenario_id) & set(',"\r\n'):   # would break the CSV
            raise ConfigError(f"scenario_id {self.scenario_id!r} is empty or holds ',', '\"' "
                              "or a line break")
        if not self.output:
            object.__setattr__(self, "output", f"{self.scenario_id}.csv")

    def scenarios(self) -> list[Scenario]:
        """Every scenario, array by array: the angle pairs vary fastest."""
        return [
            Scenario(n=n, spacing=d, alpha_tx=atx, alpha_rx=arx,
                     gamma_dr=self.gamma_dr, gamma_rs=self.gamma_rs,
                     gamma_loss=g, R=self.R)
            for n in self.n_list
            for d in self.spacing_list
            for g in self.gamma_loss_list
            for (atx, arx) in self.angle_pairs
        ]

    def optimizer_config(self) -> OptimizerConfig:
        return OptimizerConfig(max_sweeps=self.max_sweeps, tol=self.tol)


@dataclass
class SweepRecord:
    """One CSV row: the gain a method reached on a scenario of the sweep, which
    every row of that scenario shares (Scenario is frozen)."""

    scenario_id: str
    method: str
    scenario: Scenario
    sweep_index: int          # -1 for closed-form methods and error rows
    array_gain: float
    wall_time_s: float
    flags: tuple[str, ...] = ()

    @property
    def array_gain_db(self) -> float:
        return 10.0 * np.log10(self.array_gain) if self.array_gain > 0 else float("nan")

    def sort_key(self):
        s = self.scenario
        return (self.scenario_id, self.method, s.n, s.spacing, s.alpha_tx, s.alpha_rx,
                s.gamma_loss, self.sweep_index)


def _angle(token: str) -> tuple[float, float]:
    token = token.strip()
    if token in NAMED_ANGLES:
        return NAMED_ANGLES[token]
    try:
        atx, arx = (float(p) for p in token.split(":"))
    except ValueError:
        raise ConfigError(f"bad angle spec {token!r} "
                          f"(expected one of {sorted(NAMED_ANGLES)} or 'atx:arx')") from None
    return (atx, arx)


def _method(token: str) -> MethodId:
    try:
        return MethodId(token.strip())
    except ValueError:
        raise ConfigError(f"unknown method {token.strip()!r} "
                          f"(known: {[m.value for m in MethodId]})") from None


def _each(parse, sep=","):
    return lambda value: tuple(parse(p) for p in value.split(sep))


# config key -> (SweepSpec field, value parser)
_KEYS = {
    "scenario_id": ("scenario_id", str),
    "N": ("n_list", _each(int)),
    "spacing": ("spacing_list", _each(float)),
    "angles": ("angle_pairs", _each(_angle, ";")),
    "methods": ("methods", _each(_method)),
    "gamma_loss": ("gamma_loss_list", _each(float)),
    "gamma_dr": ("gamma_dr", float),
    "gamma_rs": ("gamma_rs", float),
    "R": ("R", float),
    "tol": ("tol", float),
    "max_sweeps": ("max_sweeps", int),
    "output": ("output", str),
}


def parse_config(text: str) -> SweepSpec:
    """Parse a flat key-value sweep config (lists comma-separated, # comments)."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = (p.strip() for p in line.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        name, parse = _KEYS[key]
        if name in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[name] = parse(value)
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
        except ValueError:
            raise ConfigError(f"line {lineno}: non-numeric value for {key!r}: {value!r}") from None
    required = {f.name for f in fields(SweepSpec) if f.default is MISSING}
    for key, (name, _) in _KEYS.items():
        if name in required and name not in values:
            raise ConfigError(f"missing required key {key!r}")
    return SweepSpec(**values)


def _run_method(spec: SweepSpec, s: Scenario, method: MethodId,
                trace_elements: bool) -> list[SweepRecord]:
    t0 = time.perf_counter()
    flags, per_sweep = (), False
    try:
        if method is MethodId.DECOUPLED:
            gains = [array_gain(s)]
        elif method is MethodId.NO_COUPLING:
            gains = [no_coupling_gain(s)]
        elif method is MethodId.IGNORE_MC:
            gains = [ignore_mc_gain(s)]
        elif method is MethodId.GRID_ORACLE:
            gains = [grid_search_phase(build_los_scenario(s)) / single_element_gain(s)]
        else:
            runner = optimize if method is MethodId.ELEMENT_WISE else naive_elementwise
            res = runner(build_los_scenario(s), RisState.zeros(s.n),
                         spec.optimizer_config())
            flags = ("saturation",) if res.saturation_events else ()
            flags += () if res.converged else ("not_converged",)
            # every trace entry, or one per completed sweep, taken where the sweep closed
            rows = slice(None) if trace_elements else res.sweep_ends
            gains = (res.trace[rows] / single_element_gain(s)).tolist()
            per_sweep = True
    except RisCouplingError as exc:
        gains, flags = [0.0], (f"error:{type(exc).__name__}",)
    elapsed = time.perf_counter() - t0
    return [SweepRecord(spec.scenario_id, method.value, s, i if per_sweep else -1, g,
                        elapsed, flags)
            for i, g in enumerate(gains)]


@one_blas_thread()
def run_sweep(spec: SweepSpec, trace_elements: bool = False) -> list[SweepRecord]:
    """Execute every (scenario, method) pair in turn, array by array; records
    are sorted to fix the CSV order.  Only the last array's factors outlive the
    call (ArrayFactors.of).  One BLAS thread holds for the whole sweep for speed,
    not for bits: each factorisation opens its own scope (one_blas_thread)."""
    records = [r for s in spec.scenarios() for m in spec.methods
               for r in _run_method(spec, s, m, trace_elements)]
    records.sort(key=SweepRecord.sort_key)
    return records


def write_csv(records: list[SweepRecord], path) -> None:
    """Write records with the fixed header, LF endings, shortest round-trip floats."""
    lines = [CSV_HEADER]
    for r in records:
        s = r.scenario
        lines.append(",".join([
            r.scenario_id,
            r.method,
            str(s.n),
            *(repr(float(v)) for v in (s.spacing, s.alpha_tx, s.alpha_rx, s.gamma_loss)),
            str(r.sweep_index),
            *(repr(float(v)) for v in (r.array_gain, r.array_gain_db, r.wall_time_s)),
            ";".join(r.flags),
        ]))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
