"""Command-line experiment runner.

Subcommands:
    run          execute a sweep config and write its CSV
    list-figures show the shipped figure-reproduction configs
    selftest     run the built-in oracle-equivalence checks
"""

from __future__ import annotations

import argparse
import sys
from importlib import resources
from pathlib import Path

import numpy as np

from .baselines import grid_search_phase, naive_elementwise
from .channel import RisState, Scenario, build_los_scenario, evaluate_channel
from .decoupling import (
    closed_form_siso,
    effective_channel,
    evaluate_effective,
    power_matching_network,
    reactance_transform,
    transformed_load,
)
from .elementwise import OptimizerConfig, optimize
from .errors import RisCouplingError
from .experiments import ConfigError, parse_config, run_sweep, write_csv

EXIT_OK = 0
EXIT_CONFIG_ERROR = 1
EXIT_NUMERICAL_ERROR = 2


def _cmd_run(args) -> int:
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    try:
        spec = parse_config(text)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    records = run_sweep(spec, trace_elements=args.trace_elements)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / spec.output
    write_csv(records, out_path)
    failures = [r for r in records if any(f.startswith("error:") for f in r.flags)]
    print(f"{len(records)} records -> {out_path}"
          + (f" ({len(failures)} scenario failures)" if failures else ""))
    if failures and args.strict:
        return EXIT_NUMERICAL_ERROR
    return EXIT_OK


def _cmd_list_figures(_args) -> int:
    cfg_dir = resources.files("riscoupling") / "configs"
    for entry in sorted(cfg_dir.iterdir(), key=lambda e: e.name):
        if not entry.name.endswith(".cfg"):
            continue
        first = entry.read_text(encoding="utf-8").splitlines()[0].lstrip("# ").strip()
        print(f"{entry.name:12s} {first}")
    return EXIT_OK


def _selftest_trajectories(rng) -> bool:
    for _ in range(5):
        s = Scenario(
            n=int(rng.integers(2, 9)),
            spacing=float(rng.uniform(0.15, 0.5)),
            alpha_tx=float(rng.uniform(0, np.pi)),
            alpha_rx=float(rng.uniform(0, np.pi)),
        )
        ch = build_los_scenario(s)
        cfg = OptimizerConfig(max_sweeps=50)
        fast = optimize(ch, RisState.zeros(s.n), cfg)
        naive = naive_elementwise(ch, RisState.zeros(s.n), cfg)
        m = min(fast.trace.size, naive.trace.size)
        if not np.allclose(fast.trace[:m], naive.trace[:m], rtol=1e-9):
            return False
    return True


def _selftest_dual_path(rng) -> bool:
    for _ in range(5):
        s = Scenario(n=6, spacing=float(rng.uniform(0.15, 0.5)),
                     alpha_tx=float(rng.uniform(0, np.pi)),
                     alpha_rx=float(rng.uniform(0, np.pi)))
        ch = build_los_scenario(s)
        x = rng.uniform(10.0, 200.0, s.n) * rng.choice([-1.0, 1.0], s.n)
        net = power_matching_network(ch.z_r, ch.R)
        z_load = transformed_load(net, RisState(x))
        z_a = ch.z_ds - ch.z_dr @ np.linalg.solve(ch.z_r + z_load, ch.z_rs)
        z_b = evaluate_effective(effective_channel(ch), reactance_transform(x, ch.R))
        if not np.allclose(z_a, z_b, rtol=1e-9, atol=1e-12):
            return False
    return True


def _selftest_grid_bound(rng) -> bool:
    for n in (1, 2, 3):
        s = Scenario(n=n, spacing=float(rng.uniform(0.15, 0.5)),
                     alpha_tx=float(rng.uniform(0, np.pi)),
                     alpha_rx=float(rng.uniform(0, np.pi)))
        eff = effective_channel(build_los_scenario(s))
        closed = closed_form_siso(eff).gain
        grid = grid_search_phase(eff)
        if closed < grid * (1 - 1e-5):
            return False
    return True


def _cmd_selftest(_args) -> int:
    rng = np.random.default_rng(20240)
    checks = [
        ("rank-one vs dense trajectory", _selftest_trajectories),
        ("network transform vs effective channel", _selftest_dual_path),
        ("closed form vs phase grid", _selftest_grid_bound),
    ]
    ok = True
    for name, fn in checks:
        try:
            passed = fn(rng)
        except RisCouplingError as exc:
            passed = False
            print(f"FAIL {name}: {exc}")
            ok = False
            continue
        print(f"{'PASS' if passed else 'FAIL'} {name}")
        ok = ok and passed
    return EXIT_OK if ok else EXIT_NUMERICAL_ERROR


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="riscoupling",
        description="RIS mutual-coupling experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a sweep config")
    run_p.add_argument("--config", required=True, help="path to a .cfg sweep spec")
    run_p.add_argument("--out", default=".", help="output directory for the CSV")
    run_p.add_argument("--trace-elements", action="store_true",
                       help="log every trace entry (element updates and acceleration steps)")
    run_p.add_argument("--strict", action="store_true",
                       help="exit 2 if any scenario records a numerical failure")
    run_p.set_defaults(func=_cmd_run)

    list_p = sub.add_parser("list-figures", help="list shipped figure configs")
    list_p.set_defaults(func=_cmd_list_figures)

    self_p = sub.add_parser("selftest", help="run oracle-equivalence checks")
    self_p.set_defaults(func=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
