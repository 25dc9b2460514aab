"""Command-line experiment runner.

Subcommands:
    run          execute a sweep config and write its CSV
    list-figures show the shipped figure-reproduction configs
"""

from __future__ import annotations

import argparse
import sys
from importlib import resources
from pathlib import Path

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
    out_dir = Path(args.out)
    out_path = out_dir / spec.output
    try:        # the directory first, so an unusable --out fails before the sweep
        out_dir.mkdir(parents=True, exist_ok=True)
        records = run_sweep(spec, trace_elements=args.trace_elements)     # no file I/O
        write_csv(records, out_path)
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
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
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
