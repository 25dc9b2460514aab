"""The benchmark's per-layer tracer (bench/tracing.py) wraps package functions by
module and name; a renamed or deleted function would break `bench/run.py --trace 1`."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_traced_functions_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{mod}.{func}" for mod, func in tracing.TRACED
               if not callable(getattr(importlib.import_module(f"riscoupling.{mod}"), func, None))]
    assert tracing.TRACED and not missing
