"""The benchmark's per-layer tracer (bench/tracing.py) wraps package functions by
module and name; a renamed or deleted function would break `bench/run.py --trace 1`,
and one the sweep no longer calls would leave its per-layer spans at zero."""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np

import riscoupling
from riscoupling import RisState, Scenario, build_los_scenario, parse_config, run_sweep

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_functions_resolve():
    tracing = load_tracing()
    missing = [f"{mod}.{func}" for mod, func in tracing.TRACED
               if not callable(getattr(importlib.import_module(f"riscoupling.{mod}"), func, None))]
    assert tracing.TRACED and not missing


def test_sweep_reaches_traced_closed_forms(tmp_path):
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        run_sweep(parse_config("""
N = 4
spacing = 0.25
angles = front-fire; end-fire; corner
methods = Decoupled, IgnoreMC
"""))
    finally:
        tracer.uninstall()
    tracer.save(tmp_path / "spans.npz")
    spans = np.load(tmp_path / "spans.npz")
    calls = Counter(str(spans["names"][i]) for i in spans["name"])
    # one array: its whitening is made once for the three Decoupled rows
    assert calls["decoupling.array_gain"] == 3
    assert calls["baselines.ignore_mc_gain"] == 3
    assert calls["channel.psd_inv_sqrt"] == 1
    assert calls["channel.build_los_scenario"] == 6


def test_optimize_feeds_the_per_update_metrics(tmp_path):
    # the slow-ridge draw of the acceptance fixture, where the accelerator keeps steps
    s = Scenario(n=5, spacing=0.16340238753657976, alpha_tx=0.3288973559887411,
                 alpha_rx=0.6262066822143726, gamma_dr=0.6984385854177759,
                 gamma_rs=0.8436008778516497)
    ch = build_los_scenario(s)
    tracing = load_tracing()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        mark = tracer.mark()
        res = riscoupling.elementwise.optimize(ch, RisState.zeros(s.n))
        metrics = tracer.round_metrics(mark)
    finally:
        tracer.uninstall()
    steps = s.n * res.sweeps
    assert metrics["elementwise.updates"] == steps
    assert metrics["elementwise.accel.kept"] == res.trace.size - 1 - steps > 0
    tracer.save(tmp_path / "spans.npz")
    spans = np.load(tmp_path / "spans.npz")
    calls = Counter(str(spans["names"][i]) for i in spans["name"])
    assert calls["elementwise.optimal_theta_siso"] == steps
    assert calls["elementwise.theta_to_delta_x"] == steps
    assert calls["elementwise.objective"] >= steps + 1
