"""The benchmark's per-layer tracer (bench/tracing.py) wraps package functions by
module and name; a renamed or deleted function would break `bench/run.py --trace 1`,
and one the sweep no longer calls would leave its per-layer spans at zero."""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np

import riscoupling
from riscoupling import (
    ImpedanceChannel,
    OptimizerConfig,
    RisState,
    Scenario,
    build_coupling_matrix,
    build_los_scenario,
    parse_config,
    run_sweep,
)

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def traced_optimize(ch, cfg, tmp_path):
    """optimize from x = 0 under the tracer: its result, the round's per-layer
    metrics and the call count of every traced function."""
    tracer = load_tracing().Tracer()
    tracer.install()
    try:
        mark = tracer.mark()
        res = riscoupling.elementwise.optimize(ch, RisState.zeros(ch.n), cfg)
        metrics = tracer.round_metrics(mark)
    finally:
        tracer.uninstall()
    tracer.save(tmp_path / "spans.npz")
    spans = np.load(tmp_path / "spans.npz")
    return res, metrics, Counter(str(spans["names"][i]) for i in spans["name"])


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
    # one array: its whitening is made once for the three Decoupled rows, and
    # the closed forms read it and the inverse without building a channel
    assert calls["decoupling.array_gain"] == 3
    assert calls["baselines.ignore_mc_gain"] == 3
    assert calls["channel.psd_inv_sqrt"] == 1
    assert calls["channel.build_los_scenario"] == 0


def test_optimize_feeds_the_per_update_metrics(tmp_path):
    # the slow-ridge draw of the acceptance fixture, where the accelerator keeps steps
    s = Scenario(n=5, spacing=0.16340238753657976, alpha_tx=0.3288973559887411,
                 alpha_rx=0.6262066822143726, gamma_dr=0.6984385854177759,
                 gamma_rs=0.8436008778516497)
    res, metrics, calls = traced_optimize(build_los_scenario(s), OptimizerConfig(), tmp_path)
    steps = s.n * res.sweeps
    assert metrics["elementwise.updates"] == steps
    assert metrics["elementwise.accel.kept"] == res.trace.size - 1 - steps > 0
    assert calls["elementwise.optimal_theta_siso"] == steps
    assert calls["elementwise.theta_to_delta_x"] == steps
    assert calls["elementwise.objective"] >= steps + 1


def test_spectral_efficiency_feeds_the_per_update_metrics(tmp_path):
    rng = np.random.default_rng(8)
    n, k, m = 6, 3, 2
    z = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    ch = ImpedanceChannel(z(k, m), 4.0 * z(k, n), 4.0 * z(n, m),
                          build_coupling_matrix(n, 0.3, 50.0), 50.0)
    cfg = OptimizerConfig(objective="spectral_efficiency", max_sweeps=30)
    res, metrics, calls = traced_optimize(ch, cfg, tmp_path)
    steps = n * res.sweeps
    assert metrics["elementwise.updates"] == steps > 0
    assert metrics["elementwise.sweeps"] == res.sweeps
    assert metrics["elementwise.accel.attempts"] == 0
    assert calls["elementwise.gram_factors"] == steps
    assert calls["elementwise.optimal_theta_se"] == steps
    assert calls["elementwise.theta_to_delta_x"] == steps
    assert calls["elementwise.objective"] >= steps + 1
    assert calls["elementwise.optimal_theta_siso"] == 0
