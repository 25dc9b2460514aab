"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import time

import numpy as np
import pytest

from riscoupling import (
    ImpedanceChannel,
    OptimizerConfig,
    RisState,
    Scenario,
    build_coupling_matrix,
    build_los_scenario,
    closed_form_siso,
    effective_channel,
    evaluate_channel,
    grid_search_phase,
    ignore_mc_gain,
    naive_elementwise,
    optimize,
    power_matching_network,
    reactance_transform,
    spectral_efficiency,
    transformed_load,
)
from riscoupling.channel import blas_threads, one_blas_thread
from riscoupling.decoupling import array_gain
from riscoupling.elementwise import element_params, gram_factors, init_context, optimal_theta_se

from conftest import end_fire, front_fire

# Frozen 60-digit mpmath evaluations of the normalized end-fire array-gain
# formula for N = 4 (pre-build oracle).
END_FIRE_N4_FROZEN = {
    0.25: 163.08229291828144,
    0.1: 240.12914915940158,
    0.05: 252.00005871944885,
}


class Criterion:
    def __init__(self, number, name, limit_s):
        self.number = number
        self.name = name
        self.limit_s = limit_s
        self.t0 = time.perf_counter()

    def finish(self, passed: bool, detail: str = ""):
        elapsed = time.perf_counter() - self.t0
        status = "PASS" if passed and elapsed < self.limit_s else "FAIL"
        print(f"{status} criterion {self.number:2d} [{elapsed:6.2f}s < {self.limit_s}s] {self.name}"
              + (f" ({detail})" if detail else ""))
        assert passed, f"criterion {self.number} ({self.name}) failed"
        assert elapsed < self.limit_s, (
            f"criterion {self.number} exceeded its {self.limit_s}s runtime budget ({elapsed:.2f}s)")


def random_scenario(rng, n_max, spacing_range):
    return Scenario(
        n=int(rng.integers(1, n_max + 1)),
        spacing=float(rng.uniform(*spacing_range)),
        alpha_tx=float(rng.uniform(0, np.pi)),
        alpha_rx=float(rng.uniform(0, np.pi)),
        gamma_dr=float(rng.uniform(0.2, 1.0)),
        gamma_rs=float(rng.uniform(0.2, 1.0)),
    )


def test_c01_no_coupling_sanity():
    c = Criterion(1, "half-wavelength Decoupled gain is N^2 front- and end-fire", 1.0)
    ok = True
    for n in (1, 2, 4, 8, 16, 32, 64):
        for s in (front_fire(n, 0.5), end_fire(n, 0.5)):
            a = array_gain(s)
            ok &= abs(a - n**2) <= 1e-9 * n**2
    c.finish(ok)


def test_c02_end_fire_limit_trend():
    c = Criterion(2, "end-fire N=4 gain rises toward N^4, matches frozen oracle", 5.0)
    gains = {d: array_gain(end_fire(4, d)) for d in (0.25, 0.1, 0.05)}
    ok = gains[0.25] < gains[0.1] < gains[0.05]
    ok &= gains[0.05] >= 0.8 * 256.0
    for d, frozen in END_FIRE_N4_FROZEN.items():
        ok &= abs(gains[d] - frozen) <= 1e-6 * frozen
    c.finish(ok)


def test_c03_front_fire_pairing():
    c = Criterion(3, "front-fire 2N vs 2N-1 gap shrinks from d=0.25 to d=0.05", 5.0)
    ok = True
    for n in range(2, 9):
        gaps = {}
        for d in (0.25, 0.05):
            a_even = array_gain(front_fire(2 * n, d))
            a_odd = array_gain(front_fire(2 * n - 1, d))
            gaps[d] = abs(a_even - a_odd) / a_even
        ok &= gaps[0.05] < gaps[0.25]
    c.finish(ok)


def test_c04_corner_geometry():
    c = Criterion(4, "corner geometry: 3 elements beat 4 at d=0.05", 2.0)
    a3 = array_gain(Scenario(n=3, spacing=0.05, alpha_tx=np.pi / 2, alpha_rx=0.0))
    a4 = array_gain(Scenario(n=4, spacing=0.05, alpha_tx=np.pi / 2, alpha_rx=0.0))
    c.finish(a3 > a4)


def test_c05_loss_degradation():
    c = Criterion(5, "end-fire N=4 d=0.1 gain strictly decreasing in gamma", 2.0)
    gains = [array_gain(end_fire(4, 0.1, gamma_loss=g)) for g in (0.0, 0.01, 0.1, 1.0)]
    c.finish(all(a > b for a, b in zip(gains, gains[1:])))


@pytest.fixture(scope="module")
def oracle_runs():
    """Shared runs for criteria 6 and 7: 50 random SISO scenarios, both optimizers."""
    rng = np.random.default_rng(6607)
    runs = []
    for _ in range(50):
        s = random_scenario(rng, n_max=16, spacing_range=(0.1, 0.5))
        ch = build_los_scenario(s)
        fast = optimize(ch, RisState.zeros(s.n))
        naive = naive_elementwise(ch, RisState.zeros(s.n))
        runs.append((s, fast, naive))
    return runs


def test_c06_elementwise_oracle_equivalence(oracle_runs):
    c = Criterion(6, "rank-one and dense-reinversion traces identical to 1e-9", 30.0)
    ok = True
    for s, fast, naive in oracle_runs:
        # as bench/checks.traces_agree: equal lengths, and every entry within 1e-9
        same = fast.trace.size == naive.trace.size
        ok &= same and bool(np.all(np.abs(fast.trace - naive.trace) <= 1e-9 * np.abs(naive.trace)))
    c.finish(ok)


def test_c07_monotone_convergence(oracle_runs):
    c = Criterion(7, "traces non-decreasing and converged before max_sweeps", 30.0)
    ok = True
    for s, fast, naive in oracle_runs:
        for res in (fast, naive):
            slack = 1e-12 * np.maximum(1.0, np.abs(res.trace[:-1]))
            ok &= bool(np.all(np.diff(res.trace) >= -slack))
            ok &= res.converged
            ok &= res.sweeps < 500
    c.finish(ok)


def test_c08_local_vs_global():
    c = Criterion(8, "end-fire N=4 d=0.25: ElementWise stuck below Decoupled, above IgnoreMC", 2.0)
    s = end_fire(4, 0.25)
    ch = build_los_scenario(s)
    norm = s.gamma_dr * s.gamma_rs * s.R**2
    res = optimize(ch, RisState.zeros(4))
    ew = res.trace[-1] / norm
    dec = closed_form_siso(ch).gain / norm
    ignore = ignore_mc_gain(s)
    c.finish(res.converged and ew < dec and ew > ignore and dec > ignore)


def test_c09_gram_identity():
    c = Criterion(9, "Gram split of the rank-one channel parametrization", 5.0)
    rng = np.random.default_rng(6609)
    ok = True
    checked = 0
    while checked < 100:
        n = int(rng.integers(1, 9))
        k = int(rng.integers(1, 4))
        m = int(rng.integers(1, 4))
        z_r = build_coupling_matrix(n, float(rng.uniform(0.1, 0.5)), 50.0)
        rnd = lambda *sh: rng.standard_normal(sh) + 1j * rng.standard_normal(sh)
        ch = ImpedanceChannel(rnd(k, m), 50.0 * rnd(k, n), 50.0 * rnd(n, m), z_r, 50.0)
        ctx = init_context(ch, RisState(rng.uniform(-100, 100, n)))
        p = element_params(ctx, int(rng.integers(n)))
        if np.linalg.norm(p.b) == 0:
            continue
        checked += 1
        theta = np.exp(1j * rng.uniform(-np.pi, np.pi))
        z = p.z0 + np.outer(p.a, np.conj(p.b)) * theta
        a_mat, f = gram_factors(p)
        tbar = np.array([theta, 1.0])
        recon = (a_mat - np.eye(k)) + f @ np.outer(tbar, tbar.conj()) @ f.conj().T
        gram = z @ z.conj().T
        ok &= np.linalg.norm(gram - recon) < 1e-10 * np.linalg.norm(gram)
    c.finish(ok)


def test_c10_dual_path_decoupling():
    c = Criterion(10, "explicit network transform equals effective-model channel", 5.0)
    rng = np.random.default_rng(6610)
    ok = True
    for _ in range(50):
        # spacing floor 0.2 keeps cond(Re Z_R) * eps well under the 1e-9 tolerance,
        # so the algebraic identity is actually verifiable in float64
        s = random_scenario(rng, n_max=8, spacing_range=(0.2, 0.5))
        ch = build_los_scenario(s)
        x = rng.uniform(5, 400, s.n) * rng.choice([-1.0, 1.0], s.n)
        net = power_matching_network(ch.z_r, ch.R)
        z_load = transformed_load(net, RisState(x))
        z_direct = ch.z_ds - ch.z_dr @ np.linalg.solve(ch.z_r + z_load, ch.z_rs)
        z_eff = evaluate_channel(effective_channel(ch), RisState(reactance_transform(x, ch.R)))
        scale = max(abs(z_direct[0, 0]), abs(z_eff[0, 0]), 1e-30)
        ok &= abs(z_direct[0, 0] - z_eff[0, 0]) <= 1e-9 * scale
    c.finish(ok)


def test_c11_se_closed_form():
    c = Criterion(11, "SE update c12/|c12| beats a 3600-point theta grid", 10.0)
    rng = np.random.default_rng(6611)
    grid = np.exp(2j * np.pi * np.arange(3600) / 3600)
    ok = True
    for _ in range(50):
        z_r = build_coupling_matrix(4, float(rng.uniform(0.1, 0.5)), 50.0)
        rnd = lambda *sh: rng.standard_normal(sh) + 1j * rng.standard_normal(sh)
        ch = ImpedanceChannel(rnd(2, 2), 50.0 * rnd(2, 4), 50.0 * rnd(4, 2), z_r, 50.0)
        ctx = init_context(ch, RisState(rng.uniform(-100, 100, 4)))
        p = element_params(ctx, int(rng.integers(4)))
        if np.linalg.norm(p.b) == 0:
            continue
        theta = optimal_theta_se(*gram_factors(p))
        se_star = spectral_efficiency(p.z0 + np.outer(p.a, np.conj(p.b)) * theta)
        rank_one = np.einsum("i,j,t->tij", p.a, np.conj(p.b), grid)
        se_grid = max(spectral_efficiency(p.z0 + r) for r in rank_one)
        ok &= se_star >= se_grid - 1e-9
    c.finish(ok)


def test_c12_grid_oracle_bound():
    c = Criterion(12, "closed form >= exhaustive phase grid for N <= 3", 60.0)
    rng = np.random.default_rng(6612)
    ok = True
    for n in (1, 2, 3):
        for _ in range(5):
            s = Scenario(n=n, spacing=float(rng.uniform(0.1, 0.5)),
                         alpha_tx=float(rng.uniform(0, np.pi)),
                         alpha_rx=float(rng.uniform(0, np.pi)))
            ch = build_los_scenario(s)
            ok &= closed_form_siso(ch).gain >= grid_search_phase(ch) * (1 - 1e-5)
    c.finish(ok)


def test_c13_complexity_scaling():
    c = Criterion(13, "median per-sweep time at N=64 within 10x of N=32", 60.0)
    medians = {}
    for n in (32, 64):
        ch = build_los_scenario(end_fire(n, 0.25))
        cfg = OptimizerConfig(max_sweeps=5, tol=0.0)
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            res = optimize(ch, RisState.zeros(n), cfg)
            times.append((time.perf_counter() - t0) / res.sweeps)
        medians[n] = float(np.median(times))
    with one_blas_thread():             # the scope optimize runs its sweeps in
        in_sweep = blas_threads()
    # the medians and thread counts show by how much a timing-noise failure missed
    c.finish(medians[64] <= 10.0 * medians[32],
             f"N=32 {1e3 * medians[32]:.2f} ms, N=64 {1e3 * medians[64]:.2f} ms per sweep, "
             f"BLAS threads {blas_threads()} in the caller, {in_sweep} in the sweep")
