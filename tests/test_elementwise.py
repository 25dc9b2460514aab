import math

import numpy as np
import pytest

from riscoupling import (
    ArrayFactors,
    ImpedanceChannel,
    OptimizerConfig,
    RisState,
    Scenario,
    build_coupling_matrix,
    build_los_scenario,
    channel_gain,
    evaluate_channel,
    spectral_efficiency,
)
from riscoupling import elementwise
from riscoupling.baselines import naive_elementwise
from riscoupling.channel import X_MAX
from riscoupling.decoupling import closed_form_siso
from riscoupling.elementwise import (
    BLOCK,
    EPS,
    SPECTRAL_EFFICIENCY,
    apply_update,
    element_params,
    gram_factors,
    init_context,
    optimal_theta_se,
    optimal_theta_siso,
    optimize,
    refactor,
    reinvert_update,
    se_derivatives,
    siso_derivatives,
    theta_to_delta_x,
    trust_region_step,
)
from riscoupling.errors import ChangeOfVariablesError, DegenerateUpdateError, InvalidArgumentError

from conftest import SLOW_RIDGE, random_channel


class TestInitContext:
    def test_identity_coupling(self):
        ch = ImpedanceChannel(np.zeros((1, 1)), 50.0 * np.ones((1, 3)),
                              50.0 * np.ones((3, 1)), 50.0 * np.eye(3), 50.0)
        ctx = init_context(ch, RisState.zeros(3))
        assert np.allclose(ctx.z_inv, np.eye(3) / 50.0)

    def test_matches_dense_solve_oracle(self):
        rng = np.random.default_rng(10)
        ch = random_channel(rng, 4)
        x = rng.uniform(-150, 150, 4)
        ctx = init_context(ch, RisState(x))
        expected = np.linalg.solve(ch.z_r + 1j * np.diag(x), np.eye(4))
        assert np.allclose(ctx.z_inv, expected, rtol=1e-11)

    def test_zbar_without_ris_path(self):
        rng = np.random.default_rng(11)
        ch = random_channel(rng, 3)
        blocked = ImpedanceChannel(ch.z_ds, np.zeros_like(ch.z_dr), ch.z_rs, ch.z_r, ch.R)
        ctx = init_context(blocked, RisState.zeros(3))
        assert np.allclose(ctx.z_bar, ch.z_ds)


class TestElementParams:
    def test_identity_coupling_values(self):
        rng = np.random.default_rng(12)
        z_dr = 50.0 * (rng.standard_normal((1, 3)) + 1j * rng.standard_normal((1, 3)))
        ch = ImpedanceChannel(np.zeros((1, 1)), z_dr, 50.0 * np.ones((3, 1)),
                              50.0 * np.eye(3), 50.0)
        ctx = init_context(ch, RisState.zeros(3))
        p = element_params(ctx, 0)
        assert p.g == pytest.approx(1.0 / 50.0)
        assert np.allclose(p.a, z_dr[:, 0] / 50.0)

    def test_reconstruction_matches_direct_evaluation(self):
        # Z0 + a b^H theta at theta = -1 (the current reactance) is the current channel.
        rng = np.random.default_rng(13)
        ch = random_channel(rng, 5, k=2, m=2)
        x = rng.uniform(-120, 120, 5)
        ctx = init_context(ch, RisState(x))
        for n in range(5):
            p = element_params(ctx, n)
            z = p.z0 + np.outer(p.a, np.conj(p.b)) * (-1.0)
            assert np.allclose(z, evaluate_channel(ch, RisState(x)), rtol=1e-10)

    def test_symmetric_scenario_equal_params(self):
        s = Scenario(n=2, spacing=0.3, alpha_tx=np.pi / 2, alpha_rx=np.pi / 2)
        ctx = init_context(build_los_scenario(s), RisState.zeros(2))
        p0 = element_params(ctx, 0)
        p1 = element_params(ctx, 1)
        assert p0.g == pytest.approx(p1.g)
        assert np.allclose(p0.a, p1.a)
        assert np.allclose(p0.b, p1.b)

    def test_nonpositive_re_g_rejected(self):
        ch = ImpedanceChannel(np.zeros((1, 1)), np.ones((1, 2)), np.ones((2, 1)),
                              50.0 * np.eye(2), 50.0)
        ctx = init_context(ch, RisState.zeros(2))
        ctx.z_inv = -ctx.z_inv  # corrupt the cache to hit the guard
        with pytest.raises(ChangeOfVariablesError):
            element_params(ctx, 0)


class TestOptimalThetaSiso:
    def test_aligned_reals(self):
        theta = optimal_theta_siso(1.0, 1.0, 1.0)
        assert theta == pytest.approx(1.0)
        assert abs(1.0 + 1.0 * np.conj(1.0) * theta) ** 2 == pytest.approx(4.0)

    def test_quarter_turn(self):
        theta = optimal_theta_siso(1j, 1.0, 1.0)
        assert np.angle(theta) == pytest.approx(np.pi / 2)

    def test_no_effect_flag(self):
        # an element with no effect keeps its load: theta = -1, so dx = 0
        theta = optimal_theta_siso(2.0, 0.0, 1.0)
        assert theta == -1.0
        assert theta_to_delta_x(theta, 0.02 + 0.001j) == (0.0, False)

    def test_beats_dense_phase_grid(self):
        rng = np.random.default_rng(14)
        grid = np.exp(2j * np.pi * np.arange(3600) / 3600)
        for _ in range(20):
            z0, a, b = (complex(rng.standard_normal() + 1j * rng.standard_normal())
                        for _ in range(3))
            theta = optimal_theta_siso(z0, a, b)
            best_grid = np.max(np.abs(z0 + a * np.conj(b) * grid))
            assert abs(z0 + a * np.conj(b) * theta) >= best_grid - 1e-12


class TestOptimalThetaSe:
    def test_zero_b_has_no_effect(self):
        # b = 0: b/|b| is taken as 0, so F = 0, c12 = 0 and the element keeps its load
        p = elementwise.ElementParams(a=np.array([1.0 + 1j, 2.0]), b=np.zeros(2, dtype=complex),
                                      g=0.02 + 0j, z0=np.array([[1.0, 2j], [0.5, 1.0]]))
        a_mat, f = gram_factors(p)
        assert np.array_equal(f, np.zeros((2, 2)))
        np.testing.assert_allclose(a_mat, np.eye(2) + p.z0 @ p.z0.conj().T)
        assert optimal_theta_se(a_mat, f) == -1.0

    def test_positive_real_c12(self):
        f = np.array([[1.0, 0.5], [0.0, np.sqrt(0.75)]], dtype=complex)
        assert optimal_theta_se(np.eye(2, dtype=complex), f) == pytest.approx(1.0)

    def test_imaginary_c12(self):
        # C = F^H F with c12 = -0.3j
        f = np.array([[1.0, -0.3j], [0.0, 1.0]], dtype=complex)
        assert optimal_theta_se(np.eye(2, dtype=complex), f) == pytest.approx(-1j)

    def test_beats_theta_grid(self):
        rng = np.random.default_rng(15)
        grid = np.exp(2j * np.pi * np.arange(3600) / 3600)
        for _ in range(10):
            ch = random_channel(rng, 4, k=2, m=2)
            x = rng.uniform(-100, 100, 4)
            ctx = init_context(ch, RisState(x))
            p = element_params(ctx, int(rng.integers(4)))
            a_mat, f = gram_factors(p)
            theta = optimal_theta_se(a_mat, f)
            se_star = spectral_efficiency(p.z0 + np.outer(p.a, np.conj(p.b)) * theta)
            se_grid = max(
                spectral_efficiency(p.z0 + np.outer(p.a, np.conj(p.b)) * t) for t in grid[::36]
            )
            assert se_star >= se_grid - 1e-10


class TestThetaToDeltaX:
    def test_theta_minus_one_is_noop(self):
        g = 0.02 + 0.001j
        for theta in (-1.0 + 0.0j, np.exp(1j * (np.pi - 2e-5))):
            dx, saturated = theta_to_delta_x(theta, g)
            assert dx == 0.0
            assert not saturated
        # outside the dead zone around pi the step is not zero
        assert theta_to_delta_x(np.exp(1j * (np.pi - 1e-4)), g)[0] != 0.0

    def test_real_g_theta_one_saturates(self):
        dx, saturated = theta_to_delta_x(1.0 + 0.0j, 1.0 / 50.0 + 0.0j)
        assert saturated
        assert abs(dx) == 1e9

    def test_round_trip_reproduces_phase_factor(self):
        rng = np.random.default_rng(16)
        for _ in range(50):
            g = complex(abs(rng.standard_normal()) + 0.01, rng.standard_normal())
            phi = rng.uniform(-np.pi + 0.05, np.pi - 0.05)
            theta = np.exp(1j * phi)
            dx, saturated = theta_to_delta_x(theta, g)
            assert not saturated
            lhs = 1j * dx / (1.0 + g * 1j * dx)
            rhs = (1.0 + theta) / (2.0 * g.real)
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)


class TestApplyUpdate:
    def test_zero_update_is_identity(self):
        rng = np.random.default_rng(17)
        ch = random_channel(rng, 4)
        ctx = init_context(ch, RisState.zeros(4))
        z_inv, z_bar = ctx.z_inv.copy(), ctx.z_bar.copy()
        apply_update(ctx, 2, 0.0)
        assert np.array_equal(ctx.z_inv, z_inv)
        assert np.array_equal(ctx.z_bar, z_bar)

    def test_matches_dense_inversion_oracle(self):
        rng = np.random.default_rng(18)
        ch = random_channel(rng, 5)
        x = rng.uniform(-100, 100, 5)
        ctx = init_context(ch, RisState(x))
        dx = float(rng.uniform(-80, 80))
        apply_update(ctx, 3, dx)
        x[3] += dx
        fresh = np.linalg.inv(ch.z_r + 1j * np.diag(x))
        assert np.allclose(ctx.z_inv, fresh, rtol=1e-10)
        assert np.allclose(ctx.z_bar, evaluate_channel(ch, RisState(x)), rtol=1e-10)

    def test_successive_updates_add(self):
        rng = np.random.default_rng(19)
        ch = random_channel(rng, 4)
        ctx_a = init_context(ch, RisState.zeros(4))
        apply_update(ctx_a, 1, 30.0)
        apply_update(ctx_a, 1, -12.5)
        ctx_b = init_context(ch, RisState.zeros(4))
        apply_update(ctx_b, 1, 17.5)
        assert np.allclose(ctx_a.z_inv, ctx_b.z_inv, rtol=1e-9)
        assert np.allclose(ctx_a.z_bar, ctx_b.z_bar, rtol=1e-9)

    def test_refactor_restores_consistency(self):
        rng = np.random.default_rng(20)
        ch = random_channel(rng, 6)
        ctx = init_context(ch, RisState.zeros(6))
        for n in range(6):
            apply_update(ctx, n, float(rng.uniform(-50, 50)))
        refactor(ctx)
        residual = ctx.z_inv @ (ch.z_r + 1j * np.diag(ctx.x)) - np.eye(6)
        assert np.abs(residual).max() < 1e-9

    def test_zero_denominator_refused_leaving_the_context_unchanged(self):
        # lossless Z_R = jB at x = 0: g = G_00 = -j (B^-1)_00 is imaginary, so
        # dx = 1/Im(g) makes the denominator 1 + j dx g exactly zero
        b = np.array([[2.0, 0.5], [0.5, 3.0]])
        ch = ImpedanceChannel(np.zeros((1, 1)), np.ones((1, 2)), np.ones((2, 1)), 1j * b, 50.0)
        ctx = init_context(ch, RisState.zeros(2))
        g = ctx.column(0)[0]
        assert g.real == 0.0 and g.imag == pytest.approx(-3.0 / 5.75, rel=1e-15)
        held = lambda: [ctx.g0, ctx.u, ctx.v, ctx.z_bar, ctx.x]
        before = [a.copy() for a in held()]
        with pytest.raises(DegenerateUpdateError, match="element 0"):
            apply_update(ctx, 0, 1.0 / g.imag)
        assert ctx.k == 0
        assert all(np.array_equal(a, b) for a, b in zip(held(), before))


class TestDelayedUpdate:
    """The held form g0 - p^T q of the inverse, and u, v and z_bar kept by
    apply_update, against a fresh dense context at the same reactances."""

    @pytest.mark.parametrize("n", [BLOCK + 8, BLOCK // 2 + 1])
    @pytest.mark.parametrize("k, m", [(1, 1), (3, 2)])
    def test_matches_dense_context_across_block_products(self, n, k, m):
        rng = np.random.default_rng(26)
        ch = random_channel(rng, n, k=k, m=m)
        ctx = init_context(ch, RisState(rng.uniform(-100, 100, n)))
        for _ in range(3 * BLOCK + 5):
            apply_update(ctx, int(rng.integers(n)), float(rng.uniform(-30, 30)))
        assert ctx.k == 5
        fresh = init_context(ch, RisState(ctx.x))
        g = fresh.z_inv

        def close(got, want):
            return np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

        for i in range(n):
            assert close(ctx.column(i), g[:, i])
        assert close(ctx.u, ch.z_dr @ g)
        assert close(ctx.v, g @ ch.z_rs)
        assert close(ctx.z_bar, fresh.z_bar)
        assert close(ctx.z_inv, g)

    def test_reading_z_inv_folds_the_pending_updates(self):
        rng = np.random.default_rng(27)
        ch = random_channel(rng, 6)
        ctx = init_context(ch, RisState.zeros(6))
        for n in range(5):
            apply_update(ctx, n, float(rng.uniform(-50, 50)))
        held = ctx.g0 - ctx.p[:5].T @ ctx.q[:5]
        assert ctx.k == 5
        g = ctx.z_inv
        assert ctx.k == 0
        assert np.abs(g - held).max() <= 1e-13 * np.abs(held).max()
        assert np.array_equal(ctx.column(2), g[2])


class TestOptimize:
    def test_single_element_reaches_grid_optimum(self):
        s = Scenario(n=1, spacing=0.5, alpha_tx=0.7, alpha_rx=2.1)
        ch = build_los_scenario(s)
        res = optimize(ch, RisState.zeros(1))
        grid = np.exp(2j * np.pi * np.arange(3600) / 3600)
        # brute force over the reflection phase of the single load
        x_grid = 50.0 / np.tan(np.angle(grid[1:-1]) / 2.0)
        gains = [channel_gain(evaluate_channel(ch, RisState(np.array([x])))) for x in x_grid]
        assert res.trace[-1] >= max(gains) - 1e-9 * max(gains)

    def test_monotone_trace(self):
        rng = np.random.default_rng(21)
        for _ in range(5):
            s = Scenario(n=int(rng.integers(2, 8)), spacing=float(rng.uniform(0.15, 0.5)),
                         alpha_tx=float(rng.uniform(0, np.pi)),
                         alpha_rx=float(rng.uniform(0, np.pi)))
            res = optimize(build_los_scenario(s), RisState.zeros(s.n))
            assert np.all(np.diff(res.trace) >= -1e-12)

    def test_half_wavelength_start_near_stationary(self):
        s = Scenario(n=4, spacing=0.5, alpha_tx=0.0, alpha_rx=np.pi)
        res = optimize(build_los_scenario(s), RisState.zeros(4))
        assert np.all(np.diff(res.trace) >= -1e-12)
        assert res.converged

    def test_quarter_wavelength_local_maximum_below_decoupled(self):
        s = Scenario(n=4, spacing=0.25, alpha_tx=0.0, alpha_rx=np.pi)
        ch = build_los_scenario(s)
        res = optimize(ch, RisState.zeros(4))
        assert res.converged
        decoupled = closed_form_siso(ch).gain
        assert res.trace[-1] < decoupled * (1 - 1e-6)

    def test_spectral_efficiency_objective_monotone(self):
        rng = np.random.default_rng(22)
        ch = random_channel(rng, 4, k=2, m=2)
        cfg = OptimizerConfig(objective=SPECTRAL_EFFICIENCY, max_sweeps=30)
        res = optimize(ch, RisState.zeros(4), cfg)
        assert np.all(np.diff(res.trace) >= -1e-10)
        assert res.trace[-1] == pytest.approx(
            spectral_efficiency(evaluate_channel(ch, res.state)), rel=1e-8)

    def test_config_validation(self):
        with pytest.raises(InvalidArgumentError):
            OptimizerConfig(max_sweeps=0)
        with pytest.raises(InvalidArgumentError):
            OptimizerConfig(tol=-1.0)
        with pytest.raises(InvalidArgumentError):
            OptimizerConfig(tol=float("nan"))
        with pytest.raises(InvalidArgumentError):
            OptimizerConfig(objective="nope")

    @pytest.mark.parametrize("value", [2.5, 3.0, True, "5", None])
    def test_max_sweeps_must_be_an_integer(self, value):
        # 2.5 would reach range() as a bare TypeError, and True would count as 1 sweep
        with pytest.raises(InvalidArgumentError, match="max_sweeps"):
            OptimizerConfig(max_sweeps=value)

    def test_max_sweeps_accepts_numpy_integers(self):
        ch = random_channel(np.random.default_rng(23), 3)
        cfg = OptimizerConfig(max_sweeps=np.int64(3), tol=0.0)
        assert optimize(ch, RisState.zeros(3), cfg).sweeps == 3


@pytest.mark.parametrize("solve", [optimize, naive_elementwise, init_context, evaluate_channel],
                         ids=lambda f: f.__name__)
@pytest.mark.parametrize("length", [1, 3])
def test_wrong_length_state_refused(solve, length):
    # loading_matrix makes the check for every path; a length-1 state would
    # otherwise broadcast over the diagonal
    ch = random_channel(np.random.default_rng(24), 2)
    with pytest.raises(InvalidArgumentError, match=f"{length} reactances for a channel of 2"):
        solve(ch, RisState.zeros(length))


class TestNoEffectElement:
    """On an uncoupled array (Z_R = R I) an element whose Z_DR column (SISO) or
    Z_RS row (SE) is zero cannot change the channel.  It takes the common step
    with theta = -1, so dx = 0: its reactance stays 0 and its trace entry
    repeats the one before it."""

    @pytest.mark.parametrize("runner", [optimize, naive_elementwise])
    @pytest.mark.parametrize("objective", ["siso_gain", SPECTRAL_EFFICIENCY])
    def test_element_stays_put(self, runner, objective):
        rng = np.random.default_rng(28)
        n, dead = 4, 1
        k = m = 1 if objective == "siso_gain" else 2
        z = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        z_dr, z_rs = 50.0 * z(k, n), 50.0 * z(n, m)
        if objective == "siso_gain":
            z_dr[:, dead] = 0.0
        else:
            z_rs[dead] = 0.0
        ch = ImpedanceChannel(z(k, m), z_dr, z_rs, 50.0 * np.eye(n), 50.0)
        res = runner(ch, RisState.zeros(n), OptimizerConfig(objective=objective))
        assert res.state.x[dead] == 0.0
        assert np.all(np.delete(res.state.x, dead) != 0.0)
        starts = np.concatenate([[1], res.sweep_ends[:-1] + 1])
        assert np.array_equal(res.trace[starts + dead], res.trace[starts + dead - 1])


class TestGramIdentity:
    def test_identity_holds_for_random_instances(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            n = int(rng.integers(2, 9))
            k = int(rng.integers(1, 4))
            m = int(rng.integers(1, 4))
            ch = random_channel(rng, n, k=k, m=m, spacing=float(rng.uniform(0.15, 0.5)))
            x = rng.uniform(-100, 100, n)
            ctx = init_context(ch, RisState(x))
            p = element_params(ctx, int(rng.integers(n)))
            if np.linalg.norm(p.b) == 0:
                continue
            theta = np.exp(1j * rng.uniform(-np.pi, np.pi))
            z = p.z0 + np.outer(p.a, np.conj(p.b)) * theta
            a_mat, f = gram_factors(p)
            tbar = np.array([theta, 1.0])
            recon = (a_mat - np.eye(k)) + f @ np.outer(tbar, tbar.conj()) @ f.conj().T
            gram = z @ z.conj().T
            assert np.linalg.norm(gram - recon) <= 1e-10 * np.linalg.norm(gram)


class TestSeStepBitForBit:
    """The spectral-efficiency element step and objective against their first
    written form (np.eye, np.outer, np.column_stack, np.linalg.norm,
    np.atleast_2d): a rewrite for speed must not move a single bit of the SE
    trajectory."""

    @staticmethod
    def params(ctx, n):
        g = complex(ctx.g0[n, n] - ctx.p[:ctx.k, n] @ ctx.q[:ctx.k, n])
        a = ctx.u[:, n].copy()
        b = ctx.v[n].conj() / (2.0 * g.real)
        return elementwise.ElementParams(a=a, b=b, g=g, z0=ctx.z_bar + a[:, None] * b.conj())

    @staticmethod
    def gram(p):
        a, b, z0 = p.a, p.b, p.z0
        if isinstance(z0, complex):
            a, b, z0 = np.array([a]), np.array([b]), np.array([[z0]])
        bnorm = np.linalg.norm(b)
        bu = b / bnorm if bnorm else b
        proj = z0 @ (np.eye(b.size) - np.outer(bu, bu.conj())) @ z0.conj().T
        return np.eye(z0.shape[0]) + proj, np.column_stack([a * bnorm, z0 @ bu])

    @staticmethod
    def theta(a_mat, f):
        c12 = complex((f.conj().T @ np.linalg.solve(a_mat, f))[0, 1])
        return -1.0 + 0.0j if c12 == 0 else c12 / abs(c12)

    @staticmethod
    def se(z):
        z = np.atleast_2d(np.asarray(z, dtype=complex))
        sign, logdet = np.linalg.slogdet(np.eye(z.shape[0]) + z @ z.conj().T)
        return float(logdet / np.log(2.0))

    def assert_step_matches(self, p):
        a_mat, f = gram_factors(p)
        want_a, want_f = self.gram(p)
        assert np.array_equal(a_mat, want_a) and np.array_equal(f, want_f)
        assert optimal_theta_se(a_mat, f) == self.theta(want_a, want_f)

    def test_random_contexts(self):
        rng = np.random.default_rng(29)
        for _ in range(60):
            k, m = (int(v) for v in rng.integers(1, 5, size=2))
            n = int(rng.integers(2, 9))
            ch = random_channel(rng, n, k=k, m=m, spacing=float(rng.uniform(0.15, 0.5)))
            ctx = init_context(ch, RisState(rng.uniform(-100, 100, n)))
            for _ in range(int(rng.integers(0, 4))):       # leave some updates pending
                apply_update(ctx, int(rng.integers(n)), float(rng.uniform(-30, 30)))
            e = int(rng.integers(n))
            p = element_params(ctx, e)
            if not ctx.scalar:
                want = self.params(ctx, e)
                assert p.g == want.g
                assert all(np.array_equal(got, w) for got, w in zip(p, want))
            self.assert_step_matches(p)             # scalar contexts take gram_factors' scalar branch
            z = ctx.z_bar
            assert spectral_efficiency(z) == self.se(z)
            assert spectral_efficiency(p.z0) == self.se(p.z0)

    def test_zero_b(self):
        p = elementwise.ElementParams(a=np.array([1.0 + 1j, 2.0]), b=np.zeros(3, dtype=complex),
                                      g=0.02 + 0j, z0=np.array([[1.0, 2j, 0.5], [0.5, 1.0, -1j]]))
        self.assert_step_matches(p)
        self.assert_step_matches(elementwise.ElementParams(a=0.5 - 1j, b=0j, g=0.02 + 0j, z0=2j + 1))

    @pytest.mark.parametrize("z", [
        [[1.0, 2j], [0.5, -1.0]],                   # list
        np.array([[1.5, -2.0], [0.25, 3.0]]),       # real
        np.array([1.0 - 1j, 2j, 0.5]),              # 1-D
        3.0 - 4j,                                   # scalar
        np.arange(12.0).reshape(3, 4).T * (1 + 1j),    # complex, Fortran order
    ])
    def test_spectral_efficiency_inputs(self, z):
        assert spectral_efficiency(z) == self.se(z)


def _gain_at(ch, x):
    return channel_gain(evaluate_channel(ch, RisState(x)))


class TestSisoDerivatives:
    def test_match_central_differences_at_random_point(self):
        rng = np.random.default_rng(24)
        ch = random_channel(rng, 6, spacing=0.2)
        x = rng.uniform(-80, 80, 6)
        grad, hess = siso_derivatives(init_context(ch, RisState(x)))
        h = 1e-4
        for n in range(6):
            e = np.zeros(6)
            e[n] = h
            fd = (_gain_at(ch, x + e) - _gain_at(ch, x - e)) / (2 * h)
            assert grad[n] == pytest.approx(fd, rel=1e-6, abs=1e-9 * np.abs(grad).max())
            g_plus, _ = siso_derivatives(init_context(ch, RisState(x + e)))
            g_minus, _ = siso_derivatives(init_context(ch, RisState(x - e)))
            np.testing.assert_allclose(hess[:, n], (g_plus - g_minus) / (2 * h),
                                       rtol=1e-5, atol=1e-8 * np.abs(hess).max())


def _se_at(ch, x):
    return spectral_efficiency(evaluate_channel(ch, RisState(x)))


def _se_channel(rng, n, k, m, spacing=0.25):
    """A K x M link of spectral efficiency 5-20 bits over an N-element ULA."""
    ch = random_channel(rng, n, k=k, m=m, spacing=spacing)
    return ImpedanceChannel(ch.z_ds, ch.z_dr / 12.5, ch.z_rs / 12.5, ch.z_r, 50.0)


class TestSeDerivatives:
    H = 3e-3        # ohms

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_match_central_differences_in_x(self, k, m):
        rng = np.random.default_rng(100 + 10 * k + m)
        n = 6
        ch = _se_channel(rng, n, k, m)
        x = rng.uniform(-80, 80, n)
        grad, hess = se_derivatives(init_context(ch, RisState(x)))
        for i in range(n):
            e = np.zeros(n)
            e[i] = self.H
            fd = (_se_at(ch, x + e) - _se_at(ch, x - e)) / (2 * self.H)
            assert abs(grad[i] - fd) <= 1e-6 * np.abs(grad).max()
            g_plus, _ = se_derivatives(init_context(ch, RisState(x + e)))
            g_minus, _ = se_derivatives(init_context(ch, RisState(x - e)))
            np.testing.assert_allclose(hess[:, i], (g_plus - g_minus) / (2 * self.H),
                                       rtol=0, atol=1e-6 * np.abs(hess).max())

    @pytest.mark.parametrize("k, m", [(2, 3), (4, 2), (3, 4)])
    def test_match_central_differences_in_y(self, k, m):
        """The acceleration step's derivatives in y = arctan(x/R)."""
        rng = np.random.default_rng(200 + 10 * k + m)
        n = 5
        ch = _se_channel(rng, n, k, m)
        y = rng.uniform(-1.4, 1.4, n)
        accel = elementwise._Accelerator(OptimizerConfig(objective=SPECTRAL_EFFICIENCY),
                                         se_derivatives)
        at = lambda y: accel._context(ch, y)
        grad, hess = accel._derivatives(at(y))
        h = self.H / 50.0           # dx = R (1 + tan^2 y) dy, at least 3e-3 ohm
        for i in range(n):
            e = np.zeros(n)
            e[i] = h
            fd = (spectral_efficiency(at(y + e).z_bar) - spectral_efficiency(at(y - e).z_bar)) / (2 * h)
            assert abs(grad[i] - fd) <= 1e-6 * np.abs(grad).max()
            g_plus, _ = accel._derivatives(at(y + e))
            g_minus, _ = accel._derivatives(at(y - e))
            np.testing.assert_allclose(hess[:, i], (g_plus - g_minus) / (2 * h),
                                       rtol=0, atol=1e-6 * np.abs(hess).max())


class TestSeSkipTest:
    def test_closed_form_gain_is_the_objective_change(self):
        """optimal_theta_se keeps the element (theta = -1) exactly when its
        closed-form gain is at most min_gain, and that gain is the spectral
        efficiency change the update makes."""
        rng = np.random.default_rng(51)
        for _ in range(20):
            k, m = (int(v) for v in rng.integers(1, 5, size=2))
            n = int(rng.integers(2, 7))
            ch = _se_channel(rng, n, k, m, spacing=0.4)
            x = rng.uniform(-60, 60, n)
            ctx = init_context(ch, RisState(x))
            e = int(rng.integers(n))
            a_mat, f = gram_factors(element_params(ctx, e))
            theta = optimal_theta_se(a_mat, f)
            dx, saturated = theta_to_delta_x(theta, element_params(ctx, e).g)
            assert not saturated and dx != 0.0
            moved = x.copy()
            moved[e] += dx
            gain = _se_at(ch, moved) - _se_at(ch, x)
            assert gain > 1e-6
            assert optimal_theta_se(a_mat, f, gain * (1 - 1e-9)) == theta
            assert optimal_theta_se(a_mat, f, gain * (1 + 1e-9)) == -1.0

    def test_skipped_update_changes_nothing(self):
        rng = np.random.default_rng(52)
        ch = _se_channel(rng, 5, 3, 2)
        x = rng.uniform(-60, 60, 5)
        ctx = init_context(ch, RisState(x))
        p = element_params(ctx, 2)
        theta = optimal_theta_se(*gram_factors(p), math.inf)
        assert theta == -1.0
        dx, _ = theta_to_delta_x(theta, p.g)
        z_bar = ctx.z_bar.copy()
        apply_update(ctx, 2, dx)
        assert np.array_equal(ctx.x, x) and np.array_equal(ctx.z_bar, z_bar)

    @pytest.mark.parametrize("runner", [optimize, naive_elementwise])
    def test_run_of_skipped_updates_records_the_start(self, monkeypatch, runner):
        monkeypatch.setattr(elementwise, "SKIP_ROUNDOFF", math.inf)
        rng = np.random.default_rng(53)
        ch = _se_channel(rng, 4, 2, 3)
        res = runner(ch, RisState.zeros(4), OptimizerConfig(objective=SPECTRAL_EFFICIENCY))
        assert res.converged and res.sweeps == 1
        assert np.array_equal(res.state.x, np.zeros(4))
        assert np.array_equal(res.trace, np.full(5, res.trace[0]))


class TestSeUpdateGuard:
    """An update is made only if keep holds for the channel it would leave,
    and keep sees that channel bit for bit, under both backends."""

    @staticmethod
    def context(rng, k, m):
        ch = _se_channel(rng, 5, k, m)
        ctx = init_context(ch, RisState(rng.uniform(-60, 60, 5)))
        apply_update(ctx, 1, 7.0)                   # leave one update pending
        return ctx

    @pytest.mark.parametrize("update", [apply_update, reinvert_update])
    @pytest.mark.parametrize("km", [(1, 1), (3, 2)])
    def test_refused_update_changes_nothing(self, update, km):
        ctx = self.context(np.random.default_rng(54), *km)
        x, z_bar, k, cond = ctx.x.copy(), ctx.z_bar.copy(), ctx.k, ctx.cond
        assert update(ctx, 3, 12.0, lambda z: False) is False
        assert np.array_equal(ctx.x, x) and np.array_equal(ctx.z_bar, z_bar)
        assert ctx.k == k and ctx.cond == cond

    @pytest.mark.parametrize("update", [apply_update, reinvert_update])
    @pytest.mark.parametrize("km", [(1, 1), (3, 2)])
    def test_keep_sees_the_channel_the_update_leaves(self, update, km):
        free = self.context(np.random.default_rng(55), *km)
        ctx = self.context(np.random.default_rng(55), *km)
        seen = []
        assert update(ctx, 3, 12.0, lambda z: seen.append(z) or True) is True
        update(free, 3, 12.0)
        assert np.array_equal(ctx.x, free.x) and np.array_equal(ctx.z_bar, free.z_bar)
        assert spectral_efficiency(seen[0]) == spectral_efficiency(ctx.z_bar)

    def test_reinversion_keeps_the_condition_number_of_the_last_refactor(self):
        ctx = self.context(np.random.default_rng(56), 3, 2)
        cond = ctx.cond
        reinvert_update(ctx, 3, 12.0)
        assert ctx.cond == cond
        refactor(ctx)
        assert ctx.cond != cond

    @pytest.mark.parametrize("runner", [optimize, naive_elementwise])
    def test_an_update_that_lowers_the_objective_is_not_made(self, monkeypatch, runner):
        """With the objective read as its negative, every closed-form step
        lowers what the trace records, so no element moves."""
        objective = elementwise._objective
        monkeypatch.setattr(elementwise, "_objective", lambda cfg, z: -objective(cfg, z))
        ch = _se_channel(np.random.default_rng(57), 4, 2, 3)
        res = runner(ch, RisState.zeros(4), OptimizerConfig(objective=SPECTRAL_EFFICIENCY))
        assert res.converged and res.sweeps == 1
        assert np.array_equal(res.state.x, np.zeros(4))
        assert np.array_equal(res.trace, np.full(5, res.trace[0]))

    @pytest.mark.parametrize("made", [False, True])
    def test_saturation_counts_only_a_step_made(self, monkeypatch, made):
        monkeypatch.setattr(elementwise, "theta_to_delta_x", lambda theta, g: (X_MAX, True))
        ctx = self.context(np.random.default_rng(58), 3, 2)
        obj = spectral_efficiency(ctx.z_bar)
        cfg = OptimizerConfig(objective=SPECTRAL_EFFICIENCY)
        got = elementwise._se_element(cfg, ctx, 3, obj, lambda ctx, n, dx, keep: made)
        assert got == (obj, made)


class TestReciprocity:
    """ImpedanceChannel stores a Z_R within its symmetry tolerance as its
    symmetric part, which the rank-one updates assume: on the Z_R as given,
    0.9e-9 R off symmetric, the two backends drifted 6.5e-8 and 1.0e-7 apart."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_backends_agree_on_a_nearly_symmetric_z_r(self, seed):
        s = Scenario(n=8, spacing=0.2, alpha_tx=0.0, alpha_rx=np.pi)
        los = build_los_scenario(s)
        z_r = np.array(los.z_r)
        upper = np.triu_indices(s.n, 1)
        z_r[upper] += np.random.default_rng(seed).choice([-0.9e-9, 0.9e-9], upper[0].size) * s.R
        ch = ImpedanceChannel(los.z_ds, los.z_dr, los.z_rs, z_r, s.R)
        assert np.array_equal(ch.z_r, ch.z_r.T)
        assert np.array_equal(ch.z_r, (z_r + z_r.T) / 2.0)
        fast, dense = optimize(ch, RisState.zeros(s.n)), naive_elementwise(ch, RisState.zeros(s.n))
        assert fast.trace.size == dense.trace.size
        assert np.all(np.abs(fast.trace - dense.trace) <= 1e-9 * np.abs(dense.trace))

    def test_exactly_symmetric_z_r_kept_as_given(self):
        s = Scenario(n=5, spacing=0.2, alpha_tx=0.0, alpha_rx=np.pi)
        los = build_los_scenario(s)
        assert los.z_r is ArrayFactors.of(s).z_r and not los.z_r.flags.writeable


class TestSeAcceleration:
    """A small ill-conditioned MIMO channel (cond(Z_R + jX) about 5e4 at the
    end), on which coordinate ascent alone is still climbing at 500 sweeps."""

    @staticmethod
    def channel():
        rng = np.random.default_rng(26)
        k, m = (int(v) for v in rng.integers(2, 5, size=2))
        n = int(rng.integers(3, 7))
        spacing = float(rng.uniform(0.15, 0.35))
        z = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return ImpedanceChannel(z(k, m), 4.0 * z(k, n), 4.0 * z(n, m),
                                build_coupling_matrix(n, spacing, 50.0), 50.0)

    def test_step_engages_and_converges(self):
        ch = self.channel()
        cfg = OptimizerConfig(objective=SPECTRAL_EFFICIENCY)
        res = optimize(ch, RisState.zeros(ch.n), cfg)
        kept = res.trace.size - 1 - ch.n * res.sweeps
        assert kept > 0
        assert res.converged and res.sweeps < cfg.max_sweeps
        assert np.all(np.diff(res.trace) >= -1e-12 * np.abs(res.trace[:-1]))
        assert res.trace[-1] == pytest.approx(_se_at(ch, res.state.x), rel=1e-9)

    def test_both_backends_follow_the_same_trace(self):
        """Skipped updates, re-inversion above RANK_ONE_COND and kept steps
        alike: the rank-one run follows the dense-reinversion oracle."""
        ch = self.channel()
        cfg = OptimizerConfig(objective=SPECTRAL_EFFICIENCY)
        fast = optimize(ch, RisState.zeros(ch.n), cfg)
        naive = naive_elementwise(ch, RisState.zeros(ch.n), cfg)
        assert np.sum(np.diff(fast.trace) == 0.0) > 0         # some updates were skipped
        assert fast.trace.size == naive.trace.size and fast.sweeps == naive.sweeps
        np.testing.assert_allclose(fast.trace, naive.trace, rtol=1e-9)

    def test_above_rank_one_cond_optimize_reinverts(self, monkeypatch):
        monkeypatch.setattr(elementwise, "RANK_ONE_COND", 0.0)
        ch = self.channel()
        cfg = OptimizerConfig(objective=SPECTRAL_EFFICIENCY, max_sweeps=60)
        fast = optimize(ch, RisState.zeros(ch.n), cfg)
        naive = naive_elementwise(ch, RisState.zeros(ch.n), cfg)
        assert np.array_equal(fast.trace, naive.trace)
        assert np.array_equal(fast.state.x, naive.state.x)

    def test_coordinate_ascent_alone_is_capped(self, monkeypatch):
        monkeypatch.setattr(elementwise, "ACCEL_WINDOW", 10**9)
        ch = self.channel()
        res = optimize(ch, RisState.zeros(ch.n), OptimizerConfig(objective=SPECTRAL_EFFICIENCY))
        assert not res.converged


class TestTrustRegionStep:
    def test_newton_step_inside_radius(self):
        hess = -np.diag([4.0, 1.0])
        s = trust_region_step(np.array([2.0, 1.0]), hess, 10.0)
        np.testing.assert_allclose(s, [0.5, 1.0])

    def test_boundary_step_beats_sampled_ball(self):
        rng = np.random.default_rng(25)
        for _ in range(20):
            a = rng.standard_normal((4, 4))
            hess = a + a.T                  # indefinite
            grad = rng.standard_normal(4)
            radius = float(rng.uniform(0.1, 2.0))
            s = trust_region_step(grad, hess, radius)
            assert np.linalg.norm(s) <= radius * (1 + 1e-9)
            t = rng.standard_normal((2000, 4))
            t *= radius / np.linalg.norm(t, axis=1, keepdims=True)
            sampled = t @ grad + 0.5 * np.einsum("ij,jk,ik->i", t, hess, t)
            assert grad @ s + 0.5 * s @ hess @ s >= sampled.max() - 1e-9


class TestAccelerationStepBitForBit:
    """The acceleration step's derivatives against their first written form
    (np.outer, np.real), bit for bit: a rewrite for speed must not move the SISO
    trajectory.  The trust-region step's Newton search for the shift is checked
    against plain bisection run to adjacent floats: the step to 1e-14, its
    length against the radius to a few ulp, and its model value."""

    @staticmethod
    def derivatives(ctx):
        g_inv = ctx.z_inv
        u, v = ctx.u[0], ctx.v[:, 0]
        z = complex(ctx.z_bar[0, 0])
        dz = 1j * u * v
        d2z = g_inv * (np.outer(u, v) + np.outer(v, u))
        grad = 2.0 * np.real(z.conjugate() * dz)
        hess = 2.0 * np.real(z.conjugate() * d2z + np.outer(dz, dz.conj()))
        return grad, hess

    @staticmethod
    def bisection(grad, hess, radius, lo=None, hi=None):
        """The trust-region step with the shift found by bisection, run until
        the bracket holds adjacent floats.  A given end on the wrong side of
        the root is replaced by the default one."""
        w, v = np.linalg.eigh(hess)
        gt = v.T @ grad
        if w[-1] < 0.0:
            s = -gt / w
            if math.sqrt(s.dot(s)) <= radius:
                return v @ s
        floor = max(w[-1], 0.0)
        too_long = lambda mu: math.sqrt((gt / (mu - w)).dot(gt / (mu - w))) > radius
        if lo is None or lo <= floor or not too_long(lo):
            lo = floor
        if hi is None or hi <= floor or too_long(hi):
            hi = floor + math.sqrt(gt.dot(gt)) / radius + np.abs(w).max()
        while lo < 0.5 * (lo + hi) < hi:
            mid = 0.5 * (lo + hi)
            t = gt / (mid - w)
            if math.sqrt(t.dot(t)) > radius:
                lo = mid
            else:
                hi = mid
        return v @ (gt / (hi - w))

    def assert_step_matches(self, grad, hess, radius):
        s = trust_region_step(grad, hess, radius)
        want = self.bisection(grad, hess, radius)
        assert np.linalg.norm(s - want) <= 1e-14 * np.linalg.norm(want)
        assert math.sqrt(s.dot(s)) <= radius * (1.0 + 4.0 * EPS)
        model = lambda t: grad @ t + 0.5 * t @ hess @ t
        assert model(s) >= model(want) - 1e-12 * abs(model(want))

    @staticmethod
    def radius(rng):
        return float(10.0 ** rng.uniform(-6, 3))

    @classmethod
    def indefinite(cls, rng):
        n = int(rng.integers(1, 17))
        a = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-3, 3)
        return rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3), a + a.T, cls.radius(rng)

    @staticmethod
    def newton_step_just_outside(rng):
        n = int(rng.integers(1, 17))
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        hess = -(q * 10.0 ** rng.uniform(-2, 2, n)) @ q.T
        grad = rng.standard_normal(n)
        w, v = np.linalg.eigh(hess)
        newton = -(v.T @ grad) / w
        return grad, hess, float(np.sqrt(newton.dot(newton))) * (1.0 - rng.integers(1, 8) * 2.0**-52)

    @classmethod
    def hard_case(cls, rng):
        # gt = 0 along the largest eigenvalue: a diagonal Hessian keeps it exactly 0
        n = int(rng.integers(1, 17))
        w = rng.standard_normal(n) * 10.0 ** rng.uniform(-2, 2)
        grad = rng.standard_normal(n) * 10.0 ** rng.uniform(-4, 2)
        grad[np.argmax(w)] = 0.0
        if rng.uniform() < 0.1:
            grad[:] = 0.0
        return grad, np.diag(w), cls.radius(rng)

    @classmethod
    def single_element(cls, rng):
        return rng.standard_normal(1), rng.standard_normal((1, 1)) * 10.0, cls.radius(rng)

    @staticmethod
    def near_pole(rng):
        # the shift's root lies 1e-7 to 1e-4 above a largest eigenvalue of
        # 1e2 to 1e4, where |s| changes by up to 1e-4 relative per float of mu;
        # w_max + delta, the root, is in general not a float
        n = int(rng.integers(2, 17))
        w = np.sort(rng.standard_normal(n) * 10.0 ** rng.uniform(2, 4))
        w[-1] = abs(w[-1]) + 10.0 ** rng.uniform(2, 4)
        grad = rng.standard_normal(n)
        d = w[-1] - w + 10.0 ** rng.uniform(-7, -4)
        return grad, np.diag(w), float(np.sqrt((grad / d).dot(grad / d)))

    def test_derivatives(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            n = int(rng.integers(1, 17))
            ch = random_channel(rng, n, spacing=float(rng.uniform(0.1, 0.5)))
            ctx = init_context(ch, RisState(rng.uniform(-100, 100, n)))
            for _ in range(int(rng.integers(0, 4))):        # leave some updates pending
                apply_update(ctx, int(rng.integers(n)), float(rng.uniform(-30, 30)))
            grad, hess = siso_derivatives(ctx)
            want_grad, want_hess = self.derivatives(ctx)
            assert grad.tobytes() == want_grad.tobytes()
            assert hess.tobytes() == want_hess.tobytes()

    def test_indefinite(self):
        rng = np.random.default_rng(32)
        for _ in range(200):
            self.assert_step_matches(*self.indefinite(rng))

    def test_negative_definite_newton_step_just_outside(self):
        rng = np.random.default_rng(33)
        for _ in range(60):
            self.assert_step_matches(*self.newton_step_just_outside(rng))

    def test_hard_case(self):
        rng = np.random.default_rng(34)
        for _ in range(100):
            self.assert_step_matches(*self.hard_case(rng))

    def test_single_element(self):
        rng = np.random.default_rng(35)
        for _ in range(50):
            self.assert_step_matches(*self.single_element(rng))

    def test_near_pole(self):
        """Each Newton step moves the shift up by at least one float: a step
        that rounds to nothing would stop one float short of the root, where
        |s| is longer than the radius by up to 1e-5 relative."""
        rng = np.random.default_rng(37)
        for _ in range(100):
            self.assert_step_matches(*self.near_pole(rng))

    def test_interior_newton_step(self):
        rng = np.random.default_rng(38)
        for _ in range(50):
            n = int(rng.integers(1, 17))
            q, _ = np.linalg.qr(rng.standard_normal((n, n)))
            hess = -(q * 10.0 ** rng.uniform(-2, 2, n)) @ q.T
            grad = rng.standard_normal(n)
            w, v = np.linalg.eigh(hess)
            newton = v @ (-(v.T @ grad) / w)
            radius = np.linalg.norm(newton) * float(rng.uniform(1.0, 3.0))
            assert trust_region_step(grad, hess, radius).tobytes() == newton.tobytes()

    def test_newton_cap_never_binds(self, monkeypatch):
        """SHIFT_NEWTON_STEPS is only a cap: a far larger one gives the same bits."""
        rng = np.random.default_rng(36)
        families = (self.indefinite, self.newton_step_just_outside, self.hard_case,
                    self.single_element, self.near_pole)
        cases = [family(rng) for family in families for _ in range(40)]
        steps = [trust_region_step(*case) for case in cases]
        monkeypatch.setattr(elementwise, "SHIFT_NEWTON_STEPS", 1000)
        for case, s in zip(cases, steps):
            assert trust_region_step(*case).tobytes() == s.tobytes()

    @pytest.mark.parametrize("newton_steps", [0, 1, 20])
    @pytest.mark.parametrize("bracket", [4e-15, 0.5, -0.5])
    def test_any_bracket_gives_plain_bisection(self, newton_steps, bracket):
        """The step is the root itself, not an artifact of where the oracle
        starts: bisection from a bracket of relative half-width 4e-15, 0.5 or
        turned inside out (-0.5, each end on the wrong side of the root),
        centred on the shift after 0, 1 or 20 Newton steps, gives it too."""
        rng = np.random.default_rng(36)
        for _ in range(60):
            n = int(rng.integers(1, 17))
            a = rng.standard_normal((n, n))
            grad, hess, radius = rng.standard_normal(n), a + a.T, self.radius(rng)
            w, v = np.linalg.eigh(hess)
            gt = v.T @ grad
            mu = max(w[-1], 0.0, (w + np.abs(gt) / radius).max())
            for _ in range(newton_steps):
                s = gt / (mu - w)
                ss = s.dot(s)
                if math.sqrt(ss) <= radius:
                    break
                mu += (math.sqrt(ss) / radius - 1.0) * ss / s.dot(s / (mu - w))
            step = trust_region_step(grad, hess, radius)
            want = self.bisection(grad, hess, radius, mu * (1.0 - bracket), mu * (1.0 + bracket))
            assert np.linalg.norm(step - want) <= 1e-14 * np.linalg.norm(want)


class TestSlowRidgeScenario:
    """Draw 40 of the acceptance fixture: coordinate ascent alone needs about
    3800 sweeps and stands at 0.615 of Decoupled after 500."""

    SCENARIO = SLOW_RIDGE

    def test_both_optimizers_converge_on_the_same_trace(self):
        ch = build_los_scenario(self.SCENARIO)
        fast = optimize(ch, RisState.zeros(5))
        naive = naive_elementwise(ch, RisState.zeros(5))
        cap = OptimizerConfig().max_sweeps
        for res in (fast, naive):
            assert res.converged and res.sweeps < cap
            assert res.sweep_ends.size == res.sweeps
            assert res.sweep_ends[-1] == res.trace.size - 1
            assert np.all(np.diff(res.trace) >= -1e-12 * res.trace[1:])
        assert fast.trace.size == naive.trace.size
        np.testing.assert_allclose(fast.trace, naive.trace, rtol=1e-9)
        # the local maximum that coordinate ascent reaches when run to convergence
        decoupled = closed_form_siso(ch).gain
        assert fast.trace[-1] / decoupled >= 0.72

    def test_returned_state_is_stationary(self):
        ch = build_los_scenario(self.SCENARIO)
        res = optimize(ch, RisState.zeros(5))
        x = res.state.x
        grad, hess = siso_derivatives(init_context(ch, RisState(x)))
        f = res.trace[-1]
        for n in range(5):
            h = 1e-6 * max(1.0, abs(x[n]))
            e = np.zeros(5)
            e[n] = h
            fd = (_gain_at(ch, x + e) - _gain_at(ch, x - e)) / (2 * h)
            # resolution of the difference quotient: roundoff of f over h, plus
            # a small fraction of the gradient change across the step
            assert abs(grad[n] - fd) <= 1e-12 * f / h + 1e-3 * abs(hess[n, n]) * h
            g_plus, _ = siso_derivatives(init_context(ch, RisState(x + e)))
            g_minus, _ = siso_derivatives(init_context(ch, RisState(x - e)))
            np.testing.assert_allclose(hess[:, n], (g_plus - g_minus) / (2 * h),
                                       rtol=1e-4, atol=1e-6 * np.abs(hess).max())
        assert np.all(np.linalg.eigvalsh(hess) < 0)


class TestAccelerationThreshold:
    """Draw 22 of the acceptance fixture.  At convergence an acceleration step
    can gain only roundoff, which one backend sees as a gain and the other does
    not; a step must gain more than the stopping tolerance to be kept."""

    SCENARIO = Scenario(n=7, spacing=0.3262071151300452, alpha_tx=2.8459190479964,
                        alpha_rx=0.9574444857217485, gamma_dr=0.7734536332478623,
                        gamma_rs=0.6714645928039642)

    def test_both_backends_keep_the_same_steps(self):
        ch = build_los_scenario(self.SCENARIO)
        fast = optimize(ch, RisState.zeros(7))
        naive = naive_elementwise(ch, RisState.zeros(7))
        assert fast.sweeps == naive.sweeps
        assert fast.trace.size == naive.trace.size
        np.testing.assert_allclose(fast.trace, naive.trace, rtol=1e-9)


class TestAcceleratedContext:
    """After a kept acceleration step the sweep continues from the step's own
    dense context, and the trace records that context's objective as the sweep
    scores every other entry.  On the slow-ridge scenario both backends keep
    steps."""

    SCENARIO = TestSlowRidgeScenario.SCENARIO

    @pytest.mark.parametrize("runner", [optimize, naive_elementwise])
    def test_kept_step_records_the_objective_of_its_context(self, monkeypatch, runner):
        n, cfg = self.SCENARIO.n, OptimizerConfig()
        starts = []         # objective of the context each sweep starts from

        def element_params_(ctx, k):
            if k == 0:
                starts.append(elementwise._objective(cfg, ctx.z_bar))
            return element_params(ctx, k)
        monkeypatch.setattr(elementwise, "element_params", element_params_)
        res = runner(build_los_scenario(self.SCENARIO), RisState.zeros(n), cfg)
        ends = res.sweep_ends
        kept = np.flatnonzero(np.diff(ends, prepend=0) == n + 1)
        assert kept.size > 10 and kept[-1] < res.sweeps - 1
        for k in kept:
            assert res.trace[ends[k]] == starts[k + 1]
