import numpy as np
import pytest

from riscoupling import (
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
from riscoupling.baselines import naive_elementwise
from riscoupling.decoupling import closed_form_siso, effective_channel
from riscoupling.elementwise import (
    SPECTRAL_EFFICIENCY,
    apply_update,
    element_params,
    gram_factors,
    init_context,
    optimal_theta_se,
    optimal_theta_siso,
    optimize,
    refactor,
    siso_derivatives,
    theta_to_delta_x,
    trust_region_step,
)
from riscoupling.errors import ChangeOfVariablesError, InvalidArgumentError


def random_channel(rng, n, k=1, m=1, spacing=0.3):
    z_r = build_coupling_matrix(n, spacing, 50.0)
    z = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return ImpedanceChannel(z(k, m), 50.0 * z(k, n), 50.0 * z(n, m), z_r, 50.0)


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
            z = p.z0 + np.outer(p.a, p.b.conj()) * (-1.0)
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
        res = optimal_theta_siso(1.0, 1.0, 1.0)
        assert res.theta == pytest.approx(1.0)
        assert res.value == pytest.approx(2.0)
        assert abs(1.0 + 1.0 * np.conj(1.0) * res.theta) ** 2 == pytest.approx(4.0)

    def test_quarter_turn(self):
        res = optimal_theta_siso(1j, 1.0, 1.0)
        assert np.angle(res.theta) == pytest.approx(np.pi / 2)

    def test_no_effect_flag(self):
        res = optimal_theta_siso(2.0, 0.0, 1.0)
        assert res.no_effect
        assert res.theta == 1.0

    def test_beats_dense_phase_grid(self):
        rng = np.random.default_rng(14)
        grid = np.exp(2j * np.pi * np.arange(3600) / 3600)
        for _ in range(20):
            z0, a, b = (complex(rng.standard_normal() + 1j * rng.standard_normal())
                        for _ in range(3))
            res = optimal_theta_siso(z0, a, b)
            best_grid = np.max(np.abs(z0 + a * np.conj(b) * grid))
            assert abs(z0 + a * np.conj(b) * res.theta) >= best_grid - 1e-12


class TestOptimalThetaSe:
    def test_positive_real_c12(self):
        f = np.array([[1.0, 0.5], [0.0, np.sqrt(0.75)]], dtype=complex)
        res = optimal_theta_se(np.eye(2, dtype=complex), f)
        assert res.theta == pytest.approx(1.0)

    def test_imaginary_c12(self):
        # C = F^H F with c12 = -0.3j
        f = np.array([[1.0, -0.3j], [0.0, 1.0]], dtype=complex)
        res = optimal_theta_se(np.eye(2, dtype=complex), f)
        assert res.theta == pytest.approx(-1j)

    def test_beats_theta_grid(self):
        rng = np.random.default_rng(15)
        grid = np.exp(2j * np.pi * np.arange(3600) / 3600)
        for _ in range(10):
            ch = random_channel(rng, 4, k=2, m=2)
            x = rng.uniform(-100, 100, 4)
            ctx = init_context(ch, RisState(x))
            p = element_params(ctx, int(rng.integers(4)))
            a_mat, f = gram_factors(p)
            res = optimal_theta_se(a_mat, f)
            se_star = spectral_efficiency(p.z0 + np.outer(p.a, p.b.conj()) * res.theta)
            se_grid = max(
                spectral_efficiency(p.z0 + np.outer(p.a, p.b.conj()) * t) for t in grid[::36]
            )
            assert se_star >= se_grid - 1e-10
            assert res.value == pytest.approx(se_star, rel=1e-9)


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
        from riscoupling import array_gain, closed_form_siso, effective_channel
        s = Scenario(n=4, spacing=0.25, alpha_tx=0.0, alpha_rx=np.pi)
        ch = build_los_scenario(s)
        res = optimize(ch, RisState.zeros(4))
        assert res.converged
        decoupled = closed_form_siso(effective_channel(ch)).gain
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
            OptimizerConfig(objective="nope")


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
            z = p.z0 + np.outer(p.a, p.b.conj()) * theta
            a_mat, f = gram_factors(p)
            tbar = np.array([theta, 1.0])
            recon = (a_mat - np.eye(k)) + f @ np.outer(tbar, tbar.conj()) @ f.conj().T
            gram = z @ z.conj().T
            assert np.linalg.norm(gram - recon) <= 1e-10 * np.linalg.norm(gram)


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


class TestSlowRidgeScenario:
    """Draw 40 of the acceptance fixture: coordinate ascent alone needs about
    3800 sweeps and stands at 0.615 of Decoupled after 500."""

    SCENARIO = Scenario(n=5, spacing=0.16340238753657976, alpha_tx=0.3288973559887411,
                        alpha_rx=0.6262066822143726, gamma_dr=0.6984385854177759,
                        gamma_rs=0.8436008778516497)

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
        decoupled = closed_form_siso(effective_channel(ch)).gain
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
