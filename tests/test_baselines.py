import numpy as np
import pytest

from riscoupling import (
    ImpedanceChannel,
    MethodId,
    OptimizerConfig,
    RisState,
    Scenario,
    build_coupling_matrix,
    build_los_scenario,
    closed_form_siso,
    grid_search_phase,
    ignore_mc_gain,
    naive_elementwise,
    no_coupling_gain,
    optimize,
)
from riscoupling.errors import InvalidArgumentError


def random_scenario(rng, n_max=8, spacing_range=(0.1, 0.5), n=None):
    return Scenario(
        n=n if n is not None else int(rng.integers(1, n_max + 1)),
        spacing=float(rng.uniform(*spacing_range)),
        alpha_tx=float(rng.uniform(0, np.pi)),
        alpha_rx=float(rng.uniform(0, np.pi)),
    )


class TestMethodId:
    def test_csv_values(self):
        assert {m.value for m in MethodId} == {
            "Decoupled", "ElementWise", "ElementWiseNaive",
            "NoCoupling", "IgnoreMC", "GridOracle",
        }


class TestNaiveElementwise:
    def test_single_element_identical_update(self):
        s = Scenario(n=1, spacing=0.4, alpha_tx=0.5, alpha_rx=1.7)
        ch = build_los_scenario(s)
        fast = optimize(ch, RisState.zeros(1))
        naive = naive_elementwise(ch, RisState.zeros(1))
        assert naive.state.x[0] == pytest.approx(fast.state.x[0], rel=1e-9)
        assert naive.trace[1] == pytest.approx(fast.trace[1], rel=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_final_gain_matches_fast(self, seed):
        rng = np.random.default_rng(200 + seed)
        s = random_scenario(rng, n_max=8)
        ch = build_los_scenario(s)
        cfg = OptimizerConfig(max_sweeps=60)
        fast = optimize(ch, RisState.zeros(s.n), cfg)
        naive = naive_elementwise(ch, RisState.zeros(s.n), cfg)
        assert naive.trace[-1] == pytest.approx(fast.trace[-1], rel=1e-9)

    def test_trajectory_identical(self):
        rng = np.random.default_rng(210)
        s = random_scenario(rng, n_max=6)
        ch = build_los_scenario(s)
        cfg = OptimizerConfig(max_sweeps=40)
        fast = optimize(ch, RisState.zeros(s.n), cfg)
        naive = naive_elementwise(ch, RisState.zeros(s.n), cfg)
        m = min(fast.trace.size, naive.trace.size)
        np.testing.assert_allclose(fast.trace[:m], naive.trace[:m], rtol=1e-9)

    def test_spectral_efficiency_trajectory_matches_fast(self):
        # the dense-reinversion oracle runs the spectral-efficiency objective too
        rng = np.random.default_rng(250)
        z = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        ch = ImpedanceChannel(z(2, 2), 50.0 * z(2, 4), 50.0 * z(4, 2),
                              build_coupling_matrix(4, 0.3, 50.0), 50.0)
        cfg = OptimizerConfig(objective="spectral_efficiency")
        fast = optimize(ch, RisState.zeros(4), cfg)
        naive = naive_elementwise(ch, RisState.zeros(4), cfg)
        assert fast.converged and naive.converged
        assert fast.trace.size == naive.trace.size
        np.testing.assert_allclose(fast.trace, naive.trace, rtol=1e-9)


class TestGridSearchPhase:
    def test_single_element_matches_closed_form(self):
        rng = np.random.default_rng(220)
        s = random_scenario(rng, n=1)
        ch = build_los_scenario(s)
        assert grid_search_phase(ch) == pytest.approx(closed_form_siso(ch).gain, rel=1e-5)

    def test_symmetric_two_element_scenario(self):
        s = Scenario(n=2, spacing=0.3, alpha_tx=np.pi / 2, alpha_rx=np.pi / 2)
        ch = build_los_scenario(s)
        sol = closed_form_siso(ch)
        assert sol.theta[0] == pytest.approx(sol.theta[1], rel=1e-12)
        assert grid_search_phase(ch) <= sol.gain * (1 + 1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_three_element_lower_bounds_closed_form(self, seed):
        rng = np.random.default_rng(230 + seed)
        s = random_scenario(rng, n=3)
        ch = build_los_scenario(s)
        assert grid_search_phase(ch) <= closed_form_siso(ch).gain * (1 + 1e-12)

    def test_large_n_refused(self):
        s = Scenario(n=4, spacing=0.3, alpha_tx=0.1, alpha_rx=1.0)
        with pytest.raises(InvalidArgumentError):
            grid_search_phase(build_los_scenario(s))


class TestNoCouplingBaselines:
    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_front_fire_half_wavelength_n_squared(self, n):
        s = Scenario(n=n, spacing=0.5, alpha_tx=np.pi / 2, alpha_rx=np.pi / 2)
        assert no_coupling_gain(s) == pytest.approx(n**2)

    def test_ignore_mc_below_no_coupling_at_half_wavelength_end_fire(self):
        # the imaginary off-diagonals of Z_R are uncompensated under IgnoreMC
        s = Scenario(n=4, spacing=0.5, alpha_tx=0.0, alpha_rx=np.pi)
        assert ignore_mc_gain(s) < no_coupling_gain(s)

    def test_ignore_mc_equals_no_coupling_phase_model_at_theta_minus_identity(self):
        # x = 0 is exactly the no-coupling phase solution applied to the true model;
        # at d = 0.5 with a diagonal-real coupling matrix the discrepancy is purely
        # the imaginary off-diagonals.
        s = Scenario(n=1, spacing=0.5, alpha_tx=0.3, alpha_rx=2.0)
        assert ignore_mc_gain(s) == pytest.approx(no_coupling_gain(s), rel=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_ignore_mc_never_beats_elementwise(self, seed):
        rng = np.random.default_rng(240 + seed)
        s = random_scenario(rng, n_max=6, spacing_range=(0.15, 0.5))
        ch = build_los_scenario(s)
        ew = optimize(ch, RisState.zeros(s.n)).trace[-1] / (s.gamma_dr * s.gamma_rs * s.R**2)
        assert ignore_mc_gain(s) <= ew * (1 + 1e-12)

    def test_integer_half_wavelength_decoupled_equals_no_coupling(self):
        from riscoupling import array_gain
        for k in (1, 2):
            s = Scenario(n=5, spacing=0.5 * k, alpha_tx=0.9, alpha_rx=2.2)
            assert array_gain(s) == pytest.approx(no_coupling_gain(s), rel=1e-9)
