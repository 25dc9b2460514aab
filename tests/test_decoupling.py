import ast
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from riscoupling import (
    ImpedanceChannel,
    RisState,
    Scenario,
    build_coupling_matrix,
    build_los_scenario,
    channel_gain,
    evaluate_channel,
    single_element_gain,
    steering_vector,
)
from riscoupling import channel, decoupling, elementwise
from riscoupling.decoupling import (
    DecouplingNetwork,
    array_gain,
    closed_form_siso,
    effective_channel,
    power_matching_network,
    reactance_to_theta,
    reactance_transform,
    theta_to_reactance,
    transformed_load,
)
from riscoupling.errors import InvalidArgumentError, NumericallySingularError

from conftest import end_fire, front_fire

# Independent high-precision (60-digit) evaluations of the normalized
# end-fire array gain formula, computed once with mpmath and frozen.
END_FIRE_N4_ORACLE = {
    0.25: 163.08229291828144,
    0.1: 240.12914915940158,
    0.05: 252.00005871944885,
}
LOSSY_END_FIRE_N4_D01_ORACLE = {
    0.0: 240.12914915940158,
    0.01: 39.880479442896762,
    0.1: 12.839456405686457,
    1.0: 2.4967032834395036,
}
CORNER_D005_ORACLE = {3: 5.9551614346863308, 4: 2.9834911177137827}
# 60-digit (front-fire, end-fire) gains where cond(C) > 1e10, beyond what a
# double-precision solve can check.
ILL_CONDITIONED_ORACLE = {
    (9, 0.05): (36.93296598883482, 6454.34572484554),
    (9, 0.1): (37.713501174999536, 6137.643432745521),
    (16, 0.05): (98.3544833259928, 64463.807858890454),
    (16, 0.1): (101.06009846420991, 61279.78619231015),
    (16, 0.25): (122.53327818182446, 40505.05109407397),
}


# The extended-precision Decoupled gains the benchmark checks the figures rows against.
REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "data" / "decoupled_reference.json"


def squared_quadratic_form(s, a):
    """(a^H C^{-1} a)^2 with C = Re(Z_R)/R, by a linear solve instead of C^{-1/2}."""
    c = build_los_scenario(s).z_r.real / s.R
    return float(np.real(a.conj() @ np.linalg.solve(c, a))) ** 2


class TestPowerMatchingNetwork:
    def test_identity_coupling(self):
        net = power_matching_network(50.0 * np.eye(3), 50.0)
        assert np.allclose(net.z12, -1j * 50.0 * np.eye(3))
        assert np.allclose(net.z22, 0.0)
        assert np.allclose(net.z11, 0.0)

    def test_blocks_lossless_and_reciprocal(self):
        z_r = build_coupling_matrix(4, 0.25, 50.0)
        net = power_matching_network(z_r, 50.0)
        full = net.full_matrix()
        assert full.shape == (8, 8)
        assert np.allclose(full, full.T)
        assert np.abs(full.real).max() < 1e-10
        assert np.allclose(net.z12, net.z12.T)

    def test_lossy_network_rejected(self):
        with pytest.raises(InvalidArgumentError):
            DecouplingNetwork(z11=np.eye(2), z12=-1j * np.eye(2), z22=np.zeros((2, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
    def test_non_finite_network_rejected(self, bad):
        z12 = -1j * np.eye(2)
        z12[0, 1] = z12[1, 0] = bad
        with pytest.raises(InvalidArgumentError, match="finite"):
            DecouplingNetwork(z11=np.zeros((2, 2)), z12=z12, z22=np.zeros((2, 2)))

    @pytest.mark.parametrize("r", [np.nan, np.inf, 0.0, -50.0])
    def test_bad_reference_resistance_rejected(self, r):
        with pytest.raises(InvalidArgumentError):
            power_matching_network(build_coupling_matrix(3, 0.2, 50.0), r)

    def test_non_finite_coupling_rejected(self):
        z_r = build_coupling_matrix(3, 0.2, 50.0)
        z_r[0, 2] = z_r[2, 0] = np.nan
        with pytest.raises(InvalidArgumentError, match="finite"):
            power_matching_network(z_r, 50.0)


class TestTransformedLoad:
    def test_identity_coupling_scalar_algebra(self):
        net = power_matching_network(50.0 * np.eye(3), 50.0)
        z_n = transformed_load(net, RisState(np.full(3, 50.0)))
        assert np.allclose(z_n, -1j * 50.0 * np.eye(3))  # x' = -R^2/x = -R

    def test_symmetric_purely_imaginary(self):
        rng = np.random.default_rng(30)
        z_r = build_coupling_matrix(5, 0.2, 50.0)
        net = power_matching_network(z_r, 50.0)
        z_n = transformed_load(net, RisState(rng.uniform(20, 200, 5)))
        assert np.allclose(z_n, z_n.T)
        assert np.abs(z_n.real).max() < 1e-9

    def test_zero_reactance_rejected(self):
        net = power_matching_network(50.0 * np.eye(2), 50.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericallySingularError) as exc:
                transformed_load(net, RisState(np.array([50.0, 0.0])))
        assert exc.value.condition == np.inf

    @pytest.mark.parametrize("length", [1, 3])
    def test_wrong_length_state_refused(self, length):
        # a length-1 state would otherwise broadcast over the diagonal
        net = power_matching_network(50.0 * np.eye(2), 50.0)
        with pytest.raises(InvalidArgumentError, match=f"{length} reactances for a channel of 2"):
            transformed_load(net, RisState(np.full(length, 50.0)))

    def test_ill_conditioned_load_refused(self):
        # unchecked, x_0 = 1e-300 gives a load of about 1e303 ohms
        net = power_matching_network(50.0 * np.eye(2), 50.0)
        with pytest.raises(NumericallySingularError) as exc:
            transformed_load(net, RisState(np.array([1e-300, 5.0])))
        assert exc.value.condition > 1e14


class TestReactanceTransform:
    def test_values(self):
        assert np.allclose(reactance_transform(np.array([50.0]), 50.0), [-50.0])
        assert np.allclose(reactance_transform(np.array([-50.0]), 50.0), [50.0])

    def test_involution_up_to_sign(self):
        x = np.array([13.0, -77.0, 210.0])
        assert np.allclose(reactance_transform(reactance_transform(x, 50.0), 50.0), x)

    def test_zero_entry_reported_with_index(self):
        with pytest.raises(NumericallySingularError, match="index 1") as exc:
            reactance_transform(np.array([3.0, 0.0]), 50.0)
        assert exc.value.condition == np.inf

    @pytest.mark.parametrize("x", [[np.nan, np.inf], [3.0, -np.inf], [np.nan]])
    def test_non_finite_rejected(self, x):
        with pytest.raises(InvalidArgumentError, match="finite"):
            reactance_transform(np.array(x), 50.0)


# each takes element reactances; numpy alone would drop an imaginary part
# with no more than a ComplexWarning
REACTANCE_TAKERS = {
    "RisState": lambda x: RisState(x).x,
    "reactance_transform": lambda x: reactance_transform(x, 50.0),
    "reactance_to_theta": lambda x: reactance_to_theta(x, 50.0),
}


class TestReactancesAreReal:
    @pytest.mark.parametrize("name", REACTANCE_TAKERS)
    @pytest.mark.parametrize("x", [np.array([1.0 + 2.0j, 3.0]), [3.0, 1e-300j],
                                   np.array([1.0, 3.0 + np.nan * 1j])])
    def test_nonzero_imaginary_part_refused(self, name, x):
        with pytest.raises(InvalidArgumentError, match="reactances must be real"):
            REACTANCE_TAKERS[name](x)

    @pytest.mark.parametrize("name", REACTANCE_TAKERS)
    def test_zero_imaginary_part_taken_as_real(self, name):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = REACTANCE_TAKERS[name](np.array([1.0 + 0.0j, -3.0 - 0.0j]))
        assert got.tobytes() == REACTANCE_TAKERS[name](np.array([1.0, -3.0])).tobytes()

    def test_one_check_for_reactances_and_matrices(self):
        with pytest.raises(InvalidArgumentError, match="matrix must be real"):
            channel.psd_inv_sqrt(np.eye(2) + 1e-3j)
        assert channel.psd_sqrt(np.eye(2) + 0j).tobytes() == channel.psd_sqrt(np.eye(2)).tobytes()


class TestEffectiveChannel:
    def test_identity_coupling_is_noop(self):
        rng = np.random.default_rng(31)
        z_dr = rng.standard_normal((1, 3)) + 1j * rng.standard_normal((1, 3))
        ch = ImpedanceChannel(np.zeros((1, 1)), z_dr, z_dr.T.conj(), 50.0 * np.eye(3), 50.0)
        eff = effective_channel(ch)
        assert np.allclose(eff.z_dr, ch.z_dr)
        assert np.allclose(eff.z_rs, ch.z_rs)

    def test_half_wavelength_is_noop_despite_imaginary_coupling(self):
        s = Scenario(n=4, spacing=0.5, alpha_tx=0.0, alpha_rx=np.pi)
        ch = build_los_scenario(s)
        assert np.abs(ch.z_r.imag).max() > 1.0
        eff = effective_channel(ch)
        assert np.allclose(eff.z_dr, ch.z_dr, rtol=1e-10)
        assert np.allclose(eff.z_rs, ch.z_rs, rtol=1e-10)
        assert np.array_equal(eff.z_r, ch.R * np.eye(4))


class TestDualPathEquality:
    @pytest.mark.parametrize("seed", range(5))
    def test_network_transform_equals_effective_model(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(2, 9))
        s = Scenario(n=n, spacing=float(rng.uniform(0.1, 0.5)),
                     alpha_tx=float(rng.uniform(0, np.pi)),
                     alpha_rx=float(rng.uniform(0, np.pi)))
        ch = build_los_scenario(s)
        x = rng.uniform(10, 300, n) * rng.choice([-1.0, 1.0], n)
        net = power_matching_network(ch.z_r, ch.R)
        z_load = transformed_load(net, RisState(x))
        z_direct = ch.z_ds - ch.z_dr @ np.linalg.solve(ch.z_r + z_load, ch.z_rs)
        z_eff = evaluate_channel(effective_channel(ch), RisState(reactance_transform(x, ch.R)))
        assert np.allclose(z_direct, z_eff, rtol=1e-9, atol=1e-12)


class TestPhaseReactanceMap:
    def test_theta_minus_one_maps_to_zero(self):
        assert theta_to_reactance(np.array([-1.0 + 0.0j]), 50.0)[0] == 0.0
        # so does every phase within the dead zone around pi
        assert theta_to_reactance(np.array([np.exp(1j * (np.pi - 2e-5))]), 50.0)[0] == 0.0

    def test_theta_plus_one_saturates(self):
        assert theta_to_reactance(np.array([1.0 + 0.0j]), 50.0)[0] == 1e9

    def test_round_trip(self):
        rng = np.random.default_rng(32)
        theta = np.exp(1j * rng.uniform(-np.pi + 0.01, np.pi - 0.01, 40))
        # just outside the dead zone around pi
        theta = np.append(theta, np.exp(1j * (np.pi - 1e-4)))
        x = theta_to_reactance(theta, 50.0)
        assert np.allclose(reactance_to_theta(x, 50.0), theta, rtol=1e-9)

    def test_zero_reactance_reflection(self):
        assert reactance_to_theta(np.array([0.0]), 50.0)[0] == pytest.approx(-1.0)


class TestClosedFormSiso:
    def test_single_element_direct_evaluation(self):
        # Z_R = R I: the power-matching network leaves the blocks as they are
        ch = ImpedanceChannel(np.zeros((1, 1)), [[100.0]], [[150.0]], [[50.0]], 50.0)
        sol = closed_form_siso(ch)
        # |z_dr| |z_rs| / 2R = 150 from each of the two aligned terms
        assert sol.gain == pytest.approx(300.0**2)
        assert sol.gain == pytest.approx(36.0 * 50.0**2)

    def test_front_fire_half_wavelength_gain(self):
        s = Scenario(n=5, spacing=0.5, alpha_tx=np.pi / 2, alpha_rx=np.pi / 2)
        sol = closed_form_siso(build_los_scenario(s))
        assert sol.gain / (s.R**2) == pytest.approx(25.0, rel=1e-10)

    def test_solution_achieves_stated_gain(self):
        rng = np.random.default_rng(33)
        for _ in range(10):
            s = Scenario(n=int(rng.integers(1, 7)), spacing=float(rng.uniform(0.1, 0.6)),
                         alpha_tx=float(rng.uniform(0, np.pi)),
                         alpha_rx=float(rng.uniform(0, np.pi)))
            ch = build_los_scenario(s)
            sol = closed_form_siso(ch)
            achieved = channel_gain(evaluate_channel(effective_channel(ch), RisState(sol.x)))
            assert achieved == pytest.approx(sol.gain, rel=1e-9)

    def test_beats_three_element_phase_grid(self):
        from riscoupling import grid_search_phase
        rng = np.random.default_rng(34)
        s = Scenario(n=3, spacing=float(rng.uniform(0.15, 0.45)),
                     alpha_tx=float(rng.uniform(0, np.pi)),
                     alpha_rx=float(rng.uniform(0, np.pi)))
        ch = build_los_scenario(s)
        assert closed_form_siso(ch).gain >= grid_search_phase(ch) * (1 - 1e-9)

    def test_optimum_beats_coupled_elementwise(self):
        from riscoupling import optimize
        rng = np.random.default_rng(35)
        for _ in range(5):
            s = Scenario(n=int(rng.integers(2, 7)), spacing=float(rng.uniform(0.12, 0.5)),
                         alpha_tx=float(rng.uniform(0, np.pi)),
                         alpha_rx=float(rng.uniform(0, np.pi)))
            ch = build_los_scenario(s)
            ew = optimize(ch, RisState.zeros(s.n)).trace[-1]
            dec = closed_form_siso(ch).gain
            assert dec >= ew * (1 - 1e-9)

    def test_all_zero_channel(self):
        ch = ImpedanceChannel(np.zeros((1, 1)), np.zeros((1, 2)), np.zeros((2, 1)),
                              50.0 * np.eye(2), 50.0)
        assert closed_form_siso(ch).gain == 0.0


class TestArrayGain:
    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
    def test_half_wavelength_is_n_squared(self, n):
        front = Scenario(n=n, spacing=0.5, alpha_tx=np.pi / 2, alpha_rx=np.pi / 2)
        end = Scenario(n=n, spacing=0.5, alpha_tx=0.0, alpha_rx=np.pi)
        assert array_gain(front) == pytest.approx(n**2, rel=1e-9)
        assert array_gain(end) == pytest.approx(n**2, rel=1e-9)

    @pytest.mark.parametrize("spacing,expected", sorted(END_FIRE_N4_ORACLE.items()))
    def test_end_fire_n4_frozen_oracle(self, spacing, expected):
        s = Scenario(n=4, spacing=spacing, alpha_tx=0.0, alpha_rx=np.pi)
        assert array_gain(s) == pytest.approx(expected, rel=1e-6)

    def test_end_fire_increases_toward_n4_limit(self):
        gains = [array_gain(Scenario(n=4, spacing=d, alpha_tx=0.0, alpha_rx=np.pi))
                 for d in (0.25, 0.1, 0.05)]
        assert gains == sorted(gains)
        assert gains[-1] > 0.8 * 256.0

    def test_small_spacing_refused_by_default(self):
        s = Scenario(n=4, spacing=0.01, alpha_tx=0.0, alpha_rx=np.pi)
        with pytest.raises(InvalidArgumentError, match="spacing"):
            array_gain(s)
        assert closed_form_siso(build_los_scenario(s)).gain > 0

    def test_matches_closed_form_on_coupled_scenario(self):
        s = Scenario(n=5, spacing=0.22, alpha_tx=0.8, alpha_rx=2.4,
                     gamma_dr=0.3, gamma_rs=0.7)
        ch = build_los_scenario(s)
        sol = closed_form_siso(ch)
        norm = s.gamma_dr * s.gamma_rs * s.R**2
        assert array_gain(s) == pytest.approx(sol.gain / norm, rel=1e-9)


class TestSpecializedGains:
    """Front-fire A = (1^T C^{-1} 1)^2, the square of the conventional broadside
    transmit array gain; end-fire A = (a0^H C^{-1} a0)^2."""

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_half_wavelength(self, n):
        front, end = front_fire(n, 0.5), end_fire(n, 0.5)
        assert squared_quadratic_form(front, np.ones(n)) == pytest.approx(n**2, rel=1e-10)
        assert squared_quadratic_form(end, steering_vector(n, 0.5, 0.0)) == pytest.approx(
            n**2, rel=1e-10)

    @pytest.mark.parametrize("n,spacing", [
        (n, d) for n in (2, 4, 9, 16) for d in (0.05, 0.1, 0.25, 0.5, 1.0)
        if (n, d) not in ILL_CONDITIONED_ORACLE])
    def test_consistent_with_general_formula(self, n, spacing):
        front, end = front_fire(n, spacing), end_fire(n, spacing)
        assert array_gain(front) == pytest.approx(
            squared_quadratic_form(front, np.ones(n)), rel=1e-9)
        assert array_gain(end) == pytest.approx(
            squared_quadratic_form(end, steering_vector(n, spacing, 0.0)), rel=1e-9)

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="psd_inv_sqrt drops eigenvalues below 1e-12 lambda_max "
                       "and eigh loses digits past cond(C) = 1e10")
    @pytest.mark.parametrize("n,spacing", sorted(ILL_CONDITIONED_ORACLE))
    def test_ill_conditioned_exact(self, n, spacing):
        front, end = front_fire(n, spacing), end_fire(n, spacing)
        assert (array_gain(front), array_gain(end)) == pytest.approx(
            ILL_CONDITIONED_ORACLE[n, spacing], rel=1e-9)

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="psd_inv_sqrt truncates and eigh loses digits: at d = 0.05 "
                       "front-fire N = 7-16 read 0.24-0.63 of the reference")
    def test_c03_pairs_exact(self):
        # C03 compares front-fire 2N against 2N - 1 elements, N = 2..8, at d = 0.25 and 0.05
        rows = json.loads(REFERENCE.read_text(encoding="utf-8"))["rows"]
        reference = {(r["N"], r["spacing"]): float(r["gain"]) for r in rows
                     if r["alpha_tx"] == r["alpha_rx"] == np.pi / 2 and r["gamma_loss"] == 0.0}
        pairs = [(n, d) for n in range(3, 17) for d in (0.25, 0.05)]
        assert [array_gain(front_fire(n, d)) for n, d in pairs] == pytest.approx(
            [reference[pair] for pair in pairs], rel=1e-9)

    def test_front_fire_sixteen_at_quarter_wave_exact(self):
        # the front-fire steering vector is even, so only the even half of C enters,
        # and its condition number is far below C's
        assert array_gain(front_fire(16, 0.25)) == pytest.approx(
            ILL_CONDITIONED_ORACLE[16, 0.25][0], rel=1e-9)

    def test_end_fire_pair_approaches_sixteen(self):
        # frozen 60-digit evaluation at d = 0.01, below MIN_SPACING
        end = end_fire(2, 0.01)
        gain = closed_form_siso(build_los_scenario(end)).gain / single_element_gain(end)
        assert gain == pytest.approx(15.991579362616902, rel=1e-6)


class TestLossyCoupling:
    def test_gamma_zero_unchanged(self):
        end = end_fire(4, 0.2, gamma_loss=0.0)
        assert np.array_equal(build_los_scenario(end).z_r, build_coupling_matrix(4, 0.2, end.R))

    def test_identity_halves_amplitude(self):
        # C = I, gamma = 1: end-fire gain drops from N^2 to N^2/4
        end = end_fire(4, 0.5, gamma_loss=1.0)
        assert array_gain(end) == pytest.approx(4.0, rel=1e-10)

    @pytest.mark.parametrize("gamma,expected", sorted(LOSSY_END_FIRE_N4_D01_ORACLE.items()))
    def test_lossy_end_fire_frozen_oracle(self, gamma, expected):
        s = Scenario(n=4, spacing=0.1, alpha_tx=0.0, alpha_rx=np.pi, gamma_loss=gamma)
        assert array_gain(s) == pytest.approx(expected, rel=1e-6)

    def test_loss_monotone_on_sampled_grid(self):
        for d in (0.1, 0.25, 0.5):
            gains = [array_gain(Scenario(n=4, spacing=d, alpha_tx=0.0, alpha_rx=np.pi,
                                         gamma_loss=g)) for g in (0.0, 0.01, 0.1, 1.0)]
            assert all(a >= b for a, b in zip(gains, gains[1:]))


class TestCornerGeometry:
    def test_three_elements_beat_four_at_small_spacing(self):
        a3 = array_gain(Scenario(n=3, spacing=0.05, alpha_tx=np.pi / 2, alpha_rx=0.0))
        a4 = array_gain(Scenario(n=4, spacing=0.05, alpha_tx=np.pi / 2, alpha_rx=0.0))
        assert a3 == pytest.approx(CORNER_D005_ORACLE[3], rel=1e-6)
        assert a4 == pytest.approx(CORNER_D005_ORACLE[4], rel=1e-6)
        assert a3 > a4


class TestLayering:
    """The decoupling network and the element-wise optimizer are independent
    answers to mutual coupling: both take the load model from channel."""

    def test_decoupling_imports_nothing_from_elementwise(self):
        tree = ast.parse(Path(decoupling.__file__).read_text(encoding="utf-8"))
        names = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                names.add(node.module or "")
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(alias.name for alias in node.names)
        assert "channel" in names
        assert not [name for name in names if "elementwise" in name]

    def test_load_model_constants_live_in_channel(self):
        assert elementwise.X_MAX is decoupling.X_MAX is channel.X_MAX
        assert elementwise.PI_DEAD_ZONE is decoupling.PI_DEAD_ZONE is channel.PI_DEAD_ZONE

    def test_only_array_factors_builds_z_r(self):
        """Inside the package Z_R is built in one place, so each array has one."""
        callers = []

        def visit(node, scope):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                    visit(child, f"{scope}.{child.name}")
                    continue
                if isinstance(child, ast.Call):
                    func = child.func
                    if getattr(func, "id", getattr(func, "attr", None)) == "build_coupling_matrix":
                        callers.append(scope)
                visit(child, scope)

        for path in sorted(Path(channel.__file__).parent.glob("*.py")):
            visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
        assert callers == ["channel.ArrayFactors.__init__"]

    def test_dense_linear_algebra_only_in_channel(self):
        """channel.py binds numpy's LAPACK gufuncs once; every other module
        inverts, solves, takes log-determinants and eigendecomposes through it."""
        banned = {"inv", "solve", "slogdet", "eigh", "eigvalsh"}
        offenders = []
        for path in sorted(Path(channel.__file__).parent.glob("*.py")):
            if path.name == "channel.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    module = getattr(node, "module", None) or ""
                    bad = [alias.name for alias in node.names
                           if "_umath_linalg" in f"{module}.{alias.name}"
                           or (module.endswith("linalg") and alias.name in banned)]
                elif (isinstance(node, ast.Attribute) and node.attr in banned    # np.linalg.x
                      and getattr(node.value, "attr", getattr(node.value, "id", "")) == "linalg"):
                    bad = [f"linalg.{node.attr}"]
                else:
                    continue
                offenders += [f"{path.name}:{node.lineno} {name}" for name in bad]
        assert offenders == []

    def test_foreign_libraries_only_in_channel(self):
        """channel.py alone loads a library through ctypes: the one that sets the
        BLAS thread count; the tests' own conftest reads the count through it."""
        paths = [*Path(channel.__file__).parent.glob("*.py"), Path(__file__).with_name("conftest.py")]
        importers = []
        for path in sorted(paths):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""]
                else:
                    continue
                importers += [path.name for m in modules if m.split(".")[0] == "ctypes"]
        assert importers == ["channel.py"]

    def test_every_imported_name_is_used(self):
        """No package module (but __init__, which re-exports) imports a name it
        never reads; the project runs no linter that would say so."""
        unused = []
        for path in sorted(Path(channel.__file__).parent.glob("*.py")):
            if path.name == "__init__.py":
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            imported = {}
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    imported.update((a.asname or a.name.split(".")[0], node.lineno)
                                    for a in node.names)
                elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                    imported.update((a.asname or a.name, node.lineno) for a in node.names)
            read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                       if name not in read]
        assert unused == []
