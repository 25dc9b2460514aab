import threading
import types
import warnings
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riscoupling import (
    ArrayFactors,
    ImpedanceChannel,
    RisState,
    Scenario,
    array_gain,
    build_coupling_matrix,
    build_los_scenario,
    channel_gain,
    closed_form_siso,
    effective_channel,
    evaluate_channel,
    grid_search_phase,
    ignore_mc_gain,
    power_matching_network,
    spectral_efficiency,
    steering_vector,
    transformed_load,
)
from riscoupling import channel as channel_module
from riscoupling.channel import (PINV_EIG_FLOOR, X_MAX, _halves, _inverse_by_halves, _whole,
                                 blas_threads, checked_inverse, eigh, loading_matrix,
                                 one_blas_thread, psd_inv_sqrt, psd_sqrt)
from riscoupling.decoupling import DecouplingNetwork
from riscoupling.elementwise import init_context
from riscoupling.experiments import parse_config, run_sweep
from riscoupling.errors import (
    EigenvalueError,
    InvalidArgumentError,
    NotPSDError,
    NumericallySingularError,
)

from conftest import end_fire, front_fire, random_channel


class TestCouplingMatrix:
    def test_half_wavelength_offdiagonal(self):
        # u = pi: sin term vanishes, cos term gives -R/pi
        z = build_coupling_matrix(2, 0.5, 50.0)
        assert z[0, 1] == pytest.approx(-1j * 50.0 / np.pi, abs=1e-12)

    def test_quarter_wavelength_offdiagonal(self):
        # u = pi/2: purely real 2R/pi
        z = build_coupling_matrix(2, 0.25, 50.0)
        assert z[0, 1] == pytest.approx(100.0 / np.pi, abs=1e-12)

    @pytest.mark.parametrize("n,spacing", [(1, 0.5), (3, 0.13), (8, 0.25), (16, 0.04)])
    def test_diagonal_is_r(self, n, spacing):
        z = build_coupling_matrix(n, spacing, 73.0)
        assert np.allclose(np.diag(z), 73.0)

    @given(n=st.integers(1, 24), spacing=st.floats(0.01, 2.0))
    @settings(max_examples=50, deadline=None)
    def test_complex_symmetric(self, n, spacing):
        z = build_coupling_matrix(n, spacing, 50.0)
        assert np.allclose(z, z.T)
        assert np.allclose(np.diag(z).real, 50.0)
        assert np.allclose(np.diag(z).imag, 0.0)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_integer_half_wavelength_real_part_identity(self, k):
        z = build_coupling_matrix(6, k / 2.0, 50.0)
        assert np.allclose(z.real, 50.0 * np.eye(6), atol=1e-10)
        if k == 1:
            assert np.abs(z.imag).max() > 1.0  # coupling persists in the imaginary part

    @given(n=st.integers(2, 16), spacing=st.floats(0.05, 1.0))
    @settings(max_examples=50, deadline=None)
    def test_normalized_real_part_eigenvalues(self, n, spacing):
        c = build_coupling_matrix(n, spacing, 50.0).real / 50.0
        w = np.linalg.eigvalsh(c)
        assert w[0] > -1e-9
        assert w[-1] < n + 1e-9
        assert np.trace(c) == pytest.approx(n)

    def test_invalid_arguments(self):
        with pytest.raises(InvalidArgumentError):
            build_coupling_matrix(4, -0.1, 50.0)
        with pytest.raises(InvalidArgumentError):
            build_coupling_matrix(4, 0.5, 0.0)
        with pytest.raises(InvalidArgumentError):
            build_coupling_matrix(0, 0.5, 50.0)

    @pytest.mark.parametrize("n", [2.5, 3.0, True, np.float64(4.0), "4"])
    @pytest.mark.parametrize("build", [lambda n: build_coupling_matrix(n, 0.5, 50.0),
                                       lambda n: steering_vector(n, 0.5, 0.0)])
    def test_n_must_be_an_integer(self, build, n):
        # n = 2.5 would build a 3 x 3 matrix, and True a 1 x 1 one
        with pytest.raises(InvalidArgumentError, match="n must be a positive integer"):
            build(n)

    def test_accepts_numpy_integers(self):
        assert build_coupling_matrix(np.int64(3), 0.5, 50.0).shape == (3, 3)
        assert steering_vector(np.int32(3), 0.5, 0.0).shape == (3,)

    @pytest.mark.parametrize("build", [
        lambda v: build_coupling_matrix(3, v, 50.0),
        lambda v: build_coupling_matrix(3, 0.25, v),
        lambda v: steering_vector(3, v, 0.1),
        lambda v: steering_vector(3, 0.25, v),
    ], ids=["coupling_spacing", "coupling_R", "steering_spacing", "steering_alpha"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_arguments_refused(self, build, value):
        # NaN would give a non-finite result, and inf a RuntimeWarning as well
        with pytest.raises(InvalidArgumentError, match="must be finite"):
            build(value)

    @staticmethod
    def dense(n, spacing, R):
        """The matrix as first written: the formula evaluated at all N^2 entries."""
        idx = np.arange(n)
        u = 2.0 * np.pi * spacing * np.abs(idx[:, None] - idx[None, :])
        with np.errstate(divide="ignore", invalid="ignore"):
            z = R * np.sin(u) / u + 1j * R * np.cos(u) / u
        np.fill_diagonal(z, R)
        return z

    CASES = [(d, r, g) for d in (0.01, 0.1, 0.25, 1 / 3, 0.5, 0.73, 1.0)
             for r, g in ((50.0, 0.0), (73.1, 0.0), (50.0, 0.1), (1.0, 2.5))]

    def test_lags_match_dense_formula_bit_for_bit(self):
        """build_coupling_matrix, and the lossy Z_R of ArrayFactors, against the
        N^2 formula: every case for N <= 12, one case per N up to 300."""
        for n in range(1, 301):
            for spacing, r, gamma in self.CASES if n <= 12 else [self.CASES[n % len(self.CASES)]]:
                want = self.dense(n, spacing, r)
                assert build_coupling_matrix(n, spacing, r).tobytes() == want.tobytes()
                if gamma > 0:
                    want = want + gamma * r * np.eye(n)
                s = Scenario(n=n, spacing=spacing, alpha_tx=0.0, alpha_rx=0.0,
                             gamma_loss=gamma, R=r)
                z_r = ArrayFactors(s).z_r
                assert z_r.shape == want.shape and z_r.tobytes() == want.tobytes()


class TestSteeringVector:
    def test_broadside_all_ones(self):
        assert np.allclose(steering_vector(5, 0.3, np.pi / 2), np.ones(5))

    def test_endfire_half_wavelength(self):
        assert np.allclose(steering_vector(2, 0.5, 0.0), [1.0, -1.0])
        assert np.allclose(steering_vector(2, 0.5, np.pi), [1.0, -1.0])

    @given(n=st.integers(1, 32), spacing=st.floats(0.01, 1.0),
           alpha=st.floats(-np.pi, np.pi))
    @settings(max_examples=50, deadline=None)
    def test_unit_modulus_first_entry_one(self, n, spacing, alpha):
        a = steering_vector(n, spacing, alpha)
        assert a[0] == 1.0 + 0.0j
        assert np.allclose(np.abs(a), 1.0)


class TestLosScenario:
    def test_single_element(self):
        s = Scenario(n=1, spacing=0.5, alpha_tx=0.3, alpha_rx=1.1)
        ch = build_los_scenario(s)
        assert ch.z_ds[0, 0] == 0.0
        assert ch.z_dr[0, 0] == pytest.approx(50.0)
        assert ch.z_rs[0, 0] == pytest.approx(50.0)

    def test_front_fire_all_ones(self):
        s = Scenario(n=3, spacing=0.3, alpha_tx=np.pi / 2, alpha_rx=np.pi / 2,
                     gamma_rs=0.25)
        ch = build_los_scenario(s)
        assert np.allclose(ch.z_rs[:, 0], 0.5 * 50.0 * np.ones(3))

    def test_end_fire_conjugate_directions(self):
        s = Scenario(n=4, spacing=0.2, alpha_tx=0.0, alpha_rx=np.pi)
        ch = build_los_scenario(s)
        assert np.allclose(ch.z_dr[0, :], ch.z_rs[:, 0].conj())

    def test_loss_adds_to_real_diagonal(self):
        s = Scenario(n=4, spacing=0.2, alpha_tx=0.0, alpha_rx=np.pi, gamma_loss=0.1)
        lossless = build_los_scenario(Scenario(n=4, spacing=0.2, alpha_tx=0.0, alpha_rx=np.pi))
        ch = build_los_scenario(s)
        assert np.allclose(ch.z_r - lossless.z_r, 0.1 * 50.0 * np.eye(4))


class TestLinks:
    """Scenario.links pairs a_DR with alpha_rx and a_RS with alpha_tx; the channel reads both."""

    def test_the_two_steering_vectors_bit_for_bit(self):
        s = Scenario(n=7, spacing=0.3, alpha_tx=0.4, alpha_rx=2.1)
        a_dr, a_rs = s.links
        assert a_dr.tobytes() == steering_vector(7, 0.3, 2.1).tobytes()
        assert a_rs.tobytes() == steering_vector(7, 0.3, 0.4).tobytes()

    def test_corner_steers_the_transmitter_link_broadside(self):
        a_dr, a_rs = Scenario(n=5, spacing=0.25, alpha_tx=np.pi / 2, alpha_rx=0.0).links
        assert np.allclose(a_rs, np.ones(5), rtol=0.0, atol=1e-15)
        assert np.allclose(a_dr, (-1j) ** np.arange(5), rtol=0.0, atol=1e-15)   # end-fire ramp

    def test_swapping_the_angles_swaps_the_links(self):
        a_dr, a_rs = Scenario(n=6, spacing=0.2, alpha_tx=0.7, alpha_rx=1.9).links
        b_dr, b_rs = Scenario(n=6, spacing=0.2, alpha_tx=1.9, alpha_rx=0.7).links
        assert (a_dr.tobytes(), a_rs.tobytes()) == (b_rs.tobytes(), b_dr.tobytes())

    def test_channel_blocks_are_the_scaled_links(self):
        s = Scenario(n=5, spacing=0.3, alpha_tx=0.4, alpha_rx=2.1, gamma_dr=0.5, gamma_rs=2.0,
                     R=75.0)
        a_dr, a_rs = s.links
        ch = build_los_scenario(s)
        assert ch.z_dr[0].tobytes() == (np.sqrt(0.5) * 75.0 * a_dr).tobytes()
        assert ch.z_rs[:, 0].tobytes() == (np.sqrt(2.0) * 75.0 * a_rs).tobytes()


class TestEvaluateChannel:
    def test_no_ris_path(self):
        rng = np.random.default_rng(0)
        ch = random_channel(rng, 4)
        blocked = ImpedanceChannel(ch.z_ds, np.zeros_like(ch.z_dr), ch.z_rs, ch.z_r, ch.R)
        z = evaluate_channel(blocked, RisState(rng.uniform(-100, 100, 4)))
        assert np.allclose(z, ch.z_ds)

    def test_scalar_inversion(self):
        ch = ImpedanceChannel([[2.0]], [[10.0]], [[20.0]], [[50.0]], 50.0)
        z = evaluate_channel(ch, RisState.zeros(1))
        assert z[0, 0] == pytest.approx(2.0 - 10.0 * 20.0 / 50.0)

    def test_matches_dense_lu_oracle(self):
        rng = np.random.default_rng(1)
        ch = random_channel(rng, 4, k=2, m=3)
        x = rng.uniform(-200, 200, 4)
        # independent oracle: explicit LU factorization of the full loading matrix
        import scipy.linalg
        lu, piv = scipy.linalg.lu_factor(ch.z_r + 1j * np.diag(x))
        expected = ch.z_ds - ch.z_dr @ scipy.linalg.lu_solve((lu, piv), ch.z_rs)
        z = evaluate_channel(ch, RisState(x))
        assert np.allclose(z, expected, rtol=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(2)
        ch = random_channel(rng, 5)
        x = rng.uniform(-100, 100, 5)
        perm = rng.permutation(5)
        ch_p = ImpedanceChannel(ch.z_ds, ch.z_dr[:, perm], ch.z_rs[perm, :],
                                ch.z_r[np.ix_(perm, perm)], ch.R)
        z = evaluate_channel(ch, RisState(x))
        z_p = evaluate_channel(ch_p, RisState(x[perm]))
        assert np.allclose(z, z_p, rtol=1e-10)

    @pytest.mark.parametrize("evaluate", [evaluate_channel, init_context])
    def test_singular_loading_rejected(self, evaluate):
        # Z_R = R I and x = (-R, ...) makes Z_R + j diag(x)... still invertible;
        # force singularity with a rank-deficient real part instead.
        z_r = np.full((2, 2), 50.0, dtype=complex)
        np.fill_diagonal(z_r, 50.0)
        ch = ImpedanceChannel([[0.0]], [[50.0, 50.0]], [[50.0], [50.0]], z_r, 50.0)
        with pytest.raises(NumericallySingularError) as exc:
            evaluate(ch, RisState.zeros(2))
        assert exc.value.condition is None or exc.value.condition > 1e14


def singular_channel():
    """Z_R with a rank-deficient real part: Z_R + j diag(0) is singular."""
    return ImpedanceChannel([[0.0]], [[50.0, 50.0]], [[50.0], [50.0]],
                            np.full((2, 2), 50.0, dtype=complex), 50.0)


class TestDenseInverseBitForBit:
    """checked_inverse and loading_matrix against their first written form
    (np.linalg.inv, np.linalg.norm(., 1), z_r + 1j * np.diag(x)), bit for bit."""

    @staticmethod
    def inverse(z_load):
        """The inverse and the condition estimate, or (None, inf) if singular."""
        try:
            z_inv = np.linalg.inv(z_load)
            return z_inv, np.linalg.norm(z_load, 1) * np.linalg.norm(z_inv, 1)
        except np.linalg.LinAlgError:
            return None, np.inf

    def assert_inverse_matches(self, z_load):
        want, cond = self.inverse(z_load)
        if cond <= 1e14:
            z_inv, got_cond = checked_inverse(z_load)
            assert z_inv.tobytes() == want.tobytes() and got_cond == cond
        else:
            with pytest.raises(NumericallySingularError) as exc:
                checked_inverse(z_load)
            assert exc.value.condition == cond

    def test_random_matrices(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            n = int(rng.integers(1, 17))
            a = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            self.assert_inverse_matches(a * 10.0 ** rng.uniform(-3, 3))
        self.assert_inverse_matches(a.T)            # a Fortran-ordered view

    def test_loading_matrices(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(1, 17))
            ch = random_channel(rng, n, spacing=float(rng.uniform(0.05, 0.5)))
            self.assert_inverse_matches(loading_matrix(ch.z_r, rng.uniform(-300, 300, n)))

    def test_ill_conditioned(self):
        # singular values from 1 down to 10^-12 ... 10^-17: about two in three are refused
        rng = np.random.default_rng(43)
        for _ in range(60):
            n = int(rng.integers(2, 17))
            q1, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            q2, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
            sv = np.logspace(0, -rng.uniform(12, 17), n)
            self.assert_inverse_matches((q1 * sv) @ q2)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_loading_matrix(self, order):
        rng = np.random.default_rng(44)
        n = 7
        z_r = build_coupling_matrix(n, 0.2, 50.0)
        z_r[0, 1] = z_r[1, 0] = complex(-0.0, -0.0)
        z_r[2, 3] = z_r[3, 2] = complex(-0.0, 3.0)
        z_r[4, 4] = complex(-0.0, -0.0)
        z_r[5, 5] = complex(-0.0, 2.0)
        ch = ImpedanceChannel([[0.0]], np.ones((1, n)), np.ones((n, 1)),
                              np.asarray(z_r, order=order), 50.0)
        for x in ([-3.0, 0.0, -0.0, X_MAX, -X_MAX, 1.5, -2.5],
                  [-0.0, -1.0, 0.0, -X_MAX, -4.0, -5.0, X_MAX],
                  rng.uniform(-100, 100, n)):
            x = np.array(x)
            want = ch.z_r + 1j * np.diag(x)
            assert loading_matrix(ch.z_r, x).tobytes() == want.tobytes()

    @pytest.mark.parametrize("evaluate", [evaluate_channel, init_context])
    def test_singular_load_is_infinitely_ill_conditioned(self, evaluate):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericallySingularError) as exc:
                evaluate(singular_channel(), RisState.zeros(2))
        assert exc.value.condition == np.inf


class TestFiguresOfMerit:
    @pytest.mark.parametrize("z,expected", [(1 + 0j, 1.0), (3 + 4j, 25.0), (0.0, 0.0)])
    def test_channel_gain_scalars(self, z, expected):
        assert channel_gain(np.array([[z]])) == pytest.approx(expected)

    def test_spectral_efficiency_trivial(self):
        assert spectral_efficiency(np.zeros((2, 2))) == pytest.approx(0.0)
        assert spectral_efficiency(np.array([[1.0]])) == pytest.approx(1.0)

    def test_spectral_efficiency_svd_oracle(self):
        rng = np.random.default_rng(3)
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        sv = np.linalg.svd(z, compute_uv=False)
        expected = np.sum(np.log2(1.0 + sv**2))
        assert spectral_efficiency(z) == pytest.approx(expected, rel=1e-12)


class TestPsdSqrt:
    def test_identity(self):
        assert np.allclose(psd_sqrt(np.eye(3)), np.eye(3))
        assert np.allclose(psd_inv_sqrt(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        assert np.allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))
        assert np.allclose(psd_inv_sqrt(np.diag([4.0, 9.0])), np.diag([0.5, 1.0 / 3.0]))

    def test_reconstruction_from_coupling(self):
        c = build_coupling_matrix(4, 0.25, 50.0).real / 50.0
        root = psd_sqrt(c)
        assert np.allclose(root @ root, c, rtol=1e-10, atol=1e-12)
        assert np.allclose(root, root.T)

    def test_inv_sqrt_floors_null_space(self):
        s = np.diag([1.0, 0.0])
        inv = psd_inv_sqrt(s)
        assert np.allclose(inv, np.diag([1.0, 0.0]))

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_inv_sqrt_of_zero_matrix_is_zero(self, n):
        # every eigenvalue sits at the floor 0: none is inverted, and 1/0 is not taken
        assert np.array_equal(psd_inv_sqrt(np.zeros((n, n))), np.zeros((n, n)))

    def test_inv_sqrt_matches_first_form_bit_for_bit(self):
        """The first form on the whole matrix; on each half of an exactly
        centrosymmetric one, floored at the whole matrix's largest eigenvalue."""
        rng = np.random.default_rng(45)
        mats = [np.diag([1.0, 0.0]), np.diag([4.0, 1e-20, 9.0]), np.eye(3)]
        mats += [build_coupling_matrix(n, d, 50.0).real
                 for n in (2, 4, 8, 16) for d in (0.02, 0.1, 0.25, 0.5)]
        for n in (1, 3, 6):
            a = rng.standard_normal((n, n + 1))
            mats.append(a @ a.T)
        for s in mats:
            split = np.array_equal(s, s[::-1, ::-1])
            eigs = [np.linalg.eigh(block) for block in (_halves(s) if split else (s,))]
            floor = PINV_EIG_FLOOR * max(np.clip(w, 0.0, None).max(initial=0.0) for w, _ in eigs)
            roots = []
            for w, v in eigs:
                w = np.clip(w, 0.0, None)
                roots.append((v * np.where(w > floor, 1.0 / np.sqrt(np.maximum(w, floor)), 0.0))
                             @ v.T)
            want = _whole(*roots) if split else roots[0]
            assert psd_inv_sqrt(s).tobytes() == want.tobytes()

    def test_rejects_indefinite(self):
        with pytest.raises(NotPSDError):
            psd_sqrt(np.diag([1.0, -1.0]))

    def test_rejects_asymmetric(self):
        with pytest.raises(InvalidArgumentError):
            psd_sqrt(np.array([[1.0, 2.0], [0.0, 1.0]]))

    @pytest.mark.parametrize("root", [psd_sqrt, psd_inv_sqrt])
    def test_rejects_complex(self, root):
        # cast to float, np.eye(2) + 1j * np.eye(2) gave the roots of I
        with pytest.raises(InvalidArgumentError, match="real"):
            root(np.eye(2) + 1j * np.eye(2))

    @pytest.mark.parametrize("root", [psd_sqrt, psd_inv_sqrt])
    def test_complex_without_imaginary_part_is_its_real_part(self, root):
        s = build_coupling_matrix(5, 0.2, 50.0).real
        assert root(s + 0j).tobytes() == root(s).tobytes()


def full_q(n):
    """Q = [[I, I], [J, -J]]/sqrt(2), with e_m as its middle column for odd n, densely."""
    m = n // 2
    q = np.zeros((n, n))
    for i in range(m):
        q[[i, n - 1 - i], i] = 1.0
        q[[i, n - 1 - i], n - m + i] = 1.0, -1.0
    q /= np.sqrt(2.0)
    if n % 2:
        q[m, m] = 1.0
    return q


SHIPPED_CONFIGS = Path(channel_module.__file__).parent / "configs"
BENCH_CONFIGS = Path(__file__).resolve().parents[1] / "bench" / "configs"


class TestHalves:
    """A line array's Z_R is centrosymmetric: ArrayFactors inverts and whitens
    it through its even and odd halves."""

    @pytest.mark.parametrize("n", range(1, 10))
    def test_halves_are_the_blocks_of_q_transpose_a_q(self, n):
        a = build_coupling_matrix(n, 0.1, 50.0)
        q = full_q(n)
        np.testing.assert_allclose(q.T @ q, np.eye(n), atol=1e-15)
        even, odd = _halves(a)
        rotated, h = q.T @ a @ q, n - n // 2
        np.testing.assert_allclose(even, rotated[:h, :h], rtol=0, atol=1e-13)
        np.testing.assert_allclose(odd, rotated[h:, h:], rtol=0, atol=1e-13)
        np.testing.assert_allclose(rotated[:h, h:], 0.0, atol=1e-13)
        assert np.array_equal(even, even.T) and np.array_equal(odd, odd.T)
        np.testing.assert_allclose(_whole(even, odd), a, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("gamma", [0.0, 0.1])
    @pytest.mark.parametrize("spacing", [0.05, 0.1, 0.25, 0.5])
    def test_inverse_matches_the_dense_inverse(self, spacing, gamma):
        for n in range(1, 41):
            factors = ArrayFactors(Scenario(n=n, spacing=spacing, alpha_tx=0.0, alpha_rx=1.0,
                                            gamma_loss=gamma))
            want = checked_inverse(factors.z_r)[0]
            got = factors.inverse
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_singular_centrosymmetric_matrix_is_refused(self, n):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericallySingularError, match="condition estimate inf") as exc:
                _inverse_by_halves(np.full((n, n), 50.0, dtype=complex))
        assert exc.value.condition == np.inf

    @pytest.mark.parametrize("s", [[[1.0, 2.0], [2.0, 1.0]],
                                   [[1.0, 0.5, 3.0], [0.5, 2.0, 0.5], [3.0, 0.5, 1.0]]])
    def test_indefinite_centrosymmetric_matrix_is_refused(self, s):
        with pytest.raises(NotPSDError):
            psd_inv_sqrt(np.array(s))

    @pytest.mark.parametrize("n", [4, 5])
    def test_floor_is_the_whole_matrixs(self, n):
        # the odd half lies wholly below 1e-12 of the whole matrix's largest
        # eigenvalue, far above 1e-12 of its own: it is dropped, as whole
        even = np.diag(np.linspace(1.0, 2.0, n - n // 2))
        odd = np.diag(np.linspace(1e-14, 1.5e-14, n // 2))
        s = _whole(even, odd)
        assert np.array_equal(s, s.T) and np.array_equal(s, s[::-1, ::-1])
        w, v = np.linalg.eigh(s)
        want = (v * np.where(w > PINV_EIG_FLOOR * w.max(), 1.0 / np.sqrt(np.abs(w)), 0.0)) @ v.T
        got = psd_inv_sqrt(s)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert np.abs(got).max() < 2.0

    def test_not_exactly_centrosymmetric_stays_dense(self):
        s = build_coupling_matrix(6, 0.25, 50.0).real
        s[0, 1] = s[1, 0] = np.nextafter(s[0, 1], np.inf)
        w, v = np.linalg.eigh(s)
        want = (v * np.where(w > PINV_EIG_FLOOR * w.max(), 1.0 / np.sqrt(np.abs(w)), 0.0)) @ v.T
        assert psd_inv_sqrt(s).tobytes() == want.tobytes()

    def test_every_shipped_array_takes_the_halves(self, monkeypatch):
        calls = {"_halves": 0, "psd_inv_sqrt": 0, "_inverse_by_halves": 0}
        for name in calls:
            def counted(*args, _name=name, _original=getattr(channel_module, name), **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)
            monkeypatch.setattr(channel_module, name, counted)
        configs = sorted(SHIPPED_CONFIGS.glob("fig*.cfg")) + sorted(BENCH_CONFIGS.glob("*.cfg"))
        assert len(configs) == 9
        for path in configs:
            before = dict(calls)
            run_sweep(parse_config(path.read_text()))
            factorised = sum(calls[k] - before[k] for k in ("psd_inv_sqrt", "_inverse_by_halves"))
            assert factorised > 0 and calls["_halves"] - before["_halves"] == factorised, path.name


class TestZrCheckedOnce:
    """ArrayFactors checks the Z_R it builds, once per array, and every channel
    checks its own Z_R, a LOS channel's included."""

    @staticmethod
    def count_symmetric(monkeypatch):
        calls = []

        def counted(a, *args, _original=channel_module._symmetric):
            calls.append(a.shape)
            return _original(a, *args)
        monkeypatch.setattr(channel_module, "_symmetric", counted)
        return calls

    @pytest.mark.parametrize("gamma", [0.0, 0.1])
    def test_los_channel_checks_its_z_r(self, monkeypatch, gamma):
        calls = self.count_symmetric(monkeypatch)
        s = Scenario(n=6, spacing=0.25, alpha_tx=0.3, alpha_rx=2.0, gamma_loss=gamma)
        factors = ArrayFactors.of(s)
        assert calls == [(6, 6)]
        los = build_los_scenario(s)
        assert calls == [(6, 6)] * 2 and los.z_r is factors.z_r
        hand = ImpedanceChannel(los.z_ds, los.z_dr, los.z_rs, np.array(factors.z_r), s.R)
        assert calls == [(6, 6)] * 3
        assert hand.z_r.tobytes() == los.z_r.tobytes()

    def test_los_channel_still_checks_its_links(self):
        s = Scenario(n=3, spacing=0.25, alpha_tx=0.3, alpha_rx=2.0)
        z_r = ArrayFactors.of(s).z_r
        with pytest.raises(InvalidArgumentError, match="z_dr must be finite"):
            ImpedanceChannel(np.zeros((1, 1)), np.full((1, 3), np.nan), np.ones((3, 1)), z_r, s.R)
        with pytest.raises(InvalidArgumentError, match="inconsistent block dimensions"):
            ImpedanceChannel(np.zeros((1, 1)), np.ones((1, 2)), np.ones((3, 1)), z_r, s.R)

    def test_overflowing_z_r_is_refused_by_array_factors(self):
        # the diagonal R (1 + gamma_loss) overflows to inf; the off-diagonals stay finite
        s = Scenario(n=2, spacing=0.25, alpha_tx=0.0, alpha_rx=np.pi, gamma_loss=10.0, R=1e308)
        for build in (ArrayFactors, ArrayFactors.of, build_los_scenario):
            with pytest.raises(InvalidArgumentError, match="z_r must be finite"):
                build(s)


class TestEigh:
    @pytest.mark.parametrize("n", [1, 13, 40, 112])
    def test_matches_numpy_bit_for_bit(self, n):
        rng = np.random.default_rng(n)
        a = rng.standard_normal((n, n))
        for s in (a + a.T, a @ a.T, build_coupling_matrix(n, 0.2, 50.0).real):
            w, v = eigh(s)
            want_w, want_v = np.linalg.eigh(s)
            assert w.tobytes() == want_w.tobytes() and v.tobytes() == want_v.tobytes()

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_raises_package_error(self, value):
        s = np.eye(3)
        s[1, 1] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EigenvalueError):
                eigh(s)
            with pytest.raises(EigenvalueError):
                psd_sqrt(s)


class TestStateValidation:
    def test_rejects_nonfinite(self):
        with pytest.raises(InvalidArgumentError):
            RisState(np.array([1.0, np.inf]))

    def test_scenario_validation(self):
        with pytest.raises(InvalidArgumentError):
            Scenario(n=0, spacing=0.5, alpha_tx=0.0, alpha_rx=0.0)
        with pytest.raises(InvalidArgumentError):
            Scenario(n=2, spacing=-1.0, alpha_tx=0.0, alpha_rx=0.0)
        with pytest.raises(InvalidArgumentError):
            Scenario(n=2, spacing=0.5, alpha_tx=0.0, alpha_rx=0.0, gamma_loss=-0.1)

    @pytest.mark.parametrize("n", [2.5, 3.0, True, np.float64(4.0), "4"])
    def test_scenario_n_must_be_an_integer(self, n):
        # n = 2.5 would build a 3-element array yet report N = 2.5, and True one element
        with pytest.raises(InvalidArgumentError, match="n must be a positive integer"):
            Scenario(n=n, spacing=0.5, alpha_tx=0.0, alpha_rx=0.0)

    def test_scenario_accepts_numpy_integers(self):
        s = Scenario(n=np.int64(3), spacing=0.5, alpha_tx=0.0, alpha_rx=0.0)
        assert build_los_scenario(s).n == 3

    @pytest.mark.parametrize("field", ["gamma_dr", "gamma_rs"])
    def test_scenario_rejects_zero_pathloss(self, field):
        # the array gain is normalized by gamma_dr gamma_rs R^2
        with pytest.raises(InvalidArgumentError, match="pathloss"):
            Scenario(n=2, spacing=0.5, alpha_tx=0.0, alpha_rx=0.0, **{field: 0.0})

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    @pytest.mark.parametrize("field", ["spacing", "alpha_tx", "gamma_dr", "gamma_rs",
                                       "gamma_loss", "R"])
    def test_scenario_rejects_nonfinite(self, field, value):
        kwargs = dict(n=2, spacing=0.5, alpha_tx=0.0, alpha_rx=0.0)
        kwargs[field] = value
        with pytest.raises(InvalidArgumentError):
            Scenario(**kwargs)

    def test_channel_dimension_check(self):
        with pytest.raises(InvalidArgumentError):
            ImpedanceChannel(np.zeros((1, 1)), np.zeros((1, 3)), np.zeros((2, 1)),
                             np.eye(2) * 50.0, 50.0)

    @pytest.mark.parametrize("build", [
        lambda: ImpedanceChannel(np.ones((1, 1)), np.zeros((1, 0)), np.zeros((0, 1)),
                                 np.zeros((0, 0)), 50.0),
        lambda: psd_sqrt(np.zeros((0, 0))),
        lambda: psd_inv_sqrt(np.zeros((0, 0))),
        lambda: power_matching_network(np.zeros((0, 0)), 50.0),
    ], ids=["channel", "psd_sqrt", "psd_inv_sqrt", "power_matching_network"])
    def test_zero_elements_refused(self, build):
        # an accepted zero-element channel raised a raw IndexError in every closed form
        with pytest.raises(InvalidArgumentError, match="at least one|nonempty"):
            build()

    def test_channel_symmetry_check(self):
        # the tolerance is 1e-9 times the largest |entry|, here the diagonal 50
        for off in (1.0, 1.1e-9 * 50.0):
            z_r = np.array([[50.0, 1.0 + off], [1.0, 50.0]], dtype=complex)
            with pytest.raises(InvalidArgumentError, match="reciprocity"):
                ImpedanceChannel(np.zeros((1, 1)), np.zeros((1, 2)), np.zeros((2, 1)), z_r, 50.0)

    def test_nearly_symmetric_z_r_stored_as_its_symmetric_part(self):
        z_r = np.array([[50.0, 1.0 + 0.9e-9 * 50.0], [1.0, 50.0]], dtype=complex)
        ch = ImpedanceChannel(np.zeros((1, 1)), np.zeros((1, 2)), np.zeros((2, 1)), z_r, 50.0)
        assert np.array_equal(ch.z_r, ch.z_r.T)
        assert ch.z_r[0, 1] == (z_r[0, 1] + z_r[1, 0]) / 2.0

    @pytest.mark.parametrize("block", ["z11", "z22"])
    def test_nearly_symmetric_network_block_stored_as_its_symmetric_part(self, block):
        near = 1j * np.array([[50.0, 1.0 + 0.9e-9 * 50.0], [1.0, 50.0]])
        exact = 1j * np.eye(2)
        blocks = dict(z11=exact, z12=exact, z22=exact)
        blocks[block] = near
        net = DecouplingNetwork(**blocks)
        stored = getattr(net, block)
        assert np.array_equal(stored, stored.T)
        assert stored[0, 1] == (near[0, 1] + near[1, 0]) / 2.0
        assert getattr(net, "z22" if block == "z11" else "z11") is exact    # kept as given

    @pytest.mark.parametrize("value", [np.nan, np.inf, complex(0.0, -np.inf)])
    @pytest.mark.parametrize("block", ["z_ds", "z_dr", "z_rs", "z_r"])
    def test_channel_rejects_nonfinite_blocks(self, block, value):
        # one NaN would otherwise run the optimizer on NaN until a refactor failed
        blocks = dict(z_ds=np.zeros((1, 1), dtype=complex), z_dr=np.ones((1, 2), dtype=complex),
                      z_rs=np.ones((2, 1), dtype=complex), z_r=50.0 * np.eye(2, dtype=complex))
        blocks[block][0, 0] = value
        with pytest.raises(InvalidArgumentError, match=f"{block} must be finite"):
            ImpedanceChannel(**blocks, R=50.0)

    @pytest.mark.parametrize("r", [np.nan, np.inf, -np.inf, 0.0, -50.0])
    def test_channel_rejects_nonpositive_or_nonfinite_r(self, r):
        # a NaN R would otherwise give NaN gains and a run reported as converged
        with pytest.raises(InvalidArgumentError, match="reference resistance"):
            ImpedanceChannel(np.zeros((1, 1)), np.ones((1, 2)), np.ones((2, 1)),
                             50.0 * np.eye(2), r)


def _no_library(path):
    raise OSError(f"{path}: cannot open shared object file")


class TestOneBlasThread:
    @pytest.fixture
    def caller_at_two(self):
        """The caller's count forced to 2 through the scope's own lookup, restored after."""
        get, put = channel_module._openblas()
        before = get()
        put(2)
        try:
            if get() != 2:
                pytest.skip(f"BLAS thread count reads {get()} after setting 2")
            yield get
        finally:
            put(before)

    def test_one_thread_inside_and_the_callers_count_after(self, caller_at_two):
        with one_blas_thread():
            assert blas_threads() == 1
        assert blas_threads() == 2
        assert one_blas_thread()(blas_threads)() == 1          # as a decorator
        assert blas_threads() == 2

    def test_callers_count_restored_when_the_body_raises(self, caller_at_two):
        with pytest.raises(ZeroDivisionError):
            with one_blas_thread():
                1 / 0
        assert blas_threads() == 2

    @pytest.mark.parametrize("cdll", [_no_library, lambda path: types.SimpleNamespace()],
                             ids=["no library", "no symbols"])
    def test_does_nothing_without_the_library(self, caller_at_two, monkeypatch, cdll):
        monkeypatch.setattr(channel_module.ctypes, "CDLL", cdll)
        channel_module._openblas.cache_clear()
        try:
            assert blas_threads() is None
            with one_blas_thread():
                assert caller_at_two() == 2
            assert caller_at_two() == 2
        finally:
            channel_module._openblas.cache_clear()

    def test_sweep_results_do_not_depend_on_the_callers_count(self, caller_at_two):
        # first a row whose gain the library rounds differently on 2 threads than
        # on 1, then the shipped figure configs and the golden sweep
        figures = sorted((f for f in (resources.files("riscoupling") / "configs").iterdir()
                          if f.name.startswith("fig") and f.name.endswith(".cfg")),
                         key=lambda f: f.name)
        assert len(figures) >= 6
        texts = ["N = 128\nspacing = 0.25\nangles = end-fire\nmethods = IgnoreMC\n",
                 *(f.read_text(encoding="utf-8") for f in figures),
                 (Path(__file__).parent / "data" / "golden_sweep.cfg").read_text(encoding="utf-8")]

        def rows(spec, threads):
            channel_module._openblas()[1](threads)
            ArrayFactors._last = None       # or a sweep reads the one before's factors
            return [(r.scenario, r.method, r.sweep_index, r.array_gain.hex(), r.flags)
                    for r in run_sweep(spec)]
        for text in texts:
            spec = parse_config(text)
            assert rows(spec, 1) == rows(spec, 2), spec.scenario_id

    def test_direct_closed_forms_do_not_depend_on_the_callers_count(self, caller_at_two):
        # each rounds differently on 2 threads than on 1 where its factorisation
        # or inverse runs on the caller's count
        s = front_fire(256, 0.5)
        los = build_los_scenario(s)
        z_r = np.array(los.z_r)
        z_r[0, 0] += 0.1 * los.R        # one lossy element: not centrosymmetric, whitened whole
        hand = ImpedanceChannel(los.z_ds, los.z_dr, los.z_rs, z_r, los.R)
        small = build_los_scenario(end_fire(3, 0.25))
        small_hand = ImpedanceChannel(small.z_ds, small.z_dr, small.z_rs, np.array(small.z_r),
                                      small.R)
        state = RisState(np.linspace(-30.0, 30.0, 256))
        rng = np.random.default_rng(28)
        b = rng.standard_normal((256, 256))
        matched = power_matching_network(ArrayFactors(end_fire(256, 0.25)).z_r, los.R)
        dense = DecouplingNetwork(1j * (b + b.T), matched.z12, matched.z22)  # z11^-1 not diagonal
        dense_state = RisState(10.0 * rng.standard_normal(256))

        def bits():
            ArrayFactors._last = None
            out = [ignore_mc_gain(s), array_gain(s)]
            for ch in (los, hand):
                sol, eff = closed_form_siso(ch), effective_channel(ch)
                out += [evaluate_channel(ch, state).tobytes(), sol.gain, sol.theta.tobytes(),
                        sol.x.tobytes(), eff.z_dr.tobytes(), eff.z_rs.tobytes()]
            return out + [grid_search_phase(small), grid_search_phase(small_hand),
                          transformed_load(dense, dense_state).tobytes()]
        at_two = bits()
        assert caller_at_two() == 2
        channel_module._openblas()[1](1)
        assert bits() == at_two
        ArrayFactors._last = None
        spec = parse_config("N = 256\nspacing = 0.5\nangles = front-fire\n"
                            "methods = IgnoreMC, Decoupled\n")
        rows = {r.method: r.array_gain for r in run_sweep(spec)}
        assert [rows["IgnoreMC"], rows["Decoupled"]] == at_two[:2]

    def test_scopes_overlapping_across_threads_restore_the_callers_count(self, caller_at_two):
        # a opens, b opens, a closes, b closes: b keeps one thread after a
        # closes, and the last to close restores the caller's count
        step, seen = threading.Barrier(2, timeout=60), {}

        def a():
            with one_blas_thread():
                step.wait()
                step.wait()
            step.wait()

        def b():
            step.wait()
            with one_blas_thread():
                step.wait()
                step.wait()
                seen["b after a closed"] = blas_threads()
        workers = [threading.Thread(target=f) for f in (a, b)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
        assert not any(w.is_alive() for w in workers)
        assert seen == {"b after a closed": 1}
        assert caller_at_two() == 2
