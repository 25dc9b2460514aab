import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riscoupling import (
    ImpedanceChannel,
    RisState,
    Scenario,
    build_coupling_matrix,
    build_los_scenario,
    channel_gain,
    evaluate_channel,
    init_context,
    psd_inv_sqrt,
    psd_sqrt,
    spectral_efficiency,
    steering_vector,
    voltage_transfer,
)
from riscoupling.errors import (
    InvalidArgumentError,
    NotPSDError,
    NumericallySingularError,
    UnsupportedConfigurationError,
)


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

    def test_mimo_unsupported(self):
        s = Scenario(n=4, spacing=0.2, alpha_tx=0.0, alpha_rx=np.pi, m=2)
        with pytest.raises(UnsupportedConfigurationError):
            build_los_scenario(s)


def random_channel(rng, n, k=1, m=1, spacing=0.3):
    z_r = build_coupling_matrix(n, spacing, 50.0)
    z = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return ImpedanceChannel(z(k, m), 50.0 * z(k, n), 50.0 * z(n, m), z_r, 50.0)


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

    def test_voltage_transfer_scaling(self):
        z = np.array([[8.0 + 4.0j]])
        assert np.allclose(voltage_transfer(z, 50.0), z / 200.0)


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

    def test_rejects_indefinite(self):
        with pytest.raises(NotPSDError):
            psd_sqrt(np.diag([1.0, -1.0]))

    def test_rejects_asymmetric(self):
        with pytest.raises(InvalidArgumentError):
            psd_sqrt(np.array([[1.0, 2.0], [0.0, 1.0]]))


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

    def test_channel_dimension_check(self):
        with pytest.raises(InvalidArgumentError):
            ImpedanceChannel(np.zeros((1, 1)), np.zeros((1, 3)), np.zeros((2, 1)),
                             np.eye(2) * 50.0, 50.0)

    def test_channel_symmetry_check(self):
        z_r = np.array([[50.0, 1.0], [2.0, 50.0]], dtype=complex)
        with pytest.raises(InvalidArgumentError):
            ImpedanceChannel(np.zeros((1, 1)), np.zeros((1, 2)), np.zeros((2, 1)), z_r, 50.0)
