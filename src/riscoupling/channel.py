"""Impedance-parameter channel model for a RIS-aided MIMO link.

All impedances are in ohms. The end-to-end channel is the Schur complement
Z = Z_DS - Z_DR (Z_R + Z_N)^{-1} Z_RS of the multiport impedance description,
with Z_N = j diag(x) the adjustable lossless single-connected load.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, NotPSDError, NumericallySingularError

# The LAPACK gufuncs behind np.linalg.inv, solve and slogdet, bound once for
# complex 2-D input.  At the sizes the optimizer works on (N <= 16 in most
# runs, K, M <= 4) the public wrappers' argument checks cost more than the
# LAPACK call itself.  They live in numpy's private _umath_linalg; if numpy
# moves it, the public wrappers make the same LAPACK calls on the same
# arrays, so every result is the same bit for bit, and only a singular
# matrix shows the difference: the gufunc returns NaN where the wrapper
# raises LinAlgError (checked_inverse handles both).
# tests/test_elementwise.py and tests/test_channel.py check both paths.
try:
    import numpy.linalg._umath_linalg as _umath_linalg
except ImportError:
    _inv, _solve, _slogdet = np.linalg.inv, np.linalg.solve, np.linalg.slogdet
    LINALG_PATH = "public numpy.linalg fallback"
else:
    _inv = functools.partial(_umath_linalg.inv, signature="D->D")
    _solve = functools.partial(_umath_linalg.solve, signature="DD->D")
    _slogdet = functools.partial(_umath_linalg.slogdet, signature="D->Dd")
    LINALG_PATH = "LAPACK gufuncs"

# Reject loading matrices whose 1-norm condition estimate exceeds this.
CONDITION_LIMIT = 1e14

# Reactance clamp used when the phase-to-reactance map hits its pole.
X_MAX = 1e9

# Phases within this distance of pi (theta at or near -1) map to a zero
# reactance or reactance step: 1e-15 absolute plus 1e-5 relative to pi.
PI_DEAD_ZONE = 1e-15 + 1e-5 * math.pi

# Relative eigenvalue floor for pseudo-inverse square roots.
PINV_EIG_FLOOR = 1e-12

# Symmetric-roundoff tolerance when checking PSD-ness.
PSD_TOL = 1e-8

# Nats per bit: spectral_efficiency divides a natural-log determinant by it.
LOG2 = math.log(2.0)


@dataclass(frozen=True)
class Scenario:
    """Geometry and physics knobs for a LOS line scenario.

    spacing is the element distance in wavelengths (d/lambda); angles are in
    radians measured from the array axis.  gamma_loss is the Ohmic
    dissipation-to-radiation resistance ratio R_d/R.
    """

    n: int
    spacing: float
    alpha_tx: float
    alpha_rx: float
    gamma_dr: float = 1.0
    gamma_rs: float = 1.0
    gamma_loss: float = 0.0
    R: float = 50.0

    def __post_init__(self):
        if isinstance(self.n, bool) or not isinstance(self.n, numbers.Integral) or self.n < 1:
            raise InvalidArgumentError(f"n must be a positive integer, got {self.n!r}")
        if not np.all(np.isfinite((self.spacing, self.alpha_tx, self.alpha_rx, self.gamma_dr,
                                   self.gamma_rs, self.gamma_loss, self.R))):
            raise InvalidArgumentError("spacing, angles, pathloss, loss and R must be finite")
        if self.spacing <= 0:
            raise InvalidArgumentError("spacing must be positive")
        if self.gamma_loss < 0 or self.gamma_dr <= 0 or self.gamma_rs <= 0:
            raise InvalidArgumentError("pathloss factors must be positive, the loss factor nonnegative")
        if self.R <= 0:
            raise InvalidArgumentError("reference resistance must be positive")


@dataclass(frozen=True)
class RisState:
    """Per-element load reactances of a lossless single-connected RIS."""

    x: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        if x.ndim != 1:
            raise InvalidArgumentError("reactance vector must be one-dimensional")
        if not np.isfinite(x).all():
            raise InvalidArgumentError("reactances must be finite")
        object.__setattr__(self, "x", x)

    @classmethod
    def zeros(cls, n: int) -> "RisState":
        return cls(np.zeros(n))

    @property
    def n(self) -> int:
        return self.x.size


@dataclass(frozen=True)
class ImpedanceChannel:
    """The four impedance blocks of the RIS-aided link plus the reference resistance.

    z_ds: K x M direct channel, z_dr: K x N, z_rs: N x M, z_r: N x N array
    impedance matrix (complex symmetric, mutual coupling on the off-diagonals).
    """

    z_ds: np.ndarray
    z_dr: np.ndarray
    z_rs: np.ndarray
    z_r: np.ndarray
    R: float

    def __post_init__(self):
        z_ds = np.atleast_2d(np.asarray(self.z_ds, dtype=complex))
        z_dr = np.atleast_2d(np.asarray(self.z_dr, dtype=complex))
        z_rs = np.atleast_2d(np.asarray(self.z_rs, dtype=complex))
        z_r = np.atleast_2d(np.asarray(self.z_r, dtype=complex))
        k, m = z_ds.shape
        n = z_r.shape[0]
        if z_r.shape != (n, n):
            raise InvalidArgumentError("z_r must be square")
        if z_dr.shape != (k, n) or z_rs.shape != (n, m):
            raise InvalidArgumentError(
                f"inconsistent block dimensions: z_ds {z_ds.shape}, "
                f"z_dr {z_dr.shape}, z_rs {z_rs.shape}, z_r {z_r.shape}"
            )
        if not 0.0 < self.R < np.inf:
            raise InvalidArgumentError("reference resistance must be positive and finite")
        blocks = (("z_ds", z_ds), ("z_dr", z_dr), ("z_rs", z_rs), ("z_r", z_r))
        for name, block in blocks:
            if not np.all(np.isfinite(block)):
                raise InvalidArgumentError(f"{name} must be finite")
        if not np.array_equal(z_r, z_r.T):
            scale = max(np.abs(z_r).max(), 1.0)
            if np.abs(z_r - z_r.T).max() > 1e-9 * scale:
                raise InvalidArgumentError("z_r must be complex symmetric (reciprocity)")
        for name, block in blocks:
            object.__setattr__(self, name, block)

    @property
    def n(self) -> int:
        return self.z_r.shape[0]

    @property
    def k(self) -> int:
        return self.z_ds.shape[0]

    @property
    def m(self) -> int:
        return self.z_ds.shape[1]


def build_coupling_matrix(n: int, spacing: float, R: float) -> np.ndarray:
    """Mutual impedance matrix of a ULA of isotropic radiators.

    Off-diagonals follow sin(u)/u + j cos(u)/u with u = 2*pi*spacing*|i-j|;
    the diagonal is the radiation resistance R.
    """
    if n < 1:
        raise InvalidArgumentError("n must be >= 1")
    if spacing <= 0 or R <= 0:
        raise InvalidArgumentError("spacing and R must be positive")
    idx = np.arange(n)
    u = 2.0 * np.pi * spacing * np.abs(idx[:, None] - idx[None, :])
    with np.errstate(divide="ignore", invalid="ignore"):
        z = R * np.sin(u) / u + 1j * R * np.cos(u) / u
    np.fill_diagonal(z, R)
    return z


def steering_vector(n: int, spacing: float, alpha: float) -> np.ndarray:
    """LOS ULA steering vector a_n = exp(-j (n-1) 2 pi spacing cos(alpha))."""
    if n < 1:
        raise InvalidArgumentError("n must be >= 1")
    return np.exp(-1j * np.arange(n) * 2.0 * np.pi * spacing * np.cos(alpha))


def build_los_scenario(s: Scenario) -> ImpedanceChannel:
    """Construct the SISO LOS impedance channel of the line scenario.

    The direct link is blocked (z_ds = 0); RIS-side links are pathloss-scaled
    steering vectors times R.  A nonzero gamma_loss adds R*gamma to the real
    diagonal of the coupling matrix (Ohmic dissipation resistance).
    """
    a_dr = steering_vector(s.n, s.spacing, s.alpha_rx)
    a_rs = steering_vector(s.n, s.spacing, s.alpha_tx)
    z_dr = np.sqrt(s.gamma_dr) * s.R * a_dr[None, :]
    z_rs = np.sqrt(s.gamma_rs) * s.R * a_rs[:, None]
    z_r = build_coupling_matrix(s.n, s.spacing, s.R)
    if s.gamma_loss > 0:
        z_r = z_r + s.gamma_loss * s.R * np.eye(s.n)
    return ImpedanceChannel(np.zeros((1, 1)), z_dr, z_rs, z_r, s.R)


def loading_matrix(ch: ImpedanceChannel, x: np.ndarray) -> np.ndarray:
    """Z_R + j diag(x), the matrix the RIS currents are solved against.

    Refuses an x that is not one reactance per element.  Rounded as
    ch.z_r + 1j * np.diag(x), signs of zero included, without the N x N
    temporaries: adding 0.0 copies Z_R and turns its -0.0 parts into +0.0 as
    adding 1j * 0.0 does, and the diagonal takes 1j * x.
    """
    if x.shape != (ch.n,):
        raise InvalidArgumentError(f"{x.size} reactances for a channel of {ch.n} elements")
    z = ch.z_r + 0.0
    z.flat[::ch.n + 1] = ch.z_r.diagonal() + 1j * x
    return z


def _norm1(a: np.ndarray) -> float:
    """np.linalg.norm(a, 1) of a 2-D array, by the same reductions."""
    return np.add.reduce(np.abs(a), axis=0).max(initial=0)


# The gufunc flags a singular matrix as an invalid operation and returns NaN,
# which is refused below, so the warning is not wanted (np.linalg.inv raises
# LinAlgError there and ignores the other three flags).  As a decorator
# np.errstate costs half what it costs as a with-block.
@np.errstate(all="ignore")
def checked_inverse(z_load: np.ndarray) -> np.ndarray:
    """Inverse of a complex loading matrix, refused above CONDITION_LIMIT.

    The 1-norm condition number ||A||_1 ||A^{-1}||_1 comes from this one
    inverse; an exactly singular matrix counts as infinitely ill-conditioned,
    whether the LAPACK gufunc returns NaN for it or the public wrapper raises.
    """
    try:
        z_inv = _inv(z_load)
        cond = _norm1(z_load) * _norm1(z_inv)
    except np.linalg.LinAlgError:
        cond = math.inf
    if not cond <= CONDITION_LIMIT:
        if math.isnan(cond):
            cond = math.inf
        raise NumericallySingularError(
            f"loading matrix condition estimate {cond:.3e} exceeds {CONDITION_LIMIT:.0e}",
            condition=cond,
        )
    return z_inv


def evaluate_channel(ch: ImpedanceChannel, state: RisState) -> np.ndarray:
    """End-to-end impedance channel Z = Z_DS - Z_DR (Z_R + j diag(x))^{-1} Z_RS."""
    return ch.z_ds - ch.z_dr @ checked_inverse(loading_matrix(ch, state.x)) @ ch.z_rs


class ArrayFactors:
    """The O(N^3) factorisations of one array impedance matrix Z_R, each made on
    its first request and kept, read-only, for the later ones.

    Every request passes Z_R, and all requests to one instance must pass the
    same matrix.  Z_R depends on N, spacing, gamma_loss and R only, so the
    scenarios of one array share one instance whatever their angles.  The
    instance holds no Z_R of its own.  A factorisation that raises is not
    kept: the next request tries again and raises again.
    """

    def __init__(self):
        self._inverse = self._re_inv_sqrt = None

    def inverse(self, z_r: np.ndarray) -> np.ndarray:
        """checked_inverse(Z_R), the inverse of the loading matrix at x = 0."""
        if self._inverse is None:
            self._inverse = _read_only(checked_inverse(z_r))
        return self._inverse

    def re_inv_sqrt(self, z_r: np.ndarray) -> np.ndarray:
        """psd_inv_sqrt(Re Z_R), the whitening of the power-matching network."""
        if self._re_inv_sqrt is None:
            self._re_inv_sqrt = _read_only(psd_inv_sqrt(z_r.real))
        return self._re_inv_sqrt


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def single_element_gain(s: Scenario) -> float:
    """Normalization constant of the array gain: SISO gain of one lossless element."""
    return s.gamma_dr * s.gamma_rs * s.R**2


@functools.lru_cache(maxsize=16)
def identity(k: int) -> np.ndarray:
    """The k x k real identity, made once per size and read-only: add it out of place."""
    return _read_only(np.eye(k))


def channel_gain(z: np.ndarray) -> float:
    """|z|^2 for SISO; squared Frobenius norm in general."""
    return float(np.sum(np.abs(np.asarray(z)) ** 2))


def solve_small(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.linalg.solve(a, b) for complex 2-D a and b, without the wrapper's checks."""
    return _solve(a, b)


def spectral_efficiency(z: np.ndarray) -> float:
    """log2 det(I + Z Z^H) in bits."""
    if not (type(z) is np.ndarray and z.ndim == 2 and z.dtype == complex):
        z = np.atleast_2d(np.asarray(z, dtype=complex))
    gram = identity(z.shape[0]) + z @ z.conj().T
    return float(_slogdet(gram)[1] / LOG2)


def psd_sqrt(s: np.ndarray) -> np.ndarray:
    """Unique symmetric PSD square root of a real symmetric PSD matrix."""
    w, v = _psd_eig(s)
    return (v * np.sqrt(w)) @ v.T


def psd_inv_sqrt(s: np.ndarray) -> np.ndarray:
    """Pseudo-inverse square root; eigenvalues below the relative floor map to 0."""
    w, v = _psd_eig(s)
    floor = PINV_EIG_FLOOR * w.max() if w.size else 0.0
    inv = np.where(w > floor, 1.0 / np.sqrt(np.maximum(w, floor)), 0.0)
    return (v * inv) @ v.T


def _psd_eig(s: np.ndarray):
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise InvalidArgumentError("matrix must be square")
    if not np.array_equal(s, s.T):
        if np.abs(s - s.T).max() > PSD_TOL * max(np.abs(s).max(), 1.0):
            raise InvalidArgumentError("matrix must be symmetric")
        s = (s + s.T) / 2.0
    w, v = np.linalg.eigh(s)
    tol = PSD_TOL * max(abs(w[0]), abs(w[-1]), 1.0)
    if w[0] < -tol:
        raise NotPSDError(f"eigenvalue {w[0]:.3e} below -{tol:.1e}")
    return np.clip(w, 0.0, None), v
