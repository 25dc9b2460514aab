"""Impedance-parameter channel model for a RIS-aided MIMO link.

All impedances are in ohms. The end-to-end channel is the Schur complement
Z = Z_DS - Z_DR (Z_R + Z_N)^{-1} Z_RS of the multiport impedance description,
with Z_N = j diag(x) the adjustable lossless single-connected load.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import numbers
import threading
from dataclasses import dataclass

import numpy as np
import numpy.linalg._umath_linalg as _umath_linalg

from .errors import EigenvalueError, InvalidArgumentError, NotPSDError, NumericallySingularError

# The LAPACK gufuncs behind np.linalg.inv, solve, slogdet and eigh, bound once
# for complex 2-D input (eigh: real symmetric).  At the sizes the optimizer
# works on (N <= 16 in most runs, K, M <= 4) the public wrappers' argument
# checks cost more than the LAPACK call itself.  numpy's own np.linalg imports
# _umath_linalg when it loads, so every numpy this package runs on has it.
# These four bindings are the package's only dense inverse, solve,
# log-determinant and eigendecomposition; solve_small is np.linalg.solve(a, b)
# for complex 2-D a and b, without the wrapper's checks.
_inv = functools.partial(_umath_linalg.inv, signature="D->D")
solve_small = functools.partial(_umath_linalg.solve, signature="DD->D")
_slogdet = functools.partial(_umath_linalg.slogdet, signature="D->Dd")
_eigh = functools.partial(_umath_linalg.eigh_lo, signature="d->dd")


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
        _check_args(self.n, "spacing, angles, pathloss, loss and R", self.spacing, self.alpha_tx,
                    self.alpha_rx, self.gamma_dr, self.gamma_rs, self.gamma_loss, self.R)
        if self.spacing <= 0:
            raise InvalidArgumentError("spacing must be positive")
        if self.gamma_loss < 0 or self.gamma_dr <= 0 or self.gamma_rs <= 0:
            raise InvalidArgumentError("pathloss factors must be positive, the loss factor nonnegative")
        if self.R <= 0:
            raise InvalidArgumentError("reference resistance must be positive")

    @property
    def array(self) -> tuple:
        """(n, spacing, gamma_loss, R): what Z_R depends on; scenarios that differ
        only in angles or pathloss share it."""
        return (self.n, self.spacing, self.gamma_loss, self.R)

    @property
    def links(self) -> tuple[np.ndarray, np.ndarray]:
        """(a_DR, a_RS): the steering vectors toward the receiver (alpha_rx) and toward the
        transmitter (alpha_tx), the only place that pairs each link with its angle."""
        return (steering_vector(self.n, self.spacing, self.alpha_rx),
                steering_vector(self.n, self.spacing, self.alpha_tx))


def _check_args(n, names: str, *values) -> None:
    """A line array's element count n is a positive integer and its values are finite."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
        raise InvalidArgumentError(f"n must be a positive integer, got {n!r}")
    if not all(map(math.isfinite, values)):
        raise InvalidArgumentError(f"{names} must be finite")


def _symmetric(a: np.ndarray, rtol: float, message: str, scale: float = 0.0) -> np.ndarray:
    """a if exactly symmetric, (a + a^T)/2 within rtol * (scale or max(|a|, 1)), else refused."""
    if np.array_equal(a, a.T):
        return a
    if np.abs(a - a.T).max() > rtol * (scale or max(np.abs(a).max(), 1.0)):
        raise InvalidArgumentError(message)
    return (a + a.T) / 2.0


def _real(a, what: str) -> np.ndarray:
    """a as a float array; a complex a only if its imaginary part is zero, else refused."""
    if np.iscomplexobj(a) and np.imag(a).any():
        raise InvalidArgumentError(f"{what} must be real")
    return np.asarray(np.real(a), dtype=float)


def _checked_z_r(z_r: np.ndarray) -> np.ndarray:
    """An array impedance matrix as ImpedanceChannel stores it: finite and symmetric, or refused."""
    if not np.all(np.isfinite(z_r)):
        raise InvalidArgumentError("z_r must be finite")
    return _symmetric(z_r, 1e-9, "z_r must be complex symmetric (reciprocity)")


@dataclass(frozen=True)
class RisState:
    """Per-element load reactances of a lossless single-connected RIS."""

    x: np.ndarray

    def __post_init__(self):
        x = _real(self.x, "reactances")
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
    impedance matrix (mutual coupling on the off-diagonals), N >= 1.  The
    array is reciprocal, so z_r is complex symmetric: an exactly symmetric
    z_r is stored as given, one within 1e-9 max(|z_r|, 1) of symmetric as
    its symmetric part (z_r + z_r^T)/2, and any other is refused.  The
    optimizer's rank-one updates rely on z_r^T = z_r holding exactly.
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
        if z_r.shape != (n, n) or n == 0:
            raise InvalidArgumentError("z_r must be square, of at least one element")
        if z_dr.shape != (k, n) or z_rs.shape != (n, m):
            raise InvalidArgumentError(
                f"inconsistent block dimensions: z_ds {z_ds.shape}, "
                f"z_dr {z_dr.shape}, z_rs {z_rs.shape}, z_r {z_r.shape}"
            )
        if not 0.0 < self.R < np.inf:
            raise InvalidArgumentError("reference resistance must be positive and finite")
        for name, block in (("z_ds", z_ds), ("z_dr", z_dr), ("z_rs", z_rs)):
            if not np.all(np.isfinite(block)):
                raise InvalidArgumentError(f"{name} must be finite")
            object.__setattr__(self, name, block)
        object.__setattr__(self, "z_r", _checked_z_r(z_r))

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
    the diagonal is the radiation resistance R.  The matrix is Toeplitz: its
    N lag values are evaluated once and indexed into place.
    """
    _check_args(n, "spacing and R", spacing, R)
    if spacing <= 0 or R <= 0:
        raise InvalidArgumentError("spacing and R must be positive")
    idx = np.arange(n)
    u = 2.0 * np.pi * spacing * idx
    with np.errstate(divide="ignore", invalid="ignore"):
        lags = R * np.sin(u) / u + 1j * R * np.cos(u) / u
    lags[0] = R
    return lags[np.abs(idx[:, None] - idx[None, :])]


def steering_vector(n: int, spacing: float, alpha: float) -> np.ndarray:
    """LOS ULA steering vector a_n = exp(-j (n-1) 2 pi spacing cos(alpha))."""
    _check_args(n, "spacing and alpha", spacing, alpha)
    return np.exp(-1j * np.arange(n) * 2.0 * np.pi * spacing * np.cos(alpha))


def build_los_scenario(s: Scenario) -> ImpedanceChannel:
    """Construct the SISO LOS impedance channel of the line scenario.

    The direct link is blocked (z_ds = 0); RIS-side links are pathloss-scaled
    steering vectors times R.  Z_R, Ohmic loss included, is the read-only Z_R of
    ArrayFactors.of(s), which one array's channels share, and is checked as any Z_R is.
    """
    a_dr, a_rs = s.links
    z_dr = np.sqrt(s.gamma_dr) * s.R * a_dr[None, :]
    z_rs = np.sqrt(s.gamma_rs) * s.R * a_rs[:, None]
    return ImpedanceChannel(np.zeros((1, 1)), z_dr, z_rs, ArrayFactors.of(s).z_r, s.R)


def loading_matrix(z_r: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Z_R + j diag(x), the matrix the RIS currents are solved against.

    z_r is the array impedance matrix, or the block z11 of a decoupling
    network, which the element reactances load in the same way.  Refuses an
    x that is not one reactance per element.  Rounded as
    z_r + 1j * np.diag(x), signs of zero included, without the N x N
    temporaries: adding 0.0 copies Z_R and turns its -0.0 parts into +0.0 as
    adding 1j * 0.0 does, and the diagonal takes 1j * x.
    """
    n = z_r.shape[0]
    if x.shape != (n,):
        raise InvalidArgumentError(f"{x.size} reactances for a channel of {n} elements")
    z = z_r + 0.0
    z.flat[::n + 1] = z_r.diagonal() + 1j * x
    return z


def _norm1(a: np.ndarray) -> float:
    """np.linalg.norm(a, 1) of a 2-D array, by the same reductions."""
    return np.add.reduce(np.abs(a), axis=0).max(initial=0)


def _condition(z_load: np.ndarray, z_inv: np.ndarray) -> float:
    """||A||_1 ||A^{-1}||_1 of A = z_load, refused above CONDITION_LIMIT.  A singular
    matrix, whose inverse LAPACK returns as NaN, counts as infinitely ill-conditioned."""
    cond = _norm1(z_load) * _norm1(z_inv)
    if not cond <= CONDITION_LIMIT:
        if math.isnan(cond):
            cond = math.inf
        raise NumericallySingularError(
            f"loading matrix condition estimate {cond:.3e} exceeds {CONDITION_LIMIT:.0e}",
            condition=cond,
        )
    return float(cond)


# The gufunc flags a singular matrix as an invalid operation and returns NaN,
# which is refused below, so the warning is not wanted.  As a decorator
# np.errstate costs half what it costs as a with-block.
@np.errstate(all="ignore")
def checked_inverse(z_load: np.ndarray) -> tuple[np.ndarray, float]:
    """Inverse of a complex loading matrix and its condition number, refused
    above CONDITION_LIMIT.

    A dense inverse of any square matrix.  The optimizer's loading matrices
    are centrosymmetric only at x = 0, and splitting that start alone parted
    the rank-one backend's trace from the dense oracle's on an ill-conditioned
    run, so only ArrayFactors.inverse inverts through the halves (_halves).
    """
    z_inv = _inv(z_load)
    return z_inv, _condition(z_load, z_inv)


def _halves(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The even (ceil(N/2) square) and odd (floor(N/2)) blocks of Q^T a Q, for an
    exactly symmetric and exactly centrosymmetric a (J a J = a, J the exchange
    matrix), which the orthogonal Q = [[I, I], [J, -J]]/sqrt(2) block-diagonalises.
    For odd N the middle row and column of a, times sqrt(2), border the even block.
    """
    n = a.shape[0]
    m = n // 2
    top, cross = a[:m, :m], a[:m, ::-1][:, :m]          # A11 and A12 J
    even = np.empty((n - m, n - m), a.dtype)
    even[:m, :m] = top + cross
    if n % 2:
        even[:m, m] = a[:m, m] * math.sqrt(2.0)
        even[m, :m] = a[m, :m] * math.sqrt(2.0)
        even[m, m] = a[m, m]
    return even, top - cross


def _whole(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Q diag(p, q) Q^T, the matrix whose _halves are the even block p and the odd block q."""
    m = q.shape[0]
    n = p.shape[0] + m
    out = np.empty((n, n), np.result_type(p, q))
    plus, minus = (p[:m, :m] + q) / 2.0, (p[:m, :m] - q) / 2.0
    out[:m, :m], out[n - m:, n - m:] = plus, plus[::-1, ::-1]
    out[:m, n - m:], out[n - m:, :m] = minus[:, ::-1], minus[::-1]
    if n % 2:
        col, row = p[:m, m] / math.sqrt(2.0), p[m, :m] / math.sqrt(2.0)
        out[:m, m], out[n - m:, m] = col, col[::-1]
        out[m, :m], out[m, n - m:] = row, row[::-1]
        out[m, m] = p[m, m]
    return out


@np.errstate(all="ignore")
def _inverse_by_halves(z: np.ndarray) -> np.ndarray:
    """checked_inverse(z)[0] of an exactly symmetric, exactly centrosymmetric z,
    from the inverses of its halves.  The condition refused is z's own."""
    z_inv = _whole(*map(_inv, _halves(z)))
    _condition(z, z_inv)
    return z_inv


@np.errstate(all="ignore")
def eigh(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.linalg.eigh(s) of a real symmetric 2-D array: ascending eigenvalues
    and orthonormal eigenvectors, from its lower triangle.

    LAPACK signals non-convergence by NaN results, which are refused, as are
    the NaNs a non-finite s gives.
    """
    w, v = _eigh(s)
    if not np.isfinite(w).all():
        raise EigenvalueError(f"symmetric eigendecomposition of a {s.shape[0]} x {s.shape[0]} "
                              "matrix did not converge or met a non-finite entry")
    return w, v


@functools.cache
def _openblas() -> tuple:
    """numpy's bundled OpenBLAS thread-count getter and setter, or a None getter and a no-op."""
    try:
        lib = ctypes.CDLL(_umath_linalg.__file__)     # finds symbols of the BLAS it links too
        get, put = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (OSError, AttributeError):
        return (lambda: None), (lambda threads: None)
    get.argtypes, get.restype, put.argtypes, put.restype = [], ctypes.c_int, [ctypes.c_int], None
    return get, put


def blas_threads() -> int | None:
    """The thread count numpy's bundled OpenBLAS runs with; None without it."""
    return _openblas()[0]()


# one_blas_thread's open scopes, in all Python threads, and the count the first one found
_scope_lock = threading.Lock()
_scopes_open = 0
_callers_threads = None


@contextlib.contextmanager
def one_blas_thread():
    """BLAS on one thread, the caller's count restored on exit or exception: a with-block or,
    called, a decorator.  Process-global, so scopes nest and overlap across Python threads: the
    first to open saves the caller's count, the last to close restores it.  A no-op without
    bundled OpenBLAS."""
    global _scopes_open, _callers_threads
    get, put = _openblas()
    with _scope_lock:
        if not _scopes_open:
            _callers_threads = get()
            put(1)
        _scopes_open += 1
    try:
        yield
    finally:
        with _scope_lock:
            _scopes_open -= 1
            if not _scopes_open:
                put(_callers_threads)


@one_blas_thread()
def evaluate_channel(ch: ImpedanceChannel, state: RisState) -> np.ndarray:
    """End-to-end channel Z = Z_DS - Z_DR (Z_R + j diag(x))^{-1} Z_RS, on one BLAS thread."""
    return ch.z_ds - ch.z_dr @ checked_inverse(loading_matrix(ch.z_r, state.x))[0] @ ch.z_rs


class ArrayFactors:
    """One array's impedance matrix Z_R and its O(N^3) factorisations.

    Made for the array of a scenario (its N, spacing, gamma_loss and R, not
    its angles), it builds that array's Z_R once, Ohmic loss included: R*gamma
    on the real diagonal, and checks it.  Each factorisation is made on its
    first read, on one BLAS thread whatever the caller's count, and kept; one
    that raises is not kept.  Z_R and the factors are read-only, so the
    scenarios of one array share one instance (of).  Z_R is symmetric Toeplitz,
    so centrosymmetric: both factorisations work on its two half-size blocks
    (_halves), at about a quarter of the dense flops.
    """

    _last = None        # of's one-slot memo: the last array's ArrayFactors

    def __init__(self, s: Scenario):
        self.array = s.array
        z_r = build_coupling_matrix(s.n, s.spacing, s.R)
        if s.gamma_loss > 0:
            z_r.flat[::s.n + 1] += s.gamma_loss * s.R
        self.z_r = _read_only(_checked_z_r(z_r))

    @classmethod
    def of(cls, s: Scenario) -> ArrayFactors:
        """s's array's ArrayFactors: the last array's if it is s's, else new ones, built once
        the last array's are dropped."""
        factors = cls._last
        if factors is None or factors.array != s.array:
            factors = cls._last = None      # the old array's go before the new are built
            factors = cls._last = cls(s)
        return factors

    @functools.cached_property
    @one_blas_thread()
    def inverse(self) -> np.ndarray:
        """checked_inverse(Z_R)[0], the inverse of the loading matrix at x = 0,
        from Z_R's halves; refused as checked_inverse refuses, on the condition
        number of the whole Z_R."""
        return _read_only(_inverse_by_halves(self.z_r))

    @functools.cached_property
    def re_inv_sqrt(self) -> np.ndarray:
        """psd_inv_sqrt(Re Z_R), the whitening of the power-matching network."""
        return _read_only(psd_inv_sqrt(self.z_r.real))


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


def spectral_efficiency(z: np.ndarray) -> float:
    """log2 det(I + Z Z^H) in bits."""
    if not (type(z) is np.ndarray and z.ndim == 2 and z.dtype == complex):
        z = np.atleast_2d(np.asarray(z, dtype=complex))
    gram = identity(z.shape[0]) + z @ z.conj().T
    return float(_slogdet(gram)[1] / LOG2)


def psd_sqrt(s: np.ndarray) -> np.ndarray:
    """Unique symmetric PSD square root of a real symmetric PSD matrix."""
    return _psd_root(s, inverse=False)


def psd_inv_sqrt(s: np.ndarray) -> np.ndarray:
    """Pseudo-inverse square root; eigenvalues below the relative floor map to 0.

    An exactly centrosymmetric s, as a line array's Re Z_R is, is eigendecomposed
    through its halves (_halves), any other whole; the PSD test and the floor
    read the eigenvalues of the whole s.
    """
    return _psd_root(s, inverse=True)


# A non-finite s reaches eigh, which refuses it, without the warnings of inf - inf.
@np.errstate(all="ignore")
@one_blas_thread()
def _psd_root(s: np.ndarray, inverse: bool) -> np.ndarray:
    s = _real(s, "matrix")
    if s.ndim != 2 or s.shape[0] != s.shape[1] or s.shape[0] == 0:
        raise InvalidArgumentError("matrix must be square and nonempty")
    s = _symmetric(s, PSD_TOL, "matrix must be symmetric")
    split = np.array_equal(s, s[::-1, ::-1])
    eigs = [eigh(block) for block in (_halves(s) if split else (s,))]
    w = np.concatenate([w for w, _ in eigs])          # the eigenvalues of s, by block
    lo = w.min()
    tol = PSD_TOL * max(abs(lo), abs(w.max()), 1.0)
    if lo < -tol:
        raise NotPSDError(f"eigenvalue {lo:.3e} below -{tol:.1e}")
    w = np.clip(w, 0.0, None)
    f = np.sqrt(w)
    if inverse:
        f = np.divide(1.0, f, out=np.zeros_like(w), where=w > PINV_EIG_FLOOR * w.max())
    h = eigs[0][0].size
    roots = [(v * part) @ v.T for (_, v), part in zip(eigs, (f[:h], f[h:]))]
    return _whole(*roots) if split else roots[0]
