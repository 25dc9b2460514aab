"""Impedance-parameter channel model for a RIS-aided MIMO link.

All impedances are in ohms. The end-to-end channel is the Schur complement
Z = Z_DS - Z_DR (Z_R + Z_N)^{-1} Z_RS of the multiport impedance description,
with Z_N = j diag(x) the adjustable lossless single-connected load.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidArgumentError,
    NotPSDError,
    NumericallySingularError,
    UnsupportedConfigurationError,
)

# Reject loading matrices whose 1-norm condition estimate exceeds this.
CONDITION_LIMIT = 1e14

# Relative eigenvalue floor for pseudo-inverse square roots.
PINV_EIG_FLOOR = 1e-12

# Symmetric-roundoff tolerance when checking PSD-ness.
PSD_TOL = 1e-8


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
    m: int = 1
    k: int = 1
    gamma_dr: float = 1.0
    gamma_rs: float = 1.0
    gamma_loss: float = 0.0
    R: float = 50.0

    def __post_init__(self):
        if self.n < 1 or self.m < 1 or self.k < 1:
            raise InvalidArgumentError("n, m, k must be positive integers")
        if self.spacing <= 0:
            raise InvalidArgumentError("spacing must be positive")
        if self.gamma_loss < 0 or self.gamma_dr < 0 or self.gamma_rs < 0:
            raise InvalidArgumentError("pathloss and loss factors must be nonnegative")
        if self.R <= 0:
            raise InvalidArgumentError("reference resistance must be positive")
        if not (np.isfinite(self.alpha_tx) and np.isfinite(self.alpha_rx)):
            raise InvalidArgumentError("angles must be finite")


@dataclass(frozen=True)
class RisState:
    """Per-element load reactances of a lossless single-connected RIS."""

    x: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        if x.ndim != 1:
            raise InvalidArgumentError("reactance vector must be one-dimensional")
        if not np.all(np.isfinite(x)):
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
        if self.R <= 0:
            raise InvalidArgumentError("reference resistance must be positive")
        scale = max(np.abs(z_r).max(), 1.0)
        if np.abs(z_r - z_r.T).max() > 1e-9 * scale:
            raise InvalidArgumentError("z_r must be complex symmetric (reciprocity)")
        for name, block in (("z_ds", z_ds), ("z_dr", z_dr), ("z_rs", z_rs), ("z_r", z_r)):
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
    if s.m != 1 or s.k != 1:
        raise UnsupportedConfigurationError("LOS line scenario constructor is SISO only")
    a_dr = steering_vector(s.n, s.spacing, s.alpha_rx)
    a_rs = steering_vector(s.n, s.spacing, s.alpha_tx)
    z_dr = np.sqrt(s.gamma_dr) * s.R * a_dr[None, :]
    z_rs = np.sqrt(s.gamma_rs) * s.R * a_rs[:, None]
    z_r = build_coupling_matrix(s.n, s.spacing, s.R)
    if s.gamma_loss > 0:
        z_r = z_r + s.gamma_loss * s.R * np.eye(s.n)
    return ImpedanceChannel(np.zeros((1, 1)), z_dr, z_rs, z_r, s.R)


def loading_matrix(ch: ImpedanceChannel, state: RisState) -> np.ndarray:
    """Z_R + j diag(x), the matrix the RIS currents are solved against."""
    return ch.z_r + 1j * np.diag(state.x)


def checked_inverse(z_load: np.ndarray) -> np.ndarray:
    """Inverse of a loading matrix, refused above CONDITION_LIMIT.

    The 1-norm condition number ||A||_1 ||A^{-1}||_1 comes from this one
    inverse; an exactly singular matrix counts as infinitely ill-conditioned.
    """
    try:
        z_inv = np.linalg.inv(z_load)
        cond = np.linalg.norm(z_load, 1) * np.linalg.norm(z_inv, 1)
    except np.linalg.LinAlgError:
        cond = np.inf
    if not np.isfinite(cond) or cond > CONDITION_LIMIT:
        raise NumericallySingularError(
            f"loading matrix condition estimate {cond:.3e} exceeds {CONDITION_LIMIT:.0e}",
            condition=cond,
        )
    return z_inv


def evaluate_channel(ch: ImpedanceChannel, state: RisState) -> np.ndarray:
    """End-to-end impedance channel Z = Z_DS - Z_DR (Z_R + j diag(x))^{-1} Z_RS."""
    if state.n != ch.n:
        raise InvalidArgumentError("state length does not match channel")
    z_load = loading_matrix(ch, state)
    checked_inverse(z_load)
    # the inverse certifies the conditioning; the channel keeps its linear solve
    return ch.z_ds - ch.z_dr @ np.linalg.solve(z_load, ch.z_rs)


def voltage_transfer(z: np.ndarray, R: float) -> np.ndarray:
    """Voltage-transfer channel D = Z / (4R)."""
    return np.asarray(z) / (4.0 * R)


def channel_gain(z: np.ndarray) -> float:
    """|z|^2 for SISO; squared Frobenius norm in general."""
    return float(np.sum(np.abs(np.asarray(z)) ** 2))


def spectral_efficiency(z: np.ndarray) -> float:
    """log2 det(I + Z Z^H) in bits."""
    z = np.atleast_2d(np.asarray(z, dtype=complex))
    gram = np.eye(z.shape[0]) + z @ z.conj().T
    sign, logdet = np.linalg.slogdet(gram)
    return float(logdet / np.log(2.0))


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
    if np.abs(s - s.T).max() > PSD_TOL * max(np.abs(s).max(), 1.0):
        raise InvalidArgumentError("matrix must be symmetric")
    w, v = np.linalg.eigh((s + s.T) / 2.0)
    tol = PSD_TOL * max(abs(w[0]), abs(w[-1]), 1.0)
    if w[0] < -tol:
        raise NotPSDError(f"eigenvalue {w[0]:.3e} below -{tol:.1e}")
    return np.clip(w, 0.0, None), v
