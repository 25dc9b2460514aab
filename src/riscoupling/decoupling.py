"""Power-matching decoupling network, uncoupled-equivalent channel, and array gains.

Inserting a lossless reciprocal 2N-port between the RIS array and its loads
turns the coupled loading matrix into R I + j diag(x'), so every no-coupling
solution carries over.  For SISO links the optimal loading then follows from
phase alignment in closed form, which is what makes the array-gain analysis
analytic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import (
    ImpedanceChannel,
    RisState,
    Scenario,
    build_coupling_matrix,
    psd_inv_sqrt,
    psd_sqrt,
    steering_vector,
)
from .elementwise import PI_DEAD_ZONE, X_MAX
from .errors import InvalidArgumentError, SingularLoadError

# Below this element spacing the normalized coupling matrix is so close to
# singular that gains depend on the pseudo-inversion floor; refuse by default.
MIN_SPACING = 0.02


@dataclass(frozen=True)
class DecouplingNetwork:
    """Impedance blocks of a reciprocal lossless 2N-port: [[z11, z12], [z12^T, z22]]."""

    z11: np.ndarray
    z12: np.ndarray
    z22: np.ndarray

    def __post_init__(self):
        for name in ("z11", "z12", "z22"):
            block = np.atleast_2d(np.asarray(getattr(self, name), dtype=complex))
            object.__setattr__(self, name, block)
        n = self.z11.shape[0]
        if any(b.shape != (n, n) for b in (self.z11, self.z12, self.z22)):
            raise InvalidArgumentError("all blocks must be N x N")
        scale = max(max(np.abs(b).max() for b in (self.z11, self.z12, self.z22)), 1.0)
        if max(np.abs(b.real).max() for b in (self.z11, self.z12, self.z22)) > 1e-9 * scale:
            raise InvalidArgumentError("network must be lossless: all blocks purely imaginary")
        if (np.abs(self.z11 - self.z11.T).max() > 1e-9 * scale
                or np.abs(self.z22 - self.z22.T).max() > 1e-9 * scale):
            raise InvalidArgumentError("network must be reciprocal: z11, z22 symmetric")

    @property
    def n(self) -> int:
        return self.z11.shape[0]

    def full_matrix(self) -> np.ndarray:
        """The symmetric 2N x 2N impedance matrix of the network."""
        return np.block([[self.z11, self.z12], [self.z12.T, self.z22]])


@dataclass(frozen=True)
class EffectiveChannel:
    """Uncoupled-equivalent channel: loading matrix is R I + j diag(x')."""

    z_ds: np.ndarray
    z_dr_eff: np.ndarray
    z_rs_eff: np.ndarray
    R: float

    def __post_init__(self):
        for name in ("z_ds", "z_dr_eff", "z_rs_eff"):
            object.__setattr__(self, name, np.atleast_2d(np.asarray(getattr(self, name), dtype=complex)))

    @property
    def n(self) -> int:
        return self.z_dr_eff.shape[1]


class SisoSolution(NamedTuple):
    gain: float
    theta: np.ndarray   # unit-modulus per-element reflection coefficients
    x: np.ndarray       # equivalent load reactances in the effective model


def power_matching_network(z_r: np.ndarray, R: float) -> DecouplingNetwork:
    """Decoupling network that whitens Re(Z_R) and cancels Im(Z_R).

    z11 = 0, z12 = -j sqrt(R) Re(Z_R)^{1/2}, z22 = -j Im(Z_R).
    """
    z_r = np.asarray(z_r, dtype=complex)
    if R <= 0:
        raise InvalidArgumentError("R must be positive")
    sq = psd_sqrt(z_r.real)
    n = z_r.shape[0]
    return DecouplingNetwork(
        z11=np.zeros((n, n), dtype=complex),
        z12=-1j * math.sqrt(R) * sq,
        z22=-1j * z_r.imag.astype(complex),
    )


def transformed_load(net: DecouplingNetwork, state: RisState) -> np.ndarray:
    """Load seen by the array through the network: z22 - z12^T (z11 + j diag(x))^{-1} z12."""
    inner = net.z11 + 1j * np.diag(state.x)
    if np.abs(np.diag(inner)).min() == 0 and np.abs(net.z11).max() == 0:
        idx = int(np.argmin(np.abs(state.x)))
        raise SingularLoadError(f"x[{idx}] = 0 makes z11 + j diag(x) singular (z11 = 0)")
    try:
        sol = np.linalg.solve(inner, net.z12)
    except np.linalg.LinAlgError as exc:
        raise SingularLoadError(f"z11 + j diag(x) singular: {exc}") from exc
    return net.z22 - net.z12.T @ sol


def reactance_transform(x: np.ndarray, R: float) -> np.ndarray:
    """x' = -R^2 / x, the load the network presents for each element reactance."""
    x = np.asarray(x, dtype=float)
    zeros = np.flatnonzero(x == 0.0)
    if zeros.size:
        raise SingularLoadError(f"zero reactance at index {zeros[0]}")
    return -R**2 / x


def effective_channel(ch: ImpedanceChannel) -> EffectiveChannel:
    """Whitened channel blocks: Z_DR Re(Z_R)^{-1/2} sqrt(R) and sqrt(R) Re(Z_R)^{-1/2} Z_RS."""
    inv_sq = psd_inv_sqrt(ch.z_r.real)
    root_r = math.sqrt(ch.R)
    return EffectiveChannel(
        z_ds=ch.z_ds,
        z_dr_eff=ch.z_dr @ inv_sq * root_r,
        z_rs_eff=root_r * inv_sq @ ch.z_rs,
        R=ch.R,
    )


def evaluate_effective(eff: EffectiveChannel, x: np.ndarray) -> np.ndarray:
    """Channel of the uncoupled-equivalent model at load reactances x'."""
    x = np.asarray(x, dtype=float)
    diag = eff.R + 1j * x
    return eff.z_ds - (eff.z_dr_eff / diag[None, :]) @ eff.z_rs_eff


def theta_to_reactance(theta: np.ndarray, R: float) -> np.ndarray:
    """Invert the reflection map theta = (j x - R)/(j x + R).

    x = R / tan(arg(theta)/2); phases within PI_DEAD_ZONE of pi (theta near -1)
    map to x = 0, theta = +1 (the open-circuit limit) saturates at X_MAX.
    """
    phi = np.angle(np.asarray(theta, dtype=complex))
    with np.errstate(divide="ignore"):
        x = R / np.tan(phi / 2.0)
    x = np.where(np.pi - np.abs(phi) <= PI_DEAD_ZONE, 0.0, x)
    x = np.where(np.isfinite(x), x, X_MAX)
    return np.clip(x, -X_MAX, X_MAX)


def reactance_to_theta(x: np.ndarray, R: float) -> np.ndarray:
    """Reflection coefficients theta = (j x - R)/(j x + R) of reactive loads."""
    x = np.asarray(x, dtype=float)
    return (1j * x - R) / (1j * x + R)


def closed_form_siso(eff: EffectiveChannel) -> SisoSolution:
    """Globally optimal SISO channel gain of the uncoupled-equivalent model.

    Phase alignment: every reflected term is rotated onto the phase of the
    composite direct term z_DS - (1/2R) z_DR'^T z_RS' (reference phase 0 when
    that term vanishes).
    """
    if eff.z_ds.shape != (1, 1):
        raise InvalidArgumentError("closed_form_siso requires K = M = 1")
    zdr = eff.z_dr_eff[0, :]
    zrs = eff.z_rs_eff[:, 0]
    prod = zdr * zrs
    direct = complex(eff.z_ds[0, 0]) - prod.sum() / (2.0 * eff.R)
    amp = abs(direct) + np.abs(prod).sum() / (2.0 * eff.R)
    ref = np.angle(direct) if direct != 0 else 0.0
    theta = np.exp(1j * (ref - np.angle(prod)))
    return SisoSolution(gain=float(amp**2), theta=theta, x=theta_to_reactance(theta, eff.R))


def lossy_coupling(c_r: np.ndarray, gamma: float) -> np.ndarray:
    """Add the Ohmic dissipation ratio to the normalized coupling matrix: C + gamma I."""
    if gamma < 0:
        raise InvalidArgumentError("gamma must be nonnegative")
    c_r = np.asarray(c_r, dtype=float)
    return c_r + gamma * np.eye(c_r.shape[0])


def _normalized_coupling(n: int, spacing: float, gamma_loss: float, allow_small_spacing: bool) -> np.ndarray:
    if spacing < MIN_SPACING and not allow_small_spacing:
        raise InvalidArgumentError(
            f"spacing {spacing} below {MIN_SPACING}: coupling matrix too ill-conditioned "
            "(pass allow_small_spacing=True to override)"
        )
    c = build_coupling_matrix(n, spacing, 1.0).real
    return lossy_coupling(c, gamma_loss)


def array_gain(s: Scenario, allow_small_spacing: bool = False) -> float:
    """Channel gain of the decoupled closed form, normalized by the single-element gain.

    A = 1/4 (|a_DR^T C^{-1} a_RS| + sum_n |a_DR^T C^{-1/2} e_n| |e_n^T C^{-1/2} a_RS|)^2
    with C = Re(Z_R)/R (+ gamma I under Ohmic loss).
    """
    c = _normalized_coupling(s.n, s.spacing, s.gamma_loss, allow_small_spacing)
    a_dr = steering_vector(s.n, s.spacing, s.alpha_rx)
    a_rs = steering_vector(s.n, s.spacing, s.alpha_tx)
    c_mh = psd_inv_sqrt(c)
    u = a_dr @ c_mh
    v = c_mh @ a_rs
    t_coh = abs(u @ v)
    t_sum = float(np.abs(u) @ np.abs(v))
    return (t_coh + t_sum) ** 2 / 4.0


def front_fire_gain(n: int, spacing: float, gamma_loss: float = 0.0,
                    allow_small_spacing: bool = False) -> float:
    """(1^T C^{-1} 1)^2: square of the conventional broadside transmit array gain."""
    c = _normalized_coupling(n, spacing, gamma_loss, allow_small_spacing)
    c_mh = psd_inv_sqrt(c)
    ones = np.ones(n)
    v = c_mh @ ones
    return float(v @ v) ** 2


def end_fire_gain(n: int, spacing: float, gamma_loss: float = 0.0,
                  allow_small_spacing: bool = False) -> float:
    """(a0^H C^{-1} a0)^2; approaches N^4 for lossless arrays as spacing -> 0."""
    c = _normalized_coupling(n, spacing, gamma_loss, allow_small_spacing)
    a0 = steering_vector(n, spacing, 0.0)
    c_mh = psd_inv_sqrt(c)
    v = c_mh @ a0
    return float(np.real(v.conj() @ v)) ** 2
