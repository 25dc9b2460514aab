"""Power-matching decoupling network, the decoupled channel model, and array gains.

Inserting a lossless reciprocal 2N-port between the RIS array and its loads
turns the coupled loading matrix into R I + j diag(x'), so every no-coupling
solution carries over.  The decoupled model is itself an ImpedanceChannel,
with Z_R = R I and whitened RIS-side blocks (effective_channel), so
evaluate_channel serves it at the transformed loads x'.  For SISO links the
optimal loading then follows from phase alignment in closed form, which is
what makes the array-gain analysis analytic; it needs only the whitened links.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import (
    PI_DEAD_ZONE,
    X_MAX,
    ArrayFactors,
    ImpedanceChannel,
    RisState,
    Scenario,
    _real,
    _symmetric,
    checked_inverse,
    loading_matrix,
    psd_inv_sqrt,
    psd_sqrt,
    steering_vector,
)
from .errors import InvalidArgumentError, NumericallySingularError

# Below this element spacing the normalized coupling matrix is so close to
# singular that gains depend on the pseudo-inversion floor; array_gain refuses,
# closed_form_siso does not check.
MIN_SPACING = 0.02


@dataclass(frozen=True)
class DecouplingNetwork:
    """Impedance blocks of a reciprocal lossless 2N-port: [[z11, z12], [z12^T, z22]].

    z11 and z22 are stored exactly symmetric (channel._symmetric, at 1e-9 of the blocks' scale)."""

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
        if not all(np.isfinite(b).all() for b in (self.z11, self.z12, self.z22)):
            raise InvalidArgumentError("network blocks must be finite")
        scale = max(max(np.abs(b).max() for b in (self.z11, self.z12, self.z22)), 1.0)
        if max(np.abs(b.real).max() for b in (self.z11, self.z12, self.z22)) > 1e-9 * scale:
            raise InvalidArgumentError("network must be lossless: all blocks purely imaginary")
        for name in ("z11", "z22"):
            object.__setattr__(self, name, _symmetric(
                getattr(self, name), 1e-9, "network must be reciprocal: z11, z22 symmetric", scale))

    @property
    def n(self) -> int:
        return self.z11.shape[0]

    def full_matrix(self) -> np.ndarray:
        """The symmetric 2N x 2N impedance matrix of the network."""
        return np.block([[self.z11, self.z12], [self.z12.T, self.z22]])


class SisoSolution(NamedTuple):
    gain: float
    theta: np.ndarray   # unit-modulus per-element reflection coefficients
    x: np.ndarray       # load reactances x' of the decoupled model


def power_matching_network(z_r: np.ndarray, R: float) -> DecouplingNetwork:
    """Decoupling network that whitens Re(Z_R) and cancels Im(Z_R).

    z11 = 0, z12 = -j sqrt(R) Re(Z_R)^{1/2}, z22 = -j Im(Z_R).
    """
    z_r = np.asarray(z_r, dtype=complex)
    if not (0.0 < R < math.inf and np.isfinite(z_r).all()):
        raise InvalidArgumentError("z_r must be finite and R positive and finite")
    sq = psd_sqrt(z_r.real)
    n = z_r.shape[0]
    return DecouplingNetwork(
        z11=np.zeros((n, n), dtype=complex),
        z12=-1j * math.sqrt(R) * sq,
        z22=-1j * z_r.imag.astype(complex),
    )


def transformed_load(net: DecouplingNetwork, state: RisState) -> np.ndarray:
    """Load seen by the array through the network: z22 - z12^T (z11 + j diag(x))^{-1} z12.

    z11 + j diag(x) is refused like every RIS loading matrix: a state of the
    wrong length, and a singular or ill-conditioned load (as at x_n = 0 when
    z11 = 0).
    """
    return net.z22 - net.z12.T @ checked_inverse(loading_matrix(net.z11, state.x))[0] @ net.z12


def reactance_transform(x: np.ndarray, R: float) -> np.ndarray:
    """x' = -R^2 / x, the load the network presents for each element reactance."""
    x = _real(x, "reactances")
    if not np.isfinite(x).all():
        raise InvalidArgumentError("reactances must be finite")
    zeros = np.flatnonzero(x == 0.0)
    if zeros.size:
        raise NumericallySingularError(f"zero reactance at index {zeros[0]}", condition=math.inf)
    return -R**2 / x


def effective_channel(ch: ImpedanceChannel) -> ImpedanceChannel:
    """Decoupled model of ch: Z_R = R I, blocks Z_DR W and W Z_RS with W = sqrt(R) Re(Z_R)^{-1/2}.

    At loads x' = reactance_transform(x, R) it gives the channel of ch behind
    its power-matching network at loads x.
    """
    return ImpedanceChannel(ch.z_ds, *_whitened(ch), ch.R * np.eye(ch.n), ch.R)


def _whitened(ch: ImpedanceChannel) -> tuple[np.ndarray, np.ndarray]:
    """Z_DR W and W Z_RS, W = sqrt(R) Re(Z_R)^{-1/2} of ch's own Z_R."""
    inv_sq = psd_inv_sqrt(ch.z_r.real)
    root_r = math.sqrt(ch.R)
    return ch.z_dr @ inv_sq * root_r, root_r * inv_sq @ ch.z_rs


def _decoupled_siso(ch: ImpedanceChannel) -> tuple[complex, np.ndarray]:
    """effective_channel(ch)'s SISO terms from its whitened links alone: the direct
    term z_DS - sum(prod)/(2R) and the reflected products prod = (Z_DR W) o (W Z_RS)."""
    if ch.z_ds.shape != (1, 1):
        raise InvalidArgumentError("the decoupled closed forms require K = M = 1")
    z_dr, z_rs = _whitened(ch)
    prod = z_dr[0, :] * z_rs[:, 0]
    return complex(ch.z_ds[0, 0]) - prod.sum() / (2.0 * ch.R), prod


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
    x = _real(x, "reactances")
    return (1j * x - R) / (1j * x + R)


def closed_form_siso(ch: ImpedanceChannel) -> SisoSolution:
    """Globally optimal SISO channel gain of ch behind its power-matching network.

    Phase alignment in the decoupled model effective_channel(ch): every
    reflected term is rotated onto the phase of the composite direct term
    z_DS - (1/2R) z_DR'^T z_RS' (reference phase 0 when that term vanishes).
    SisoSolution.x holds the loads x' of that model.
    """
    direct, prod = _decoupled_siso(ch)
    amp = abs(direct) + np.abs(prod).sum() / (2.0 * ch.R)
    ref = np.angle(direct) if direct != 0 else 0.0
    theta = np.exp(1j * (ref - np.angle(prod)))
    return SisoSolution(gain=float(amp**2), theta=theta, x=theta_to_reactance(theta, ch.R))


def array_gain(s: Scenario) -> float:
    """Decoupled channel gain of the LOS scenario, normalized by the single-element gain.

    A = 1/4 (|sum_n p_n| + sum_n |p_n|)^2 with p = (a_DR^T C^{-1/2}) o (C^{-1/2} a_RS) and
    C = Re(Z_R)/R (+ gamma I under Ohmic loss), closed_form_siso's gain normalized.  With
    V = Re(Z_R)^{-1/2} from the array's factors (ArrayFactors.of), p = R (a_DR^T V) o (V a_RS).
    """
    if s.spacing < MIN_SPACING:
        raise InvalidArgumentError(
            f"spacing {s.spacing} below {MIN_SPACING}: coupling matrix too ill-conditioned "
            "(closed_form_siso does not check)"
        )
    v = ArrayFactors.of(s).re_inv_sqrt
    a_dr = steering_vector(s.n, s.spacing, s.alpha_rx)
    a_rs = steering_vector(s.n, s.spacing, s.alpha_tx)
    p = (a_dr @ v) * (v @ a_rs) * s.R
    return float(abs(p.sum()) + np.abs(p).sum()) ** 2 / 4.0
