"""Reference methods: naive optimizer, exhaustive grid oracle, and the two
no-coupling comparison baselines used in the experiment sweeps."""

from __future__ import annotations

import enum

import numpy as np

from .channel import ArrayFactors, ImpedanceChannel, RisState, Scenario, steering_vector
from .elementwise import (
    OptimizeResult,
    OptimizerConfig,
    coordinate_ascent,
    reinvert_update,
)
from .decoupling import _decoupled_siso
from .errors import InvalidArgumentError


class MethodId(str, enum.Enum):
    DECOUPLED = "Decoupled"
    ELEMENT_WISE = "ElementWise"
    ELEMENT_WISE_NAIVE = "ElementWiseNaive"
    NO_COUPLING = "NoCoupling"
    IGNORE_MC = "IgnoreMC"
    GRID_ORACLE = "GridOracle"


def naive_elementwise(ch: ImpedanceChannel, x0: RisState,
                      cfg: OptimizerConfig | None = None) -> OptimizeResult:
    """Element-wise optimizer that re-inverts the loading matrix at every update.

    O(N^4) per sweep.  It runs the sweep loop of optimize, acceleration step
    included, with dense re-inversion in place of the rank-one update, so it
    has the same contract and the same trajectory up to roundoff (which the
    acceleration step can amplify on badly conditioned runs); it is the
    trajectory oracle for the rank-one bookkeeping, under either objective.
    """
    return coordinate_ascent(ch, x0, cfg or OptimizerConfig(), reinvert_update)


def grid_search_phase(ch: ImpedanceChannel) -> float:
    """Exhaustive SISO gain maximum of ch behind its power-matching network,
    over a uniform per-element phase grid in the decoupled model.

    Lower bound on the true optimum within grid resolution.  Refused for
    N > 3 (the grid is exponential in N).  The grid has 3600 points per
    element for N = 1, 72 otherwise.
    """
    n = ch.n
    if n > 3:
        raise InvalidArgumentError(f"full phase grid refused for N = {n} > 3")
    points = 3600 if n == 1 else 72
    direct, prod = _decoupled_siso(ch)
    prod = prod / (2.0 * ch.R)
    phases = np.exp(2j * np.pi * np.arange(points) / points)
    z = np.full((points,) * n, direct, dtype=complex)
    for i in range(n):
        shape = [1] * n
        shape[i] = points
        z = z + prod[i] * phases.reshape(shape)
    return float(np.max(np.abs(z) ** 2))


def no_coupling_gain(s: Scenario) -> float:
    """Array gain of the purely theoretical model with Z_R = R I (no coupling, no loss)."""
    a_dr = steering_vector(s.n, s.spacing, s.alpha_rx)
    a_rs = steering_vector(s.n, s.spacing, s.alpha_tx)
    return float(abs(a_dr @ a_rs) + s.n) ** 2 / 4.0


def ignore_mc_gain(s: Scenario) -> float:
    """Array gain when the no-coupling solution (x = 0, i.e. Theta' = -I) is applied blindly
    to the true coupled channel: |R a_DR^T Z_R^{-1} a_RS|^2, Z_R being the loading matrix at
    x = 0, its inverse read from the array's factors (ArrayFactors.of)."""
    a_dr = steering_vector(s.n, s.spacing, s.alpha_rx)
    a_rs = steering_vector(s.n, s.spacing, s.alpha_tx)
    return float(abs(s.R * (a_dr @ ArrayFactors.of(s).inverse @ a_rs))) ** 2
