"""Reference methods: naive optimizer, exhaustive grid oracle, and the two
no-coupling comparison baselines used in the experiment sweeps."""

from __future__ import annotations

import enum

import numpy as np

from .channel import (
    ImpedanceChannel,
    RisState,
    Scenario,
    build_los_scenario,
    channel_gain,
    evaluate_channel,
    steering_vector,
)
from .elementwise import (
    SISO_GAIN,
    OptimizeResult,
    OptimizerConfig,
    RankOneContext,
    coordinate_ascent,
    refactor,
)
from .decoupling import EffectiveChannel
from .errors import InvalidArgumentError


class MethodId(str, enum.Enum):
    DECOUPLED = "Decoupled"
    ELEMENT_WISE = "ElementWise"
    ELEMENT_WISE_NAIVE = "ElementWiseNaive"
    NO_COUPLING = "NoCoupling"
    IGNORE_MC = "IgnoreMC"
    GRID_ORACLE = "GridOracle"


def _reinvert_update(ctx: RankOneContext, n: int, dx: float) -> None:
    """x_n += dx followed by a dense re-inversion of the loading matrix. O(N^3)."""
    ctx.x[n] += dx
    refactor(ctx)


def naive_elementwise(ch: ImpedanceChannel, x0: RisState,
                      cfg: OptimizerConfig | None = None) -> OptimizeResult:
    """Element-wise optimizer that re-inverts the loading matrix at every update.

    O(N^4) per sweep.  It runs the sweep loop of optimize, acceleration step
    included, with dense re-inversion in place of the rank-one update, so it
    has the same contract and the same trajectory up to roundoff (which the
    acceleration step can amplify on badly conditioned runs); it is the
    trajectory oracle for the rank-one bookkeeping.
    """
    cfg = cfg or OptimizerConfig()
    if cfg.objective != SISO_GAIN:
        raise InvalidArgumentError("naive reference implements the siso_gain objective only")
    return coordinate_ascent(ch, x0, cfg, _reinvert_update)


def grid_search_phase(eff: EffectiveChannel) -> float:
    """Exhaustive SISO gain maximum over a uniform per-element phase grid.

    Lower bound on the true optimum within grid resolution.  Refused for
    N > 3 (the grid is exponential in N).  The grid has 3600 points per
    element for N = 1, 72 otherwise.
    """
    n = eff.n
    if n > 3:
        raise InvalidArgumentError(f"full phase grid refused for N = {n} > 3")
    if eff.z_ds.shape != (1, 1):
        raise InvalidArgumentError("grid search is SISO only")
    points = 3600 if n == 1 else 72
    zdr = eff.z_dr_eff[0, :]
    zrs = eff.z_rs_eff[:, 0]
    prod = zdr * zrs / (2.0 * eff.R)
    direct = complex(eff.z_ds[0, 0]) - prod.sum()
    phases = np.exp(2j * np.pi * np.arange(points) / points)
    z = np.full((points,) * n, direct, dtype=complex)
    for i in range(n):
        shape = [1] * n
        shape[i] = points
        z = z + prod[i] * phases.reshape(shape)
    return float(np.max(np.abs(z) ** 2))


def single_element_gain(s: Scenario) -> float:
    """Normalization constant of the array gain: SISO gain of one lossless element."""
    return s.gamma_dr * s.gamma_rs * s.R**2


def no_coupling_gain(s: Scenario) -> float:
    """Array gain of the purely theoretical model with Z_R = R I (no coupling, no loss)."""
    a_dr = steering_vector(s.n, s.spacing, s.alpha_rx)
    a_rs = steering_vector(s.n, s.spacing, s.alpha_tx)
    return float(abs(a_dr @ a_rs) + s.n) ** 2 / 4.0


def ignore_mc_gain(s: Scenario) -> float:
    """Array gain when the no-coupling solution (x = 0, i.e. Theta' = -I) is
    applied blindly to the true coupled channel."""
    ch = build_los_scenario(s)
    z = evaluate_channel(ch, RisState.zeros(s.n))
    return channel_gain(z) / single_element_gain(s)
