"""Checks of the program's outputs against computations made here.

Nothing in this module calls the package: channels, inverses, objectives and
reference gains are recomputed with numpy from their formulas.  Each check
returns None when the output passes and a one-line reason when it does not.
"""

from __future__ import annotations

import math

import numpy as np

# C07's slack: a trace entry may sit below its predecessor by 1e-12 relative.
MONOTONE_SLACK = 1e-12
# C06: rank-one and dense-reinversion traces agree to 1e-9 relative.
ORACLE_RTOL = 1e-9
# The reported final objective against a dense evaluation at the returned state.
DENSE_RTOL = 1e-9
# Decoupled rows against the extended-precision reference.  Rows computed
# without dropped modes agree to 5.2e-6 or better; rows that lose modes in the
# pseudo-inverse square root are 21% to 76% low at N <= 16 and 11% to 99%
# low at N = 32.
DECOUPLED_RTOL = 1e-4
# Closed forms recomputed here in double precision.  Gains that cancel to
# roundoff (IgnoreMC at corner, d = 0.5, reads about 1e-27) are compared
# with an absolute floor far below any gain a figure plots.
CLOSED_FORM_RTOL = 1e-9
CLOSED_FORM_ATOL = 1e-20
# IgnoreMC is compared with a dense solve only where cond(Z_R) keeps the
# roundoff of either solve far below the tolerance.
IGNORE_MC_MAX_COND = 1e6
# A converged state is a coordinate-wise maximum: no single-element reactance
# on the grid may beat it by more than this (relative).
GRID_RTOL = 1e-8
GRID_POINTS = 2001


# --- model, rebuilt from its formulas ------------------------------------


def coupling_matrix(n: int, spacing: float, r: float) -> np.ndarray:
    """Z_R of an isotropic ULA: R (sin u + j cos u) / u off the diagonal, R on it."""
    k = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
    u = 2.0 * np.pi * spacing * np.where(k == 0, 1, k)
    z = r * (np.sin(u) + 1j * np.cos(u)) / u
    np.fill_diagonal(z, r)
    return z


def steering(n: int, spacing: float, alpha: float) -> np.ndarray:
    return np.exp(-1j * 2.0 * np.pi * spacing * math.cos(alpha) * np.arange(n))


def siso_blocks(s) -> dict:
    """Impedance blocks and the single-element gain of a SISO line scenario."""
    z_r = coupling_matrix(s.n, s.spacing, s.R) + s.gamma_loss * s.R * np.eye(s.n)
    return {
        "z_ds": np.zeros((1, 1), dtype=complex),
        "z_dr": math.sqrt(s.gamma_dr) * s.R * steering(s.n, s.spacing, s.alpha_rx)[None, :],
        "z_rs": math.sqrt(s.gamma_rs) * s.R * steering(s.n, s.spacing, s.alpha_tx)[:, None],
        "z_r": z_r,
        "norm": s.gamma_dr * s.gamma_rs * s.R**2,
    }


def channel(b: dict, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """End-to-end channel and the inverse loading matrix at reactances x."""
    g = np.linalg.inv(b["z_r"] + 1j * np.diag(x))
    return b["z_ds"] - b["z_dr"] @ g @ b["z_rs"], g


def siso_value(z: np.ndarray) -> float:
    return float(abs(z[0, 0]) ** 2)


def se_value(z: np.ndarray) -> float:
    """log2 det(I + Z Z^H), also for a stack of channels."""
    k = z.shape[-2]
    _, logdet = np.linalg.slogdet(np.eye(k) + z @ np.conj(np.swapaxes(z, -1, -2)))
    return logdet / math.log(2.0)


# --- optimizer outputs ---------------------------------------------------


def monotone(trace: np.ndarray) -> str | None:
    slack = MONOTONE_SLACK * np.maximum(1.0, np.abs(trace[:-1]))
    drops = np.flatnonzero(np.diff(trace) < -slack)
    if drops.size:
        i = int(drops[0])
        return (f"trace drops by {(trace[i] - trace[i + 1]) / abs(trace[i]):.1e} relative "
                f"at entry {i + 1}, beyond the 1e-12 slack")
    return None


def traces_agree(fast: np.ndarray, dense: np.ndarray) -> str | None:
    """C06: the rank-one trace follows the dense-reinversion trace to 1e-9."""
    if fast.size != dense.size:
        return f"rank-one and dense traces have {fast.size} and {dense.size} entries"
    worst = float(np.max(np.abs(fast - dense) / np.maximum(np.abs(dense), 1e-300)))
    if worst > ORACLE_RTOL:
        return f"rank-one and dense traces differ by {worst:.1e} relative (C06 allows 1e-9)"
    return None


def final_matches_state(reported: float, b: dict, x: np.ndarray, se: bool) -> str | None:
    z, _ = channel(b, x)
    value = se_value(z) if se else siso_value(z)
    if abs(reported - value) > DENSE_RTOL * abs(value):
        return (f"final objective {reported!r} is not the objective at the returned "
                f"reactances ({value!r})")
    return None


def start_not_beaten(trace: np.ndarray, b: dict, se: bool) -> str | None:
    z, _ = channel(b, np.zeros(b["z_r"].shape[0]))
    start = se_value(z) if se else siso_value(z)
    if abs(trace[0] - start) > DENSE_RTOL * abs(start):
        return f"trace starts at {trace[0]!r}, not at the x = 0 objective {start!r}"
    if trace[-1] < start * (1.0 - MONOTONE_SLACK):
        return f"final objective {trace[-1]!r} is below the x = 0 start {start!r}"
    return None


def honest_convergence(converged: bool, sweeps: int, max_sweeps: int) -> str | None:
    if converged and sweeps >= max_sweeps:
        return f"reported converged after {sweeps} sweeps, at the {max_sweeps}-sweep cap"
    if not converged and sweeps != max_sweeps:
        return f"reported not converged after {sweeps} of {max_sweeps} sweeps"
    return None


def grid_excess(b: dict, x: np.ndarray, se: bool) -> float:
    """Largest relative gain any single-element reactance on the grid offers at x.

    Changing x_n by delta changes the inverse by Sherman-Morrison, so the
    channel moves along z + c(delta) u_n v_n^T with c = j delta / (1 + j delta G_nn).
    The grid is uniform in arctan(x/R) and includes the open circuit.
    """
    z, g = channel(b, x)
    base = se_value(z) if se else siso_value(z)
    r = float(np.real(b["z_r"][0, 0]))
    targets = r * np.tan(np.linspace(-np.pi / 2, np.pi / 2, GRID_POINTS)[1:-1])
    u_all = b["z_dr"] @ g            # K x N
    v_all = g @ b["z_rs"]            # N x M
    best = base
    for n in range(x.size):
        delta = targets - x[n]
        c = 1j * delta / (1.0 + 1j * delta * g[n, n])
        c = np.append(c, 1.0 / g[n, n])                 # open circuit, delta -> inf
        zz = z[None] + c[:, None, None] * np.outer(u_all[:, n], v_all[n])[None]
        vals = se_value(zz) if se else np.abs(zz[:, 0, 0]) ** 2
        best = max(best, float(np.max(vals)))
    return (best - base) / abs(base)


def coordinate_optimal(b: dict, x: np.ndarray, se: bool) -> str | None:
    excess = grid_excess(b, x, se)
    if excess > GRID_RTOL:
        return f"converged state is beaten by a single-element grid point by {excess:.1e} relative"
    return None


# --- closed-form rows ----------------------------------------------------


def no_coupling_gain(n: int, spacing: float, alpha_tx: float, alpha_rx: float) -> float:
    s = abs(steering(n, spacing, alpha_rx) @ steering(n, spacing, alpha_tx))
    return (s + n) ** 2 / 4.0


def ignore_mc_gain(scn) -> tuple[float, float]:
    """IgnoreMC gain by a dense solve, and cond(Z_R)."""
    b = siso_blocks(scn)
    z, _ = channel(b, np.zeros(scn.n))
    return siso_value(z) / b["norm"], float(np.linalg.cond(b["z_r"]))


def close(value: float, ref: float, rtol: float, what: str, atol: float = 0.0) -> str | None:
    if abs(value - ref) <= rtol * abs(ref) + atol:
        return None
    return f"{what}: {value!r} against {ref!r} (differ by {abs(value - ref):.1e}, allowed {rtol:.0e} relative)"
