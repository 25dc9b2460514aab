"""Coordinate-descent reactance optimizer with cached rank-one inverse updates.

Each element update is a closed-form maximizer of the objective given all
other reactances fixed.  The inverse of the loading matrix is maintained by
the matrix inversion lemma, so one full sweep over N elements costs O(N^3)
instead of the O(N^4) of dense re-inversion per element.

For the SISO objective, coordinate ascent can crawl for thousands of sweeps
along narrow curved ridges of |z|^2.  Once it has settled into such slow
convergence, each sweep ends with a safeguarded trust-region step built from
the analytic gradient and Hessian (see siso_derivatives).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .channel import (
    ImpedanceChannel,
    RisState,
    channel_gain,
    checked_inverse,
    loading_matrix,
    spectral_efficiency,
)
from .errors import (
    ChangeOfVariablesError,
    DegenerateUpdateError,
    InvalidArgumentError,
    NumericallySingularError,
)

# Reactance clamp used when the phase-to-reactance map hits its pole.
X_MAX = 1e9

# Phases within this distance of pi (theta at or near -1) map to a zero
# reactance or reactance step: 1e-15 absolute plus 1e-5 relative to pi.
PI_DEAD_ZONE = 1e-15 + 1e-5 * math.pi

# Acceleration of the SISO sweep.  It engages once coordinate ascent has spent
# ACCEL_WINDOW consecutive sweeps in slow geometric convergence, each sweep
# gaining between ACCEL_RATIO and 1 times what the sweep before it gained.
# Until then coordinate ascent alone picks the local maximum it heads for.
# Hessian eigenvalues below -ACCEL_STIFF times the largest magnitude count as
# the strongly curved directions across a ridge.
ACCEL_WINDOW = 30
ACCEL_RATIO = 0.9
ACCEL_STIFF = 1e-2

SISO_GAIN = "siso_gain"
SPECTRAL_EFFICIENCY = "spectral_efficiency"


@dataclass
class OptimizerConfig:
    max_sweeps: int = 500
    tol: float = 1e-10
    refactor_every: int = 10
    objective: str = SISO_GAIN

    def __post_init__(self):
        if self.max_sweeps < 1 or self.refactor_every < 1:
            raise InvalidArgumentError("max_sweeps and refactor_every must be >= 1")
        if self.tol < 0:
            raise InvalidArgumentError("tol must be nonnegative")
        if self.objective not in (SISO_GAIN, SPECTRAL_EFFICIENCY):
            raise InvalidArgumentError(f"unknown objective {self.objective!r}")


@dataclass
class RankOneContext:
    """Cached inverse of the loading matrix and the current channel.

    z_inv tracks (Z_R + j diag(x))^{-1}; z_bar the corresponding end-to-end
    channel.  Both are kept in sync by apply_update.
    """

    ch: ImpedanceChannel
    z_inv: np.ndarray
    z_bar: np.ndarray
    x: np.ndarray


class ElementParams(NamedTuple):
    """Per-element update parameters: Z = Z0 + a b^H theta over unit-modulus theta."""

    a: np.ndarray       # K-vector, Z_DR zinv e_n
    b: np.ndarray       # M-vector, already scaled by 1/(2 Re g)
    g: complex          # [zinv]_nn
    z0: np.ndarray      # K x M


class ThetaResult(NamedTuple):
    theta: complex
    value: float        # achievable objective (amplitude |z| for SISO, SE in bits)
    no_effect: bool


def init_context(ch: ImpedanceChannel, state: RisState) -> RankOneContext:
    """Dense-inverse initialization of the update cache."""
    z_inv = checked_inverse(loading_matrix(ch, state))
    z_bar = ch.z_ds - ch.z_dr @ z_inv @ ch.z_rs
    return RankOneContext(ch=ch, z_inv=z_inv, z_bar=z_bar, x=state.x.copy())


def element_params(ctx: RankOneContext, n: int) -> ElementParams:
    """Parameters of the rank-one channel parametrization for element n.

    Costs O(N max(M, K)) given the cached inverse; no matrix inversion.
    Raises ChangeOfVariablesError when Re(g) <= 0, where the phase change of
    variables is undefined.
    """
    a = ctx.ch.z_dr @ ctx.z_inv[:, n]
    b_prime_h = ctx.z_inv[n, :] @ ctx.ch.z_rs   # row vector e_n^T zinv Z_RS
    g = complex(ctx.z_inv[n, n])
    if g.real <= 0.0:
        raise ChangeOfVariablesError(
            f"Re(g) = {g.real:.3e} <= 0 for element {n}; phase parametrization undefined"
        )
    b = b_prime_h.conj() / (2.0 * g.real)
    z0 = ctx.z_bar + np.outer(a, b.conj())
    return ElementParams(a=a, b=b, g=g, z0=z0)


def optimal_theta_siso(z0: complex, a: complex, b: complex) -> ThetaResult:
    """Unit-modulus theta maximizing |z0 + a conj(b) theta| (scalars only)."""
    if a == 0 or b == 0:
        return ThetaResult(1.0 + 0.0j, abs(z0), True)
    phi = np.angle(z0) + np.angle(b) - np.angle(a)
    return ThetaResult(complex(np.exp(1j * phi)), abs(z0) + abs(a) * abs(b), False)


def gram_factors(p: ElementParams) -> tuple[np.ndarray, np.ndarray]:
    """A = I + Z0 (I - b b^H/|b|^2) Z0^H and F = [a |b|, Z0 b/|b|].

    Z Z^H = (A - I) + F thetabar thetabar^H F^H with thetabar = [theta, 1]^T.
    """
    bnorm = np.linalg.norm(p.b)
    if bnorm == 0:
        raise InvalidArgumentError("b = 0: element has no effect, Gram split undefined")
    bu = p.b / bnorm
    k = p.z0.shape[0]
    proj = p.z0 @ (np.eye(p.b.size) - np.outer(bu, bu.conj())) @ p.z0.conj().T
    a_mat = np.eye(k) + proj
    f = np.column_stack([p.a * bnorm, p.z0 @ bu])
    return a_mat, f


def optimal_theta_se(a_mat: np.ndarray, f: np.ndarray) -> ThetaResult:
    """Unit-modulus theta maximizing log2 det(A + F thetabar thetabar^H F^H)."""
    c = f.conj().T @ np.linalg.solve(a_mat, f)
    c12 = complex(c[0, 1])
    sign, logdet = np.linalg.slogdet(a_mat)
    base = logdet / math.log(2.0)
    if abs(c12) == 0.0:
        se = base + math.log2(1.0 + c[0, 0].real + c[1, 1].real)
        return ThetaResult(1.0 + 0.0j, float(se), True)
    theta = c12 / abs(c12)
    se = base + math.log2(1.0 + c[0, 0].real + c[1, 1].real + 2.0 * abs(c12))
    return ThetaResult(complex(theta), float(se), False)


def theta_to_delta_x(theta: complex, g: complex) -> tuple[float, bool]:
    """Recover the reactance step from the optimal phase.

    Returns (delta_x, saturated).  Phases within PI_DEAD_ZONE of pi (theta near
    -1) map to delta_x = 0, leaving the channel unchanged; a vanishing denominator
    means the optimum sits at the open-circuit limit and is clamped to +-X_MAX.
    """
    phi = float(np.angle(theta))
    if math.pi - abs(phi) <= PI_DEAD_ZONE:
        return 0.0, False
    denom = g.real * math.tan(phi / 2.0) + g.imag
    if denom == 0.0:
        return X_MAX, True
    dx = 1.0 / denom
    if abs(dx) > X_MAX:
        return math.copysign(X_MAX, dx), True
    return dx, False


def apply_update(ctx: RankOneContext, n: int, dx: float) -> None:
    """Rank-one update of the cached inverse and channel after x_n += dx. O(N^2)."""
    if dx == 0.0:
        return
    g = ctx.z_inv[n, n]
    denom = 1.0 + 1j * dx * g
    if abs(denom) < 1e-14:
        raise DegenerateUpdateError(
            f"rank-one denominator |1 + j dx g| = {abs(denom):.3e} for element {n}"
        )
    factor = 1j * dx / denom
    col = ctx.z_inv[:, n].copy()
    row = ctx.z_inv[n, :].copy()
    a = ctx.ch.z_dr @ col
    b_prime_h = row @ ctx.ch.z_rs
    ctx.z_inv -= factor * np.outer(col, row)
    ctx.z_bar = ctx.z_bar + factor * np.outer(a, b_prime_h)
    ctx.x[n] += dx


def refactor(ctx: RankOneContext) -> None:
    """Dense re-inversion to contain rank-one roundoff drift."""
    fresh = init_context(ctx.ch, RisState(ctx.x))
    ctx.z_inv = fresh.z_inv
    ctx.z_bar = fresh.z_bar


@dataclass
class OptimizeResult:
    """Outcome of a sweep run.

    trace holds the start value, then the objective after each element update
    and after each accepted acceleration step.  sweep_ends[k] indexes the
    trace entry that closes sweep k.
    """

    state: RisState
    trace: np.ndarray
    sweep_ends: np.ndarray
    sweeps: int
    converged: bool
    saturation_events: int = 0


def _objective(cfg: OptimizerConfig, z: np.ndarray) -> float:
    if cfg.objective == SISO_GAIN:
        return channel_gain(z)
    return spectral_efficiency(z)


def siso_derivatives(ctx: RankOneContext) -> tuple[np.ndarray, np.ndarray]:
    """Gradient and Hessian of |z|^2 with respect to the reactances x.

    With G = (Z_R + j diag x)^{-1}, u = z_DR G and v = G z_RS (G is symmetric
    because Z_R is): dz/dx_n = j u_n v_n and d2z/dx_m dx_n = G_mn (u_m v_n + u_n v_m).
    O(N^2) given the cached inverse.
    """
    g_inv = ctx.z_inv
    u = ctx.ch.z_dr[0] @ g_inv
    v = g_inv @ ctx.ch.z_rs[:, 0]
    z = complex(ctx.z_bar[0, 0])
    dz = 1j * u * v
    d2z = g_inv * (np.outer(u, v) + np.outer(v, u))
    grad = 2.0 * np.real(z.conjugate() * dz)
    hess = 2.0 * np.real(z.conjugate() * d2z + np.outer(dz, dz.conj()))
    return grad, hess


def trust_region_step(grad: np.ndarray, hess: np.ndarray, radius: float) -> np.ndarray:
    """Maximizer of grad.s + s.hess.s/2 over |s| <= radius.

    The Newton step when hess is negative definite and the step fits; otherwise
    the boundary solution s = (mu I - hess)^{-1} grad, with the shift mu found
    by bisection in the eigenbasis of hess.
    """
    w, v = np.linalg.eigh(hess)
    gt = v.T @ grad
    if w[-1] < 0.0:
        s = -gt / w
        if np.linalg.norm(s) <= radius:
            return v @ s
    lo = max(w[-1], 0.0)
    hi = lo + np.linalg.norm(gt) / radius + np.abs(w).max()   # |s(hi)| <= radius
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if np.linalg.norm(gt / (mid - w)) > radius:
            lo = mid
        else:
            hi = mid
    return v @ (gt / (hi - w))


class _SisoAccelerator:
    """End-of-sweep trust-region step on |z|^2 in the phase-like variables y = arctan(x/R).

    Works in y rather than x because elements drift toward open circuit
    (|x| -> inf), where |z|^2 is smooth in y but flat in x.  Slow sweeps crawl
    along narrow curved ridges, so the step runs from crest to crest: a Newton
    step along the strongly curved directions moves the point onto the crest,
    the trust-region step is taken from there, and its end point is moved back
    onto the crest before it is judged.  Stepping from the crest keeps the
    step from amplifying how far off the crest the sweep ended (and with it
    the roundoff that tells the rank-one and dense backends apart).  A step is
    kept only if it does not lower the objective, so the trace stays monotone.
    """

    def __init__(self):
        self.radius: float | None = None     # trust radius in y, set on engaging
        self.slow_sweeps = 0
        self.last_y: np.ndarray | None = None
        self.last_gain = 0.0

    def _derivatives(self, ctx: RankOneContext) -> tuple[np.ndarray, np.ndarray]:
        r = ctx.ch.R
        grad, hess = siso_derivatives(ctx)
        jac = r + ctx.x**2 / r                           # dx/dy
        hess_y = jac[:, None] * hess * jac[None, :] + np.diag(grad * 2.0 * ctx.x * jac / r)
        return jac * grad, hess_y

    def _context(self, ch: ImpedanceChannel, y: np.ndarray) -> RankOneContext:
        x = np.clip(ch.R * np.tan(y), -X_MAX, X_MAX)
        return init_context(ch, RisState(x))

    def _to_crest(self, ctx: RankOneContext, y: np.ndarray) -> tuple[np.ndarray, RankOneContext]:
        """Newton step along the strongly curved directions of the Hessian."""
        grad, hess = self._derivatives(ctx)
        w, v = np.linalg.eigh(hess)
        stiff = w < -ACCEL_STIFF * np.abs(w).max()
        y_crest = y - v[:, stiff] @ ((v[:, stiff].T @ grad) / w[stiff])
        return y_crest, self._context(ctx.ch, y_crest)

    def __call__(self, ctx: RankOneContext, prev: float, obj: float) -> float | None:
        """Try one step after a sweep that took the objective from prev to obj.

        Returns the new objective if a step was kept, None otherwise.
        """
        y = np.arctan(ctx.x / ctx.ch.R)
        gain = obj - prev
        if self.radius is None:
            slow = 0.0 < ACCEL_RATIO * self.last_gain <= gain < self.last_gain
            self.slow_sweeps = self.slow_sweeps + 1 if slow else 0
            if self.slow_sweeps >= ACCEL_WINDOW:
                # start from the length of the last sweep's own move; y has
                # period pi (x = +inf and x = -inf are the same open circuit)
                move = (y - self.last_y + np.pi / 2) % np.pi - np.pi / 2
                self.radius = float(np.linalg.norm(move))
            self.last_y, self.last_gain = y, gain
        if not self.radius:
            return None
        try:
            # from a fresh inverse, so the rank-one drift does not enter the step
            y_crest, crest = self._to_crest(init_context(ctx.ch, RisState(ctx.x)), y)
            grad, hess = self._derivatives(crest)
            s = trust_region_step(grad, hess, self.radius)
            _, trial = self._to_crest(self._context(ctx.ch, y_crest + s), y_crest + s)
        except NumericallySingularError:
            self.radius /= 4.0
            return None
        new = channel_gain(trial.z_bar)
        predicted = float(grad @ s + 0.5 * s @ hess @ s)
        rho = (new - channel_gain(crest.z_bar)) / predicted if predicted > 0.0 else -1.0
        if rho < 0.25:
            self.radius /= 4.0
        elif rho > 0.75 and np.linalg.norm(s) >= 0.99 * self.radius:
            self.radius *= 2.0
        if new < obj:
            return None
        ctx.z_inv, ctx.z_bar, ctx.x = trial.z_inv, trial.z_bar, trial.x
        return new


Update = Callable[[RankOneContext, int, float], None]


def coordinate_ascent(ch: ImpedanceChannel, x0: RisState, cfg: OptimizerConfig,
                      update: Update) -> OptimizeResult:
    """The sweep loop shared by optimize and the dense-reinversion reference.

    update(ctx, n, dx) applies x_n += dx to the cached inverse and channel: the
    rank-one lemma (apply_update) or a fresh dense inversion.  Everything else,
    including the acceleration step, is common, so both backends follow the
    same trajectory up to roundoff; on badly conditioned runs the acceleration
    step can amplify that roundoff.
    """
    if cfg.objective == SISO_GAIN and (ch.k != 1 or ch.m != 1):
        raise InvalidArgumentError("siso_gain objective requires K = M = 1")
    ctx = init_context(ch, x0)
    obj = _objective(cfg, ctx.z_bar)
    trace = [obj]
    sweep_ends = []
    accelerate = _SisoAccelerator() if cfg.objective == SISO_GAIN else None
    saturations = 0
    converged = False
    sweeps = 0
    for sweep in range(cfg.max_sweeps):
        sweeps = sweep + 1
        prev = obj
        for n in range(ch.n):
            p = element_params(ctx, n)
            if cfg.objective == SISO_GAIN:
                res = optimal_theta_siso(complex(p.z0[0, 0]), complex(p.a[0]), complex(p.b[0]))
            else:
                if np.linalg.norm(p.b) == 0:
                    res = ThetaResult(1.0 + 0.0j, obj, True)
                else:
                    res = optimal_theta_se(*gram_factors(p))
            if res.no_effect:
                trace.append(obj)
                continue
            dx, saturated = theta_to_delta_x(res.theta, p.g)
            saturations += int(saturated)
            update(ctx, n, dx)
            obj = _objective(cfg, ctx.z_bar)
            trace.append(obj)
        if (sweep + 1) % cfg.refactor_every == 0:
            refactor(ctx)
            obj = _objective(cfg, ctx.z_bar)
        if accelerate is not None:
            stepped = accelerate(ctx, prev, obj)
            if stepped is not None:
                obj = stepped
                trace.append(obj)
        sweep_ends.append(len(trace) - 1)
        if abs(obj - prev) <= cfg.tol * max(abs(prev), 1e-300):
            converged = True
            break
    return OptimizeResult(
        state=RisState(ctx.x.copy()),
        trace=np.asarray(trace),
        sweep_ends=np.asarray(sweep_ends, dtype=int),
        sweeps=sweeps,
        converged=converged,
        saturation_events=saturations,
    )


def optimize(ch: ImpedanceChannel, x0: RisState, cfg: OptimizerConfig | None = None) -> OptimizeResult:
    """Sweep elements 1..N with closed-form per-element updates until converged.

    The per-element update is exact and an acceleration step (SISO objective
    only) is kept only if it does not lower the objective, so the trace is
    non-decreasing.  Stops when the relative improvement over a sweep,
    acceleration step included, drops below cfg.tol.
    """
    return coordinate_ascent(ch, x0, cfg or OptimizerConfig(), apply_update)
