"""Coordinate-descent reactance optimizer with delayed rank-one inverse updates.

Each element update is a closed-form maximizer of the objective given all
other reactances fixed.  The inverse G of the loading matrix follows the
matrix inversion lemma in delayed form (see RankOneContext): an update reads
one column of G in O(N k) and one block product every BLOCK updates folds the
k held updates in, so a full sweep over N elements costs O(N^3) instead of the
O(N^4) of dense re-inversion per element.

Under either objective, the SISO gain |z|^2 or the spectral efficiency
log2 det(I + Z Z^H), coordinate ascent can crawl for thousands of sweeps along
narrow curved ridges.  Once it has settled into such slow convergence, each
sweep ends with a safeguarded trust-region step built from the objective's
analytic gradient and Hessian (siso_derivatives, se_derivatives).

An element update is skipped (theta = -1, the load kept) when its gain is
below what the double-precision objective resolves.  The SISO update skips
phases within PI_DEAD_ZONE of pi.  The spectral-efficiency update skips a
closed-form gain of at most SKIP_ROUNDOFF * eps * cond * |objective|, where
cond is the condition number of the context's last dense inverse, and is made
only if the objective it leaves does not fall.  Above RANK_ONE_COND it
re-inverts the loading matrix instead of taking the rank-one update.
"""

from __future__ import annotations

import cmath
import math
import numbers
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .channel import (
    LOG2,
    PI_DEAD_ZONE,
    X_MAX,
    ImpedanceChannel,
    RisState,
    checked_inverse,
    eigh,
    identity,
    loading_matrix,
    solve_small,
    spectral_efficiency,
)
from .errors import (
    ChangeOfVariablesError,
    DegenerateUpdateError,
    InvalidArgumentError,
    NumericallySingularError,
)

# Acceleration of the sweep.  It engages once coordinate ascent has spent
# ACCEL_WINDOW consecutive sweeps in slow geometric convergence, each sweep
# gaining between ACCEL_RATIO and 1 times what the sweep before it gained.
# Until then coordinate ascent alone picks the local maximum it heads for.
# Hessian eigenvalues below -ACCEL_STIFF times the largest magnitude count as
# the strongly curved directions across a ridge.
ACCEL_WINDOW = 30
ACCEL_RATIO = 0.9
ACCEL_STIFF = 1e-2

# The spectral-efficiency update is taken only if its gain exceeds
# SKIP_ROUNDOFF * eps * cond * |objective|, cond being the 1-norm condition
# number of the context's last dense inverse: a smaller gain is not resolved,
# and the trace can record it as a dip.  The rank-one objective's change
# differed from the closed-form gain by up to about 100 eps cond |objective|
# on random MIMO channels below cond 3e5; above that the error grows faster
# than cond.  An update that would still lower the objective the trace records
# is not made either.
SKIP_ROUNDOFF = 100.0
EPS = sys.float_info.epsilon

# Above this condition number the spectral-efficiency update re-inverts the
# loading matrix, as naive_elementwise does, instead of taking the rank-one
# update.  Between two refactors the rank-one objective drifted from the dense
# one by at most 3e-12 relative below cond 1e4, and by up to 1.4e-11, 1.1e-10,
# 1.2e-9 and 1.6e-8 in the bands up to 3e4, 1e5, 3e5 and 1e6, on 240 random
# MIMO channels (K, M = 2-4, N = 4-16); a refactor then lowers the objective
# the trace has recorded.
RANK_ONE_COND = 1e4

# Cap on the Newton steps that find the trust-region shift (trust_region_step).
# They reach the root within 7 steps on random Hessians, so the cap does not bind.
SHIFT_NEWTON_STEPS = 20

# Sweeps between dense re-inversions that contain the rank-one roundoff drift.
REFACTOR_EVERY = 10

# Rank-one updates held as a low-rank correction before a block product.
BLOCK = 32

SISO_GAIN = "siso_gain"
SPECTRAL_EFFICIENCY = "spectral_efficiency"


@dataclass
class OptimizerConfig:
    max_sweeps: int = 500
    tol: float = 1e-10
    objective: str = SISO_GAIN

    def __post_init__(self):
        if (isinstance(self.max_sweeps, bool) or not isinstance(self.max_sweeps, numbers.Integral)
                or self.max_sweeps < 1):
            raise InvalidArgumentError(f"max_sweeps must be an integer >= 1, got {self.max_sweeps!r}")
        if not self.tol >= 0:
            raise InvalidArgumentError("tol must be nonnegative")
        if self.objective not in (SISO_GAIN, SPECTRAL_EFFICIENCY):
            raise InvalidArgumentError(f"unknown objective {self.objective!r}")


class RankOneContext:
    """The inverse G = (Z_R + j diag(x))^{-1} of the loading matrix and the channel.

    G is held as g0 - p[:k]^T q[:k]: the stored inverse less the k rank-one
    updates made since the last block product (the delayed update of McDaniel
    et al., J. Chem. Phys. 2017).  u = Z_DR G, v = G Z_RS and
    z_bar = Z_DS - Z_DR G Z_RS are kept current by apply_update.  cond is the
    1-norm condition number of the last dense inverse.  On a scalar context
    (K = M = 1) the per-element math runs on Python complex numbers.
    """

    def __init__(self, ch: ImpedanceChannel, z_inv: np.ndarray, x: np.ndarray, cond: float):
        self.ch, self.x, self.cond = ch, x, cond
        self.scalar = ch.k == 1 and ch.m == 1
        self.p, self.q = np.empty((2, BLOCK, ch.n), dtype=complex)
        self.z_inv = z_inv

    def flush(self) -> None:
        """Fold the pending updates into the stored inverse: g0 -= p[:k]^T q[:k]."""
        # as N vector-matrix products, not one N x k x N matrix product: work
        # inside a sweep stays off multithreaded BLAS-3 (see README)
        self.g0 -= np.matmul(self.p[:self.k].T[:, None, :], self.q[:self.k])[:, 0]
        self.k = 0

    @property
    def z_inv(self) -> np.ndarray:
        """G, with the pending updates folded in first."""
        if self.k:
            self.flush()
        return self.g0

    @z_inv.setter
    def z_inv(self, g: np.ndarray) -> None:
        """Replace G with a dense inverse; u, v and z_bar are recomputed from it."""
        self.g0, self.k = g, 0
        self.u = self.ch.z_dr @ g
        self.v = g @ self.ch.z_rs
        self.z_bar = self.ch.z_ds - self.u @ self.ch.z_rs

    def column(self, n: int) -> np.ndarray:
        """Column n of G, which is also row n: G is symmetric because the
        channel's Z_R is exactly so (ImpedanceChannel).  O(N k)."""
        return self.g0[n] - self.p[:self.k, n] @ self.q[:self.k]


class ElementParams(NamedTuple):
    """Per-element update parameters: Z = Z0 + a b^H theta over unit-modulus theta.

    On a scalar context a, b and z0 are Python complex numbers.
    """

    a: np.ndarray       # K-vector, Z_DR zinv e_n
    b: np.ndarray       # M-vector, already scaled by 1/(2 Re g)
    g: complex          # [zinv]_nn
    z0: np.ndarray      # K x M


def init_context(ch: ImpedanceChannel, state: RisState) -> RankOneContext:
    """Dense-inverse initialization of the update cache."""
    z_inv, cond = checked_inverse(loading_matrix(ch.z_r, state.x))
    return RankOneContext(ch, z_inv, state.x.copy(), cond)


def element_params(ctx: RankOneContext, n: int) -> ElementParams:
    """Parameters of the rank-one channel parametrization for element n.

    Costs O(k + M + K M) given the context; no matrix inversion.
    Raises ChangeOfVariablesError when Re(g) <= 0, where the phase change of
    variables is undefined.
    """
    g = complex(ctx.g0[n, n] - ctx.p[:ctx.k, n] @ ctx.q[:ctx.k, n])
    if g.real <= 0.0:
        raise ChangeOfVariablesError(
            f"Re(g) = {g.real:.3e} <= 0 for element {n}; phase parametrization undefined"
        )
    if ctx.scalar:
        a, b = ctx.u.item(n), ctx.v.item(n).conjugate() / (2.0 * g.real)
        return ElementParams(a, b, g, ctx.z_bar.item() + a * b.conjugate())
    a = ctx.u[:, n].copy()
    b_h = ctx.v[n] / (2.0 * g.real)     # v[n] is the row e_n^T zinv Z_RS
    return ElementParams(a=a, b=b_h.conj(), g=g, z0=ctx.z_bar + a[:, None] * b_h)


def optimal_theta_siso(z0: complex, a: complex, b: complex) -> complex:
    """Unit-modulus theta maximizing |z0 + a conj(b) theta| (scalars only).

    An element with no effect (a = 0 or b = 0) keeps its load: theta = -1.
    """
    if a == 0 or b == 0:
        return -1.0 + 0.0j
    return cmath.exp(1j * (cmath.phase(z0) + cmath.phase(b) - cmath.phase(a)))


def gram_factors(p: ElementParams) -> tuple[np.ndarray, np.ndarray]:
    """A = I + Z0 (I - b b^H/|b|^2) Z0^H and F = [a |b|, Z0 b/|b|].

    Z Z^H = (A - I) + F thetabar thetabar^H F^H with thetabar = [theta, 1]^T.
    At b = 0 (an element with no effect) b/|b| is taken as 0, so F = 0.
    """
    a, b, z0 = p.a, p.b, p.z0
    if isinstance(z0, complex):             # from a scalar context
        a, b, z0 = np.array([a]), np.array([b]), np.array([[z0]])
    br, bi = b.real, b.imag
    bnorm = math.sqrt(br.dot(br) + bi.dot(bi))      # np.linalg.norm(b), same arithmetic
    bu = b / bnorm if bnorm else b
    # np.outer's own product: with a 1-D right operand numpy takes a loop that
    # rounds differently when M = 1
    proj = z0 @ (identity(b.size) - bu[:, None] * bu.conj()[None, :]) @ z0.conj().T
    a_mat = identity(z0.shape[0]) + proj
    f = np.empty((z0.shape[0], 2), dtype=complex)
    f[:, 0] = a * bnorm
    f[:, 1] = z0 @ bu
    return a_mat, f


def optimal_theta_se(a_mat: np.ndarray, f: np.ndarray, min_gain: float = -math.inf) -> complex:
    """Unit-modulus theta maximizing log2 det(A + F thetabar thetabar^H F^H).

    With C = F^H A^{-1} F the determinant is det(A) (1 + thetabar^H C thetabar),
    so theta = c12/|c12| gains
    log2((1 + c11 + c22 + 2|c12|) / (1 + c11 + c22 - 2 Re c12)) bits over
    theta = -1, which keeps the element's load.  theta = -1 is returned when
    that gain is at most min_gain, or when theta has no effect (c12 = 0, as at
    F = 0).
    """
    c = f.conj().T @ solve_small(a_mat, f)      # A >= I is never singular
    c12 = c.item(0, 1)
    if c12 == 0:
        return -1.0 + 0.0j
    r = abs(c12)
    # the gain as log1p of the ratio less one, which needs no subtraction
    stay = 1.0 + (c.item(0, 0) + c.item(1, 1)).real - 2.0 * c12.real
    if math.log1p(2.0 * (r + c12.real) / stay) / LOG2 <= min_gain:
        return -1.0 + 0.0j
    return c12 / r


def theta_to_delta_x(theta: complex, g: complex) -> tuple[float, bool]:
    """Recover the reactance step from the optimal phase.

    Returns (delta_x, saturated).  Phases within PI_DEAD_ZONE of pi (theta near
    -1) map to delta_x = 0, leaving the channel unchanged; a vanishing denominator
    means the optimum sits at the open-circuit limit and is clamped to +-X_MAX.
    """
    phi = cmath.phase(theta)
    if math.pi - abs(phi) <= PI_DEAD_ZONE:
        return 0.0, False
    denom = g.real * math.tan(phi / 2.0) + g.imag
    if denom == 0.0:
        return X_MAX, True
    dx = 1.0 / denom
    if abs(dx) > X_MAX:
        return math.copysign(X_MAX, dx), True
    return dx, False


Keep = Callable[[np.ndarray], bool]


def apply_update(ctx: RankOneContext, n: int, dx: float, keep: Keep | None = None) -> bool:
    """Rank-one update of the context after x_n += dx. O(N (k + K + M)) plus a block product.

    With keep given, the update is made only if keep holds for the channel it
    would leave (a complex number on a scalar context).  Returns whether the
    update was made.
    """
    if dx == 0.0:
        return False
    col = ctx.column(n)
    denom = 1.0 + 1j * dx * col.item(n)
    if abs(denom) < 1e-14:
        raise DegenerateUpdateError(
            f"rank-one denominator |1 + j dx g| = {abs(denom):.3e} for element {n}"
        )
    factor = 1j * dx / denom
    if ctx.scalar:
        a, b_prime_h = ctx.u.item(n), ctx.v.item(n)
        z_bar = ctx.z_bar.item() + factor * (a * b_prime_h)
    else:
        a, b_prime_h = ctx.u[:, n, None], ctx.v[n]      # each product is taken before its update
        z_bar = ctx.z_bar + factor * (a * b_prime_h)
    if keep is not None and not keep(z_bar):
        return False
    k = ctx.k
    ctx.q[k] = col
    fc = np.multiply(col, factor, out=ctx.p[k])     # G -= fc col^T; u and v follow
    if ctx.scalar:
        ctx.z_bar[0, 0] = z_bar
        ctx.u[0] -= a * fc
        ctx.v[:, 0] -= b_prime_h * fc
    else:
        ctx.z_bar = z_bar
        ctx.u -= a * fc
        ctx.v -= fc[:, None] * b_prime_h
    ctx.k = k + 1
    ctx.x[n] += dx
    if ctx.k == BLOCK:
        ctx.flush()
    return True


def reinvert_update(ctx: RankOneContext, n: int, dx: float, keep: Keep | None = None) -> bool:
    """x_n += dx followed by a dense re-inversion of the loading matrix. O(N^3).

    keep and the return value are those of apply_update.  ctx.cond is left
    as it was, so the condition number that the spectral-efficiency update
    reads comes from the same dense inverses as under apply_update: the
    start, each refactor and each acceleration step.
    """
    if dx == 0.0:
        return False
    x = ctx.x.copy()
    x[n] += dx
    z_inv = checked_inverse(loading_matrix(ctx.ch.z_r, x))[0]
    # the z_bar that setting ctx.z_inv computes, bit for bit
    if keep is not None and not keep(ctx.ch.z_ds - ctx.ch.z_dr @ z_inv @ ctx.ch.z_rs):
        return False
    ctx.x = x
    ctx.z_inv = z_inv
    return True


def refactor(ctx: RankOneContext) -> None:
    """Dense re-inversion to contain rank-one roundoff drift."""
    ctx.z_inv, ctx.cond = checked_inverse(loading_matrix(ctx.ch.z_r, ctx.x))


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
    converged: bool
    saturation_events: int = 0

    @property
    def sweeps(self) -> int:
        return self.sweep_ends.size


def _objective(cfg: OptimizerConfig, z: np.ndarray) -> float:
    if cfg.objective == SISO_GAIN:
        r = abs(z.item())           # |z|^2 of the 1 x 1 channel
        return r * r
    return spectral_efficiency(z)


def siso_derivatives(ctx: RankOneContext) -> tuple[np.ndarray, np.ndarray]:
    """Gradient and Hessian of |z|^2 with respect to the reactances x.

    With G = (Z_R + j diag x)^{-1}, u = z_DR G and v = G z_RS (G is symmetric
    because ImpedanceChannel stores Z_R exactly symmetric): dz/dx_n = j u_n v_n
    and d2z/dx_m dx_n = G_mn (u_m v_n + u_n v_m).
    O(N^2) given the cached inverse.
    """
    g_inv = ctx.z_inv
    u, v = ctx.u[0], ctx.v[:, 0]
    z = complex(ctx.z_bar[0, 0])
    dz = 1j * u * v
    # np.outer(p, q) is p[:, None] * q[None, :], the same product loop
    d2z = g_inv * (u[:, None] * v[None, :] + v[:, None] * u[None, :])
    grad = 2.0 * (z.conjugate() * dz).real
    hess = 2.0 * (z.conjugate() * d2z + dz[:, None] * dz.conj()[None, :]).real
    return grad, hess


def se_derivatives(ctx: RankOneContext) -> tuple[np.ndarray, np.ndarray]:
    """Gradient and Hessian of log2 det(I + Z Z^H) with respect to the reactances x.

    With U = Z_DR G and V = G Z_RS, dZ/dx_n = j u_n v_n^T and
    d2Z/dx_m dx_n = G_mn (u_m v_n^T + u_n v_m^T), as in siso_derivatives.  With
    P = (I + Z Z^H)^{-1}, T = V Z^H P U, Q = U^H P U and
    R = I - Z^H P Z = (I + Z^H Z)^{-1}:
    grad = (2/ln 2) Re(j diag T) and
    ln 2 hess = 2 Re[G o (T + T^T)] + 2 Re[T o T^T] + 2 Re[(V R V^H) o Q^T].
    One K x K solve gives both P U and P Z.  O(N^2 (K + M)) given the cached inverse.
    """
    g_inv = ctx.z_inv
    u, v, z = ctx.u, ctx.v, ctx.z_bar
    k, n = u.shape
    z_h = z.conj().T
    p_uz = solve_small(identity(k) + z @ z_h, np.concatenate((u, z), axis=1))
    t = v @ (z_h @ p_uz[:, :n])
    q = u.conj().T @ p_uz[:, :n]
    r = identity(z.shape[1]) - z_h @ p_uz[:, n:]
    grad = (-2.0 / LOG2) * t.diagonal().imag              # Re(j t_nn) = -Im t_nn
    hess = (2.0 / LOG2) * (g_inv * (t + t.T) + t * t.T + (v @ r @ v.conj().T) * q.T).real
    return grad, hess


def trust_region_step(grad: np.ndarray, hess: np.ndarray, radius: float) -> np.ndarray:
    """Maximizer of grad.s + s.hess.s/2 over |s| <= radius.

    In the eigenbasis of hess (eigenvalues w, gt = v^T grad) the step is
    s(mu) = gt / (mu - w) for the least shift mu >= max(w_max, 0) with
    |s(mu)| <= radius.  mu = 0 gives the Newton step, when hess is negative
    definite and that step fits; otherwise mu solves the secular equation
    1/|s(mu)| = 1/radius (More & Sorensen, SIAM J. Sci. Stat. Comput. 1983).
    Newton steps on it start from mu0 = max(w_max, 0, max_i(w_i + |gt_i|/radius)),
    which is not right of the least shift, and climb to the root from its
    left, because 1/|s(mu)| is concave there.  Each step moves mu up by at
    least one float, so an iterate one float short of the root does not stop
    there.  The stop test compares |s| itself with radius: |s|^2 against
    radius^2 can miss a root near mu = 0 by its rounding and crawl one float
    per step.  When gt = 0 along the top eigenvector (the hard case) mu0 can
    be w_max itself, where s is undefined, and the search starts one float
    above it.
    """
    w, v = eigh(hess)
    gt = v.T @ grad
    mu = max(float(w[-1]), 0.0, float((w + np.abs(gt) / radius).max()))
    if mu == w[-1]:
        mu = math.nextafter(mu, math.inf)
    for _ in range(SHIFT_NEWTON_STEPS):
        d = mu - w
        s = gt / d
        ss = float(s.dot(s))
        if math.sqrt(ss) <= radius:
            break
        mu = max(mu + (math.sqrt(ss) / radius - 1.0) * ss / float(s.dot(s / d)),
                 math.nextafter(mu, math.inf))
    return v @ (gt / (mu - w))


Derivatives = Callable[[RankOneContext], tuple[np.ndarray, np.ndarray]]


class _Accelerator:
    """End-of-sweep trust-region step on the objective in the phase-like variables y = arctan(x/R).

    derivatives(ctx) gives the objective's gradient and Hessian in x.  Works in
    y rather than x because elements drift toward open circuit (|x| -> inf),
    where the objective is smooth in y but flat in x.  Slow sweeps crawl
    along narrow curved ridges, so the step runs from crest to crest: a Newton
    step along the strongly curved directions moves the point onto the crest,
    the trust-region step is taken from there, and its end point is moved back
    onto the crest before it is judged.  Stepping from the crest keeps the
    step from amplifying how far off the crest the sweep ended (and with it
    the roundoff that tells the rank-one and dense backends apart).  A step is
    kept only if it raises the objective by more than tol relative, the
    stopping rule's threshold: a step that gains only roundoff would be kept by
    one backend and not the other.
    """

    def __init__(self, cfg: OptimizerConfig, derivatives: Derivatives):
        self.cfg, self.derivatives = cfg, derivatives
        self.radius: float | None = None     # trust radius in y, set on engaging
        self.slow_sweeps = 0
        self.last_y: np.ndarray | None = None
        self.last_gain = 0.0

    def _derivatives(self, ctx: RankOneContext) -> tuple[np.ndarray, np.ndarray]:
        r = ctx.ch.R
        grad, hess = self.derivatives(ctx)
        jac = r + ctx.x**2 / r                           # dx/dy
        hess_y = jac[:, None] * hess * jac[None, :] + np.diag(grad * 2.0 * ctx.x * jac / r)
        return jac * grad, hess_y

    def _context(self, ch: ImpedanceChannel, y: np.ndarray) -> RankOneContext:
        x = np.minimum(np.maximum(ch.R * np.tan(y), -X_MAX), X_MAX)     # np.clip
        return init_context(ch, RisState(x))

    def _to_crest(self, ctx: RankOneContext, y: np.ndarray) -> tuple[np.ndarray, RankOneContext]:
        """Newton step along the strongly curved directions of the Hessian."""
        grad, hess = self._derivatives(ctx)
        w, v = eigh(hess)
        stiff = w < -ACCEL_STIFF * np.abs(w).max()
        v_stiff = v[:, stiff]
        y_crest = y - v_stiff @ ((v_stiff.T @ grad) / w[stiff])
        return y_crest, self._context(ctx.ch, y_crest)

    def __call__(self, ctx: RankOneContext, prev: float,
                 obj: float) -> tuple[float, RankOneContext] | None:
        """Try one step after a sweep that took the objective from prev to obj.

        Returns the new objective and the step's dense context if a step was
        kept, None otherwise.
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
                self.radius = math.sqrt(move.dot(move))          # np.linalg.norm
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
        new = _objective(self.cfg, trial.z_bar)
        predicted = float(grad @ s + 0.5 * s @ hess @ s)
        rho = (new - _objective(self.cfg, crest.z_bar)) / predicted if predicted > 0.0 else -1.0
        if rho < 0.25:
            self.radius /= 4.0
        elif rho > 0.75 and math.sqrt(s.dot(s)) >= 0.99 * self.radius:
            self.radius *= 2.0
        if new - obj <= self.cfg.tol * obj:
            return None
        return new, trial


Update = Callable[[RankOneContext, int, float, Keep | None], bool]
Element = Callable[[OptimizerConfig, RankOneContext, int, float, Update], tuple[float, bool]]


def _siso_element(cfg: OptimizerConfig, ctx: RankOneContext, n: int, obj: float,
                  update: Update) -> tuple[float, bool]:
    """Update element n for the SISO gain; returns the objective after it and
    whether the step saturated.  Its skip rule is PI_DEAD_ZONE."""
    p = element_params(ctx, n)
    dx, saturated = theta_to_delta_x(optimal_theta_siso(p.z0, p.a, p.b), p.g)
    update(ctx, n, dx)
    return _objective(cfg, ctx.z_bar), saturated


def _se_element(cfg: OptimizerConfig, ctx: RankOneContext, n: int, obj: float,
                update: Update) -> tuple[float, bool]:
    """Update element n for the spectral efficiency obj; returns the objective
    after it and whether a step was made that saturated.

    theta = -1 unless the closed-form gain exceeds
    SKIP_ROUNDOFF * eps * cond * |obj|, and the update is made only if the
    objective it leaves is not below obj.  Above RANK_ONE_COND it re-inverts.
    """
    p = element_params(ctx, n)
    theta = optimal_theta_se(*gram_factors(p), SKIP_ROUNDOFF * EPS * ctx.cond * abs(obj))
    dx, saturated = theta_to_delta_x(theta, p.g)
    new = obj

    def keep(z: np.ndarray) -> bool:
        nonlocal new
        new = _objective(cfg, z)
        return new >= obj

    if ctx.cond > RANK_ONE_COND:
        update = reinvert_update
    return (new, saturated) if update(ctx, n, dx, keep) else (obj, False)


def _objective_pieces(cfg: OptimizerConfig, ch: ImpedanceChannel) -> tuple[Element, Derivatives]:
    """The objective's element update and its derivatives in x; _objective gives its value.

    Looked up on each run, so a function rebound on this module is the one run.
    """
    if cfg.objective == SISO_GAIN:
        if ch.k != 1 or ch.m != 1:
            raise InvalidArgumentError("siso_gain objective requires K = M = 1")
        return _siso_element, siso_derivatives
    return _se_element, se_derivatives


def coordinate_ascent(ch: ImpedanceChannel, x0: RisState, cfg: OptimizerConfig,
                      update: Update) -> OptimizeResult:
    """The sweep loop shared by optimize and the dense-reinversion reference.

    update(ctx, n, dx, keep) applies x_n += dx to the cached inverse and
    channel: the rank-one lemma (apply_update) or a fresh dense inversion
    (reinvert_update).  Every element takes the same step; one that should not
    move gets theta = -1 and so dx = 0, which update treats as a no-op: an
    update skipped as roundoff records the unchanged objective.  Everything
    else, including the acceleration step, is common, so both backends follow
    the same trajectory up to roundoff; on badly conditioned runs the
    acceleration step can amplify that roundoff.
    """
    element, derivatives = _objective_pieces(cfg, ch)
    ctx = init_context(ch, x0)
    obj = _objective(cfg, ctx.z_bar)
    trace = [obj]
    sweep_ends = []
    accelerate = _Accelerator(cfg, derivatives)
    saturations = 0
    converged = False
    for sweep in range(cfg.max_sweeps):
        prev = obj
        for n in range(ch.n):
            obj, saturated = element(cfg, ctx, n, obj, update)
            saturations += int(saturated)
            trace.append(obj)
        if (sweep + 1) % REFACTOR_EVERY == 0:
            refactor(ctx)
            obj = _objective(cfg, ctx.z_bar)
        stepped = accelerate(ctx, prev, obj)
        if stepped is not None:
            obj, ctx = stepped
            trace.append(obj)
        sweep_ends.append(len(trace) - 1)
        if abs(obj - prev) <= cfg.tol * max(abs(prev), 1e-300):
            converged = True
            break
    return OptimizeResult(
        state=RisState(ctx.x.copy()),
        trace=np.asarray(trace),
        sweep_ends=np.asarray(sweep_ends, dtype=int),
        converged=converged,
        saturation_events=saturations,
    )


def optimize(ch: ImpedanceChannel, x0: RisState, cfg: OptimizerConfig | None = None) -> OptimizeResult:
    """Sweep elements 1..N with closed-form per-element updates until converged.

    The per-element update is exact, a spectral-efficiency update is made only
    if the objective it leaves does not fall, and an acceleration step is kept
    only if it raises the objective by more than cfg.tol relative.  So the
    trace is non-decreasing, up to the rank-one drift that a refactor
    removes (see RANK_ONE_COND).  Stops when the relative improvement over a
    sweep, acceleration step included, drops below cfg.tol.
    """
    return coordinate_ascent(ch, x0, cfg or OptimizerConfig(), apply_update)
