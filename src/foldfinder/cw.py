"""Nodewise max-min quotient engine and the a-priori upper bound.

The inner infimum of the extended Rayleigh quotient is restricted to the
positive cone of test directions, where it reduces to the minimum nodewise
ratio (the classical Collatz-Wielandt form).  The outer maximization is the
monotone Collatz-Wielandt fixed point, a nonlinear analogue of the inverse
power method of Hein and Buehler (2010): rescale u along its fiber to the
largest minimum ratio, then solve -Delta_h u_new = lambda_cw u^(q-1) + g(u)
on one Laplacian factor.  It does not reach the exact max-min: from a
positive start such as the torsion function it stops at a stable branch
solution below lambda*, and the augmented Newton of
``fold.moore_spence_solve`` closes the gap.  The ascent computes no
eigenpair: whether its end is stable is not needed to seed that Newton,
whose eigen-certificate checks the answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .energy import State, require_cone_interior, _fiber_peaks
from .mesh import Grid, apply_laplacian, principal_laplacian_eigenvalue
from .model import ModelSpec, eval_g, _simplex_rays, _term_partials
from .nehari import _laplacian_step


@dataclass
class CwCandidate:
    """A state and its minimum nodewise ratio lambda_cw; ``cw_ascend``
    also sets whether it converged, its rescale count and its history."""

    state: State
    lambda_cw: float
    converged: bool = False
    iterations: int = 0
    diagnostics: dict = field(default_factory=dict)


def _ratios(state: State) -> np.ndarray:
    u, q = state.u, state.spec.q
    num = apply_laplacian(state.grid, u) - eval_g(state.spec, u)
    return num / u ** (q - 1.0)


def cw_value(state: State) -> CwCandidate:
    """Minimum nodewise residual ratio."""
    require_cone_interior(state)
    return CwCandidate(state=state, lambda_cw=float(_ratios(state).min()))


def _fiber_argmax(state: State) -> float | None:
    """t > 0 that maximizes the minimum nodewise ratio along t -> t u.

    Node i's ratio is r_i(t) = a_i t^(2-q) - sum_k b_ki t^(d_k-q), with a_i
    and b_ki the Laplacian and the k-th term of g at u over u_i^(q-1): the
    fiber profile of ``energy._fiber_peaks`` with qn = 1, so one call gives
    every node's peak.  No r_i rises above its own peak, so if the node j
    with the lowest peak is the minimizing node at its own argmax t_j, the
    minimum peaks there too and t_j is the answer.  Otherwise the bisection
    of ``_bisect_fiber_argmax`` finds it.  Returns 1 when some a_i <= 0 (the
    minimum is then negative and largest as t -> 0) and None when the
    minimum grows without bound (no superlinear part).
    """
    u, q = state.u.ravel(), state.spec.q
    den = u ** (q - 1.0)
    a = apply_laplacian(state.grid, state.u).ravel() / den
    if a.min() <= 0.0:
        return 1.0
    b = _term_partials(state.spec, state.u, 1).reshape(-1, u.size) / den
    d = np.array(state.spec.degrees)
    if np.all(d >= 2.0):
        t, peak = _fiber_peaks(a, np.ones(u.size), q, state.spec.degrees, b)
        j = int(np.argmin(peak))
        if math.isfinite(peak[j]):
            r = a * t[j] ** (2.0 - q) - t[j] ** (d - q) @ b
            if r[j] <= r.min():
                return float(t[j])
    return _bisect_fiber_argmax(a, b, d, q)


def _bisect_fiber_argmax(a: np.ndarray, b: np.ndarray, d: np.ndarray,
                         q: float) -> float | None:
    """Argmax of min_i r_i(t) by bisection in s = log t (see ``_fiber_argmax``).

    The slope of r_i has the sign of (2-q) a_i - sum_k (d_k-q) b_ki
    t^(d_k-2), which falls in t, so each r_i rises then falls and so does
    their minimum: bisection on the slope of the minimizing node finds the
    argmax to rounding.  Returns None when no bracket exists below t = 1e150.
    """
    def rising(s: float) -> bool:
        t = math.exp(s)
        i = int(np.argmin(a * t ** (2.0 - q) - t ** (d - q) @ b))
        return (2.0 - q) * a[i] > float((d - q) * t ** (d - 2.0) @ b[:, i])

    # expand a bracket in s = log t from s = 0 until the slope changes sign
    s, step = 0.0, (1.0 if rising(0.0) else -1.0)
    while rising(s + step) == (step > 0):
        s, step = s + step, 2.0 * step
        if abs(s + step) > 345.0:          # t beyond 1e150
            return None
    lo, hi = sorted((s, s + step))
    mid = 0.5 * (lo + hi)
    while hi - lo > 1e-15 and lo < mid < hi:
        lo, hi = (mid, hi) if rising(mid) else (lo, mid)
        mid = 0.5 * (lo + hi)
    return math.exp(mid)


_MAX_ASCENT = 200   # fiber rescales of one ascent


def cw_ascend(init: State) -> CwCandidate:
    """Monotone Collatz-Wielandt fixed point toward the max-min ratio.

    Each step rescales u along its fiber to the largest minimum ratio
    lambda_cw (``_fiber_argmax``), then takes the Laplacian step
    u <- L^-1 (lambda_cw u^(q-1) + g(u)) of ``nehari._laplacian_step`` on
    one factor of the Laplacian.
    Since L u >= lambda_cw u^(q-1) + g(u) nodewise, the step lowers u and
    lambda_cw cannot fall.  The ascent stops once lambda_cw rises by at
    most 1e-8 relative, or after _MAX_ASCENT rescales; a fall is rounding
    noise, about 1e-9 relative on ``interval:255``.  It stops at a branch
    solution, not at the exact max-min: from the torsion function that
    solution is stable and lies below lambda*, and
    ``fold.moore_spence_solve`` closes the gap.  A start whose minimum
    ratio is negative takes its first step with lambda_cw clamped at 0.
    With no superlinear part the fiber has no maximum, and the ascent
    stops at once with ``converged=False``.  The end point is not
    classified: its stability index is ``spectrum.stability_index`` of its
    state.  ``diagnostics["history"]`` lists lambda_cw after each rescale.
    """
    state, cand, history, converged, it = init, cw_value(init), [], False, 0
    for it in range(1, _MAX_ASCENT + 1):
        t = _fiber_argmax(state)
        if t is None:
            break
        state = state.with_u(t * state.u)
        cand = cw_value(state)
        history.append(cand.lambda_cw)
        if len(history) > 1 and history[-1] - history[-2] \
                <= 1e-8 * abs(history[-1]):
            converged = True
            break
        state = _laplacian_step(state, max(cand.lambda_cw, 0.0))
    else:
        cand = cw_value(state)
    cand.converged, cand.iterations = converged, it
    cand.diagnostics = {"history": history}
    return cand


def upper_bound_lambda(spec: ModelSpec, grid: Grid) -> float:
    """A-priori bound: max over positive rays of the eigenvalue-shifted ratio.

    Lambda = max_u [lambda_1 * sum(u_i) - sum(g_i(u))] / sum(u_i^(q-1)); every
    ray reduces to the same unimodal scalar profile as the fiber map, so one
    ``_fiber_peaks`` call gives the exact maximum on every sampled ray of
    the simplex.  For m = 2 the best ray is refined within +-0.05: sample
    65 rays, narrow to the best one's neighbours, repeat to 1e-12.  A ray
    with no superlinear term gives +inf, as does g = 0 (no fold exists).
    """
    if not spec.degrees:
        return math.inf
    lam1 = principal_laplacian_eigenvalue(grid)
    degrees = np.array(spec.degrees)

    def ray_max(rays: np.ndarray) -> np.ndarray:
        se = rays.sum(axis=1)
        sq = (rays ** (spec.q - 1.0)).sum(axis=1)
        betas = degrees[:, None] * _term_partials(spec, rays.T, 0)
        _, peaks = _fiber_peaks(lam1 * se, sq, spec.q, spec.degrees, betas)
        return np.where((se > 0) & (sq > 0), peaks, -math.inf)

    rays = _simplex_rays(spec.m, count=257)
    values = ray_max(rays)
    best = float(values.max())
    if spec.m == 2:
        t0 = rays[int(np.argmax(values)), 0]
        lo, hi = max(t0 - 0.05, 0.0), min(t0 + 0.05, 1.0)
        while hi - lo > 1e-12:
            t = np.linspace(lo, hi, 65)
            values = ray_max(np.column_stack([t, 1.0 - t]))
            k = int(np.argmax(values))
            best = max(best, float(values[k]))
            lo, hi = t[max(k - 1, 0)], t[min(k + 1, 64)]
    return best
