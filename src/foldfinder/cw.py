"""Nodewise max-min quotient engine and the a-priori upper bound.

The inner infimum of the extended Rayleigh quotient is restricted to the
positive cone of test directions, where it reduces to the minimum nodewise
ratio (the classical Collatz-Wielandt form); the outer maximization is a
projected ascent on a softmin smoothing of that minimum with an annealed
temperature, filtered a posteriori by the stability index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .energy import State, require_cone_interior, FiberExpansion
from .mesh import Grid, apply_laplacian, norm, principal_laplacian_eigenvalue
from .model import (ModelSpec, eval_g, eval_g_jacobian, _simplex_rays,
                    _term_partials)
from .spectrum import stability_index, stability_tolerance

_CONE_FLOOR = 1e-12


@dataclass
class CwCandidate:
    state: State
    lambda_cw: float
    active_node: tuple[int, int]      # (component, node index) of the min ratio
    gap: float                        # max ratio - min ratio
    delta: float | None = None
    stable: bool | None = None
    converged: bool = False
    iterations: int = 0
    diagnostics: dict = field(default_factory=dict)


def _ratios(state: State) -> np.ndarray:
    u, q = state.u, state.spec.q
    num = apply_laplacian(state.grid, u) - eval_g(state.spec, u)
    return num / u ** (q - 1.0)


def cw_value(state: State) -> CwCandidate:
    """Minimum nodewise residual ratio, its argmin, and the max-min gap."""
    require_cone_interior(state)
    r = _ratios(state)
    flat = int(np.argmin(r))
    active = (flat // state.grid.n_nodes, flat % state.grid.n_nodes)
    return CwCandidate(state=state, lambda_cw=float(r.min()),
                       active_node=active, gap=float(r.max() - r.min()))


def _softmin_and_grad(state: State, temp: float) -> tuple[float, np.ndarray]:
    """Softmin of the nodewise ratios and its exact gradient in u."""
    grid, u, q = state.grid, state.u, state.spec.q
    den = u ** (q - 1.0)
    num = apply_laplacian(grid, u) - eval_g(state.spec, u)
    r = num / den
    shift = r.min()
    wgt = np.exp(-(r - shift) / temp)
    wgt /= wgt.sum()
    value = shift - temp * math.log(np.exp(-(r - shift) / temp).sum())
    # d r_j / d u_k assembled transposed against the softmin weights
    p_over_d = wgt / den
    jac = eval_g_jacobian(state.spec, u)
    grad = (apply_laplacian(grid, p_over_d)
            - np.einsum("ijn,jn->in", jac, p_over_d)
            - (q - 1.0) * u ** (q - 2.0) * wgt * r)
    return value, grad


def cw_ascend(init: State, *, max_iters: int = 400, gap_tol: float = 1e-8,
              check_every: int = 5, step0: float = 0.2,
              sup_cap: float = 1e6) -> CwCandidate:
    """Projected softmin ascent toward the maximal stable min-ratio.

    Anneals the softmin temperature from 1e-1 to 1e-6 of the running ratio
    scale, clips iterates to the cone floor, and tracks the best iterate with
    a nonnegative stability index.  ``gap_tol`` is relative to the stencil
    scale.  If the model has no superlinear part the ascent diverges in scale
    and is stopped by the cap with ``converged=False``.
    """
    require_cone_interior(init)
    grid = init.grid
    scale = grid.stencil_scale
    gap_abs = gap_tol * scale
    tol_stab = stability_tolerance(init)

    state = init
    best: CwCandidate | None = None
    step = step0
    sup0 = state.sup
    capped_by_growth = False

    converged = False
    best_value = -math.inf
    stalled = 0
    for it in range(1, max_iters + 1):
        cand = cw_value(state)
        if cand.lambda_cw > best_value + 1e-9 * max(abs(best_value), 1.0):
            best_value = cand.lambda_cw
            stalled = 0
        else:
            stalled += 1
        if stalled >= 25:
            converged = cand.gap <= gap_abs
            break
        if it % check_every == 0 or it == 1:
            stab = stability_index(state)
            cand.delta, cand.stable = stab.delta, stab.delta >= -tol_stab
            if cand.stable and (best is None or cand.lambda_cw > best.lambda_cw):
                best = cand
        if state.sup > sup_cap * max(sup0, 1.0):
            capped_by_growth = True
            break

        ratio_scale = max(abs(cand.lambda_cw) + cand.gap, 1e-12 * scale)
        temp = ratio_scale * 10.0 ** (-1.0 - 5.0 * (it - 1) / max(max_iters - 1, 1))
        value, grad = _softmin_and_grad(state, temp)
        gn = norm(grid, grad)
        # stall when both the ratios coincide and the ascent is stationary
        # (at a single node the gap is identically zero, so the gap test
        #  alone cannot separate a branch point from the fold)
        if cand.gap <= gap_abs and gn * norm(grid, state.u) \
                <= 1e-7 * ratio_scale:
            converged = True
            break
        if gn <= 1e-300:
            break
        direction = grad / gn
        moved = False
        alpha = step
        for _ in range(12):
            u_try = state.u + alpha * norm(grid, state.u) * direction
            floor = _CONE_FLOOR * max(float(np.abs(u_try).max()), 1e-300)
            u_try = np.maximum(u_try, floor)
            trial = state.with_u(u_try)
            v_try, _ = _softmin_and_grad(trial, temp)
            if v_try > value:
                state = trial
                step = min(alpha * 1.2, 0.5)
                moved = True
                break
            alpha *= 0.5
        if not moved:
            step = max(step * 0.5, 1e-6)

    final = cw_value(state)
    stab = stability_index(state)
    final.delta, final.stable = stab.delta, stab.delta >= -tol_stab
    final.iterations = it
    final.converged = converged
    if final.stable and (best is None or final.lambda_cw > best.lambda_cw):
        best = final
    out = best if best is not None else final
    out.iterations = it
    out.converged = converged
    out.diagnostics = {
        "stable_found": best is not None,
        "capped": not converged,
        "growth_capped": capped_by_growth,
    }
    return out


def upper_bound_lambda(spec: ModelSpec, grid: Grid) -> float:
    """A-priori bound: max over positive rays of the eigenvalue-shifted ratio.

    Lambda = max_u [lambda_1 * sum(u_i) - sum(g_i(u))] / sum(u_i^(q-1)); every
    ray reduces to the same unimodal scalar profile as the fiber map, so the
    per-ray maximum is exact and the multi-component bound samples rays on
    the simplex.  Returns +inf when g vanishes identically (no fold exists).
    """
    if not spec.degrees:
        return math.inf
    lam1 = principal_laplacian_eigenvalue(grid)
    degrees = np.array(spec.degrees)

    def ray_max(e: np.ndarray) -> float:
        se = float(e.sum())
        sq = float((e ** (spec.q - 1.0)).sum())
        if se <= 0 or sq <= 0:
            return -math.inf
        betas = degrees * _term_partials(spec, e, 0)
        exp = FiberExpansion(a=lam1 * se, qn=sq, q=spec.q,
                             degrees=spec.degrees, betas=tuple(betas.tolist()))
        return exp.max_value()

    if spec.m == 1:
        return ray_max(np.ones(1))
    rays = _simplex_rays(spec.m, count=257)
    values = [ray_max(e) for e in rays]
    best = max(values)
    if spec.m == 2:
        # golden-section polish around the best sampled ray
        from scipy.optimize import minimize_scalar

        k = int(np.argmax(values))
        t0 = rays[k][0]
        lo, hi = max(t0 - 0.05, 0.0), min(t0 + 0.05, 1.0)
        res = minimize_scalar(lambda t: -ray_max(np.array([t, 1.0 - t])),
                              bounds=(lo, hi), method="bounded",
                              options={"xatol": 1e-12})
        best = max(best, -float(res.fun))
    return float(best)
