"""Small-lambda solver: fiber projection and energy minimization.

The ball constraint of the constrained minimization is replaced by always
selecting the smallest fiber root with positive slope, which picks out the
same stable branch without estimating any embedding constants.  Descent is
a projected gradient method in the discrete H1 metric (the raw residual
preconditioned by the Laplacian), followed by a damped Newton polish.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConeError, ConvergenceError, FiberEmptyError
from .energy import (State, fiber_expansion, hessian_operator, make_state, phi,
                     phi_grad)
from .linalg import _factorized, laplacian_solve
from .mesh import Grid, norm
from .model import ModelSpec, zero_model
from .spectrum import stability_index, stability_tolerance

_CLIP_REL = 1e-12  # cone floor used to keep iterates strictly interior


@dataclass
class SolveReport:
    state: State
    lam: float
    energy: float
    delta: float
    residual_norm: float
    iterations: int
    converged: bool
    message: str = ""


def solve_sublinear(grid: Grid, q: float, lam: float,
                    tol: float = 1e-13, max_iters: int = 500) -> np.ndarray:
    """Unique positive solution of -Delta_h w = lam w^(q-1).

    Monotone fixed-point iteration, then ``newton_solve`` on the zero model,
    whose residual and Hessian are those of this equation; returns the nodal
    values, shape (N,).  ``tol`` is relative to the stencil scale and to
    max(||w||, 1).
    """
    if lam <= 0:
        raise ValueError("lambda must be positive")
    if not 1.0 < q < 2.0:
        raise ValueError("q must lie in (1, 2)")
    lap_solve = laplacian_solve(grid)
    w = np.full(grid.n_nodes, 1.0)
    for _ in range(max_iters):
        w_new = lap_solve(lam * w ** (q - 1.0))
        done = norm(grid, w_new - w) <= 1e-8 * max(norm(grid, w_new), 1e-300)
        w = w_new
        if done:
            break
    spec = zero_model(q)
    state, ok, iters, rn = newton_solve(
        grid, spec, lam, make_state(grid, spec, w[None, :]),
        tol=tol * max(norm(grid, w), 1.0), max_iters=50)
    if not ok:
        raise ConvergenceError("sublinear solve stalled", residual=rn,
                               iterations=iters)
    return state.u[0]


def sublinear_state(grid: Grid, spec: ModelSpec, lam: float) -> State:
    """w_lambda tiled over the model components; the default solver init."""
    w = solve_sublinear(grid, spec.q, lam)
    return make_state(grid, spec, np.tile(w, (spec.m, 1)))


def project_nehari(state: State, lam: float) -> float:
    """Smallest t > 0 with R(t u) = lam and positive fiber slope.

    Raises FiberEmptyError when lam exceeds the fiber maximum along u.
    """
    if lam <= 0:
        raise ValueError("lambda must be positive")
    exp = fiber_expansion(state)
    t_max = exp.argmax()
    if t_max is None:
        # monotone fiber (g == 0): closed-form root, slope always positive
        return float((lam * exp.qn / exp.a) ** (1.0 / (2.0 - exp.q)))
    f_max = exp.value(t_max)
    if lam > f_max:
        raise FiberEmptyError(lam, f_max)
    if lam >= f_max * (1.0 - 1e-15):
        return float(t_max)
    # bisection in s = log t on the rising side, below the maximum
    hi = lo = math.log(t_max)
    while exp.value(math.exp(lo)) >= lam:
        lo -= math.log(2.0)
        if lo < -345.0:                    # t below 1e-150
            raise FiberEmptyError(lam, f_max)
    mid = 0.5 * (lo + hi)
    while hi - lo > 1e-15 * max(1.0, abs(mid)) and lo < mid < hi:
        lo, hi = (mid, hi) if exp.value(math.exp(mid)) < lam else (lo, mid)
        mid = 0.5 * (lo + hi)
    return math.exp(mid)


def _clip_cone(u: np.ndarray) -> np.ndarray:
    floor = _CLIP_REL * max(float(np.abs(u).max()), 1e-300)
    return np.maximum(u, floor)


def newton_solve(grid: Grid, spec: ModelSpec, lam: float, init: State,
                 tol: float = 1e-12, max_iters: int = 40) -> tuple[State, bool, int, float]:
    """Damped Newton on the residual at fixed lambda.

    Returns (state, converged, iterations, residual_norm); iterates are kept
    in the cone by clipping.  Used as corrector by the continuation driver.
    """
    tol_abs = tol * grid.stencil_scale
    u = _clip_cone(init.u.copy())
    state = make_state(grid, spec, u)
    sup0 = max(state.sup, 1e-300)
    res = phi_grad(state, lam)
    rn = norm(grid, res)
    for it in range(max_iters):
        if state.sup <= 1e-8 * sup0:
            # collapsed onto the trivial branch: not a positive solution
            return state, False, it, rn
        if rn <= tol_abs:
            return state, True, it, rn
        hess = hessian_operator(state, lam)
        step = _factorized(hess)(-res.ravel()).reshape(res.shape)
        alpha, accepted = 1.0, False
        for _ in range(30):
            u_try = _clip_cone(state.u + alpha * step)
            trial = make_state(grid, spec, u_try)
            try:
                res_try = phi_grad(trial, lam)
            except ConeError:
                alpha *= 0.5
                continue
            rn_try = norm(grid, res_try)
            if rn_try < (1.0 - 1e-4 * alpha) * rn:
                state, res, rn = trial, res_try, rn_try
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            return state, rn <= tol_abs and state.sup > 1e-8 * sup0, it + 1, rn
    return state, rn <= tol_abs and state.sup > 1e-8 * sup0, max_iters, rn


def solve_nehari(grid: Grid, spec: ModelSpec, lam: float,
                 init: State | None = None, tol: float = 1e-11,
                 max_iters: int = 300) -> SolveReport:
    """Projected-gradient minimization of phi on the stable Nehari branch.

    Each iterate is rescaled onto the fiber root via project_nehari, then a
    backtracking H1-gradient step is taken; a damped Newton polish finishes
    once the residual is small.  ``tol`` is relative to the stencil scale.
    """
    if lam <= 0:
        raise ValueError("lambda must be positive")
    tol_abs = tol * grid.stencil_scale
    if init is None:
        init = sublinear_state(grid, spec, lam)
    lap_solve = laplacian_solve(grid)

    u = _clip_cone(init.u.copy())
    state = make_state(grid, spec, u)
    try:
        t = project_nehari(state, lam)
    except FiberEmptyError as exc:
        return SolveReport(state=state, lam=lam, energy=math.nan,
                           delta=math.nan, residual_norm=math.inf,
                           iterations=0, converged=False, message=str(exc))
    state = state.with_u(_clip_cone(t * state.u))
    energy = phi(state, lam)

    iters = 0
    rn = math.inf
    coarse_tol = max(tol_abs, 1e-6 * grid.stencil_scale)
    stalled = False
    for iters in range(1, max_iters + 1):
        res = phi_grad(state, lam)
        rn = norm(grid, res)
        if rn <= coarse_tol:
            break
        direction = -np.vstack([lap_solve(res[i]) for i in range(spec.m)])
        slope = grid.node_weight * float(np.vdot(res, direction).real)
        alpha, accepted = 1.0, False
        for _ in range(40):
            try:
                trial = state.with_u(_clip_cone(state.u + alpha * direction))
                t = project_nehari(trial, lam)
                trial = trial.with_u(_clip_cone(t * trial.u))
                e_try = phi(trial, lam)
            except (FiberEmptyError, ConeError):
                alpha *= 0.5
                continue
            if e_try <= energy + 1e-4 * alpha * slope:
                state, energy = trial, e_try
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            stalled = True
            break

    # Newton polish from the projected-descent point
    state, newton_ok, n_it, rn = newton_solve(grid, spec, lam, state,
                                              tol=tol, max_iters=40)
    iters += n_it
    energy = phi(state, lam)
    try:
        stab = stability_index(state)
        delta = stab.delta
    except (ConeError, ConvergenceError):
        delta = math.nan
    converged = bool(newton_ok and rn <= tol_abs and energy < 0.0
                     and delta > stability_tolerance(state))
    message = ""
    if not converged:
        if stalled and not newton_ok:
            message = "descent stagnation"
        elif energy >= 0.0:
            message = "nonnegative energy at return"
        elif not (delta > 0):
            message = "candidate not asymptotically stable"
        else:
            message = "residual above tolerance"
    return SolveReport(state=state, lam=lam, energy=energy, delta=delta,
                       residual_norm=rn, iterations=iters,
                       converged=converged, message=message)


def solve_nehari_multistart(grid: Grid, spec: ModelSpec, lam: float,
                            restarts: int = 8, seed: int = 0,
                            tol: float = 1e-11) -> tuple[SolveReport | None,
                                                         list[SolveReport]]:
    """Run solve_nehari from w_lambda plus randomized positive restarts.

    Returns (first converged report or None, all reports in seed order).
    """
    reports: list[SolveReport] = []
    try:
        base = sublinear_state(grid, spec, lam)
    except ConvergenceError:
        base = make_state(grid, spec, np.ones((spec.m, grid.n_nodes)))
    winner = None
    for k in range(restarts):
        if k == 0:
            init = base
        else:
            rng = np.random.default_rng(seed + k)
            bump = rng.uniform(0.2, 3.0, size=base.u.shape)
            scale = 10.0 ** rng.uniform(-1.0, 1.0)
            init = make_state(grid, spec, _clip_cone(scale * base.u * bump))
        rep = solve_nehari(grid, spec, lam, init=init, tol=tol)
        reports.append(rep)
        if rep.converged and winner is None:
            winner = rep
    return winner, reports
