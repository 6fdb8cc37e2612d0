"""Stable-branch solver at fixed lambda, and the damped Newton corrector.

Below lambda* the stable branch is the minimal positive solution
(Ambrosetti, Brezis and Cerami 1994), and Amann's monotone iteration
reaches it directly.  The coefficients and exponents of g are
nonnegative, so g is nondecreasing and cooperative on the cone; -Delta_h
is an M-matrix; and the scaled sine mode of ``_subsolution`` is a
subsolution.  So u <- L^-1 (lam u^(q-1) + g(u)), the Laplacian step that
``cw.cw_ascend`` takes at lambda_cw, rises monotonically to the stable
solution when lam < lambda*, and grows without bound above it.
``newton_solve`` finishes the iteration and ``stability_index`` checks
the result.  The module keeps the name of the Nehari-manifold descent it
used to hold, because the benchmark tracer (``perfbench/tracer.py``)
reports its spans as ``nehari.*``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConeError, ConvergenceError
from .energy import State, hessian_operator, make_state, phi, phi_grad
from .linalg import _factorized, laplacian_solve
from .mesh import (Grid, norm, principal_laplacian_eigenvalue,
                   principal_laplacian_eigenvector)
from .model import ModelSpec, eval_g, zero_model
from .spectrum import stability_index, stability_tolerance

_CLIP_REL = 1e-12  # cone floor used to keep iterates strictly interior
_SWEEP_RTOL = 1e-6    # relative change that hands the iteration to Newton
_MAX_SWEEPS = 1000    # near lambda* the rate tends to 1: Newton finishes


@dataclass
class SolveReport:
    state: State
    lam: float
    energy: float
    delta: float
    residual_norm: float
    iterations: int               # Newton steps applied
    converged: bool
    message: str = ""


def _laplacian_step(state: State, lam: float) -> State:
    """Monotone step u <- L^-1 (lam u^(q-1) + g(u)) on the grid's factor."""
    rhs = lam * state.u ** (state.spec.q - 1.0) + eval_g(state.spec, state.u)
    return state.with_u(laplacian_solve(state.grid)(rhs.T).T)


def _subsolution(grid: Grid, spec: ModelSpec, lam: float) -> State:
    """u0 = (lam / lambda_1)^(1/(2-q)) phi_1 / ||phi_1||_inf, per component.

    With s the scale and 0 < phi_1 <= ||phi_1||_inf = 1,
    L u0 = lambda_1 s phi_1 = lam s^(q-1) phi_1 <= lam u0^(q-1), and g >= 0.
    """
    mode = principal_laplacian_eigenvector(grid)
    scale = (lam / principal_laplacian_eigenvalue(grid)) \
        ** (1.0 / (2.0 - spec.q))
    return make_state(grid, spec, np.tile(scale * mode / mode.max(),
                                          (spec.m, 1)))


def _minimal_solution(grid: Grid, spec: ModelSpec, lam: float
                      ) -> tuple[State, bool]:
    """Monotone iterate from ``_subsolution``, and whether it diverged.

    Stops at ``_SWEEP_RTOL`` relative change or after ``_MAX_SWEEPS``
    sweeps.  It diverges (lam above lambda*) once the sup norm passes the
    point beyond which the next step could overflow g.
    """
    state = _subsolution(grid, spec, lam)
    ceiling = 1e300 ** (1.0 / max(spec.degrees, default=2.0))
    for _ in range(_MAX_SWEEPS):
        new = _laplacian_step(state, lam)
        change = float(np.abs(new.u - state.u).max())
        state = new
        if change <= _SWEEP_RTOL * state.sup:
            break
        if state.sup > ceiling:
            return state, True
    return state, False


def solve_stable(grid: Grid, spec: ModelSpec, lam: float,
                 init: State | None = None, tol: float = 1e-11) -> SolveReport:
    """Stable branch solution at fixed lam: monotone iteration, then Newton.

    Without ``init`` the monotone iteration of ``_minimal_solution`` gives
    the Newton start; with it, Newton starts from ``init``.  The result
    counts as converged when Newton converges and the stability index lies
    above ``stability_tolerance``.  ``tol`` is relative to the stencil
    scale; ``iterations`` counts the Newton steps applied.
    """
    if lam <= 0:
        raise ValueError("lambda must be positive")
    if init is None:
        init, diverged = _minimal_solution(grid, spec, lam)
        if diverged:
            return SolveReport(state=init, lam=lam, energy=math.nan,
                               delta=math.nan, residual_norm=math.inf,
                               iterations=0, converged=False,
                               message="monotone iteration diverged")
    state, newton_ok, iters, rn = newton_solve(grid, spec, lam, init, tol=tol)
    try:
        delta = stability_index(state, start=state.u).delta
    except (ConeError, ConvergenceError):
        delta = math.nan
    converged = bool(newton_ok and delta > stability_tolerance(state))
    message = ""
    if not newton_ok:
        message = "Newton did not converge"
    elif not converged:
        message = "candidate not asymptotically stable"
    return SolveReport(state=state, lam=lam, energy=phi(state, lam),
                       delta=delta, residual_norm=rn, iterations=iters,
                       converged=converged, message=message)


def solve_sublinear(grid: Grid, q: float, lam: float) -> np.ndarray:
    """Unique positive solution of -Delta_h w = lam w^(q-1), shape (N,).

    ``solve_stable`` on the zero model, to 1e-13 of the stencil scale.
    """
    if not 1.0 < q < 2.0:
        raise ValueError("q must lie in (1, 2)")
    rep = solve_stable(grid, zero_model(q), lam, tol=1e-13)
    if not rep.converged:
        raise ConvergenceError(f"sublinear solve failed: {rep.message}",
                               residual=rep.residual_norm,
                               iterations=rep.iterations)
    return rep.state.u[0]


def sublinear_state(grid: Grid, spec: ModelSpec, lam: float) -> State:
    """w_lambda tiled over the model components."""
    w = solve_sublinear(grid, spec.q, lam)
    return make_state(grid, spec, np.tile(w, (spec.m, 1)))


def _clip_cone(u: np.ndarray) -> np.ndarray:
    floor = _CLIP_REL * max(float(np.abs(u).max()), 1e-300)
    return np.maximum(u, floor)


def newton_solve(grid: Grid, spec: ModelSpec, lam: float, init: State,
                 tol: float = 1e-12, max_iters: int = 40) -> tuple[State, bool, int, float]:
    """Damped Newton on the residual at fixed lambda.

    Returns (state, converged, iterations, residual_norm); iterates are kept
    in the cone by clipping.  The line search halves a step whose trial
    does not lower the residual or collapses onto the trivial branch (sup
    norm at most 1e-8 of the start's), so a long first step from a fold
    point is damped instead of ending the solve.  A second damped step in a
    row ends it, not converged: above the fold, where no solution exists,
    every step needs damping, and a failed continuation corrector then
    stops in two or three steps instead of running to ``max_iters``.
    """
    tol_abs = tol * grid.stencil_scale
    u = _clip_cone(init.u.copy())
    state = make_state(grid, spec, u)
    sup0 = max(state.sup, 1e-300)
    res = phi_grad(state, lam)
    rn = norm(grid, res)
    damped = False
    for it in range(max_iters):
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
            # a trial collapsed onto the trivial branch is no positive solution
            if rn_try < (1.0 - 1e-4 * alpha) * rn \
                    and trial.sup > 1e-8 * sup0:
                state, res, rn = trial, res_try, rn_try
                accepted = True
                break
            alpha *= 0.5
        if not accepted or (damped and alpha < 1.0):
            return state, False, it + 1, rn
        damped = alpha < 1.0
    return state, rn <= tol_abs, max_iters, rn
