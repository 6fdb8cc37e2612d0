"""Stable-branch solver at fixed lambda, and the one damped Newton loop.

Below lambda* the stable branch is the minimal positive solution
(Ambrosetti, Brezis and Cerami 1994), and Amann's monotone iteration
reaches it directly.  The coefficients and exponents of g are
nonnegative, so g is nondecreasing and cooperative on the cone; -Delta_h
is an M-matrix; and the scaled sine mode of ``_subsolution`` is a
subsolution.  So u <- L^-1 (lam u^(q-1) + g(u)), the Laplacian step that
``cw.cw_ascend`` takes at lambda_cw, rises monotonically to the stable
solution when lam < lambda*, and grows without bound above it.
``newton_solve`` finishes the iteration and ``stability_index`` checks
the result.

``_newton`` is the damped Newton loop of all three Newton systems
(Deuflhard 2004): ``newton_solve`` here, and the arclength corrector and
the augmented fold Newton of ``fold``.  It owns the cone clip, the step,
the one backtracking line search and the one stop test; each solver
supplies its residual norm and Newton step as a ``_Point`` and keeps its
failure rules.  The module keeps the name of the Nehari-manifold descent
it used to hold, because the benchmark tracer (``perfbench/tracer.py``)
reports its spans as ``nehari.*``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterator

import numpy as np

from .errors import ConeError, ConvergenceError
from .energy import State, hessian_operator, make_state, phi, phi_grad
from .linalg import _factorized, laplacian_solve
from .mesh import (Grid, norm, principal_laplacian_eigenvalue,
                   principal_laplacian_eigenvector)
from .model import ModelSpec, eval_g
from .spectrum import stability_index, stability_tolerance

_CLIP_REL = 1e-12  # cone floor used to keep iterates strictly interior
_SWEEP_RTOL = 1e-6    # relative change that hands the iteration to Newton
_MAX_SWEEPS = 1000    # near lambda* the rate tends to 1: Newton finishes
_MAX_NEWTON = 40      # Newton steps of one fixed-lambda solve


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
    eigenfield: np.ndarray | None = field(default=None, repr=False)


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
    above ``stability_tolerance``; the report keeps that index's
    eigenfield.  ``tol`` is ``newton_solve``'s; ``iterations`` counts the
    Newton steps applied.
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
        stab = stability_index(state, start=state.u)
        delta, eigenfield = stab.delta, stab.eigenfield
    except (ConeError, ConvergenceError):
        delta, eigenfield = math.nan, None
    converged = bool(newton_ok and delta > stability_tolerance(state))
    message = ""
    if not newton_ok:
        message = "Newton did not converge"
    elif not converged:
        message = "candidate not asymptotically stable"
    return SolveReport(state=state, lam=lam, energy=phi(state, lam),
                       delta=delta, residual_norm=rn, iterations=iters,
                       converged=converged, message=message,
                       eigenfield=eigenfield)




def _clip_cone(u: np.ndarray) -> np.ndarray:
    """u raised to the cone floor."""
    floor = _CLIP_REL * max(float(np.abs(u).max()), 1e-300)
    return np.maximum(u, floor)


@dataclass
class _Point:
    """An iterate of ``_newton``, evaluated by its solver.

    ``merit``, the residual norm, is lowered by the line search and read by
    the stop test.  ``step`` is the Newton correction (du, dlam, ...): it
    calls ``solve`` on first read and drops it, with any factor it holds.
    """

    state: State
    lam: float
    merit: float
    solve: Callable[[], tuple] | None = field(repr=False)
    data: tuple = ()
    converged: bool = False

    @cached_property
    def step(self) -> tuple:
        step, self.solve = self.solve(), None
        return step


def _newton(evaluate: Callable[[np.ndarray, float], _Point], u: np.ndarray,
            lam: float, halvings: int, tol: float
            ) -> Iterator[tuple[_Point, float]]:
    """Damped Newton: yields the start, then each accepted iterate, with the
    step length alpha that reached it (1 for the start).

    ``evaluate(u, lam)`` is the solver's ``_Point`` at (u, lam); every
    iterate, the start too, is clipped onto the cone.  A point has
    converged when its merit is at most ``tol`` times the stencil scale
    times the quadrature norm of its state, so a small state near q = 2
    does not pass whatever it is.  A trial along a point's step is accepted
    when its sup norm exceeds 1e-8 of the start's (u = 0 is no positive
    solution) and it has converged or its merit is at most
    (1 - 1e-4 alpha) times the point's; otherwise alpha is halved, at most
    ``halvings`` times.  The iteration ends when no trial is accepted.  A
    rejected trial is dropped before the next is evaluated, so the line
    search holds one trial, and its factor, at a time.
    """
    def at(u, lam):
        point = evaluate(_clip_cone(u), lam)
        grid = point.state.grid
        point.converged = point.merit <= tol * grid.stencil_scale \
            * norm(grid, point.state.u)
        return point

    point, alpha = at(u, lam), 1.0
    sup0 = max(point.state.sup, 1e-300)
    while True:
        yield point, alpha
        du, dlam = point.step[:2]
        alpha = 1.0
        for _ in range(halvings + 1):
            trial = at(point.state.u + alpha * du, point.lam + alpha * dlam)
            decrease = trial.merit <= (1.0 - 1e-4 * alpha) * point.merit
            if (trial.converged or decrease) and trial.state.sup > 1e-8 * sup0:
                break
            del trial
            alpha *= 0.5
        else:
            return
        point = trial


def newton_solve(grid: Grid, spec: ModelSpec, lam: float, init: State,
                 tol: float = 1e-12) -> tuple[State, bool, int, float]:
    """Damped Newton on the residual at fixed lambda (``_newton``).

    Returns (state, converged, iterations, residual_norm); ``tol`` is the
    stop test's.  A step is halved up to 30 times, so a long first step
    from a fold point is damped instead of ending the solve.  A second
    damped step in a row to an unconverged point ends it: above the fold,
    where no solution exists, every step needs damping, and the solve then
    stops in two or three steps instead of running to ``_MAX_NEWTON``.
    ``solve_stable`` calls it for ``solve``, for the first record of a
    branch and for the direct route's reseed.
    """
    def evaluate(u, lam):
        state = make_state(grid, spec, u)
        res = phi_grad(state, lam)
        return _Point(state, lam, norm(grid, res), lambda: (
            _factorized(hessian_operator(state, lam))(-res.ravel())
            .reshape(res.shape), 0.0))

    damped = False
    for it, (point, alpha) in enumerate(_newton(evaluate, init.u, lam, 30,
                                                tol)):
        if point.converged or it == _MAX_NEWTON or damped and alpha < 1.0:
            return point.state, point.converged, it, point.merit
        damped = alpha < 1.0
    return point.state, False, it + 1, point.merit
