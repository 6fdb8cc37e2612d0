"""Fold certification and refinement: augmented Newton plus continuation.

A fold is refined by damped Newton on the minimally augmented system
{F(u, lam) = 0, g(u, lam) = 0} (Griewank and Reddien 1984; Govaerts 2000,
ch. 3-4), where the test function g and the null vector v come from one
bordered solve [[H, b], [b', 0]] (v, g) = (0, 1) with a fixed border b.
The bordered matrix is factored whole, once per iterate, and it stays
regular at a simple fold.  The Newton step reuses that factor: two more
solves and a 2x2 system give it, with a backward-error check on the full
Newton system, so nothing is eliminated through the (near) singular
Hessian.  Newton stops on the residuals and on the size of its next
lambda correction, so lambda* does not depend on where it started.
Both Newton systems here, the augmented one (a step halved up to 25
times) and the arclength corrector (full steps), run on the damped loop
``nehari._newton``, which clips every iterate onto the cone.
Continuation uses natural stepping with a secant predictor and switches
to pseudo-arclength stepping (tangent predictor and corrector, both
bordered solves) where the branch starts to turn away from the secant, or
at the first failed or slow natural corrector; the natural step adapts to
the corrector's iteration count, the arclength step to the size of the
corrector's first Newton correction.  No record computes an eigenpair:
the fold test is the sign of the lambda part of the branch tangent, which
the arclength step solves for anyway, and a record's stability index and
energy are computed when first read.  The augmented Newton refines the fold from
the bracket end nearer to it; regula falsi (the Illinois variant) on the
stability index narrows the bracket only when its independent estimate
``FoldDetection.lambda_bisect`` is read.  ``find_fold_continuation``
starts the branch below a certified lower bound of lambda*.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (ConeError, ConvergenceError, NoFoldError,
                     SingularBorderError)
from .energy import State, hessian_operator, make_state, phi, phi_grad
from .linalg import (LinearOperator, factor_bordered, laplacian_solve,
                     smallest_eigenpair, _BACKWARD_TOL)
from .mesh import Grid, norm
from .model import ModelSpec, _term_partials
from .nehari import newton_solve, solve_stable, _newton, _Point
from .cw import cw_ascend, cw_value, upper_bound_lambda, _fiber_argmax
from .spectrum import (StabilityResult, stability_index, stability_tolerance,
                       _EIG_TOL)


@dataclass
class FoldPoint:
    state: State                  # u*
    v: np.ndarray                 # null direction, (m, N), sign-normalized
    lam: float
    delta: float
    residuals: tuple[float, float, float]   # (||F||, ||Hv||, | ||v||^2 - 1 |)
    newton_iterations: int
    eig_alignment: float = math.nan          # |cos| between v and eigenfield
    history: tuple[float, ...] = ()          # sqrt(||F||^2 + g^2) per iterate


@dataclass
class BranchRecord:
    """One accepted point of a traced branch.

    ``stability``, the principal eigenpair of ``state``, is computed the
    first time it is read (one ``stability_index`` call, started from the
    state itself) and kept;
    ``delta`` reads it unless the record was made with ``known_delta``.
    ``energy``, phi at (state, lam), is likewise computed when first read.
    Continuation itself reads none of them.
    """

    lam: float
    corrector_iters: int
    state: State = field(repr=False, compare=False)
    known_delta: float | None = field(default=None, repr=False,
                                      compare=False)

    @property
    def sup_norm(self) -> float:
        return self.state.sup

    @cached_property
    def energy(self) -> float:
        return phi(self.state, self.lam)

    @cached_property
    def stability(self) -> StabilityResult:
        return stability_index(self.state, start=self.state.u)

    @property
    def delta(self) -> float:
        if self.known_delta is not None:
            return self.known_delta
        return self.stability.delta


@dataclass
class Branch:
    records: list[BranchRecord] = field(default_factory=list)
    fold_bracketed: bool = False


@dataclass
class FoldDetection:
    """A fold refined from a branch bracket (``detect_fold``).

    ``lambda_bisect``, the regula falsi's independent estimate of lambda*,
    narrows the bracket between the two ``ends`` when it, or
    ``agreement``, is first read, and is kept.
    """

    bracket: tuple[float, float]
    fold_point: FoldPoint
    lambda_moore_spence: float
    ends: tuple[BranchRecord, BranchRecord] = field(repr=False,
                                                    compare=False)

    @cached_property
    def lambda_bisect(self) -> float:
        return _regula_falsi(*self.ends)

    @property
    def agreement(self) -> float:
        return abs(self.lambda_bisect - self.lambda_moore_spence)


def _third_derivative_blocks(state: State, lam: float,
                             v: np.ndarray) -> np.ndarray:
    """Exact d/du [H(u) v], the state derivative of the Hessian applied to v.

    The non-Laplacian part of the Hessian is local, so its derivative is
    block-diagonal over nodes.  Returns the (m, m, N) array whose entry
    (i, j, n) is -sum_k G_ijk v_k - [i = j] lam (q-1)(q-2) u_i^(q-3) v_i at
    node n; the derivative along xi is ``einsum("ijn,jn->in", blocks, xi)``.
    """
    u, spec = state.u, state.spec
    q, m = spec.q, spec.m
    g3 = _term_partials(spec, u, 3).sum(axis=0)             # (m, m, m, N)
    blocks = -np.einsum("ijkn,kn->ijn", g3, v)
    blocks[range(m), range(m)] -= lam * (q - 1.0) * (q - 2.0) * u ** (q - 3.0) * v
    return blocks


def _test_function_gradient(state: State, lam: float,
                            v: np.ndarray) -> tuple[np.ndarray, float]:
    """(g_u, g_lam) at (u, lam), given the null vector v of g's bordered solve.

    H is symmetric, so v is also the left null vector and dg = -v' dH v.
    """
    q = state.spec.q
    g_u = -np.einsum("ijn,in->jn", _third_derivative_blocks(state, lam, v), v)
    g_lam = (q - 1.0) * float(np.sum(state.u ** (q - 2.0) * v ** 2))
    return g_u, g_lam


def _augmented_newton_step(hess: LinearOperator, border, f: np.ndarray,
                           g: float, v: np.ndarray, f_lam: np.ndarray,
                           g_u: np.ndarray, g_lam: float
                           ) -> tuple[np.ndarray, float]:
    """Newton step of {F = 0, g = 0} on the factor that gave (v, g).

    ``border`` solves with M = [[H, b], [b', 0]], and M (v, g) = (0, 1).
    With M (x1, y1) = (-F, 0) and M (x2, y2) = (F_lam, 0), the step
    du = x1 - dlam x2 + alpha v solves [[H, F_lam], [g_u', g_lam]]
    (du, dlam) = (-F, -g) once (dlam, alpha) solves the 2x2 system
    [[-y2, g], [g_lam - g_u' x2, g_u' v]] (dlam, alpha) = (-y1, -g - g_u' x1).
    At a simple fold g = 0 and its determinant is y2 g_u' v: y2 != 0 is the
    transversality condition and g_u' v != 0 the quadratic-fold condition,
    so no elimination runs through the singular H.  Vectors are flat.
    Raises ``SingularBorderError`` when the 2x2 system is singular or the
    backward error of the step in the full Newton system exceeds
    ``linalg._BACKWARD_TOL``.
    """
    x1, y1 = border(-f, 0.0)
    x2, y2 = border(f_lam, 0.0)
    small = np.array([[-y2, g], [g_lam - g_u @ x2, g_u @ v]])
    try:
        dlam, alpha = np.linalg.solve(small, [-y1, -g - g_u @ x1])
    except np.linalg.LinAlgError as exc:
        raise SingularBorderError(f"augmented Newton system is singular: "
                                  f"{exc}") from exc
    du = x1 - dlam * x2 + alpha * v

    res = math.hypot(np.linalg.norm(hess(du) + dlam * f_lam + f),
                     g_u @ du + g_lam * dlam + g)
    ref = (math.hypot(np.linalg.norm(f), g)
           + (np.linalg.norm(f_lam) + np.linalg.norm(g_u) + abs(g_lam)
              + hess.scale()) * math.hypot(np.linalg.norm(du), dlam))
    if not res <= _BACKWARD_TOL * ref:
        raise SingularBorderError("augmented Newton system is numerically "
                                  "singular", condition_estimate=ref / res)
    return du, float(dlam)


_MAX_AUGMENTED = 50   # Newton steps of one augmented fold solve


def moore_spence_solve(grid: Grid, spec: ModelSpec, init_u: State,
                       init_v: np.ndarray, init_lam: float,
                       tol: float = 1e-12) -> FoldPoint:
    """Damped Newton (``nehari._newton``, a step halved up to 25 times) on
    the minimally augmented fold system {F = 0, g = 0}, whose merit is
    sqrt(||F||^2 + g^2).

    The name is that of the Moore-Spence system {F = 0, H v = 0, <v, v> = 1}
    it used to solve; it stays because it is public and gives the same fold
    point.  The border b is ``init_v``, Euclidean-normalized and fixed.
    Each evaluated iterate factors one bordered matrix [[H, b], [b', 0]]:
    its solve gives (v, g), and two more solves on the same factor give
    the Newton step (``_augmented_newton_step``).  The factor is released
    before the line search, so one bordered factor is alive at a time.
    Newton stops at a point that ``_newton`` marks converged with ``tol``
    and whose Newton correction has a lambda part, its error estimate, of
    at most ``tol`` relative to max(|lambda|, 1); that correction is not
    applied.  The merit alone stops wherever the last iterate happens to
    land, which leaves lambda* depending on the starting point.  It fails
    when its merit is not halved over 5 steps, at ``_MAX_AUGMENTED``
    steps, when no trial is accepted, and when a step is singular.
    Converged points carry the residuals (v at quadrature norm one), the
    eigen-certificate (Lanczos started from v), the number of Newton steps
    applied and the merit history of the start and each accepted iterate:
    one entry more than steps.  The Newton reaches any singular point, so
    a certificate delta below -``stability_tolerance`` (an unstable
    singular point, not the fold of the stable branch) raises
    ``ConvergenceError``.
    """
    m, n, scale = spec.m, grid.n_nodes, grid.stencil_scale
    w = grid.node_weight

    b = np.asarray(init_v, dtype=float).ravel()
    bn = float(np.linalg.norm(b))
    if bn == 0.0:
        raise ValueError("init null direction must be nonzero")
    b = b / bn

    def evaluate(u, lam):
        state = make_state(grid, spec, u)
        hess = hessian_operator(state, lam)
        f = phi_grad(state, lam)
        border = factor_bordered(hess, b, b, 0.0)
        v, g = border(np.zeros(m * n), 1.0)
        v = v.reshape(m, n)

        def solve():
            g_u, g_lam = _test_function_gradient(state, lam, v)
            du, dlam = _augmented_newton_step(
                hess, border, f.ravel(), g, v.ravel(),
                -(state.u ** (spec.q - 1.0)).ravel(), g_u.ravel(), g_lam)
            return du.reshape(m, n), dlam

        return _Point(state, lam, math.hypot(norm(grid, f), g), solve,
                      (f, v, hess))

    history, it = [], -1
    try:
        for it, (point, _) in enumerate(_newton(evaluate, init_u.u,
                                                float(init_lam), 25, tol)):
            f, v, hess = point.data
            history.append(point.merit)
            if len(history) > 5 and history[-1] > 0.5 * history[-6]:
                raise ConvergenceError(
                    "augmented Newton diverged "
                    "(residual not halved over 5 steps)",
                    residual=history[-1], iterations=it)
            if it == _MAX_AUGMENTED:
                raise ConvergenceError("augmented Newton hit its iteration cap",
                                       residual=history[-1], iterations=it)
            if point.converged \
                    and abs(point.step[1]) <= tol * max(abs(point.lam), 1.0):
                break
        else:
            raise ConvergenceError("augmented Newton stalled",
                                   residual=history[-1], iterations=it + 1)
    except SingularBorderError as exc:
        raise ConvergenceError(f"augmented Newton step failed: {exc}",
                               residual=min(history, default=None),
                               iterations=it + 1) from exc

    # quadrature normalization, sign rule and eigen-certificate
    v = v / norm(grid, v)
    flat = v.ravel()
    k = int(np.argmax(np.abs(flat)))
    if flat[k] < 0:
        v = -v
    delta, phi_eig = smallest_eigenpair(hess, tol=_EIG_TOL * scale, start=v)
    if delta < -stability_tolerance(point.state):
        raise ConvergenceError(f"augmented Newton reached an unstable "
                               f"singular point (delta={delta:.3e})",
                               iterations=it)
    align = abs(w * float(phi_eig @ v.ravel()))
    hv = norm(grid, hess(v.ravel()).reshape(m, n))
    vv = w * float(v.ravel() @ v.ravel())
    return FoldPoint(state=point.state, v=v, lam=point.lam, delta=delta,
                     residuals=(norm(grid, f), hv, abs(vv - 1.0)),
                     newton_iterations=it, eig_alignment=align,
                     history=tuple(history))


def _start(grid: Grid, spec: ModelSpec) -> tuple[float, State]:
    """The a-priori bound Lambda and the torsion state L^-1 1 that both
    routes start from: one solve on the grid's Laplacian factor, in every
    component.  Raises ``NoFoldError`` on an infinite Lambda."""
    bound = upper_bound_lambda(spec, grid)
    if not math.isfinite(bound):
        raise NoFoldError("the a-priori bound is infinite; no fold exists")
    torsion = laplacian_solve(grid)(np.ones(grid.n_nodes))
    return bound, make_state(grid, spec, np.tile(torsion, (spec.m, 1)))


def find_fold_direct(grid: Grid, spec: ModelSpec, *,
                     tol: float = 1e-12) -> FoldPoint:
    """Direct pipeline: Collatz-Wielandt ascent, then augmented Newton.

    The ascent starts from the torsion state of ``_start`` (its fiber
    rescale makes the result independent of scale), and stops at a stable
    branch solution below lambda*; the augmented Newton climbs from there
    to the fold, bordered by the ascent's end state u.  Like the null
    direction at the fold, u is positive, so the border is not orthogonal
    to it.  The a-priori bound only decides whether a fold exists.  The
    ascent's end is not classified: wherever it lies, it seeds the
    Newton, whose eigen-certificate rejects an unstable answer.
    """
    _, torsion = _start(grid, spec)
    try:
        cand = cw_ascend(torsion)
    except ConeError as exc:
        raise ConvergenceError(f"ascent left the positive cone: {exc}") from exc
    return moore_spence_solve(grid, spec, cand.state, cand.state.u,
                              cand.lambda_cw, tol=tol)


def find_fold_continuation(grid: Grid, spec: ModelSpec, *,
                           tol: float = 1e-12) -> FoldDetection:
    """Continuation pipeline: trace the stable branch, then ``detect_fold``.

    The branch starts at min(Lambda / 2, 0.9 lambda_lo), with a first step
    of a tenth of that.  Lambda is the a-priori bound and lambda_lo the
    Collatz-Wielandt value of the torsion state of ``_start`` after one
    fiber rescale (``cw._fiber_argmax``), the first rescale of the direct
    route's ascent.  Any positive w is a supersolution at lambda_cw(w), and
    a small enough multiple of the sine mode a subsolution below it, so a
    solution exists there (Amann) and lambda_lo <= lambda*; on a one-node
    grid it can equal lambda*, hence the factor 0.9.  Lambda / 2 alone lies
    above lambda* wherever Lambda / lambda* > 2, as for some systems.
    Raises ``NoFoldError`` on an infinite Lambda, as ``find_fold_direct``
    does; ``tol`` is the augmented-Newton tolerance.
    """
    bound, torsion = _start(grid, spec)
    t = _fiber_argmax(torsion)
    lam_lo = cw_value(torsion.with_u(t * torsion.u)).lambda_cw
    lam_start = min(0.5 * bound, 0.9 * lam_lo)
    branch = continue_branch(grid, spec, lam_start=lam_start,
                             step=0.1 * lam_start)
    return detect_fold(grid, spec, branch, tol=tol)


def _step_factor(iters: int) -> float:
    """Step-length factor from the iteration count of an accepted corrector.

    A corrector that converges in a few iterations was given a step well
    inside its contraction region, so the next step grows; about four is
    the target, and slower convergence shrinks the step (Allgower and Georg
    1990, ch. 6; Deuflhard 2004).
    """
    if iters <= 2:
        return 2.0
    if iters == 3:
        return 1.5
    return 1.0 if iters == 4 else 0.7


# Natural stepping ends once a corrector lands farther than _BEND times the
# step from its secant predictor: the branch has started to turn.
_BEND = 0.05

# Pseudo-arclength step control (Allgower and Georg 1990, sec. 6.1): the
# first Newton correction of a corrector is about half the branch curvature
# times the step squared, so its ratio to the step grows with the step.
_ALPHA = 0.15       # nominal ratio of the first correction to the step
_ALPHA_MAX = 0.5    # a corrector whose ratio exceeds this stops at once
_GROW = 1.7         # largest growth of the step after an accepted corrector

_BRANCH_TOL = 1e-11   # Newton tolerance of the branch trace, relative
_MAX_CORRECTOR = 12   # Newton steps of one arclength corrector


def continue_branch(grid: Grid, spec: ModelSpec, lam_start: float,
                    step: float = 0.05, max_records: int = 200) -> Branch:
    """Trace the stable branch from lam_start until a fold is bracketed.

    Natural-parameter stepping with a secant predictor; the step is scaled
    by ``_step_factor`` of each accepted corrector's iteration count, and
    ``step`` is the first one.  Natural stepping ends at the first
    corrector that fails, needs more than six iterations, or lands farther
    than _BEND times the step from its secant predictor, where the branch
    starts to turn; so it tries at most one lambda beyond the fold.
    Pseudo-arclength stepping follows, from a step of half the next natural
    one: its predictor follows the branch tangent, and its step is scaled
    by _ALPHA over the ratio of the corrector's first Newton correction to
    the step (at most by _GROW).  A corrector whose ratio exceeds
    _ALPHA_MAX stops after that first correction, one whose corrections
    stop shrinking stops too, and a failed corrector halves the step.

    The fold test is the tangent: at a simple fold its lambda part changes
    sign together with det H (Allgower and Georg 1990), so a record whose
    tangent, oriented along the step that reached it, has a nonpositive
    lambda part lies past the fold.  The tangent comes from the corrector's
    last bordered factor, or from one bordered factor after a natural step,
    so the test costs no factor of its own.  Tracing stops there with
    ``fold_bracketed`` set and the fold between the last two records; a
    natural step that collapses onto u = 0 (sup norm at most 1e-8 of the
    record before) stops it the same way.  Otherwise it stops after
    max_records.  No record computes its stability index: ``delta`` is
    computed when first read.  The first record is ``solve_stable`` at
    lam_start, keeps that solve's delta, and its ``corrector_iters`` counts
    that solve's Newton steps.
    """
    rep = solve_stable(grid, spec, lam_start, tol=_BRANCH_TOL)
    if not rep.converged:
        raise ConvergenceError(
            f"initial solve failed at lambda={lam_start:g}: {rep.message}")
    branch = Branch()

    def record(state: State, lam: float, iters: int,
               delta: float | None = None) -> None:
        branch.records.append(BranchRecord(
            lam=lam, corrector_iters=iters, state=state, known_delta=delta))

    record(rep.state, lam_start, rep.iterations, rep.delta)
    prev: tuple[State, float] | None = None
    cur = (rep.state, lam_start)
    mode = "natural"
    dl = step
    tangent = border = None

    while len(branch.records) < max_records:
        if mode == "natural":
            lam_new = cur[1] + dl
            secant = prev is not None and cur[1] != prev[1]
            if secant:
                u_pred = cur[0].u + (cur[0].u - prev[0].u) * (dl / (cur[1] - prev[1]))
            else:
                u_pred = cur[0].u
            st, ok, iters, _ = newton_solve(
                grid, spec, lam_new, make_state(grid, spec, u_pred),
                tol=_BRANCH_TOL)
            bend = 0.0
            if ok:
                record(st, lam_new, iters)
                if st.sup <= 1e-8 * cur[0].sup:
                    branch.fold_bracketed = True
                    break
                if secant:
                    bend = norm(grid, st.u - u_pred) / math.hypot(
                        norm(grid, u_pred - cur[0].u), dl)
                prev, cur = cur, (st, lam_new)
                dl *= _step_factor(iters)
            if not ok or iters > 6 or bend > _BEND:
                mode, ds = "arclength", 0.5 * dl
            continue

        # pseudo-arclength: predict along the unit tangent at cur, the null
        # vector of [H, dF/dlam].  The corrector's last factor gives it,
        # oriented along the tangent before; after a natural step, one
        # bordered factor at cur gives it, oriented along the secant.  A
        # secant over a long natural step cuts across the turning point,
        # and its plane can miss the branch.
        if tangent is None:
            try:
                if border is None:
                    if prev is None:
                        prev = (cur[0], cur[1] - 1e-3 * max(abs(cur[1]), 1.0))
                    du = cur[0].u - prev[0].u
                    border = factor_bordered(
                        hessian_operator(cur[0], cur[1]),
                        -(cur[0].u ** (spec.q - 1.0)).ravel(),
                        grid.node_weight * du.ravel(), cur[1] - prev[1])
                tu, tlam = border(np.zeros(cur[0].u.size), 1.0)
            except SingularBorderError:
                break
            if tlam <= 0.0:
                branch.fold_bracketed = True
                break
            tu = tu.reshape(cur[0].u.shape)
            tnorm = math.sqrt(norm(grid, tu) ** 2 + tlam ** 2)
            tangent = (tu / tnorm, tlam / tnorm)
        tu, tlam = tangent
        result, first = _arclength_corrector(
            grid, spec, cur[0].u + ds * tu, cur[1] + ds * tlam, tu, tlam,
            max_first=_ALPHA_MAX * ds)
        if result is not None:
            st, lam_new, iters, border = result
            record(st, lam_new, iters)
            prev, cur, tangent = cur, (st, lam_new), None
            ds *= min(_ALPHA * ds / max(first, 1e-300), _GROW)
        else:
            ds *= 0.5
            if ds < 1e-6:
                break
    return branch


def _arclength_corrector(grid: Grid, spec: ModelSpec, u_pred: np.ndarray,
                         lam_pred: float, tu: np.ndarray, tlam: float,
                         max_first: float = math.inf):
    """Newton corrector on {residual = 0, tangent plane through predictor}.

    Full steps of ``nehari._newton`` (no halving, tolerance _BRANCH_TOL),
    whose merit is the norm of both residuals.  Returns ((state, lam,
    Newton steps taken, border), first), the steps counted as
    ``newton_solve`` counts them, ``border`` the solve function of the last
    bordered factor (None when no step was taken) and ``first`` the length
    of the first Newton correction; the first item is None when the
    corrector fails.  It fails when a full step does not lower the merit or
    collapses onto the trivial solution u = 0, which meets every tangent
    plane that is not parallel to the lambda axis; at once when ``first``
    exceeds ``max_first``; when a correction is not shorter than the one
    before it; and when it has not converged after _MAX_CORRECTOR steps.
    """
    w = grid.node_weight

    def evaluate(u, lam):
        state = make_state(grid, spec, u)
        f = phi_grad(state, lam)
        con = (w * float(tu.ravel() @ (u - u_pred).ravel())
               + tlam * (lam - lam_pred))

        def solve():
            border = factor_bordered(hessian_operator(state, lam),
                                     -(u ** (spec.q - 1.0)).ravel(),  # dF/dlam
                                     w * tu.ravel(), tlam)
            dx, dlam = border(-f.ravel(), -con)
            return dx.reshape(u.shape), dlam, border

        return _Point(state, lam, math.hypot(norm(grid, f), con), solve)

    first, last, border = 0.0, math.inf, None
    for it, (point, _) in enumerate(_newton(evaluate, u_pred, lam_pred, 0,
                                            _BRANCH_TOL)):
        if point.converged:
            return (point.state, point.lam, it, border), first
        if it == _MAX_CORRECTOR:
            break
        try:
            dx, dlam, border = point.step
        except SingularBorderError:
            break
        size = math.sqrt(norm(grid, dx) ** 2 + dlam ** 2)
        if it == 0:
            first = size
            if first > max_first:
                break
        elif size >= last:
            break
        last = size
    return None, first


def _regula_falsi(a: BranchRecord, b: BranchRecord) -> float:
    """Illinois regula falsi on delta between the bracket records a and b.

    Each step corrects onto the branch at the point of the chord where the
    line through the two ends' weighted delta values vanishes, clipped to
    [0.05, 0.95] of the chord; when the same end is replaced twice in a
    row, the weight of the other end is halved (the Illinois rule).  Its
    eigenpair starts from the eigenfield of the nearer end.  The search
    stops once the bracket is 1e-9 relative wide or |delta| is at most
    1e-12 times the stencil scale, and returns the secant estimate of
    lambda at delta = 0 from the final bracket.
    """
    grid, spec = a.state.grid, a.state.spec
    (sa, la, da, ea), (sb, lb, db, eb) = (
        (r.state, r.lam, r.delta, r.stability.eigenfield) for r in (a, b))

    fa, fb, last = da, db, 0     # Illinois weights; last end replaced
    for _ in range(80):
        du = sb.u - sa.u
        dlam = lb - la
        tnorm = math.sqrt(norm(grid, du) ** 2 + dlam ** 2)
        if tnorm <= 1e-14 * max(abs(la), 1.0):
            break
        tu, tlam = du / tnorm, dlam / tnorm
        t = min(max(fa / (fa - fb), 0.05), 0.95)
        result, _ = _arclength_corrector(grid, spec, sa.u + t * du,
                                         la + t * dlam, tu, tlam)
        if result is None:
            break
        st, lam_m = result[:2]
        stab = stability_index(st, start=ea if t < 0.5 else eb)
        dm = stab.delta
        if dm > 0:
            if last == 1:
                fb *= 0.5
            sa, la, da, ea, fa, last = st, lam_m, dm, stab.eigenfield, dm, 1
        else:
            if last == -1:
                fa *= 0.5
            sb, lb, db, eb, fb, last = st, lam_m, dm, stab.eigenfield, dm, -1
        if abs(la - lb) <= 1e-9 * max(abs(la), 1.0) or abs(dm) \
                <= 1e-12 * grid.stencil_scale:
            break

    # secant interpolation of lambda at delta = 0 from the final bracket
    if db != da:
        return float(la + (lb - la) * (0.0 - da) / (db - da))
    return float(0.5 * (la + lb))


def detect_fold(grid: Grid, spec: ModelSpec, branch: Branch,
                tol: float = 1e-12) -> FoldDetection:
    """Refine the fold a branch brackets by the augmented Newton.

    The bracket is the last pair of records of a branch that
    ``continue_branch`` marked ``fold_bracketed`` across which delta
    changes sign: it starts at the last two records and steps back while
    both ends read delta <= 0, which costs one more eigenpair when the
    tangent test let one record past the fold.  ``NoFoldError`` is raised
    unless delta > 0 at the first end and <= 0 at the second.  The
    augmented Newton starts from the end with the smaller |delta|, its
    state and lambda, bordered by its eigenfield; ``tol`` is its tolerance
    (see ``moore_spence_solve``).  So a detection computes the eigenpairs
    of its two ends and nothing else; the regula falsi of
    ``lambda_bisect`` runs when that is first read.
    """
    records = branch.records
    if not branch.fold_bracketed or len(records) < 2:
        raise NoFoldError("branch does not bracket a fold")
    k = len(records) - 1
    while k > 1 and records[k - 1].delta <= 0 >= records[k].delta:
        k -= 1
    ends = records[k - 1], records[k]
    if not ends[0].delta > 0 >= ends[1].delta:
        raise NoFoldError("no stability sign change across the fold bracket")
    start = min(ends, key=lambda r: abs(r.delta))
    fp = moore_spence_solve(grid, spec, start.state,
                            start.stability.eigenfield, start.lam, tol=tol)
    return FoldDetection(bracket=tuple(sorted(r.lam for r in ends)),
                         fold_point=fp, lambda_moore_spence=fp.lam,
                         ends=ends)
