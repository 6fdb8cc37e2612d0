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
Continuation uses natural stepping with a secant predictor and switches
to pseudo-arclength stepping (tangent predictor and corrector, both
bordered solves) near the turning point; in both modes the step length
adapts to the corrector's iteration count.  Regula falsi (the Illinois
variant) on the stability index narrows the bracket around the sign
change before the augmented Newton refines it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConeError, ConvergenceError, NoFoldError,
                     SingularBorderError)
from .energy import State, hessian_operator, make_state, phi, phi_grad
from .linalg import (LinearOperator, factor_bordered, laplacian_solve,
                     smallest_eigenpair, solve_bordered)
from .mesh import Grid, norm
from .model import ModelSpec, _term_partials
from .nehari import newton_solve, solve_stable, _clip_cone
from .cw import CwCandidate, cw_ascend, upper_bound_lambda
from .spectrum import stability_index


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
    lam: float
    sup_norm: float
    energy: float
    delta: float
    corrector_iters: int


@dataclass
class Branch:
    records: list[BranchRecord] = field(default_factory=list)
    states: list[State] = field(default_factory=list)
    fold_bracketed: bool = False


@dataclass
class FoldDetection:
    lambda_bisect: float
    bracket: tuple[float, float]
    fold_point: FoldPoint
    lambda_moore_spence: float

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
                           g_u: np.ndarray, g_lam: float, tol: float = 1e-10
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
    backward error of the step in the full Newton system exceeds ``tol``.
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
    if not res <= tol * ref:
        raise SingularBorderError("augmented Newton system is numerically "
                                  "singular", condition_estimate=ref / res)
    return du, float(dlam)


def moore_spence_solve(grid: Grid, spec: ModelSpec, init_u: State,
                       init_v: np.ndarray, init_lam: float,
                       tol: float = 1e-12, max_iters: int = 50) -> FoldPoint:
    """Damped Newton on the minimally augmented fold system {F = 0, g = 0}.

    The name is that of the Moore-Spence system {F = 0, H v = 0, <v, v> = 1}
    it used to solve; it stays because it is public and gives the same fold
    point.  The border b is ``init_v``, Euclidean-normalized and fixed.
    Each evaluated iterate factors one bordered matrix [[H, b], [b', 0]]:
    its solve gives (v, g), and two more solves on the same factor give
    the Newton step (``_augmented_newton_step``).  The factor is released
    before the line search, so one bordered factor is alive at a time.
    ``tol`` is relative to the stencil scale.  Newton stops once ||F|| and
    |g| are at most ``tol`` times the stencil scale and the lambda part of
    the Newton correction at the current iterate, its error estimate, is at
    most ``tol`` relative to max(|lambda|, 1); that correction is not
    applied.  The residuals alone stop wherever the last iterate happens to
    land, which leaves lambda* depending on the starting point.  Converged
    points satisfy all three residual bounds (v at quadrature norm one),
    carry the eigen-certificate (Lanczos started from v), the number of
    Newton steps applied and the merit history sqrt(||F||^2 + g^2) of the
    start and each accepted iterate: one entry more than steps.
    """
    m, n = spec.m, grid.n_nodes
    scale = grid.stencil_scale
    tol_abs = tol * scale
    w = grid.node_weight

    b = np.asarray(init_v, dtype=float).ravel()
    bn = float(np.linalg.norm(b))
    if bn == 0.0:
        raise ValueError("init null direction must be nonzero")
    b = b / bn
    lam = float(init_lam)

    def residual(u, lam):
        state = make_state(grid, spec, u)
        hess = hessian_operator(state, lam)
        f = phi_grad(state, lam)
        border = factor_bordered(hess, b, b, 0.0)
        v, g = border(np.zeros(m * n), 1.0)
        return state, hess, f, v.reshape(m, n), g, border

    def merit(f, g):
        return norm(grid, f) ** 2 + g ** 2

    it, best = 0, None
    try:
        state, hess, f, v, g, border = residual(_clip_cone(init_u.u.copy()),
                                                lam)
        theta = merit(f, g)
        best = (math.sqrt(theta), state, v.copy(), lam)
        history = [math.sqrt(theta)]

        for it in range(1, max_iters + 1):
            g_u, g_lam = _test_function_gradient(state, lam, v)
            du, dlam = _augmented_newton_step(
                hess, border, f.ravel(), g, v.ravel(),
                -(state.u ** (spec.q - 1.0)).ravel(), g_u.ravel(), g_lam)
            border = out = None
            if norm(grid, f) <= tol_abs and abs(g) <= tol_abs \
                    and abs(dlam) <= tol * max(abs(lam), 1.0):
                break
            du = du.reshape(m, n)

            alpha, accepted = 1.0, False
            for _ in range(25):
                u_try = state.u + alpha * du
                if np.any(u_try <= 0):
                    u_try = _clip_cone(u_try)
                try:
                    out = residual(u_try, lam + alpha * dlam)
                except (ConeError, FloatingPointError):
                    alpha *= 0.5
                    continue
                theta_try = merit(out[2], out[4])
                if theta_try <= (1.0 - 1e-4 * alpha) * theta \
                        or theta_try < tol_abs**2:
                    state, hess, f, v, g, border = out
                    lam = lam + alpha * dlam
                    theta = theta_try
                    accepted = True
                    break
                out = None
                alpha *= 0.5
            if not accepted:
                raise ConvergenceError("augmented Newton stalled",
                                       residual=math.sqrt(theta),
                                       iterations=it, best=best)
            history.append(math.sqrt(theta))
            if math.sqrt(theta) < best[0]:
                best = (math.sqrt(theta), state, v.copy(), lam)
            if len(history) > 5 and history[-1] > 0.5 * history[-6] \
                    and history[-1] > tol_abs:
                raise ConvergenceError(
                    "augmented Newton diverged "
                    "(residual not halved over 5 steps)",
                    residual=history[-1], iterations=it, best=best)
        else:
            raise ConvergenceError("augmented Newton hit its iteration cap",
                                   residual=math.sqrt(theta),
                                   iterations=max_iters, best=best)
    except SingularBorderError as exc:
        raise ConvergenceError(f"augmented Newton step failed: {exc}",
                               residual=None if best is None else best[0],
                               iterations=it, best=best) from exc

    # quadrature normalization, sign rule and eigen-certificate
    v = v / norm(grid, v)
    flat = v.ravel()
    k = int(np.argmax(np.abs(flat)))
    if flat[k] < 0:
        v = -v
    delta, phi_eig = smallest_eigenpair(hess, tol=1e-10 * scale, start=v)
    align = abs(w * float(phi_eig @ v.ravel()))
    hv = norm(grid, hess(v.ravel()).reshape(m, n))
    vv = w * float(v.ravel() @ v.ravel())
    return FoldPoint(state=state, v=v, lam=lam, delta=delta,
                     residuals=(norm(grid, f), hv, abs(vv - 1.0)),
                     newton_iterations=it - 1, eig_alignment=align,
                     history=tuple(history))


def fold_from_candidate(cand: CwCandidate, tol: float = 1e-12) -> FoldPoint:
    """Augmented-Newton refinement seeded by a ``cw_ascend`` candidate.

    The border is the principal eigenfield the ascent leaves on it.
    """
    state = cand.state
    return moore_spence_solve(state.grid, state.spec, state,
                              cand.stability.eigenfield, cand.lambda_cw,
                              tol=tol)


def find_fold_direct(grid: Grid, spec: ModelSpec, *,
                     tol: float = 1e-12) -> FoldPoint:
    """Direct pipeline: Collatz-Wielandt ascent, then augmented Newton.

    The ascent starts from the torsion function L^-1 1, one solve on the
    Laplacian factor it uses anyway (its fiber rescale makes the result
    independent of scale), and stops at a stable branch solution below
    lambda*; the augmented Newton climbs from there to the fold.  The
    a-priori bound only decides whether a fold exists.  The augmented
    Newton converges to any singular point, so an ascent that ends on an
    unstable state raises ``ConvergenceError`` instead of seeding it.
    """
    if not math.isfinite(upper_bound_lambda(spec, grid)):
        raise NoFoldError("the a-priori bound is infinite; no fold exists")
    torsion = laplacian_solve(grid)(np.ones(grid.n_nodes))
    try:
        cand = cw_ascend(make_state(grid, spec, np.tile(torsion, (spec.m, 1))))
    except ConeError as exc:
        raise ConvergenceError(f"ascent left the positive cone: {exc}") from exc
    if not cand.stable:
        raise ConvergenceError(
            f"ascent ended on an unstable state (delta={cand.delta:.3e})",
            iterations=cand.iterations)
    return fold_from_candidate(cand, tol=tol)


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


def continue_branch(grid: Grid, spec: ModelSpec, lam_start: float,
                    step: float = 0.05, max_records: int = 200,
                    tol: float = 1e-11) -> Branch:
    """Trace the stable branch from lam_start until a fold is bracketed.

    Natural-parameter stepping with a secant predictor; switches to
    pseudo-arclength stepping, predicting along the branch tangent, when
    the Newton corrector degrades or delta falls below a quarter of its
    first value.  In both modes ``step`` is the initial step: after each
    accepted corrector the step is scaled by ``_step_factor`` of its
    iteration count (the arclength step capped at 0.1), and a failed
    corrector halves it.  Each record carries the stability index; tracing
    stops once delta changes sign (fold bracketed) or max_records is
    reached.  The first record is ``solve_stable`` at lam_start, and its
    ``corrector_iters`` counts that solve's Newton steps.
    """
    rep = solve_stable(grid, spec, lam_start, tol=tol)
    if not rep.converged:
        raise ConvergenceError(
            f"initial solve failed at lambda={lam_start:g}: {rep.message}")
    branch = Branch()

    def record(state: State, lam: float, iters: int) -> float:
        stab = stability_index(state)
        branch.records.append(BranchRecord(
            lam=lam, sup_norm=state.sup, energy=phi(state, lam),
            delta=stab.delta, corrector_iters=iters))
        branch.states.append(state)
        return stab.delta

    record(rep.state, lam_start, rep.iterations)
    prev: tuple[State, float] | None = None
    cur = (rep.state, lam_start)
    mode = "natural"
    dl = step
    ds = step

    while len(branch.records) < max_records:
        if branch.records[-1].delta < 0:
            branch.fold_bracketed = True
            break
        if mode == "natural":
            lam_new = cur[1] + dl
            if prev is not None and cur[1] != prev[1]:
                u_pred = cur[0].u + (cur[0].u - prev[0].u) * (dl / (cur[1] - prev[1]))
            else:
                u_pred = cur[0].u
            try:
                guess = make_state(grid, spec, _clip_cone(u_pred))
                st, ok, iters, _ = newton_solve(grid, spec, lam_new, guess, tol=tol)
            except (ConeError, ConvergenceError):
                ok, iters = False, 99
            healthy = ok and iters <= 6
            if ok:
                new_delta = record(st, lam_new, iters)
                prev, cur = cur, (st, lam_new)
                dl *= _step_factor(iters)
                if not healthy or new_delta < 0.25 * branch.records[0].delta:
                    mode = "arclength"
                continue
            dl *= 0.5
            if dl < 1e-4 * step:
                mode = "arclength"
            continue

        # pseudo-arclength: predict along the tangent at cur, the null
        # vector of [H, dF/dlam] oriented by the secant.  A secant over a
        # long natural step cuts across the turning point, and its plane
        # can miss the branch.
        if prev is None:
            prev = (cur[0], cur[1] - 1e-3 * max(abs(cur[1]), 1.0))
        du = cur[0].u - prev[0].u
        dlam = cur[1] - prev[1]
        if dlam == 0.0 and not du.any():
            break
        try:
            tu, tlam = solve_bordered(
                hessian_operator(cur[0], cur[1]),
                -(cur[0].u ** (spec.q - 1.0)).ravel(),
                grid.node_weight * du.ravel(), dlam, np.zeros(du.size), 1.0)
        except SingularBorderError:
            break
        tu = tu.reshape(du.shape)
        tnorm = math.sqrt(norm(grid, tu) ** 2 + tlam ** 2)
        tu, tlam = tu / tnorm, tlam / tnorm
        ok, result = _arclength_corrector(grid, spec, cur[0].u + ds * tu,
                                          cur[1] + ds * tlam, tu, tlam, tol)
        if ok:
            st, lam_new, iters = result
            record(st, lam_new, iters)
            prev, cur = cur, (st, lam_new)
            ds = min(ds * _step_factor(iters), 0.1)
        else:
            ds = ds * 0.5
            if ds < 1e-6:
                break
    return branch


def _arclength_corrector(grid: Grid, spec: ModelSpec, u_pred: np.ndarray,
                         lam_pred: float, tu: np.ndarray, tlam: float,
                         tol: float, max_iters: int = 12):
    """Newton corrector on {residual = 0, tangent plane through predictor}.

    Returns (ok, (state, lam, Newton steps taken)), counted as
    ``newton_solve`` counts them.  Fails when the iterate collapses onto
    the trivial solution u = 0, which meets every tangent plane that is
    not parallel to the lambda axis.
    """
    tol_abs = tol * grid.stencil_scale
    u = _clip_cone(u_pred)
    sup0 = float(u.max())
    lam = lam_pred
    w = grid.node_weight
    for it in range(max_iters):
        try:
            state = make_state(grid, spec, u)
            f1 = phi_grad(state, lam)
        except ConeError:
            return False, None
        if state.sup <= 1e-8 * sup0:
            return False, None
        con = (w * float(tu.ravel() @ (u - u_pred).ravel())
               + tlam * (lam - lam_pred))
        if norm(grid, f1) <= tol_abs and abs(con) <= tol_abs:
            return True, (state, lam, it)
        hess = hessian_operator(state, lam)
        p = -(u ** (spec.q - 1.0)).ravel()   # dF/dlam
        try:
            dx, dlam_step = solve_bordered(
                hess, p, w * tu.ravel(), tlam, -f1.ravel(), -con)
        except SingularBorderError:
            return False, None
        u = u + dx.reshape(u.shape)
        lam = lam + dlam_step
        if np.any(u <= 0):
            u = _clip_cone(u)
    return False, None


def detect_fold(grid: Grid, spec: ModelSpec, branch: Branch,
                tol: float = 1e-12) -> FoldDetection:
    """Regula falsi on the stability sign change, cross-checked by refinement.

    Each step corrects onto the branch at the point of the chord where the
    line through the two ends' weighted delta values vanishes, clipped to
    [0.05, 0.95] of the chord; when the same end is replaced twice in a
    row, the weight of the other end is halved (the Illinois rule).  The
    search stops once the bracket is 1e-9 relative wide or |delta| is at
    most 1e-12 times the stencil scale.  Returns both the secant estimate of
    lambda at delta = 0 from the final bracket (``lambda_bisect``) and the
    augmented-Newton value from the bracket midpoint; ``tol`` is the
    augmented-Newton tolerance (see ``moore_spence_solve``).
    """
    idx = None
    for i in range(len(branch.records) - 1):
        if branch.records[i].delta > 0 and branch.records[i + 1].delta <= 0:
            idx = i
            break
    if idx is None:
        raise NoFoldError("branch contains no stability sign change")

    sa, sb = branch.states[idx], branch.states[idx + 1]
    la, lb = branch.records[idx].lam, branch.records[idx + 1].lam
    da, db = branch.records[idx].delta, branch.records[idx + 1].delta
    bracket = (min(la, lb), max(la, lb))

    fa, fb, last = da, db, 0     # Illinois weights; last end replaced
    for _ in range(80):
        du = sb.u - sa.u
        dlam = lb - la
        tnorm = math.sqrt(norm(grid, du) ** 2 + dlam ** 2)
        if tnorm <= 1e-14 * max(abs(la), 1.0):
            break
        tu, tlam = du / tnorm, dlam / tnorm
        t = min(max(fa / (fa - fb), 0.05), 0.95)
        ok, result = _arclength_corrector(grid, spec, sa.u + t * du,
                                          la + t * dlam, tu, tlam, tol=1e-11)
        if not ok:
            break
        st, lam_m, _ = result
        dm = stability_index(st).delta
        if dm > 0:
            if last == 1:
                fb *= 0.5
            sa, la, da, fa, last = st, lam_m, dm, dm, 1
        else:
            if last == -1:
                fa *= 0.5
            sb, lb, db, fb, last = st, lam_m, dm, dm, -1
        if abs(la - lb) <= 1e-9 * max(abs(la), 1.0) or abs(dm) \
                <= 1e-12 * grid.stencil_scale:
            break

    # secant interpolation of lambda at delta = 0 from the final bracket
    if db != da:
        lam_bisect = la + (lb - la) * (0.0 - da) / (db - da)
    else:
        lam_bisect = 0.5 * (la + lb)

    mid_state = make_state(grid, spec, _clip_cone(0.5 * (sa.u + sb.u)))
    stab = stability_index(mid_state)
    fp = moore_spence_solve(grid, spec, mid_state, stab.eigenfield,
                            0.5 * (la + lb), tol=tol)
    return FoldDetection(lambda_bisect=float(lam_bisect), bracket=bracket,
                         fold_point=fp, lambda_moore_spence=fp.lam)
