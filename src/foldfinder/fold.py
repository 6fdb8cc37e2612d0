"""Fold certification and refinement: augmented Newton plus continuation.

The augmented system {residual = 0, Hessian * v = 0, <v, v> = 1} is solved
by damped Newton; the directional third-derivative blocks in its Jacobian
are exact, read from the model's monomial kernel.  Each Newton step is one
``solve_bordered`` call: the block operator [[H, 0], [C, H]] bordered by the
lambda column and the normalization row.  That bordered matrix is factored
whole, because block elimination through the (near) singular Hessian pivot
amplifies roundoff along the null direction, while the augmented matrix
itself is regular at a fold.  Continuation uses natural stepping with a
secant predictor and switches to pseudo-arclength (bordered) correction
when the corrector degrades near the turning point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import (ConeError, ConvergenceError, NoFoldError,
                     SingularBorderError)
from .energy import (State, _block_diags, hessian_operator, make_state, phi,
                     phi_grad)
from .linalg import LinearOperator, smallest_eigenpair, solve_bordered
from .mesh import Grid, norm
from .model import ModelSpec, _term_partials
from .nehari import newton_solve, solve_nehari, sublinear_state, _clip_cone
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
    direction: float = 1.0
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
                             v: np.ndarray) -> sp.csr_matrix:
    """Exact d/du [H(u) v], the state derivative of the Hessian applied to v.

    The non-Laplacian part of the Hessian is local, so its derivative is
    block-diagonal over nodes: block (i, j) is
    -sum_k G_ijk v_k - [i = j] lam (q-1)(q-2) u_i^(q-3) v_i.
    """
    u, spec = state.u, state.spec
    q, m = spec.q, spec.m
    g3 = _term_partials(spec, u, 3).sum(axis=0)             # (m, m, m, N)
    blocks = -np.einsum("ijkn,kn->ijn", g3, v)
    blocks[range(m), range(m)] -= lam * (q - 1.0) * (q - 2.0) * u ** (q - 3.0) * v
    return _block_diags(blocks)


def moore_spence_solve(grid: Grid, spec: ModelSpec, init_u: State,
                       init_v: np.ndarray, init_lam: float,
                       tol: float = 1e-12, max_iters: int = 50) -> FoldPoint:
    """Damped Newton on the augmented fold system from the given initializer.

    ``tol`` is relative to the stencil scale; converged points satisfy all
    three residual bounds and carry the eigen-certificate.
    """
    m, n = spec.m, grid.n_nodes
    scale = grid.stencil_scale
    tol_abs = tol * scale
    w = grid.node_weight

    u = _clip_cone(init_u.u.copy())
    v = np.asarray(init_v, dtype=float).reshape(m, n).copy()
    vn = norm(grid, v)
    if vn == 0.0:
        raise ValueError("init null direction must be nonzero")
    v /= vn
    lam = float(init_lam)

    def residual(u, v, lam):
        state = make_state(grid, spec, u)
        hess = hessian_operator(state, lam)
        f1 = phi_grad(state, lam)
        f2 = hess(v.ravel()).reshape(m, n)
        f3 = w * float(v.ravel() @ v.ravel()) - 1.0
        return state, hess, f1, f2, f3

    def merit(f1, f2, f3):
        return norm(grid, f1) ** 2 + norm(grid, f2) ** 2 + f3 ** 2

    state, hess, f1, f2, f3 = residual(u, v, lam)
    theta = merit(f1, f2, f3)
    best = (math.sqrt(theta), state, v.copy(), lam)
    history = [math.sqrt(theta)]

    for it in range(1, max_iters + 1):
        if (norm(grid, f1) <= tol_abs and norm(grid, f2) <= tol_abs
                and abs(f3) <= tol_abs):
            break
        h_mat = hess.matrix
        block = LinearOperator.from_matrix(sp.bmat(
            [[h_mat, None], [_third_derivative_blocks(state, lam, v), h_mat]]))
        q = spec.q
        col = -np.concatenate([(state.u ** (q - 1.0)).ravel(),
                               ((q - 1.0) * state.u ** (q - 2.0) * v).ravel()])
        row = np.concatenate([np.zeros(m * n), 2.0 * w * v.ravel()])
        rhs = -np.concatenate([f1.ravel(), f2.ravel()])
        try:
            step, dlam = solve_bordered(block, col, row, 0.0, rhs, -f3)
        except SingularBorderError as exc:
            raise ConvergenceError(f"augmented Newton step failed: {exc}",
                                   residual=math.sqrt(theta), iterations=it,
                                   best=best) from exc
        du = step[:m * n].reshape(m, n)
        dv = step[m * n:].reshape(m, n)

        alpha, accepted = 1.0, False
        for _ in range(25):
            u_try = state.u + alpha * du
            if np.any(u_try <= 0):
                u_try = _clip_cone(u_try)
            try:
                out = residual(u_try, v + alpha * dv, lam + alpha * dlam)
            except (ConeError, FloatingPointError):
                alpha *= 0.5
                continue
            theta_try = merit(out[2], out[3], out[4])
            if theta_try <= (1.0 - 1e-4 * alpha) * theta or theta_try < tol_abs**2:
                state, hess, f1, f2, f3 = out
                v = v + alpha * dv
                lam = lam + alpha * dlam
                theta = theta_try
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            raise ConvergenceError("augmented Newton stalled",
                                   residual=math.sqrt(theta), iterations=it,
                                   best=best)
        history.append(math.sqrt(theta))
        if math.sqrt(theta) < best[0]:
            best = (math.sqrt(theta), state, v.copy(), lam)
        if len(history) > 5 and history[-1] > 0.5 * history[-6] \
                and history[-1] > tol_abs:
            raise ConvergenceError(
                "augmented Newton diverged (residual not halved over 5 steps)",
                residual=history[-1], iterations=it, best=best)
    else:
        raise ConvergenceError("augmented Newton hit its iteration cap",
                               residual=math.sqrt(theta), iterations=max_iters,
                               best=best)

    # sign normalization and eigen-certificate
    flat = v.ravel()
    k = int(np.argmax(np.abs(flat)))
    if flat[k] < 0:
        v = -v
    delta, phi_eig = smallest_eigenpair(hess, tol=1e-10 * scale)
    align = abs(w * float(phi_eig @ v.ravel()))
    return FoldPoint(state=state, v=v, lam=lam, delta=delta,
                     residuals=(norm(grid, f1), norm(grid, f2), abs(f3)),
                     newton_iterations=it, eig_alignment=align)


def fold_from_candidate(cand: CwCandidate, tol: float = 1e-12) -> FoldPoint:
    """Moore-Spence refinement seeded by an ascent candidate."""
    state = cand.state
    stab = stability_index(state)
    return moore_spence_solve(state.grid, state.spec, state, stab.eigenfield,
                              cand.lambda_cw, tol=tol)


def find_fold_direct(grid: Grid, spec: ModelSpec, *, restarts: int = 3,
                     ascend_iters: int = 300, tol: float = 1e-12) -> FoldPoint:
    """Direct pipeline: multi-start ascent, then augmented-Newton refinement.

    Starts from the sublinear profile at a few fractions of the a-priori
    bound; the best stable candidate seeds the certification step.
    """
    bound = upper_bound_lambda(spec, grid)
    if not math.isfinite(bound):
        raise NoFoldError("the a-priori bound is infinite; no fold exists")
    best: CwCandidate | None = None
    errors = []
    for frac in np.linspace(0.25, 0.75, restarts):
        lam0 = frac * bound
        try:
            init = sublinear_state(grid, spec, lam0)
            cand = cw_ascend(init, max_iters=ascend_iters)
        except (ConeError, ConvergenceError) as exc:
            errors.append(exc)
            continue
        if cand.diagnostics.get("stable_found") and (
                best is None or cand.lambda_cw > best.lambda_cw):
            best = cand
    if best is None:
        raise ConvergenceError(
            f"no stable ascent candidate found ({len(errors)} restarts errored)")
    return fold_from_candidate(best, tol=tol)


def continue_branch(grid: Grid, spec: ModelSpec, lam_start: float,
                    step: float = 0.05, max_records: int = 200,
                    tol: float = 1e-11) -> Branch:
    """Trace the stable branch from lam_start until a fold is bracketed.

    Natural-parameter stepping with a secant predictor; switches to
    pseudo-arclength correction when the Newton corrector degrades.  Each
    record carries the stability index; tracing stops once delta changes
    sign (fold bracketed) or max_records is reached.
    """
    rep = solve_nehari(grid, spec, lam_start, tol=tol)
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

    delta = record(rep.state, lam_start, rep.iterations)
    prev: tuple[State, float] | None = None
    cur = (rep.state, lam_start)
    mode = "natural"
    dl = step
    ds = step
    successes = 0

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
                delta = new_delta
                if not healthy or new_delta < 0.25 * branch.records[0].delta:
                    mode = "arclength"
                continue
            dl *= 0.5
            if dl < 1e-4 * step:
                mode = "arclength"
            continue

        # pseudo-arclength
        if prev is None:
            prev = (cur[0], cur[1] - 1e-3 * max(abs(cur[1]), 1.0))
        du = cur[0].u - prev[0].u
        dlam = cur[1] - prev[1]
        tnorm = math.sqrt(norm(grid, du) ** 2 + dlam ** 2)
        if tnorm == 0.0:
            break
        tu, tlam = du / tnorm, dlam / tnorm
        ok, result = _arclength_corrector(grid, spec, cur[0].u + ds * tu,
                                          cur[1] + ds * tlam, tu, tlam, tol)
        if ok:
            st, lam_new, iters = result
            new_delta = record(st, lam_new, iters)
            prev, cur = cur, (st, lam_new)
            delta = new_delta
            successes += 1
            if successes >= 3:
                ds = min(ds * 1.3, 0.1)
                successes = 0
        else:
            ds = ds * 0.5
            successes = 0
            if ds < 1e-6:
                break
    return branch


def _arclength_corrector(grid: Grid, spec: ModelSpec, u_pred: np.ndarray,
                         lam_pred: float, tu: np.ndarray, tlam: float,
                         tol: float, max_iters: int = 12):
    """Newton corrector on {residual = 0, tangent plane through predictor}."""
    tol_abs = tol * grid.stencil_scale
    u = _clip_cone(u_pred)
    lam = lam_pred
    w = grid.node_weight
    for it in range(1, max_iters + 1):
        try:
            state = make_state(grid, spec, u)
            f1 = phi_grad(state, lam)
        except ConeError:
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
    """Bisection on the stability sign change, cross-checked by refinement.

    Returns both the bisection estimate and the augmented-Newton value from
    the bracket midpoint; ``tol`` is the augmented-Newton tolerance (see
    ``moore_spence_solve``).  Bisection stops once the bracket is 1e-9
    relative wide.
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

    for _ in range(80):
        du = sb.u - sa.u
        dlam = lb - la
        tnorm = math.sqrt(norm(grid, du) ** 2 + dlam ** 2)
        if tnorm <= 1e-14 * max(abs(la), 1.0):
            break
        tu, tlam = du / tnorm, dlam / tnorm
        u_mid = 0.5 * (sa.u + sb.u)
        lam_mid = 0.5 * (la + lb)
        ok, result = _arclength_corrector(grid, spec, u_mid, lam_mid, tu, tlam,
                                          tol=1e-11)
        if not ok:
            break
        st, lam_m, _ = result
        dm = stability_index(st).delta
        if dm > 0:
            sa, la, da = st, lam_m, dm
        else:
            sb, lb, db = st, lam_m, dm
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
