"""Augmented-Newton fold refinement and branch continuation."""

import numpy as np
import pytest
from scipy.optimize import brentq

from foldfinder import (ConeError, ConvergenceError, NoFoldError, abc_model,
                        build_grid, continue_branch, coupled_model, cw_ascend,
                        detect_fold, find_fold_continuation, find_fold_direct,
                        make_state, moore_spence_solve, newton_solve, norm,
                        stability_index, stability_tolerance,
                        upper_bound_lambda, zero_model, ModelSpec)

from _sublinear import sublinear_state

LAM_STAR_1 = 8.0 * 1.6 ** 0.25 - 1.6 ** 1.25
U_STAR_1 = np.sqrt(1.6)


def _abc():
    return abc_model(q=1.5, gamma=4.0)


def test_moore_spence_one_node_closed_form():
    grid = build_grid("interval", 1)
    init = make_state(grid, _abc(), np.array([[1.2]]))
    fp = moore_spence_solve(grid, _abc(), init, np.array([[1.0]]), 7.0)
    assert fp.lam == pytest.approx(LAM_STAR_1, abs=1e-10)
    assert fp.state.u[0, 0] == pytest.approx(U_STAR_1, abs=1e-10)
    # null direction is unit in the quadrature norm with positive sign
    assert fp.v[0, 0] == pytest.approx(np.sqrt(2.0), abs=1e-9)
    assert abs(fp.delta) <= 1e-8


def test_fold_certificate():
    grid = build_grid("interval", 31)
    fp = find_fold_direct(grid, _abc())
    assert abs(fp.delta) <= 1e-6 * grid.stencil_scale
    assert fp.eig_alignment >= 0.999


@pytest.mark.parametrize("q, gamma", [(1.5, 4.0), (1.3, 4.0), (1.7, 5.0)])
def test_direct_one_node_closed_form(q, gamma):
    # 8 u = lam u^(q-1) + u^(gamma-1) at the one node; at (1.3, 4) the
    # ascent lands on the fold itself, where delta is rounding noise
    u_star = (8.0 * (2.0 - q) / (gamma - q)) ** (1.0 / (gamma - 2.0))
    lam_star = 8.0 * u_star ** (2.0 - q) - u_star ** (gamma - q)
    fp = find_fold_direct(build_grid("interval", 1), abc_model(q=q, gamma=gamma))
    assert fp.lam == pytest.approx(lam_star, abs=1e-10)
    assert fp.state.u[0, 0] == pytest.approx(u_star, abs=1e-10)


@pytest.mark.parametrize("kind, n, lam_ref", [
    ("interval", 31, 8.99619164804791), ("rectangle", 15, 18.484036918648),
])
def test_direct_fold_near_q_two(kind, n, lam_ref):
    # the ascent's start lies far below the fold at q = 1.9, and an
    # augmented Newton seeded there diverged
    grid, spec = build_grid(kind, n), abc_model(q=1.9, gamma=4.0)
    fp = find_fold_direct(grid, spec)
    assert fp.lam == pytest.approx(lam_ref, rel=1e-12)
    assert fp.lam <= upper_bound_lambda(spec, grid)
    assert abs(fp.delta) <= stability_tolerance(fp.state)
    # H is singular at u*, and a Newton step from u* itself shoots onto
    # u = 0, so start on the stable side along the null direction
    scale = fp.state.sup / np.abs(fp.v).max()
    below = make_state(grid, spec, fp.state.u - 0.1 * scale * fp.v)
    state, ok, _, _ = newton_solve(grid, spec, 0.99 * fp.lam, below)
    assert ok and stability_index(state).delta > stability_tolerance(state)
    for init in (fp.state, below):
        assert not newton_solve(grid, spec, 1.01 * fp.lam, init)[1]


def test_direct_fold_computes_one_eigenpair(monkeypatch):
    # the ascent classifies nothing; the fold's eigen-certificate is the
    # direct route's only eigenpair
    import foldfinder.fold as fold

    calls, real = [], fold.smallest_eigenpair

    def eigenpair(op, tol, start=None):
        calls.append(op.dim)
        return real(op, tol, start)

    monkeypatch.setattr(fold, "smallest_eigenpair", eigenpair)
    monkeypatch.setattr("foldfinder.spectrum.smallest_eigenpair", eigenpair)
    fp = find_fold_direct(build_grid("rectangle", 15), _abc())
    assert calls == [fp.state.u.size]


def test_direct_seeds_the_newton_with_an_unstable_ascent_end(monkeypatch):
    # u = 2 on one node lies on the unstable branch (delta = -6); seeded
    # there, the augmented Newton still climbs to the fold
    grid, spec = build_grid("interval", 1), _abc()
    expect = find_fold_direct(grid, spec).lam
    unstable = make_state(grid, spec, np.array([[2.0]]))
    assert stability_index(unstable).delta == pytest.approx(-6.0, abs=1e-10)
    monkeypatch.setattr("foldfinder.cw._MAX_ASCENT", 0)
    monkeypatch.setattr("foldfinder.fold.cw_ascend",
                        lambda init: cw_ascend(unstable))
    fp = find_fold_direct(grid, spec)
    assert fp.lam == pytest.approx(expect, abs=1e-10)
    assert abs(fp.delta) <= stability_tolerance(fp.state)


def _model_84():
    # model 84 of the generated sweep (tests/test_sweep.py): decoupled,
    # m = 3, with two identical components whose scalar fold is the
    # system's, so H has a double zero eigenvalue at lambda*
    return ModelSpec(m=3, q=1.9329359182347243, terms=(
        (0.6626018908878276, (5.80222093056232, 0.0, 0.0)),
        (1.0, (0.0, 4.432935918234724, 0.0)),
        (1.0, (0.0, 0.0, 4.432935918234724))))


def test_direct_route_reseeds_from_the_stable_solution(monkeypatch):
    # the ascent end of model 84 seeds an augmented Newton that reaches an
    # unstable singular point; the rerun from the stable solution at
    # lambda_cw, bordered by the eigenfield solve_stable kept, so after one
    # eigenpair of that solution, finds the fold of the pair's scalar
    # reduction.  That fold is simple, so both routes pin it there;
    # continuation on the system itself meets the double zero eigenvalue
    # and fails
    import foldfinder.fold as fold
    import foldfinder.nehari as nehari

    spec, grid = _model_84(), build_grid("interval", 7)
    calls, eigenpairs = [], []
    monkeypatch.setattr(fold, "moore_spence_solve",
                        lambda *a, real=fold.moore_spence_solve, **kw:
                        calls.append(1) or real(*a, **kw))
    for module in (fold, nehari):
        monkeypatch.setattr(module, "stability_index",
                            lambda state, real=module.stability_index, **kw:
                            eigenpairs.append(1) or real(state, **kw))
    direct = find_fold_direct(grid, spec)
    assert len(calls) == 2 and len(eigenpairs) == 1
    assert direct.delta >= -stability_tolerance(direct.state)
    pair = ModelSpec(m=1, q=spec.q, terms=((1.0, (4.432935918234724,)),))
    for lam in (find_fold_direct(grid, pair).lam,
                find_fold_continuation(grid, pair).lambda_moore_spence):
        assert direct.lam == pytest.approx(lam, rel=1e-10)


def test_continuation_retries_from_the_stable_bracket_end(monkeypatch):
    # model 340 of the generated sweep: the augmented Newton from the
    # delta-chord start fails, and the rerun from the stable bracket end,
    # bordered by its eigenfield, finds the direct route's fold
    import foldfinder.fold as fold

    spec = ModelSpec(m=2, q=1.7120464189760085, terms=(
        (1.8559224867267916, (0.0, 5.058303575196056)),
        (1.5303237820412527, (5.067517459719854, 0.0))))
    grid = build_grid("interval", 2)
    direct = find_fold_direct(grid, spec).lam
    calls, real = [], fold.moore_spence_solve
    monkeypatch.setattr(fold, "moore_spence_solve",
                        lambda *a, **kw: calls.append(1) or real(*a, **kw))
    det = find_fold_continuation(grid, spec)
    assert len(calls) == 2
    assert det.lambda_moore_spence == pytest.approx(direct, rel=1e-10)
    assert direct == pytest.approx(6.503417549933109, rel=1e-10)


def test_moore_spence_rejects_a_negative_certificate(monkeypatch):
    # a singular point whose smallest eigenvalue is negative is not the
    # fold of the stable branch
    grid = build_grid("interval", 1)
    init = make_state(grid, _abc(), np.array([[1.2]]))
    monkeypatch.setattr("foldfinder.fold.smallest_eigenpair",
                        lambda op, tol, start=None: (-1.0, np.ravel(start)))
    with pytest.raises(ConvergenceError, match="delta=-1"):
        moore_spence_solve(grid, _abc(), init, np.array([[1.0]]), 7.0)


def test_direct_ascent_cone_error_becomes_convergence_error(monkeypatch):
    def leave_cone(init):
        raise ConeError("state left the positive cone")

    monkeypatch.setattr("foldfinder.fold.cw_ascend", leave_cone)
    with pytest.raises(ConvergenceError, match="positive cone"):
        find_fold_direct(build_grid("interval", 7), _abc())


def test_moore_spence_coupled_interval_31_reference():
    # lambda* of the augmented Newton solve, recorded from the assembly that
    # preceded its solve_bordered form
    fp = find_fold_direct(build_grid("interval", 31), coupled_model(q=1.5))
    assert fp.lam == pytest.approx(6.866926288841847, rel=1e-12)


def test_moore_spence_singular_step_raises_convergence_error():
    # one node, g = 0, u = 1, lambda = 8: H s = p C, so the augmented
    # Jacobian is exactly singular and SuperLU meets a zero pivot
    grid = build_grid("interval", 1)
    spec = zero_model(q=1.5)
    init = make_state(grid, spec, np.array([[1.0]]))
    with pytest.raises(ConvergenceError, match="step failed") as info:
        moore_spence_solve(grid, spec, init, np.array([[1.0]]), 8.0)
    assert info.value.iterations == 1


def test_moore_spence_coupled_matches_scalar_reduction():
    grid = build_grid("interval", 15)
    fp2 = find_fold_direct(grid, coupled_model(q=1.5))
    scalar = ModelSpec(m=1, q=1.5, terms=((0.75, (4.0,)),))
    fp1 = find_fold_direct(grid, scalar)
    assert fp2.lam == pytest.approx(fp1.lam, rel=1e-8)
    u = fp2.state.u
    assert np.abs(u[0] - u[1]).max() <= 1e-8 * np.abs(u).max()


def test_branch_one_node_matches_scalar_oracle():
    grid = build_grid("interval", 1)
    branch = continue_branch(grid, _abc(), lam_start=1.0)
    assert branch.fold_bracketed
    saw_stable = False
    for rec in branch.records:
        if rec.delta <= 0:
            continue
        saw_stable = True
        # stable branch: smallest root of 8*sqrt(u) - u^2.5 = lam
        u_oracle = brentq(lambda s: 8.0 * np.sqrt(s) - s ** 2.5 - rec.lam,
                          1e-14, U_STAR_1, xtol=1e-14)
        assert rec.state.u[0, 0] == pytest.approx(u_oracle, rel=1e-7)
        assert rec.lam <= LAM_STAR_1 + 1e-8
    assert saw_stable


def test_branch_delta_positive_before_bracket():
    grid = build_grid("interval", 15)
    branch = continue_branch(grid, _abc(), lam_start=1.0)
    deltas = [rec.delta for rec in branch.records]
    flip = next(i for i, d in enumerate(deltas) if d <= 0)
    assert all(d > 0 for d in deltas[:flip])


def test_branch_zero_model_never_folds():
    grid = build_grid("interval", 9)
    spec = zero_model(q=1.5)
    branch = continue_branch(grid, spec, lam_start=1.0, max_records=40)
    assert not branch.fold_bracketed
    assert len(branch.records) == 40
    from foldfinder import principal_laplacian_eigenvalue

    floor = 0.4 * (2.0 - 1.5) * principal_laplacian_eigenvalue(grid)
    assert all(rec.delta > floor for rec in branch.records)


def test_detect_fold_one_node():
    grid = build_grid("interval", 1)
    branch = continue_branch(grid, _abc(), lam_start=1.0)
    det = detect_fold(grid, _abc(), branch)
    assert det.lambda_bisect == pytest.approx(LAM_STAR_1, abs=1e-8)
    assert det.lambda_moore_spence == pytest.approx(LAM_STAR_1, abs=1e-9)
    # lambda is locally maximal at the fold, so both bracket endpoints
    # sit at or below the fold value
    lo, hi = det.bracket
    assert lo <= hi <= LAM_STAR_1 + 1e-8


def test_detect_fold_requires_sign_change():
    grid = build_grid("interval", 9)
    spec = zero_model(q=1.5)
    branch = continue_branch(grid, spec, lam_start=1.0, max_records=20)
    with pytest.raises(NoFoldError):
        detect_fold(grid, spec, branch)


def test_cross_method_agreement_medium_grid():
    grid = build_grid("interval", 63)
    fp = find_fold_direct(grid, _abc())
    branch = continue_branch(grid, _abc(), lam_start=1.0)
    det = detect_fold(grid, _abc(), branch)
    assert abs(fp.lam - det.lambda_moore_spence) <= 1e-6 * fp.lam
    assert abs(det.lambda_bisect - det.lambda_moore_spence) <= 1e-6 * fp.lam



def test_detect_fold_regula_falsi_needs_few_stability_solves(monkeypatch):
    # bisecting the bracket to 1e-9 took 13 stability solves here.  The
    # augmented Newton starts between the bracket records, from their
    # eigenfields, so a detection pays for the eigenpairs of its two ends
    # only, and the regula falsi runs
    # once, when its estimate is first read
    import foldfinder.fold as fold

    grid = build_grid("interval", 63)
    branch = continue_branch(grid, _abc(), lam_start=1.0)
    calls = []
    real = fold.stability_index
    monkeypatch.setattr(fold, "stability_index",
                        lambda state, **kw: calls.append(1) or real(state, **kw))
    det = detect_fold(grid, _abc(), branch)
    assert len(calls) == 2
    assert det.agreement <= 1e-6 * det.lambda_moore_spence
    solves = len(calls)
    assert 2 < solves <= 8
    det.lambda_bisect   # kept from the first read
    assert len(calls) == solves


def test_detect_fold_steps_back_to_the_last_sign_change():
    # a branch whose last two records lie past the fold, as when a tangent
    # from the corrector's factor at the iterate before convergence still
    # points forward.  Its records are the branch points at the arclength
    # offsets s = -2h, -h, h, 2h along the null direction at the fold: s < 0
    # is the stable side, s > 0 the unstable one
    import foldfinder.fold as fold

    grid, spec = build_grid("interval", 191), abc_model(q=1.467806,
                                                        gamma=4.258611)
    fp = find_fold_direct(grid, spec)
    h = 0.1 * norm(grid, fp.state.u)
    theta = norm(grid, fp.state.u) / fp.lam
    records = []
    for s in (-2 * h, -h, h, 2 * h):
        result, _ = fold._arclength_corrector(
            grid, spec, fp.state.u + s * fp.v, fp.lam, fp.v, 0.0, theta)
        records.append(fold.BranchRecord(lam=result[1],
                                         corrector_iters=result[2],
                                         state=result[0]))
    branch = fold.Branch(records=records, fold_bracketed=True)
    assert [rec.delta > 0 for rec in records] == [True, True, False, False]
    det = detect_fold(grid, spec, branch)
    assert det.ends[0] is records[1] and det.ends[1] is records[2]
    assert det.lambda_moore_spence == pytest.approx(fp.lam, rel=1e-10)
    # lambda* is the largest lambda of the branch
    assert max(det.bracket) < det.lambda_moore_spence


def test_corrector_accepts_convergence_at_its_last_allowed_step(monkeypatch):
    # the cap limits the Newton steps taken, not the iterates checked: a
    # corrector whose iterate after its last allowed step has converged
    # succeeds, as a newton_solve does
    import foldfinder.fold as fold

    grid, spec = build_grid("interval", 31), _abc()
    fp = find_fold_direct(grid, spec)
    args = (grid, spec, fp.state.u - 0.1 * norm(grid, fp.state.u) * fp.v,
            fp.lam, fp.v, 0.0, norm(grid, fp.state.u) / fp.lam)
    free, _ = fold._arclength_corrector(*args)
    monkeypatch.setattr(fold, "_MAX_CORRECTOR", free[2])
    capped, _ = fold._arclength_corrector(*args)
    assert capped is not None
    assert capped[1:3] == free[1:3]
    np.testing.assert_array_equal(capped[0].u, free[0].u)


def test_continuation_route_rejects_an_infinite_bound():
    with pytest.raises(NoFoldError, match="infinite"):
        find_fold_continuation(build_grid("interval", 9), zero_model(q=1.5))


def test_records_start_their_eigenpair_from_the_state(monkeypatch):
    # u > 0 and the principal eigenvector is positive, so the state is a
    # start that cannot be orthogonal to it
    import foldfinder.fold as fold
    import foldfinder.nehari as nehari

    starts = []

    def spy(real):
        def stability(state, **kw):
            starts.append(np.array_equal(kw.get("start"), state.u))
            return real(state, **kw)
        return stability

    monkeypatch.setattr(fold, "stability_index", spy(fold.stability_index))
    monkeypatch.setattr(nehari, "stability_index",
                        spy(nehari.stability_index))
    grid = build_grid("rectangle", 15)
    branch = continue_branch(grid, _abc(), lam_start=1.0)
    deltas = [rec.delta for rec in branch.records]
    assert deltas[0] > 0 >= deltas[-1]
    assert len(starts) == len(deltas) and all(starts)


def test_continuation_route_computes_the_energy_once(monkeypatch):
    # a record computes phi when first read, and the route reads none: the
    # one call is solve_stable's report at the start of the branch
    import foldfinder.fold as fold
    import foldfinder.nehari as nehari

    calls = []
    for module in (fold, nehari):
        monkeypatch.setattr(module, "phi", lambda *args, real=module.phi:
                            calls.append(1) or real(*args))
    find_fold_continuation(build_grid("interval", 63), _abc())
    assert len(calls) == 1


def test_corrector_stops_when_its_full_step_does_not_lower_the_residual(
        monkeypatch):
    # a predictor off the fold, 5% above lambda*, whose first full step
    # raises the residual norm (0.54 to 6.4) but stays off u = 0: the
    # corrector fails after that one trial instead of factoring again
    import foldfinder.fold as fold

    grid, spec = build_grid("interval", 31), _abc()
    fp = find_fold_direct(grid, spec)
    factors, merits = [], []
    real_factor, real_point = fold.factor_bordered, fold._Point

    def factor(*args, **kw):
        factors.append(1)
        return real_factor(*args, **kw)

    def point(*args, **kw):
        p = real_point(*args, **kw)
        merits.append(p.merit)
        return p

    monkeypatch.setattr(fold, "factor_bordered", factor)
    monkeypatch.setattr(fold, "_Point", point)
    result, first = fold._arclength_corrector(     # unit for theta = 1
        grid, spec, fp.state.u + 0.1 * norm(grid, fp.state.u) * fp.v,
        1.05 * fp.lam, np.sqrt(0.75) * fp.v, 0.5, 1.0)
    assert result is None and np.isfinite(first)
    assert len(factors) == 1
    assert len(merits) == 2 and merits[1] > merits[0]


def _sweep_cases():
    for q in (1.05, 1.1, 1.3, 1.5, 1.7, 1.8, 1.9, 1.95):
        for gamma in (q + 2.05, 4.0, 6.0):
            yield abc_model(q=q, gamma=gamma), "interval", 31
    for q in (1.1, 1.5, 1.9):
        yield coupled_model(q=q), "interval", 31
        yield abc_model(q=q, gamma=4.0), "rectangle", 15


def test_tangent_fold_test_agrees_with_delta_over_a_sweep(monkeypatch):
    # the branch stops where the lambda part of its tangent turns
    # nonpositive; the stability index must change sign exactly there.
    # Each branch starts where find_fold_continuation starts it.  Tracing
    # delta at every record bracketed these cases in 526 records
    import foldfinder.fold as fold

    branches = []
    monkeypatch.setattr(fold, "detect_fold", lambda grid, spec, branch, **kw:
                        branches.append(branch))
    total, wrong = 0, []
    for spec, kind, n in _sweep_cases():
        find_fold_continuation(build_grid(kind, n), spec)
        branch = branches.pop()
        total += len(branch.records)
        deltas = [rec.delta for rec in branch.records]
        first = next((i for i, d in enumerate(deltas) if d <= 0), None)
        if not branch.fold_bracketed or first != len(deltas) - 1:
            wrong.append((spec.q, spec.terms, kind, first, len(deltas)))
    assert not wrong
    assert total <= 526


def test_arclength_correctors_rarely_fail_over_the_sweep(monkeypatch):
    # the arclength step is measured with lambda weighted by theta = ||u||
    # / lambda, so the predictor rounds the fold instead of running past it
    # along a tangent that is almost pure lambda.  With the unweighted
    # metric 145 of 280 branch correctors failed and the route made 1295
    # factors here; with theta, and arclength from the first record, 2 of
    # 274 and 748
    import scipy.sparse.linalg as spla

    import foldfinder.fold as fold

    factors, failed = [], []
    real_splu, real_corrector = spla.splu, fold._arclength_corrector

    def splu(*args, **kw):
        factors.append(1)
        return real_splu(*args, **kw)

    def corrector(*args, **kw):
        result, first = real_corrector(*args, **kw)
        failed.append(result is None)
        return result, first

    monkeypatch.setattr(spla, "splu", splu)
    monkeypatch.setattr(fold, "_arclength_corrector", corrector)
    for spec, kind, n in _sweep_cases():
        find_fold_continuation(build_grid(kind, n), spec)
    assert sum(failed) <= 10
    assert len(factors) <= 1050


def test_continuation_route_agrees_with_direct_over_the_sweep():
    # the two pipelines of `fold --method continuation` and `--method
    # direct`, continuation from its certified start, and the regula falsi's
    # independent estimate from the same bracket
    wrong = []
    for spec, kind, n in _sweep_cases():
        grid = build_grid(kind, n)
        direct = find_fold_direct(grid, spec).lam
        det = find_fold_continuation(grid, spec)
        cont = det.lambda_moore_spence
        if not (abs(cont - direct) <= 1e-10 * direct
                and det.agreement <= 1e-6 * direct):
            wrong.append((spec.q, spec.terms, kind, cont, direct,
                          det.lambda_bisect))
    assert not wrong


def test_augmented_newton_starts_near_the_fold_over_the_sweep():
    # the augmented Newton starts at the zero of the chord through the two
    # bracket ends' delta values.  Started from the end with the smaller
    # |delta| it took 110 steps here; from the chord's zero, 91
    steps = sum(find_fold_continuation(build_grid(kind, n),
                                       spec).fold_point.newton_iterations
                for spec, kind, n in _sweep_cases())
    assert steps <= 95


def test_arclength_entry_step_is_bounded_near_the_fold(monkeypatch):
    # a branch that starts 1e-6 below lambda*: the lambda part of its first
    # tangent is nearly 0, so a first step of 0.1 lambda* measured in lambda
    # is a long arclength.  At most ||u|| it costs one failed corrector;
    # unbounded, seven
    import foldfinder.fold as fold

    grid, spec = build_grid("interval", 31), _abc()
    lam = find_fold_direct(grid, spec).lam
    failed = []
    real = fold._arclength_corrector

    def corrector(*args, **kw):
        result, first = real(*args, **kw)
        failed.append(result is None)
        return result, first

    monkeypatch.setattr(fold, "_arclength_corrector", corrector)
    branch = continue_branch(grid, spec, lam_start=lam * (1 - 1e-6),
                             step=0.1 * lam)
    assert sum(failed) <= 1
    det = detect_fold(grid, spec, branch)
    assert det.lambda_moore_spence == pytest.approx(lam, rel=1e-10)


def test_branches_from_a_tenth_of_the_bound_agree_and_stay_below_it():
    # the stop test is relative to the size of the iterate, so a small
    # state near q = 2 does not pass it whatever it is.  With the absolute
    # test the 8 cases with q >= 1.9 ended in "augmented Newton diverged"
    # from here.  No record may lie above the a-priori bound Lambda, where
    # no positive solution exists
    wrong, above = [], []
    for spec, kind, n in _sweep_cases():
        grid = build_grid(kind, n)
        bound = upper_bound_lambda(spec, grid)
        branch = continue_branch(grid, spec, lam_start=0.1 * bound,
                                 step=0.01 * bound)
        above += [(spec.q, spec.terms, kind, rec.lam, bound)
                  for rec in branch.records if rec.lam > bound]
        cont = detect_fold(grid, spec, branch).lambda_moore_spence
        direct = find_fold_direct(grid, spec).lam
        if not abs(cont - direct) <= 1e-10 * direct:
            wrong.append((spec.q, spec.terms, kind, cont, direct))
    assert not wrong
    assert not above


@pytest.mark.parametrize("kind, n, spec", [
    ("interval", 3, ModelSpec(m=2, q=1.15, terms=((0.17, (0, 3.67)),
                                                   (1.0, (3.64, 0))))),
    ("rectangle", 11, ModelSpec(m=3, q=1.15, terms=(
        (1.56, (0, 5.9, 0)), (1.0, (3.65, 0, 0)), (1.0, (0, 0, 3.65))))),
], ids=["interval-3", "rectangle-11"])
def test_continuation_starts_below_the_fold_of_a_system(kind, n, spec):
    # Lambda / lambda* is 2.54 and 2.25 here, so a start at Lambda / 2
    # lies above lambda* ("monotone iteration diverged"); the start at 0.9
    # lambda_lo of the torsion state lies below it
    grid = build_grid(kind, n)
    direct = find_fold_direct(grid, spec).lam
    assert upper_bound_lambda(spec, grid) > 2.0 * direct
    cont = find_fold_continuation(grid, spec).lambda_moore_spence
    assert cont == pytest.approx(direct, rel=1e-10)


@pytest.mark.parametrize("spec, record_bound", [
    (abc_model(q=1.5, gamma=4.0), 15), (coupled_model(q=1.5), 13)],
    ids=["abc", "coupled"])
def test_continuation_work_budget(monkeypatch, spec, record_bound):
    # no eigenpair per record, and at most one failed corrector.  The
    # bounds are those set for the natural steps that once started every
    # branch: the abc bound is that of tracing delta at every record, and
    # the coupled one that of the stop test relative to the norm
    import foldfinder.fold as fold

    def no_eigenpair(state, **kw):
        raise AssertionError("continue_branch computed an eigenpair")

    failed, real = [], fold._arclength_corrector

    def corrector(*args, **kw):
        result, first = real(*args, **kw)
        failed.append(result is None)
        return result, first

    monkeypatch.setattr(fold, "stability_index", no_eigenpair)
    monkeypatch.setattr(fold, "_arclength_corrector", corrector)
    branch = continue_branch(build_grid("interval", 63), spec, lam_start=1.0)
    monkeypatch.undo()
    assert branch.fold_bracketed
    assert sum(failed) <= 1
    assert len(branch.records) <= record_bound
    assert branch.records[-2].delta > 0 >= branch.records[-1].delta


@pytest.mark.parametrize("kind, n", [("interval", 63), ("rectangle", 15)])
def test_branch_factors_only_bordered_matrices_after_its_first_record(
        monkeypatch, kind, n):
    # one stepping mode: after the first record's stable solve, every
    # factor is a bordered one, a tangent's or a corrector's
    import foldfinder.fold as fold
    import foldfinder.linalg as linalg

    grid, spec = build_grid(kind, n), _abc()
    kinds, started = [], []
    real_factor, real_solve = linalg._factor, fold.solve_stable

    def factor(op, shift=0.0, border=None):
        if started:
            kinds.append(border is not None)
        return real_factor(op, shift, border)

    def solve_stable(*args, **kw):
        report = real_solve(*args, **kw)
        started.append(1)
        return report

    monkeypatch.setattr(linalg, "_factor", factor)
    monkeypatch.setattr(fold, "solve_stable", solve_stable)
    branch = continue_branch(grid, spec, lam_start=1.0)
    assert branch.fold_bracketed
    assert len(kinds) >= len(branch.records) and all(kinds)


@pytest.mark.parametrize("spec, kind, n", [
    (abc_model(q=1.5, gamma=4.0), "interval", 63),
    # the branch passes 0.02% below the fold; the secant predictor of the
    # natural steps that once started every branch left it here
    (abc_model(q=1.678364, gamma=4.745932), "interval", 127),
    # an arclength corrector here converged to u = 0 at lambda 5% above
    # the fold
    (abc_model(q=1.586527, gamma=4.779941), "rectangle", 47),
], ids=["abc-4", "record-near-the-fold", "trivial-solution"])
def test_adaptive_branch_stays_below_the_fold(spec, kind, n):
    grid = build_grid(kind, n)
    branch = continue_branch(grid, spec, lam_start=1.0)
    lam_star = detect_fold(grid, spec, branch).lambda_moore_spence
    assert branch.fold_bracketed
    # the fixed 0.05 step took 164 records to bracket the abc-4 fold
    assert len(branch.records) <= 30
    stable = [rec.lam for rec in branch.records if rec.delta > 0]
    assert all(b > a for a, b in zip(stable, stable[1:]))
    # maximality: no solution on the branch lies beyond lambda*
    assert all(rec.lam <= lam_star * (1 + 1e-10) for rec in branch.records)


def test_coupled_routes_pin_the_same_fold():
    # both routes seed the augmented Newton from different points; its
    # stop rule on the lambda step makes them agree far below 1e-10
    grid = build_grid("interval", 191)
    spec = coupled_model(q=1.487503)
    direct = find_fold_direct(grid, spec)
    det = detect_fold(grid, spec, continue_branch(grid, spec, lam_start=1.0))
    assert det.lambda_moore_spence == pytest.approx(direct.lam, rel=1e-12)


@pytest.mark.parametrize("spec", [
    abc_model(q=1.5, gamma=4.0),
    abc_model(q=1.5, gamma=3.7),
    coupled_model(q=1.5),
    ModelSpec(m=3, q=1.4, terms=((0.25, (4.0, 0.0, 0.0)),
                                 (0.5, (0.0, 3.5, 0.0)),
                                 (1.0, (2.0, 1.0, 1.5)),
                                 (0.4, (1.0, 0.0, 3.0)))),
], ids=["abc-4", "abc-3.7", "coupled", "mixed-m3"])
def test_third_derivative_blocks_finite_difference(spec):
    from foldfinder.energy import hessian_operator
    from foldfinder.fold import _third_derivative_blocks

    rng = np.random.default_rng(6)
    grid, lam, eps = build_grid("interval", 7), 2.0, 1e-5
    u = 0.5 + rng.random((spec.m, 7))
    v, xi = rng.standard_normal((2, spec.m, 7))
    blocks = _third_derivative_blocks(make_state(grid, spec, u), lam, v)
    assert blocks.shape == (spec.m, spec.m, 7)
    exact = np.einsum("ijn,jn->in", blocks, xi).ravel()
    hv = [hessian_operator(make_state(grid, spec, u + s * eps * xi), lam)(v.ravel())
          for s in (1.0, -1.0)]
    fd = (hv[0] - hv[1]) / (2 * eps)
    assert np.linalg.norm(fd - exact) <= 1e-7 * np.linalg.norm(exact)


@pytest.mark.parametrize("grid", [build_grid("interval", 31),
                                  build_grid("rectangle", 15)],
                         ids=["interval", "rectangle"])
def test_one_factor_newton_step_matches_assembled_solve(grid):
    # the step composed from the test function's bordered factor against
    # the assembled [[H, F_lam], [g_u', g_lam]] system, at a stable state
    # and at the midpoint of the continuation bracket, next to the fold
    from foldfinder.energy import hessian_operator, phi_grad
    from foldfinder.fold import _augmented_newton_step, _test_function_gradient
    from foldfinder.linalg import factor_bordered

    spec = _abc()
    branch = continue_branch(grid, spec, lam_start=1.0)
    assert branch.fold_bracketed
    ra, rb = branch.records[-2:]
    sa, sb = ra.state, rb.state
    points = [(branch.records[0].state, branch.records[0].lam),
              (make_state(grid, spec, 0.5 * (sa.u + sb.u)),
               0.5 * (ra.lam + rb.lam))]
    for state, lam in points:
        b = stability_index(state).eigenfield.ravel()
        b /= np.linalg.norm(b)
        hess = hessian_operator(state, lam)
        f = phi_grad(state, lam).ravel()
        f_lam = -(state.u ** (spec.q - 1.0)).ravel()
        border = factor_bordered(hess, b, b, 0.0)
        v, g = border(np.zeros(f.size), 1.0)
        g_u, g_lam = _test_function_gradient(state, lam,
                                             v.reshape(state.u.shape))
        du, dlam = _augmented_newton_step(hess, border, f, g, v, f_lam,
                                          g_u.ravel(), g_lam)
        du_ref, dlam_ref = factor_bordered(hess, f_lam, g_u.ravel(),
                                           g_lam)(-f, -g)
        assert np.linalg.norm(du - du_ref) <= 1e-10 * np.linalg.norm(du_ref)
        assert dlam == pytest.approx(dlam_ref, rel=1e-10)


@pytest.mark.parametrize("grid, certificate_factors",
                         [(build_grid("interval", 31), 0),
                          (build_grid("rectangle", 15), 1)],
                         ids=["interval", "rectangle"])
def test_moore_spence_factors_one_bordered_matrix_per_iterate(
        monkeypatch, grid, certificate_factors):
    # every evaluated iterate (accepted or not) builds one Hessian and
    # factors one bordered matrix, whose factor also gives the Newton step;
    # the eigen-certificate factors H - sigma I off the tridiagonal path
    import foldfinder.fold as fold
    import foldfinder.linalg as linalg

    spec = _abc()
    cand = cw_ascend(sublinear_state(grid, spec,
                                     0.5 * upper_bound_lambda(spec, grid)))
    sizes, iterates = [], []
    real_factorized, real_hessian = linalg._factorized, fold.hessian_operator

    def factorized(op, shift=0.0, border=None):
        sizes.append(op.dim + (border is not None))
        return real_factorized(op, shift, border)

    def hessian(state, lam):
        iterates.append(lam)
        return real_hessian(state, lam)

    monkeypatch.setattr(linalg, "_factorized", factorized)
    monkeypatch.setattr(fold, "hessian_operator", hessian)
    monkeypatch.setattr(fold, "cw_ascend", lambda init: cand)
    fp = find_fold_direct(grid, spec)
    n = spec.m * grid.n_nodes
    assert len(iterates) >= fp.newton_iterations > 1
    assert sizes.count(n + 1) == len(iterates)
    assert sizes.count(n) == certificate_factors
    assert len(sizes) == len(iterates) + certificate_factors
    # one merit value per accepted iterate, the last within the stop test
    assert len(fp.history) == fp.newton_iterations + 1
    assert fp.residuals[0] <= fp.history[-1] \
        <= np.sqrt(2.0) * 1e-12 * grid.stencil_scale


@pytest.mark.parametrize("kind, n, spec", [("rectangle", 15, _abc()),
                                           ("interval", 31,
                                            coupled_model(q=1.5))],
                         ids=["rectangle", "coupled"])
def test_direct_fold_factor_budget(monkeypatch, kind, n, spec):
    # one direct fold factors the Laplacian once (torsion start and
    # ascent), the grid's one minimum-degree factor, one bordered matrix
    # per augmented-Newton evaluation and H - sigma I once, for the fold
    # certificate, and solves no fixed-lambda Newton system
    import foldfinder.fold as fold
    import foldfinder.linalg as linalg
    import foldfinder.nehari as nehari

    grid = build_grid(kind, n, extents=1.25)   # no factor kept for it yet
    kinds, evaluations = [], []
    real_factorized, real_hessian = linalg._factor, fold.hessian_operator

    def factorized(op, shift=0.0, border=None):
        kinds.append("laplacian" if op.matrix is grid.laplacian
                     else "bordered" if border is not None
                     else "shifted" if shift else "hessian")
        return real_factorized(op, shift, border)

    def hessian(state, lam):
        evaluations.append(lam)
        return real_hessian(state, lam)

    def no_newton(*args, **kwargs):
        raise AssertionError("fixed-lambda Newton solve")

    monkeypatch.setattr(linalg, "_factor", factorized)
    monkeypatch.setattr(fold, "hessian_operator", hessian)
    monkeypatch.setattr(nehari, "newton_solve", no_newton)
    find_fold_direct(grid, spec)
    assert kinds.count("laplacian") == 1
    assert kinds.count("bordered") == len(evaluations) > 0
    assert kinds.count("shifted") == 1
    assert len(kinds) == len(evaluations) + 2


@pytest.mark.parametrize("spec", [abc_model(q=1.5, gamma=4.0),
                                  coupled_model(q=1.5)], ids=["m1", "m2"])
@pytest.mark.parametrize("grid", [build_grid("interval", 7),
                                  build_grid("rectangle", (3, 4))],
                         ids=["interval", "rectangle"])
def test_fold_test_function_gradient_finite_difference(spec, grid):
    from foldfinder.energy import hessian_operator
    from foldfinder.fold import _test_function_gradient
    from foldfinder.linalg import factor_bordered

    rng = np.random.default_rng(11)
    shape, lam, eps = (spec.m, grid.n_nodes), 2.0, 1e-5
    u = 0.5 + rng.random(shape)
    xi = rng.standard_normal(shape)
    b = rng.standard_normal(u.size)
    b /= np.linalg.norm(b)

    def test_function(u, lam):
        hess = hessian_operator(make_state(grid, spec, u), lam)
        v, g = factor_bordered(hess, b, b, 0.0)(np.zeros(u.size), 1.0)
        return v.reshape(shape), g

    v, _ = test_function(u, lam)
    g_u, g_lam = _test_function_gradient(make_state(grid, spec, u), lam, v)
    fd_u = (test_function(u + eps * xi, lam)[1]
            - test_function(u - eps * xi, lam)[1]) / (2 * eps)
    fd_lam = (test_function(u, lam + eps)[1]
              - test_function(u, lam - eps)[1]) / (2 * eps)
    exact_u = float(np.sum(g_u * xi))
    assert abs(fd_u - exact_u) <= 1e-7 * abs(exact_u)
    assert abs(fd_lam - g_lam) <= 1e-7 * abs(g_lam)
