"""Stable-branch solver, its Newton loop and the sublinear family."""

import itertools
import warnings

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from foldfinder import (ModelSpec, abc_model, apply_laplacian, build_grid,
                        coupled_model, eval_g, find_fold_direct, make_state,
                        newton_solve, norm, phi,
                        principal_laplacian_eigenvalue,
                        principal_laplacian_eigenvector, rayleigh_nl,
                        solve_counter, solve_stable, stability_index,
                        stability_tolerance, upper_bound_lambda, zero_model)
from foldfinder import nehari
from foldfinder.energy import _fiber_peaks
from foldfinder.model import _term_partials

from _sublinear import solve_sublinear, sublinear_state


def _abc():
    return abc_model(q=1.5, gamma=4.0)


_M3 = ModelSpec(m=3, q=1.5, terms=((0.25, (4.0, 0.0, 0.0)),
                                   (0.5, (0.0, 4.0, 0.0)),
                                   (0.3, (0.0, 0.0, 4.0)),
                                   (1.0, (2.0, 1.0, 1.5))))


def test_sublinear_one_node_values():
    grid = build_grid("interval", 1)
    np.testing.assert_allclose(solve_sublinear(grid, 1.5, 8.0), [1.0],
                               atol=1e-12)
    np.testing.assert_allclose(solve_sublinear(grid, 1.5, 2.0), [0.0625],
                               atol=1e-12)


def test_sublinear_closed_forms_count_every_solve(monkeypatch):
    # count the triangular solves of every SuperLU factor made anywhere; the
    # package counter must see each of them
    calls = []
    real_splu = spla.splu

    class Factor:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, b):
            calls.append(1)
            return self.lu.solve(b)

        def __getattr__(self, attr):
            return getattr(self.lu, attr)

    monkeypatch.setattr(spla, "splu",
                        lambda a, **kw: Factor(real_splu(a, **kw)))
    grid = build_grid("interval", 1)
    for lam, expect in ((8.0, 1.0), (2.0, 0.0625)):
        calls.clear()
        solve_counter.reset()
        np.testing.assert_allclose(solve_sublinear(grid, 1.5, lam), [expect],
                                   atol=1e-12)
        assert solve_counter.value == len(calls) > 0


def test_sublinear_scaling_law():
    grid = build_grid("interval", 21)
    w1 = solve_sublinear(grid, 1.5, 1.0)
    w2 = solve_sublinear(grid, 1.5, 2.0)
    np.testing.assert_allclose(w2, 2.0 ** (1.0 / 0.5) * w1, atol=1e-8)


def test_sublinear_residual():
    grid = build_grid("interval", 13)
    lam = 3.0
    w = solve_sublinear(grid, 1.5, lam)
    res = apply_laplacian(grid, w) - lam * w ** 0.5
    assert np.abs(res).max() <= 1e-10 * grid.stencil_scale


def test_solve_one_node_closed_form():
    grid = build_grid("interval", 1)
    report = solve_stable(grid, _abc(), 7.0)
    assert report.converged
    np.testing.assert_allclose(report.state.u, [[1.0]], atol=1e-10)
    assert report.energy == pytest.approx(0.5 * (4.0 - 7.0 / 1.5 - 0.25),
                                          abs=1e-10)
    assert report.energy < 0.0


def test_solve_zero_model_recovers_sublinear_family():
    grid = build_grid("interval", 1)
    spec = zero_model(q=1.5)
    report = solve_stable(grid, spec, 4.0)
    assert report.converged
    np.testing.assert_allclose(report.state.u, [[(4.0 / 8.0) ** 2]],
                               atol=1e-10)


def test_nonexistence_above_fiber_maxima():
    grid = build_grid("interval", 1)
    lam_star = 8.0 * 1.6 ** 0.25 - 1.6 ** 1.25
    report = solve_stable(grid, _abc(), 1.05 * lam_star)
    assert not report.converged
    assert report.message == "monotone iteration diverged"


def _fiber_argmax(state):
    """Argmax of t -> R(t u) from the fiber's monomial coefficients."""
    grid, spec, u = state.grid, state.spec, state.u
    w = grid.node_weight
    a = w * float(np.vdot(apply_laplacian(grid, u), u))
    qn = w * float((u ** spec.q).sum())
    betas = np.array(spec.degrees) * w * _term_partials(spec, u, 0).sum(axis=1)
    t, _ = _fiber_peaks(np.array([a]), np.array([qn]), spec.q, spec.degrees,
                        betas.reshape(-1, 1))
    return float(t[0])


def test_converged_report_invariants():
    for n, lam in ((15, 2.0), (31, 5.0)):
        grid = build_grid("interval", n)
        report = solve_stable(grid, _abc(), lam)
        assert report.converged
        state = report.state
        # negative energy on the stable branch
        assert phi(state, lam) < 0.0
        # nodewise comparison against the sublinear family
        w = solve_sublinear(grid, 1.5, lam)
        assert np.all(state.u + 1e-8 >= w)
        # asymptotic stability
        assert report.delta > stability_tolerance(state)
        # quotient consistency; the fiber through u still rises at t = 1
        assert rayleigh_nl(state) == pytest.approx(lam, abs=1e-8)
        assert _fiber_argmax(state) > 1.0


def test_newton_polish_from_good_seed():
    grid = build_grid("interval", 15)
    lam = 3.0
    report = solve_stable(grid, _abc(), lam)
    bumped = report.state.u * 1.001
    state, converged, _, rn = newton_solve(grid, _abc(), lam,
                                           make_state(grid, _abc(), bumped))
    assert converged
    assert rn <= 1e-11 * grid.stencil_scale
    np.testing.assert_allclose(state.u, report.state.u, atol=1e-9)


def test_newton_rejects_trivial_collapse():
    # far above the fold no positive solution exists: not converged
    grid = build_grid("interval", 15)
    lam = 12.0
    init = sublinear_state(grid, _abc(), lam)
    _, converged, _, _ = newton_solve(grid, _abc(), lam, init)
    assert not converged


@pytest.mark.parametrize("spec, kind, n", [
    (abc_model(q=1.9, gamma=4.0), "interval", 31),
    (abc_model(q=1.9, gamma=4.0), "rectangle", 15),
    (abc_model(q=1.5, gamma=4.0), "interval", 31),
    (coupled_model(q=1.5), "interval", 63),
], ids=["abc19-interval", "abc19-rectangle", "abc15-interval",
        "coupled-interval"])
def test_newton_from_a_fold_point_reaches_the_stable_solution(spec, kind, n):
    # at (u*, 0.99 lambda*) the full step runs far along -v; clipped onto
    # the cone floor its residual is small, and accepting it collapsed the
    # solve onto u = 0 after one step
    grid = build_grid(kind, n)
    fp = find_fold_direct(grid, spec)
    lam = 0.99 * fp.lam
    state, converged, iters, _ = newton_solve(grid, spec, lam, fp.state)
    assert converged and iters <= 10
    assert 0.5 < state.sup / fp.state.sup < 1.0
    assert stability_index(state).delta > stability_tolerance(state)


@pytest.mark.parametrize("spec", [_abc(), coupled_model(q=1.5)],
                         ids=["abc", "coupled"])
@pytest.mark.parametrize("factor", [1.01, 1.05, 1.2])
def test_newton_above_the_fold_stops_at_the_second_damped_step(spec, factor):
    # no solution exists, so every step needs damping; with collapsed trials
    # rejected, Newton would otherwise wander for up to 40 steps before it
    # fails, as in a solve from --init above the fold
    grid = build_grid("interval", 31)
    fp = find_fold_direct(grid, spec)
    _, converged, iters, _ = newton_solve(grid, spec, factor * fp.lam,
                                          fp.state)
    assert not converged and iters <= 3


def _fixed_merit_newton(grid, u, merit):
    # the shared loop on a solver whose merit is merit(state) and whose
    # Newton step is zero, at tol = 1e-12
    def evaluate(u, lam):
        state = make_state(grid, _abc(), u)
        return nehari._Point(state, lam, merit(state),
                             lambda: (np.zeros_like(u), 0.0))
    return nehari._newton(evaluate, u, 1.0, 0, 1e-12)


@pytest.mark.parametrize("size", [1e-20, 1.0, 1e20])
def test_newton_stop_test_is_relative_to_the_iterate(size):
    # the same relative residual converges at every size of the state, so a
    # small state does not pass the test whatever it is
    grid = build_grid("interval", 7)
    u = size * np.ones((1, 7))
    for factor, converged in ((0.9, True), (1.1, False)):
        start, _ = next(_fixed_merit_newton(
            grid, u, lambda state: factor * 1e-12 * grid.stencil_scale
            * norm(grid, state.u)))
        assert start.converged is converged


def test_newton_accepts_a_converged_trial_that_does_not_lower_the_merit():
    # a converged point's step may leave its merit where it is, at the
    # rounding floor; an unconverged one must lower it
    grid = build_grid("interval", 7)
    u = np.ones((1, 7))
    for factor, points in ((0.5, 3), (2.0, 1)):
        merit = factor * 1e-12 * grid.stencil_scale * norm(grid, u)
        loop = _fixed_merit_newton(grid, u, lambda state: merit)
        assert len(list(itertools.islice(loop, 3))) == points


def test_newton_solve_converges_at_a_second_damped_step(monkeypatch):
    # the stop test comes before the rule that ends the solve at a second
    # damped step in a row, so a converged point reached that way counts
    grid = build_grid("interval", 7)
    state = make_state(grid, _abc(), np.ones((1, 7)))
    points = [nehari._Point(state, 1.0, merit, None, converged=converged)
              for merit, converged in ((1.0, False), (0.5, False),
                                       (1e-20, True))]
    monkeypatch.setattr(nehari, "_newton",
                        lambda *args: zip(points, (1.0, 0.5, 0.5)))
    _, converged, iters, _ = newton_solve(grid, _abc(), 1.0, state)
    assert converged and iters == 2


# --- the monotone iteration

@pytest.mark.parametrize("grid", [
    build_grid("interval", 31), build_grid("interval", 2, extents=2.5),
    build_grid("rectangle", 15), build_grid("rectangle", (5, 8),
                                            extents=(1.0, 3.0)),
], ids=["interval31", "interval2", "rectangle15", "rectangle5x8"])
def test_sine_mode_is_the_principal_eigenvector(grid):
    mode = principal_laplacian_eigenvector(grid)
    lam1 = principal_laplacian_eigenvalue(grid)
    assert np.all(mode > 0.0)
    res = apply_laplacian(grid, mode) - lam1 * mode
    assert np.abs(res).max() <= 1e-13 * grid.stencil_scale * mode.max()


@pytest.mark.parametrize("spec", [_abc(), coupled_model(q=1.418), _M3,
                                  abc_model(q=1.95, gamma=4.0)],
                         ids=["abc", "coupled", "m3", "abc-q195"])
@pytest.mark.parametrize("kind, n", [("interval", 31), ("rectangle", 9)])
def test_start_is_a_subsolution(spec, kind, n):
    grid = build_grid(kind, n)
    for lam in (0.1, 1.0, 0.9 * upper_bound_lambda(spec, grid)):
        u0 = nehari._subsolution(grid, spec, lam).u
        assert u0.shape == (spec.m, grid.n_nodes) and np.all(u0 > 0.0)
        assert u0.max() == pytest.approx(
            (lam / principal_laplacian_eigenvalue(grid))
            ** (1.0 / (2.0 - spec.q)), rel=1e-14)
        lhs = apply_laplacian(grid, u0)
        rhs = lam * u0 ** (spec.q - 1.0) + eval_g(spec, u0)
        assert np.all(lhs <= rhs + 1e-13 * np.abs(lhs).max())


def test_monotone_iterates_rise():
    grid = build_grid("interval", 63)
    spec = _abc()
    lam = 0.99 * find_fold_direct(grid, spec).lam
    state = nehari._subsolution(grid, spec, lam)
    for _ in range(50):
        new = nehari._laplacian_step(state, lam)
        assert np.all(new.u >= state.u * (1.0 - 1e-14))
        state = new


# sup norm and quadrature norm of the state that the projected-gradient
# Nehari descent this solve replaced returned at 0.99 lambda*; that
# solver's absolute residual test held it to about 2e-6 relative
_DESCENT_REFERENCE = {
    "abc-interval": (1.4081862877150892, 1.0026126607814079),
    "coupled-interval": (0.81301673228144711, 0.81862980952287012),
    "abc-rectangle": (2.2615361760754853, 1.1585022997521657),
}


@pytest.mark.parametrize("name, spec, kind, n", [
    ("abc-interval", _abc(), "interval", 31),
    ("coupled-interval", coupled_model(q=1.5), "interval", 31),
    ("abc-rectangle", _abc(), "rectangle", 15),
], ids=["abc-interval", "coupled-interval", "abc-rectangle"])
def test_solve_near_the_fold_matches_the_descent(name, spec, kind, n):
    grid = build_grid(kind, n)
    lam = 0.99 * find_fold_direct(grid, spec).lam
    report = solve_stable(grid, spec, lam)
    assert report.converged
    assert report.delta > stability_tolerance(report.state)
    sup, l2 = _DESCENT_REFERENCE[name]
    assert report.state.sup == pytest.approx(sup, rel=2e-6)
    assert norm(grid, report.state.u) == pytest.approx(l2, rel=2e-6)


@pytest.mark.parametrize("spec, kind, n", [
    (_abc(), "interval", 31), (coupled_model(q=1.5), "interval", 31),
    (abc_model(q=1.9, gamma=6.0), "rectangle", 15),
], ids=["abc-interval", "coupled-interval", "abc-gamma6-rectangle"])
def test_solve_above_the_fold_fails_without_a_warning(spec, kind, n):
    grid = build_grid(kind, n)
    lam = 1.01 * find_fold_direct(grid, spec).lam
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = solve_stable(grid, spec, lam)
    assert not report.converged
    assert report.message == "monotone iteration diverged"
    assert np.all(np.isfinite(report.state.u))


@pytest.mark.parametrize("kind, n, spec", [("rectangle", 15, _abc()),
                                           ("interval", 31,
                                            coupled_model(q=1.5))],
                         ids=["rectangle", "coupled"])
def test_solve_factor_budget(monkeypatch, kind, n, spec):
    # on a fresh grid the solve factors the Laplacian once (every sweep
    # solves on it), one Hessian of the model per Newton step and H - sigma
    # I once for the stability index; no zero-model Hessian is factored
    import foldfinder.linalg as linalg

    grid = build_grid(kind, n, extents=1.3)   # no factor kept for it yet
    lam = 0.5 * upper_bound_lambda(spec, grid)
    kinds, hessian_specs = [], []
    real_factorized, real_hessian = linalg._factor, nehari.hessian_operator

    def factorized(op, shift=0.0, border=None):
        kinds.append("laplacian" if op.matrix is grid.laplacian
                     else "bordered" if border is not None
                     else "shifted" if shift else "hessian")
        return real_factorized(op, shift, border)

    def hessian(state, lam):
        hessian_specs.append(state.spec)
        return real_hessian(state, lam)

    monkeypatch.setattr(linalg, "_factor", factorized)
    monkeypatch.setattr(nehari, "hessian_operator", hessian)
    report = solve_stable(grid, spec, lam)
    assert report.converged and report.iterations >= 1
    assert kinds.count("laplacian") == 1
    assert kinds.count("hessian") == report.iterations == len(hessian_specs)
    assert hessian_specs == [spec] * report.iterations
    assert kinds.count("shifted") == 1
    assert len(kinds) == report.iterations + 2


_MAGNITUDE = st.floats(1e-300, 1e300)
_ENTRY = st.one_of(st.just(0.0), _MAGNITUDE, _MAGNITUDE.map(lambda x: -x))


@settings(max_examples=500, deadline=None, database=None)
@given(st.sampled_from([1, 2]).flatmap(lambda m: arrays(
    np.float64, st.tuples(st.just(m), st.integers(1, 8)), elements=_ENTRY)))
@example(np.zeros((1, 3)))
@example(np.array([[1e300, -1e300, 1e-300, 0.0]]))
@example(np.array([[-1e-300, -1e300], [0.0, -1.0]]))
def test_clipped_iterates_are_cone_interior(u):
    # the shared Newton loop clips every iterate it evaluates, its start
    # included, so none of its solvers meets a state outside the cone
    m, n = u.shape
    spec = _abc() if m == 1 else coupled_model(q=1.5)
    clipped = nehari._clip_cone(u)
    assert make_state(build_grid("interval", n), spec, clipped).cone_interior()
