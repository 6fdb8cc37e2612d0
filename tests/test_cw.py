"""Nodewise max-min quotient engine and the a-priori bound."""

import math

import numpy as np
import pytest

from foldfinder import (ModelSpec, abc_model, build_grid, coupled_model,
                        cw_ascend, cw_value, find_fold_direct, make_state,
                        principal_laplacian_eigenvalue, rayleigh_nl,
                        solve_stable, upper_bound_lambda, zero_model)
from foldfinder import cw
from foldfinder.energy import _fiber_peaks
from foldfinder.linalg import laplacian_solve
from foldfinder.mesh import apply_laplacian
from foldfinder.model import _simplex_rays, _term_partials

from _sublinear import sublinear_state


def _one_node_state(value):
    grid = build_grid("interval", 1)
    spec = abc_model(q=1.5, gamma=4.0)
    return make_state(grid, spec, np.array([[value]]))


LAM_STAR_1 = 8.0 * 1.6 ** 0.25 - 1.6 ** 1.25   # one-node fold value
U_STAR_1 = np.sqrt(1.6)


def _gap(state):
    """Spread max - min of the nodewise ratios whose minimum is lambda_cw."""
    r = cw._ratios(state)
    return float(r.max() - r.min())


def test_value_one_node_solution():
    cand = cw_value(_one_node_state(1.0))
    assert cand.lambda_cw == pytest.approx(7.0, abs=1e-13)
    assert _gap(cand.state) == 0.0


def test_value_one_node_scaled():
    cand = cw_value(_one_node_state(2.0))
    assert cand.lambda_cw == pytest.approx((16.0 - 8.0) / 2.0 ** 0.5,
                                           abs=1e-12)


def test_value_at_exact_solution_equals_lambda():
    grid = build_grid("interval", 21)
    spec = abc_model(q=1.5, gamma=4.0)
    lam = 3.0
    report = solve_stable(grid, spec, lam)
    cand = cw_value(report.state)
    assert cand.lambda_cw == pytest.approx(lam, abs=1e-7)
    assert _gap(cand.state) <= 1e-6 * grid.stencil_scale


def test_ratio_sandwich():
    rng = np.random.default_rng(0)
    grid = build_grid("interval", 11)
    spec = abc_model(q=1.5, gamma=4.0)
    for _ in range(10):
        state = make_state(grid, spec, 0.2 + rng.random((1, 11)))
        cand = cw_value(state)
        r_nl = rayleigh_nl(state)
        assert cand.lambda_cw <= r_nl + 1e-12
        assert r_nl <= cand.lambda_cw + _gap(state) + 1e-12


def test_ascend_one_node_reaches_fold():
    cand = cw_ascend(_one_node_state(1.0))
    assert cand.lambda_cw == pytest.approx(LAM_STAR_1, rel=1e-4)
    assert cand.state.u[0, 0] == pytest.approx(U_STAR_1, rel=5e-3)
    assert cand.stable


def test_ascend_never_exceeds_fold_value_stably():
    # stable candidates stay below the closed-form maximum
    rng = np.random.default_rng(1)
    grid = build_grid("interval", 1)
    spec = abc_model(q=1.5, gamma=4.0)
    for _ in range(10):
        init = make_state(grid, spec, np.array([[0.2 + 2.0 * rng.random()]]))
        cand = cw_ascend(init)
        if cand.stable:
            assert cand.lambda_cw <= LAM_STAR_1 + 1e-8


@pytest.mark.parametrize("spec, kind, n", [
    (abc_model(q=1.5, gamma=4.0), "interval", 63),
    (abc_model(q=1.5, gamma=4.0), "rectangle", 15),
    (coupled_model(q=1.5), "interval", 63),
], ids=["abc-interval", "abc-rectangle", "coupled-interval"])
def test_ascend_climbs_to_a_branch_solution_below_the_fold(spec, kind, n):
    grid = build_grid(kind, n)
    bound = upper_bound_lambda(spec, grid)
    cand = cw_ascend(sublinear_state(grid, spec, 0.5 * bound))
    assert cand.converged and cand.stable
    history = cand.diagnostics["history"]
    assert history[-1] == cand.lambda_cw
    assert all(b >= a for a, b in zip(history, history[1:]))
    assert _gap(cand.state) <= 1e-6 * grid.stencil_scale
    lam_star = find_fold_direct(grid, spec).lam
    assert cand.lambda_cw <= lam_star <= bound


def test_ascend_zero_model_diverges_flagged():
    grid = build_grid("interval", 9)
    spec = zero_model(q=1.5)
    init = sublinear_state(grid, spec, 4.0)
    cand = cw_ascend(init)
    # with no superlinear part the ratios grow along the fiber without bound
    assert not cand.converged
    assert cand.diagnostics["history"] == []
    assert cand.state is init


def test_ascend_coupled_symmetry():
    grid = build_grid("interval", 9)
    spec = coupled_model(q=1.5)
    init = sublinear_state(grid, spec, 2.0)
    cand = cw_ascend(init)
    u = cand.state.u
    assert np.abs(u[0] - u[1]).max() <= 1e-8 * np.abs(u).max()


def test_upper_bound_one_node_coincides_with_fold():
    grid = build_grid("interval", 1)
    spec = abc_model(q=1.5, gamma=4.0)
    assert upper_bound_lambda(spec, grid) == pytest.approx(LAM_STAR_1,
                                                           abs=1e-10)


def test_upper_bound_three_nodes_closed_form():
    grid = build_grid("interval", 3)
    spec = abc_model(q=1.5, gamma=4.0)
    lam1 = 32.0 * (1.0 - np.cos(np.pi / 4.0))
    # scalar ray profile lam1*t^2/2 - t^4/4 over t^q/q maximised in closed form
    u_star = (0.5 * lam1 / 2.5) ** 0.5
    expect = lam1 * u_star ** 0.5 - u_star ** 2.5
    assert upper_bound_lambda(spec, grid) == pytest.approx(expect, rel=1e-10)


def test_upper_bound_positive_and_infinite_cases():
    grid = build_grid("interval", 7)
    assert upper_bound_lambda(coupled_model(q=1.5), grid) > 0.0
    assert upper_bound_lambda(zero_model(q=1.5), grid) == np.inf


def test_stable_candidates_respect_upper_bound():
    rng = np.random.default_rng(2)
    grid = build_grid("interval", 9)
    spec = abc_model(q=1.5, gamma=4.0)
    bound = upper_bound_lambda(spec, grid)
    for _ in range(5):
        init = make_state(grid, spec, 0.1 + 0.4 * rng.random((1, 9)))
        cand = cw_ascend(init)
        if cand.stable:
            assert cand.lambda_cw <= bound + 1e-8 * bound


def test_upper_bound_and_fiber_values_are_python_floats():
    # numpy scalars here turn every comparison into a numpy bool, which
    # json cannot encode
    grid = build_grid("interval", 7)
    for spec in (abc_model(q=1.5, gamma=4.0), coupled_model(q=1.5)):
        assert type(upper_bound_lambda(spec, grid)) is float
        state = make_state(grid, spec, np.ones((spec.m, 7)))
        assert type(cw._fiber_argmax(state)) is float


# --- the fiber-peak kernel against the scipy.optimize algorithm it replaced

def _fiber_value(a, qn, q, degrees, betas, t):
    """R(t v) = (a t^2 - sum_k beta_k t^(d_k)) / (qn t^q), term by term."""
    out = (a / qn) * t ** (2.0 - q)
    for d, b in zip(degrees, betas):
        out -= (b / qn) * t ** (d - q)
    return out


def _brentq_argmax(a, q, degrees, betas):
    """Fiber argmax by bracketing and brentq on the slope; None if monotone."""
    from scipy.optimize import brentq

    active = [(d, b) for d, b in zip(degrees, betas) if b > 0]
    if not active or a <= 0:
        return None

    def psi(t):
        return (2.0 - q) * a - sum(
            (d - q) * b * t ** (d - 2.0) for d, b in active)

    hi = 1.0
    while psi(hi) > 0:
        hi *= 2.0
    lo = hi / 2.0
    while psi(lo) <= 0:
        lo /= 2.0
    return brentq(psi, lo, hi, xtol=1e-300, rtol=8.9e-16, maxiter=200)


def _one_fiber_peak(a, qn, q, degrees, betas):
    t, peak = _fiber_peaks(np.array([a]), np.array([qn]), q, degrees,
                           np.array(betas, dtype=float).reshape(-1, 1))
    return float(t[0]), float(peak[0])


@pytest.mark.parametrize("a, qn, q, degrees, betas", [
    (3.0, 1.2, 1.5, (4.0,), (0.7,)),
    (50.0, 0.3, 1.3, (3.0, 6.0), (2.0, 0.01)),
    (0.02, 2.0, 1.8, (2.5, 4.0, 7.5), (1.0, 3.0, 0.5)),
    (4.0, 1.0, 1.6, (4.0, 3.0), (0.0, 1.5)),
])
def test_fiber_argmax_matches_brentq(a, qn, q, degrees, betas):
    t_ref = _brentq_argmax(a, q, degrees, betas)
    t, peak = _one_fiber_peak(a, qn, q, degrees, betas)
    assert t == pytest.approx(t_ref, rel=1e-14)
    assert peak == pytest.approx(_fiber_value(a, qn, q, degrees, betas, t_ref),
                                 rel=1e-14)


@pytest.mark.parametrize("a, betas", [(3.0, (0.0, 0.0)), (-1.0, (0.5, 0.2))])
def test_fiber_without_interior_maximum(a, betas):
    assert _brentq_argmax(a, 1.5, (4.0, 3.0), betas) is None
    t, peak = _one_fiber_peak(a, 1.0, 1.5, (4.0, 3.0), betas)
    assert math.isnan(t)
    assert peak == math.inf


def _reference_bound(spec, grid):
    """Per-ray brentq maxima, then a bounded Brent polish for m = 2."""
    from scipy.optimize import minimize_scalar

    lam1 = principal_laplacian_eigenvalue(grid)
    degrees = np.array(spec.degrees)

    def ray_max(e):
        se, sq = float(e.sum()), float((e ** (spec.q - 1.0)).sum())
        if se <= 0 or sq <= 0:
            return -math.inf
        betas = tuple((degrees * _term_partials(spec, e, 0)).tolist())
        t = _brentq_argmax(lam1 * se, spec.q, spec.degrees, betas)
        return math.inf if t is None else _fiber_value(
            lam1 * se, sq, spec.q, spec.degrees, betas, t)

    rays = _simplex_rays(spec.m, count=257)
    values = [ray_max(e) for e in rays]
    best = max(values)
    if spec.m == 2 and math.isfinite(best):
        t0 = rays[int(np.argmax(values))][0]
        res = minimize_scalar(lambda t: -ray_max(np.array([t, 1.0 - t])),
                              bounds=(max(t0 - 0.05, 0.0), min(t0 + 0.05, 1.0)),
                              method="bounded", options={"xatol": 1e-12})
        best = max(best, -float(res.fun))
    return best


@pytest.mark.parametrize("spec", [
    abc_model(q=1.5, gamma=4.0),
    coupled_model(q=1.418),
    ModelSpec(m=3, q=1.5, terms=((0.25, (4.0, 0.0, 0.0)),
                                 (0.5, (0.0, 4.0, 0.0)),
                                 (0.3, (0.0, 0.0, 4.0)),
                                 (1.0, (2.0, 1.0, 1.5)))),
    ModelSpec(m=2, q=1.7, terms=((0.25, (4.0, 0.0)), (1.0, (2.5, 1.0)))),
], ids=["abc", "coupled", "m3", "m2-edge-ray-inf"])
def test_upper_bound_matches_per_ray_brentq_reference(spec):
    grid = build_grid("interval", 63)
    expect = _reference_bound(spec, grid)
    got = upper_bound_lambda(spec, grid)
    if math.isinf(expect):
        assert got == expect
    else:
        assert got == pytest.approx(expect, rel=1e-14)


def test_upper_bound_rejects_a_subquadratic_term():
    # below degree 2 the fiber slope is no longer monotone in t, and the
    # Newton start of the fiber-peak kernel is no longer right of its root
    spec = ModelSpec(m=1, q=1.5, terms=((1.0, (1.8,)), (0.25, (4.0,))))
    with pytest.raises(ValueError, match="degree"):
        upper_bound_lambda(spec, build_grid("interval", 31))


# --- the closed-form fiber argmax against the bisection it short-cuts

_M3 = ModelSpec(m=3, q=1.5, terms=((0.25, (4.0, 0.0, 0.0)),
                                   (0.5, (0.0, 4.0, 0.0)),
                                   (0.3, (0.0, 0.0, 4.0)),
                                   (1.0, (2.0, 1.0, 1.5))))


def _bisection_reference(state):
    """The fiber argmax by bisection alone, from the nodewise coefficients."""
    u, q = state.u.ravel(), state.spec.q
    den = u ** (q - 1.0)
    a = apply_laplacian(state.grid, state.u).ravel() / den
    b = _term_partials(state.spec, state.u, 1).reshape(-1, u.size) / den
    return cw._bisect_fiber_argmax(a, b, np.array(state.spec.degrees), q)


def _spy_bisection(monkeypatch):
    calls, real = [], cw._bisect_fiber_argmax

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cw, "_bisect_fiber_argmax", spy)
    return calls


@pytest.mark.parametrize("spec", [abc_model(q=1.5, gamma=4.0),
                                  coupled_model(q=1.418), _M3],
                         ids=["abc", "coupled", "m3"])
@pytest.mark.parametrize("kind, n", [("interval", 1), ("interval", 31),
                                     ("rectangle", 7), ("rectangle", (3, 4))],
                         ids=["interval1", "interval31", "rectangle7",
                              "rectangle3x4"])
def test_fiber_argmax_shortcut_matches_bisection(monkeypatch, spec, kind, n):
    # cone states u = L^-1 f with f > 0, so every Laplacian coefficient is
    # positive, at scales over four decades
    grid = build_grid(kind, n)
    rng = np.random.default_rng(spec.m * grid.n_nodes)
    lap_solve = laplacian_solve(grid)
    states = [make_state(grid, spec, lap_solve(
        rng.uniform(0.5, 1.5, (grid.n_nodes, spec.m))).T
        * 10.0 ** rng.uniform(-2.0, 2.0)) for _ in range(5)]
    expect = [_bisection_reference(state) for state in states]
    calls = _spy_bisection(monkeypatch)
    got = [cw._fiber_argmax(state) for state in states]
    assert len(calls) < len(states)            # the closed form answered
    for t, t_ref in zip(got, expect):
        assert t == pytest.approx(t_ref, rel=1e-14)


def test_fiber_argmax_edge_returns():
    # a node with L u <= 0 gives 1.0 and no superlinear part gives None,
    # both as before the closed form
    grid = build_grid("interval", 3)
    dip = make_state(grid, abc_model(q=1.5, gamma=4.0),
                     np.array([[1.0, 0.2, 1.0]]))
    assert cw._fiber_argmax(dip) == 1.0
    bump = make_state(grid, zero_model(q=1.5),
                      np.array([[1.0, 1.5, 1.0]]))
    assert _bisection_reference(bump) is None
    assert cw._fiber_argmax(bump) is None


def test_fiber_argmax_falls_back_to_bisection(monkeypatch):
    # on interval:2 at u = (1, 0.56) with gamma = 10 node 1 has the lower
    # ratio peak, but node 0's ratio lies below it there, so the closed
    # form does not apply and the bisection answers
    grid = build_grid("interval", 2)
    spec = abc_model(q=1.5, gamma=10.0)
    state = make_state(grid, spec, np.array([[1.0, 0.56]]))
    calls = _spy_bisection(monkeypatch)
    t = cw._fiber_argmax(state)
    assert len(calls) == 1
    assert t == _bisection_reference(state)

    def min_ratio(s):
        return cw_value(state.with_u(s * state.u)).lambda_cw

    assert min_ratio(t) >= max(min_ratio(t * (1.0 - 1e-6)),
                               min_ratio(t * (1.0 + 1e-6)))
