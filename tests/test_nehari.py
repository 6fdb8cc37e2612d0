"""Small-lambda branch solver and the sublinear comparison family."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from scipy.optimize import brentq

from foldfinder import (FiberEmptyError, abc_model, build_grid, fiber,
                        is_stable, make_state, newton_solve, phi,
                        project_nehari, rayleigh_nl, solve_counter,
                        solve_nehari, solve_nehari_multistart, solve_sublinear,
                        sublinear_state, zero_model)


def _abc():
    return abc_model(q=1.5, gamma=4.0)


def test_project_one_node_small_lambda():
    grid = build_grid("interval", 1)
    state = make_state(grid, _abc(), np.array([[1.0]]))
    t = project_nehari(state, 1.0)
    t_oracle = brentq(lambda s: 8.0 * np.sqrt(s) - s ** 2.5 - 1.0,
                      1e-12, 1.0, xtol=1e-15)
    assert t == pytest.approx(t_oracle, rel=1e-10)
    _, slope = fiber(state, t)
    assert slope > 0.0


def test_project_one_node_at_solution():
    grid = build_grid("interval", 1)
    state = make_state(grid, _abc(), np.array([[1.0]]))
    t = project_nehari(state, 7.0)
    assert t == pytest.approx(1.0, abs=1e-12)


def test_project_above_fiber_max_raises():
    grid = build_grid("interval", 1)
    state = make_state(grid, _abc(), np.array([[1.0]]))
    with pytest.raises(FiberEmptyError):
        project_nehari(state, 8.0)


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
    from foldfinder import apply_laplacian

    res = apply_laplacian(grid, w) - lam * w ** 0.5
    assert np.abs(res).max() <= 1e-10 * grid.stencil_scale


def test_solve_one_node_closed_form():
    grid = build_grid("interval", 1)
    report = solve_nehari(grid, _abc(), 7.0)
    assert report.converged
    np.testing.assert_allclose(report.state.u, [[1.0]], atol=1e-10)
    assert report.energy == pytest.approx(0.5 * (4.0 - 7.0 / 1.5 - 0.25),
                                          abs=1e-10)
    assert report.energy < 0.0


def test_solve_zero_model_recovers_sublinear_family():
    grid = build_grid("interval", 1)
    spec = zero_model(q=1.5, m=1)
    report = solve_nehari(grid, spec, 4.0)
    assert report.converged
    np.testing.assert_allclose(report.state.u, [[(4.0 / 8.0) ** 2]],
                               atol=1e-10)


def test_nonexistence_above_fiber_maxima():
    grid = build_grid("interval", 1)
    lam_star = 8.0 * 1.6 ** 0.25 - 1.6 ** 1.25
    winner, reports = solve_nehari_multistart(grid, _abc(), 1.05 * lam_star,
                                              restarts=6, seed=0)
    assert winner is None
    assert all(not r.converged for r in reports)


def test_converged_report_invariants():
    rng = np.random.default_rng(5)
    for n, lam in ((15, 2.0), (31, 5.0)):
        grid = build_grid("interval", n)
        report = solve_nehari(grid, _abc(), lam)
        assert report.converged
        state = report.state
        # negative energy on the Nehari branch
        assert phi(state, lam) < 0.0
        # nodewise comparison against the sublinear family
        w = solve_sublinear(grid, 1.5, lam)
        assert np.all(state.u + 1e-8 >= w)
        # asymptotic stability
        assert report.delta > 0.0
        assert is_stable(state)
        # quotient consistency and positive fiber slope at t = 1
        assert rayleigh_nl(state) == pytest.approx(lam, abs=1e-8)
        _, slope = fiber(state, 1.0)
        assert slope > 0.0


def test_newton_polish_from_good_seed():
    grid = build_grid("interval", 15)
    lam = 3.0
    report = solve_nehari(grid, _abc(), lam)
    bumped = report.state.u * 1.001
    state, converged, _, rn = newton_solve(grid, _abc(), lam,
                                           make_state(grid, _abc(), bumped))
    assert converged
    assert rn <= 1e-11 * grid.stencil_scale
    np.testing.assert_allclose(state.u, report.state.u, atol=1e-9)


def test_newton_rejects_trivial_collapse():
    # far above the fold the damped iteration slides to zero: not a solution
    grid = build_grid("interval", 15)
    lam = 12.0
    init = sublinear_state(grid, _abc(), lam)
    _, converged, _, _ = newton_solve(grid, _abc(), lam, init)
    assert not converged


def test_multistart_deterministic():
    grid = build_grid("interval", 15)
    w1, _ = solve_nehari_multistart(grid, _abc(), 2.0, restarts=4, seed=11)
    w2, _ = solve_nehari_multistart(grid, _abc(), 2.0, restarts=4, seed=11)
    assert w1 is not None and w2 is not None
    np.testing.assert_array_equal(w1.state.u, w2.state.u)
