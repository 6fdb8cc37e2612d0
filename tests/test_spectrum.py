"""Stability index of the linearized operator."""

import numpy as np
import pytest

from foldfinder import (abc_model, build_grid, cw_value, hessian_operator,
                        inner_product, make_state, rayleigh_nl,
                        stability_index, zero_model)

from _sublinear import sublinear_state


def _one_node(value):
    grid = build_grid("interval", 1)
    spec = abc_model(q=1.5, gamma=4.0)
    return grid, make_state(grid, spec, np.array([[value]]))


def test_one_node_solution_index():
    _, state = _one_node(1.0)
    result = stability_index(state)
    assert rayleigh_nl(state) == pytest.approx(7.0, abs=1e-13)
    assert result.delta == pytest.approx(1.5, abs=1e-10)


def test_sublinear_family_index_closed_form():
    # for g = 0 the index is (2-q)*c at one node, independent of lambda
    grid = build_grid("interval", 1)
    spec = zero_model(q=1.5, m=1)
    for lam in (2.0, 8.0, 20.0):
        state = sublinear_state(grid, spec, lam)
        delta = stability_index(state).delta
        assert delta == pytest.approx(0.5 * 8.0, abs=1e-10)


def test_index_near_zero_at_fold_state():
    _, state = _one_node(np.sqrt(1.6))
    assert abs(stability_index(state).delta) <= 1e-6


def _stable(state):
    """``CwCandidate.stable`` of the state: delta >= -tol_stab."""
    cand = cw_value(state)
    cand.stability = stability_index(state)
    return cand.stable


def test_is_stable_classification():
    _, stable = _one_node(1.0)
    assert _stable(stable)
    _, unstable = _one_node(2.0)
    assert rayleigh_nl(unstable) == pytest.approx(8.0 * np.sqrt(2.0)
                                                  - 2.0 ** 2.5, abs=1e-12)
    assert stability_index(unstable).delta == pytest.approx(-6.0, abs=1e-10)
    assert not _stable(unstable)
    _, fold = _one_node(np.sqrt(1.6))
    assert _stable(fold)  # delta ~ 0 counts as stable within tolerance


def test_quadratic_form_equivalence():
    # delta >= 0 iff the Hessian quadratic form is nonnegative on probes
    rng = np.random.default_rng(0)
    grid = build_grid("interval", 15)
    spec = abc_model(q=1.5, gamma=4.0)
    u = 0.2 + 0.1 * rng.random((1, 15))
    state = make_state(grid, spec, u)
    result = stability_index(state)
    hess = hessian_operator(state, rayleigh_nl(state))
    tol = 1e-9 * grid.stencil_scale
    for _ in range(100):
        probe = rng.standard_normal((1, 15))
        form = inner_product(grid, hess(probe.ravel()).reshape(1, 15), probe)
        mass = grid.node_weight * float(probe.ravel() @ probe.ravel())
        if result.delta >= 0:
            assert form >= -tol * mass
        # variational minimality: delta is a lower bound for all probes
        assert form / mass >= result.delta - tol


def test_eigenfield_residual():
    grid = build_grid("interval", 31)
    spec = abc_model(q=1.5, gamma=4.0)
    rng = np.random.default_rng(1)
    state = make_state(grid, spec, 0.1 + 0.05 * rng.random((1, 31)))
    result = stability_index(state)
    hess = hessian_operator(state, rayleigh_nl(state))
    phi = result.eigenfield.ravel()
    res = hess(phi) - result.delta * phi
    assert np.linalg.norm(res) <= 1e-8 * grid.stencil_scale
