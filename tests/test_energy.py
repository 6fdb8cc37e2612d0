"""Energy functional, quotients, and the scalar fiber map."""

import numpy as np
import pytest

from foldfinder import (abc_model, build_grid, coupled_model, fiber,
                        fiber_expansion, hessian_operator, inner_product,
                        make_state, norm, phi, phi_grad,
                        rayleigh_direction_descent, rayleigh_ext,
                        rayleigh_ext_grad_v, rayleigh_nl, solve_nehari)


def _one_node(value=1.0):
    grid = build_grid("interval", 1)
    spec = abc_model(q=1.5, gamma=4.0)
    return grid, spec, make_state(grid, spec, np.array([[value]]))


def _random_state(seed=0, n=9, coupled=False):
    rng = np.random.default_rng(seed)
    grid = build_grid("interval", n)
    spec = coupled_model(q=1.5) if coupled else abc_model(q=1.5, gamma=4.0)
    u = 0.5 + rng.random((spec.m, n))
    return grid, spec, make_state(grid, spec, u)


def test_phi_at_zero():
    grid = build_grid("interval", 4)
    spec = abc_model(q=1.5, gamma=4.0)
    state = make_state(grid, spec, np.full((1, 4), 1e-30))
    assert phi(state, 3.0) == pytest.approx(0.0, abs=1e-20)


def test_phi_one_node_value():
    _, _, state = _one_node()
    # 0.5*(4 - 2/3 - 1/4)
    assert phi(state, 1.0) == pytest.approx(0.5 * (4.0 - 2.0 / 3.0 - 0.25),
                                            abs=1e-14)


def test_phi_even_in_u_for_scalar_model():
    grid = build_grid("interval", 7)
    spec = abc_model(q=1.5, gamma=4.0)
    rng = np.random.default_rng(4)
    u = rng.standard_normal((1, 7))
    plus = make_state(grid, spec, np.abs(u))
    assert phi(plus, 2.0) == pytest.approx(
        phi(make_state(grid, spec, u), 2.0), rel=1e-14)


def test_phi_grad_one_node_solution():
    _, _, state = _one_node()
    np.testing.assert_allclose(phi_grad(state, 7.0), [[0.0]], atol=1e-14)


def test_phi_grad_finite_difference():
    for coupled in (False, True):
        grid, spec, state = _random_state(5, coupled=coupled)
        rng = np.random.default_rng(6)
        xi = rng.standard_normal(state.u.shape)
        eps = 1e-5
        fd = (phi(make_state(grid, spec, state.u + eps * xi), 2.0)
              - phi(make_state(grid, spec, state.u - eps * xi), 2.0)) / (2 * eps)
        exact = inner_product(grid, phi_grad(state, 2.0), xi)
        assert abs(fd - exact) <= 1e-6 * max(abs(exact), 1e-12)


def test_hessian_one_node_value():
    _, _, state = _one_node()
    hess = hessian_operator(state, 7.0)
    np.testing.assert_allclose(hess(np.array([1.0])), [1.5], atol=1e-14)


def test_hessian_symmetry():
    grid, spec, state = _random_state(7, coupled=True)
    hess = hessian_operator(state, 2.0)
    rng = np.random.default_rng(8)
    for _ in range(5):
        a = rng.standard_normal(2 * grid.n_nodes)
        b = rng.standard_normal(2 * grid.n_nodes)
        lhs = a @ hess(b)
        rhs = b @ hess(a)
        assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)
    mat = hess.matrix
    assert abs(mat - mat.T).max() <= 1e-12 * abs(mat).max()


def test_hessian_finite_difference():
    grid, spec, state = _random_state(9, coupled=True)
    hess = hessian_operator(state, 2.0)
    rng = np.random.default_rng(10)
    xi = rng.standard_normal(state.u.shape)
    eps = 1e-5
    fd = (phi_grad(make_state(grid, spec, state.u + eps * xi), 2.0)
          - phi_grad(make_state(grid, spec, state.u - eps * xi), 2.0)) / (2 * eps)
    exact = hess(xi.ravel()).reshape(xi.shape)
    assert norm(grid, fd - exact) <= 1e-6 * max(norm(grid, exact), 1e-12)


def test_rayleigh_ext_zero_homogeneity_exact():
    grid, spec, state = _random_state(11)
    rng = np.random.default_rng(12)
    v = 0.5 + rng.random(state.u.shape)
    base = rayleigh_ext(state, v)
    # power-of-two rescalings leave every float product unchanged
    for s in (-2.0, 0.5):
        assert rayleigh_ext(state, s * v) == base
    # s*v itself rounds for other factors; equality up to a few ulps
    assert rayleigh_ext(state, 10.0 * v) == pytest.approx(base, rel=1e-14)


def test_rayleigh_ext_one_node():
    _, _, state = _one_node()
    assert rayleigh_ext(state, np.array([[1.0]])) == pytest.approx(7.0)


def test_rayleigh_nl_matches_diagonal():
    grid, spec, state = _random_state(13)
    assert rayleigh_ext(state, state.u) == pytest.approx(rayleigh_nl(state),
                                                         rel=1e-14)


def test_rayleigh_nl_one_node_values():
    _, _, state = _one_node()
    assert rayleigh_nl(state) == pytest.approx(7.0)
    _, _, big = _one_node(4.0)
    assert rayleigh_nl(big) == pytest.approx(-16.0)


def test_rayleigh_nl_phi_criterion():
    # R(u) = lambda exactly when <phi_grad(u, lambda), u> vanishes
    grid, spec, state = _random_state(14)
    lam = rayleigh_nl(state)
    pairing = inner_product(grid, phi_grad(state, lam), state.u)
    assert abs(pairing) <= 1e-10 * grid.stencil_scale
    pairing2 = inner_product(grid, phi_grad(state, lam + 0.5), state.u)
    assert abs(pairing2) > 1e-6


def test_grad_v_vanishes_at_solutions():
    _, _, state = _one_node()
    np.testing.assert_allclose(rayleigh_ext_grad_v(state, np.array([[1.0]])),
                               [[0.0]], atol=1e-13)
    grid = build_grid("interval", 15)
    spec = abc_model(q=1.5, gamma=4.0)
    report = solve_nehari(grid, spec, 2.0)
    assert report.converged
    rng = np.random.default_rng(15)
    for _ in range(3):
        v = 0.5 + rng.random((1, 15))
        gv = rayleigh_ext_grad_v(report.state, v)
        assert norm(grid, gv) <= 1e-7 * grid.stencil_scale


def test_grad_v_finite_difference():
    grid, spec, state = _random_state(16, coupled=True)
    rng = np.random.default_rng(17)
    v = 0.5 + rng.random(state.u.shape)
    xi = rng.standard_normal(state.u.shape)
    eps = 1e-6
    fd = (rayleigh_ext(state, v + eps * xi)
          - rayleigh_ext(state, v - eps * xi)) / (2 * eps)
    exact = inner_product(grid, rayleigh_ext_grad_v(state, v), xi)
    assert abs(fd - exact) <= 1e-6 * max(abs(exact), 1e-10)


def test_fiber_one_node_values():
    _, _, state = _one_node()
    value, slope = fiber(state, 1.0)
    assert value == pytest.approx(7.0, abs=1e-13)
    assert slope == pytest.approx(1.5, abs=1e-13)


def test_fiber_derivative_positive_for_small_t():
    grid, spec, state = _random_state(18)
    for t in (1e-4, 1e-3, 1e-2):
        _, slope = fiber(state, t)
        assert slope > 0.0


def test_fiber_derivative_finite_difference():
    grid, spec, state = _random_state(19)
    eps = 1e-6
    for t in (0.3, 1.0, 2.0):
        v_plus, _ = fiber(state, t + eps)
        v_minus, _ = fiber(state, t - eps)
        fd = (v_plus - v_minus) / (2 * eps)
        _, slope = fiber(state, t)
        assert abs(fd - slope) <= 1e-6 * max(abs(slope), 1e-8)


def test_fiber_argmax_is_interior_maximum():
    grid, spec, state = _random_state(20)
    exp = fiber_expansion(state)
    t_star = exp.argmax()
    assert exp.value(t_star) >= exp.value(0.9 * t_star)
    assert exp.value(t_star) >= exp.value(1.1 * t_star)
    assert abs(exp.derivative(t_star)) <= 1e-9 * abs(exp.value(t_star))


def test_direction_descent_flags():
    # at a solution the v-gradient descends below tolerance
    _, _, state = _one_node()
    ok, history = rayleigh_direction_descent(state, np.array([[1.0]]))
    assert ok
    assert history[-1] <= 1e-8 * state.grid.stencil_scale
    # at a non-solution the run flags failure
    grid, spec, off = _random_state(21)
    ok2, history2 = rayleigh_direction_descent(off, np.ones_like(off.u))
    assert not ok2


def _hessian_reference(state, lam):
    """The block-by-block sp.kron / sp.bmat assembly, kept as the reference."""
    import scipy.sparse as sp

    from foldfinder import eval_g_jacobian

    g, u, q, m = state.grid, state.u, state.spec.q, state.spec.m
    jac = eval_g_jacobian(state.spec, u)
    blocks = [[sp.diags(jac[i, j]) for j in range(m)] for i in range(m)]
    return (sp.kron(sp.eye(m), g.laplacian) - sp.bmat(blocks)
            - sp.diags((lam * (q - 1.0) * u ** (q - 2.0)).ravel())).toarray()


def test_hessian_matches_block_assembly():
    from foldfinder import ModelSpec

    rng = np.random.default_rng(7)
    mixed = ModelSpec(m=3, q=1.5, terms=((0.25, (4.0, 0.0, 0.0)),
                                         (0.5, (0.0, 4.0, 1.0)),
                                         (1.0, (2.0, 1.0, 1.5))))
    for spec in (abc_model(q=1.5, gamma=4.0), coupled_model(q=1.5), mixed):
        for grid in (build_grid("interval", 9), build_grid("rectangle", 4)):
            u = 0.5 + rng.random((spec.m, grid.n_nodes))
            state = make_state(grid, spec, u)
            ref = _hessian_reference(state, 1.7)
            mat = hessian_operator(state, 1.7).matrix.toarray()
            assert np.abs(mat - ref).max() <= 1e-15 * np.abs(ref).max()


@pytest.mark.parametrize("coupled", [False, True])
def test_hessians_on_one_grid_do_not_share_data(coupled):
    # the pattern is shared per grid; the data of every Hessian is its own
    grid, spec, state = _random_state(5, coupled=coupled)
    lap = grid.laplacian.toarray()
    first = hessian_operator(state, 1.7).matrix
    second = hessian_operator(state.with_u(2.0 * state.u), 0.3).matrix
    before = second.toarray()
    first.data[:] = np.nan
    np.testing.assert_array_equal(second.toarray(), before)
    np.testing.assert_array_equal(grid.laplacian.toarray(), lap)
    third = hessian_operator(state, 1.7).matrix
    assert np.all(np.isfinite(third.data))
