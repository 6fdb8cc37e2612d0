"""Energy functional, quotients, and the fiber-peak kernel."""

import numpy as np
import pytest

from foldfinder import (abc_model, apply_laplacian, build_grid, coupled_model,
                        hessian_operator, inner_product, make_state, norm,
                        phi, phi_grad, rayleigh_ext, rayleigh_nl)
from foldfinder.energy import _fiber_peaks
from foldfinder.model import _term_partials


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


def _fiber_coefficients(state):
    """(a, qn, betas) of R(t u) = (a t^2 - sum_k beta_k t^d_k) / (qn t^q)."""
    grid, spec, u = state.grid, state.spec, state.u
    w = grid.node_weight
    a = inner_product(grid, apply_laplacian(grid, u), u)
    qn = w * float((u ** spec.q).sum())
    betas = np.array(spec.degrees) * w * _term_partials(spec, u, 0).sum(axis=1)
    return a, qn, betas


def _fiber_peak(state):
    a, qn, betas = _fiber_coefficients(state)
    t, peak = _fiber_peaks(np.array([a]), np.array([qn]), state.spec.q,
                           state.spec.degrees, betas.reshape(-1, 1))
    return float(t[0]), float(peak[0])


def test_fiber_one_node_values():
    # one node, u = 1: R(t) = 8 t^(1/2) - t^(5/2), which peaks at
    # t^2 = 1.6 with the fold value
    _, _, state = _one_node()
    t, peak = _fiber_peak(state)
    assert t == pytest.approx(np.sqrt(1.6), rel=1e-14)
    assert peak == pytest.approx(8.0 * 1.6 ** 0.25 - 1.6 ** 1.25, rel=1e-14)


def test_fiber_argmax_is_interior_maximum():
    grid, spec, state = _random_state(20)
    a, qn, betas = _fiber_coefficients(state)
    q, d = spec.q, np.array(spec.degrees)

    def value(t):
        return (a * t ** (2.0 - q) - betas @ t ** (d - q)) / qn

    def derivative(t):
        return ((2.0 - q) * a * t ** (1.0 - q)
                - betas @ ((d - q) * t ** (d - q - 1.0))) / qn

    t_star, peak = _fiber_peak(state)
    assert peak == pytest.approx(value(t_star), rel=1e-14)
    assert value(t_star) >= value(0.9 * t_star)
    assert value(t_star) >= value(1.1 * t_star)
    assert abs(derivative(t_star)) <= 1e-9 * abs(value(t_star))


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


@pytest.mark.parametrize("coupled", [False, True])
def test_hessians_on_one_grid_share_the_layout(coupled):
    # the layout is built once per (grid, m): later Hessians reuse its index
    # arrays without a copy; for m = 1 it is the Laplacian's own pattern
    grid, spec, state = _random_state(5, coupled=coupled)
    first = hessian_operator(state, 1.7).matrix
    second = hessian_operator(state.with_u(2.0 * state.u), 0.3).matrix
    assert np.shares_memory(first.indices, second.indices)
    assert np.shares_memory(first.indptr, second.indptr)
    assert not np.shares_memory(first.data, second.data)
    if not coupled:
        np.testing.assert_array_equal(first.indices, grid.laplacian.indices)
        np.testing.assert_array_equal(first.indptr, grid.laplacian.indptr)


def test_state_layout_does_not_change_its_energy():
    # sums over an F-ordered array can differ in their last bit from the
    # C-ordered sums; a state stores one layout whatever it was built from
    from foldfinder.nehari import _minimal_solution

    grid, spec = build_grid("interval", 31), coupled_model(q=1.5)
    u = np.array(_minimal_solution(grid, spec, 0.5)[0].u)
    assert phi(make_state(grid, spec, np.asfortranarray(u)), 0.5) \
        == phi(make_state(grid, spec, np.ascontiguousarray(u)), 0.5)
