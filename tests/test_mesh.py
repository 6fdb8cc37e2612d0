"""Grid construction, stencil application, and quadrature."""

import numpy as np
import pytest

from foldfinder import (GridMismatchError, apply_laplacian, build_grid,
                        inner_product, interval_eigenvalue, norm,
                        principal_laplacian_eigenvalue)


def test_interval_one_node_geometry():
    g = build_grid("interval", 1)
    assert g.h == (0.5,)
    assert g.n_nodes == 1
    np.testing.assert_allclose(g.weights, [0.5])


def test_interval_three_node_geometry():
    g = build_grid("interval", 3)
    assert g.h == (0.25,)
    np.testing.assert_allclose(g.weights, [0.25, 0.25, 0.25])
    np.testing.assert_allclose(g.coords[:, 0], [0.25, 0.5, 0.75])


def test_rectangle_grid_geometry():
    g = build_grid("rectangle", (3, 3))
    assert g.n_nodes == 9
    np.testing.assert_allclose(g.weights, np.full(9, 1.0 / 16.0))


def test_stencil_one_node():
    g = build_grid("interval", 1)
    out = apply_laplacian(g, np.array([1.0]))
    np.testing.assert_allclose(out, [8.0])


def test_stencil_constant_field_boundary_zeros():
    g = build_grid("interval", 3)
    out = apply_laplacian(g, np.array([1.0, 1.0, 1.0]))
    np.testing.assert_allclose(out, [16.0, 0.0, 16.0])


def test_stencil_sine_eigenfunction():
    g = build_grid("interval", 3)
    f = np.sin(np.pi * g.coords[:, 0])
    mu = 32.0 * (1.0 - np.cos(np.pi / 4.0))
    np.testing.assert_allclose(apply_laplacian(g, f), mu * f, rtol=1e-13)


def test_inner_product_values():
    g1 = build_grid("interval", 1)
    assert inner_product(g1, np.array([1.0]), np.array([1.0])) == 0.5
    g3 = build_grid("interval", 3)
    val = inner_product(g3, np.array([1.0, 1.0, 1.0]),
                        np.array([1.0, 2.0, 3.0]))
    assert val == pytest.approx(1.5, abs=1e-15)
    assert inner_product(g3, np.ones(3), np.zeros(3)) == 0.0


def test_laplacian_symmetry_and_positivity():
    rng = np.random.default_rng(0)
    for kind, n in (("interval", 17), ("rectangle", (5, 5))):
        g = build_grid(kind, n)
        for _ in range(5):
            a = rng.standard_normal(g.n_nodes)
            b = rng.standard_normal(g.n_nodes)
            lhs = inner_product(g, apply_laplacian(g, a), b)
            rhs = inner_product(g, a, apply_laplacian(g, b))
            assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), 1.0)
            assert inner_product(g, apply_laplacian(g, a), a) > 0.0


def test_m_matrix_sign_structure():
    for kind, n in (("interval", 9), ("rectangle", (4, 4))):
        L = build_grid(kind, n).laplacian.tocoo()
        off = L.data[L.row != L.col]
        assert np.all(off <= 0.0)


@pytest.mark.parametrize("n", [(3, 7), (5, 5)], ids=["3x7", "5x5"])
def test_rectangle_laplacian_stores_only_the_stencil(n):
    # small x extents once sent sp.kron down a path that stored zeros
    from foldfinder import abc_model, hessian_operator, make_state

    nx, ny = n
    g = build_grid("rectangle", n)
    stencil = 5 * nx * ny - 2 * nx - 2 * ny
    assert g.laplacian.nnz == stencil
    assert np.all(g.laplacian.data != 0.0)
    state = make_state(g, abc_model(q=1.5, gamma=4.0), np.ones((1, g.n_nodes)))
    assert hessian_operator(state, 1.0).matrix.nnz == stencil


def test_interval_eigenpairs_closed_form():
    g = build_grid("interval", 15)
    x = g.coords[:, 0]
    for k in (1, 2, 5):
        mu = interval_eigenvalue(g, k)
        h = g.h[0]
        assert mu == pytest.approx((2.0 / h ** 2) * (1 - np.cos(k * np.pi * h)),
                                   abs=1e-10)
        f = np.sin(k * np.pi * x)
        np.testing.assert_allclose(apply_laplacian(g, f), mu * f,
                                   rtol=1e-10, atol=1e-10)


def test_principal_eigenvalue_small_grids():
    assert principal_laplacian_eigenvalue(build_grid("interval", 1)) == \
        pytest.approx(8.0, abs=1e-10)
    assert principal_laplacian_eigenvalue(build_grid("interval", 3)) == \
        pytest.approx(32.0 * (1.0 - np.cos(np.pi / 4.0)), abs=1e-9)


def test_principal_eigenvalue_rectangle_matches_dense():
    # unequal sizes and extents: the closed form sums one term per axis
    g = build_grid("rectangle", (5, 7), extents=(1.0, 2.0))
    expect = np.linalg.eigvalsh(g.laplacian.toarray())[0]
    assert principal_laplacian_eigenvalue(g) == pytest.approx(expect,
                                                              rel=1e-12)


def test_principal_eigenvalue_continuum_limit():
    lam = principal_laplacian_eigenvalue(build_grid("interval", 127))
    h = 1.0 / 128.0
    # second-order approach to pi^2 from below
    assert abs(lam - np.pi ** 2) < 2.0 * np.pi ** 2 * h ** 2
    assert lam < np.pi ** 2


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("grid", [build_grid("interval", 9),
                                  build_grid("rectangle", (3, 7))],
                         ids=["interval", "rectangle"])
def test_apply_laplacian_matches_the_matrix_row_by_row(grid, m):
    f = np.random.default_rng(m).standard_normal((m, grid.n_nodes))
    out = apply_laplacian(grid, f)
    assert out.shape == f.shape and out.flags.c_contiguous
    for i in range(m):
        assert np.array_equal(out[i], grid.laplacian @ f[i])
    assert np.array_equal(apply_laplacian(grid, f[0]), grid.laplacian @ f[0])


def test_field_shape_validation():
    g = build_grid("interval", 5)
    with pytest.raises(GridMismatchError):
        apply_laplacian(g, np.ones(4))
    with pytest.raises(GridMismatchError):
        inner_product(g, np.ones(5), np.ones((1, 4)))


def test_norm_matches_inner_product():
    g = build_grid("interval", 7)
    f = np.linspace(1.0, 2.0, 7)
    assert norm(g, f) == pytest.approx(np.sqrt(inner_product(g, f, f)),
                                       rel=1e-14)


def test_build_grid_rejects_bad_input():
    with pytest.raises(ValueError):
        build_grid("triangle", 3)
    with pytest.raises(ValueError):
        build_grid("interval", 0)
