"""The bordered solver, the principal eigenpair, and the single factor path."""

import ast
import gc
import pkgutil
import weakref
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import foldfinder
from foldfinder import (LinearOperator, SingularBorderError, abc_model,
                        build_grid, coupled_model, factor_bordered,
                        find_fold_continuation, find_fold_direct,
                        hessian_operator, make_state,
                        smallest_eigenpair, solve_counter, solve_stable,
                        upper_bound_lambda)
from foldfinder import linalg

from _sublinear import sublinear_state


def _laplacian_operator(n):
    g = build_grid("interval", n)
    return g, LinearOperator(g.laplacian, g.node_weight)


def test_bordered_two_by_two():
    op = LinearOperator(sp.csr_matrix(2.0 * np.eye(1)))
    x, y = factor_bordered(op, np.array([1.0]), np.array([1.0]), 0.0)(
        np.array([3.0]), 1.0)
    np.testing.assert_allclose(x, [1.0], atol=1e-12)
    assert y == pytest.approx(1.0, abs=1e-12)


def test_bordered_singular_block_permutation():
    # zero pivot block: the border carries the whole solve
    op = LinearOperator(sp.csr_matrix(np.zeros((1, 1))))
    for r, s in ((2.5, -1.0), (0.0, 4.0)):
        x, y = factor_bordered(op, np.array([1.0]), np.array([1.0]), 0.0)(
            np.array([r]), s)
        np.testing.assert_allclose(x, [s], atol=1e-10 * max(abs(s), 1.0))
        assert y == pytest.approx(r, abs=1e-10 * max(abs(r), 1.0))


def test_bordered_singular_matrix_raises():
    # [[0, 0], [1, 0]]: SuperLU meets an exactly zero pivot
    op = LinearOperator(sp.csr_matrix(np.zeros((1, 1))))
    with pytest.raises(SingularBorderError):
        factor_bordered(op, np.array([0.0]), np.array([1.0]), 0.0)(
            np.array([1.0]), 1.0)


def test_bordered_length_mismatch_raises_value_error():
    op = LinearOperator(sp.identity(2, format="csr"))
    with pytest.raises(ValueError):
        factor_bordered(op, np.ones(3), np.ones(2), 0.0)(np.ones(2), 0.0)


def test_bordered_against_dense_elimination():
    rng = np.random.default_rng(7)
    for _ in range(10):
        a = rng.standard_normal((4, 4))
        a = a @ a.T + 4.0 * np.eye(4)          # well-conditioned SPD block
        c = rng.standard_normal(4)
        b_row = rng.standard_normal(4)
        d = rng.standard_normal()
        f = rng.standard_normal(4)
        gval = rng.standard_normal()
        full = np.zeros((5, 5))
        full[:4, :4] = a
        full[:4, 4] = c
        full[4, :4] = b_row
        full[4, 4] = d
        expect = np.linalg.solve(full, np.concatenate([f, [gval]]))
        x, y = factor_bordered(LinearOperator(sp.csr_matrix(a)),
                               c, b_row, d)(f, gval)
        np.testing.assert_allclose(x, expect[:4], atol=1e-10)
        assert y == pytest.approx(expect[4], abs=1e-10)


def test_smallest_eigenpair_interval():
    g, op = _laplacian_operator(3)
    delta, phi = smallest_eigenpair(op, tol=1e-10 * g.stencil_scale)
    assert delta == pytest.approx(32.0 * (1.0 - np.cos(np.pi / 4.0)),
                                  abs=1e-8)
    target = np.sin(np.pi * g.coords[:, 0])
    target /= np.sqrt(g.node_weight) * np.linalg.norm(target)
    np.testing.assert_allclose(np.abs(phi), np.abs(target), atol=1e-8)


def test_smallest_eigenpair_shifted_singular():
    g = build_grid("interval", 1)
    mat = sp.csr_matrix(g.laplacian - 8.0 * sp.identity(1))
    op = LinearOperator(mat, g.node_weight)
    delta, _ = smallest_eigenpair(op, tol=1e-10 * g.stencil_scale)
    assert delta == pytest.approx(0.0, abs=1e-10)


def test_smallest_eigenpair_diagonal():
    op = LinearOperator(sp.diags([1.0, 5.0, 9.0]).tocsr())
    delta, phi = smallest_eigenpair(op, tol=1e-12)
    assert delta == pytest.approx(1.0, abs=1e-10)
    np.testing.assert_allclose(np.abs(phi), [1.0, 0.0, 0.0], atol=1e-8)


def test_smallest_eigenpair_counts_every_solve():
    # on a rectangle the Lanczos iteration applies the shift-invert factor
    # many times; each application is one counted triangular solve
    g = build_grid("rectangle", 7)
    op = LinearOperator(g.laplacian, g.node_weight)
    solve_counter.reset()
    smallest_eigenpair(op, tol=1e-10 * g.stencil_scale)
    assert solve_counter.value > 1


@pytest.mark.parametrize("n", [1, 2, 3, 127, "abc-fold"])
def test_tridiagonal_path_matches_dense_without_solves(n):
    # 1-D scalar Hessians are tridiagonal: LAPACK's tridiagonal solver
    # factors nothing, so no solve is counted
    if n == "abc-fold":
        # the fold state, where delta is near zero
        grid = build_grid("interval", 63)
        fp = find_fold_direct(grid, abc_model(q=1.5, gamma=4.0))
        state, lam = fp.state, fp.lam
    else:
        grid = build_grid("interval", n)
        rng = np.random.default_rng(n)
        state = make_state(grid, abc_model(q=1.5, gamma=4.0),
                           0.5 + rng.random(grid.n_nodes))
        lam = 2.0
    hess = hessian_operator(state, lam)
    tol = 1e-10 * grid.stencil_scale
    solve_counter.reset()
    delta, phi = smallest_eigenpair(hess, tol=tol)
    assert solve_counter.value == 0
    assert delta == pytest.approx(
        np.linalg.eigvalsh(hess.matrix.toarray())[0], abs=tol)
    assert np.sqrt(grid.node_weight) * np.linalg.norm(phi) \
        == pytest.approx(1.0, rel=1e-12)
    assert phi[np.argmax(np.abs(phi))] > 0


def test_shift_invert_path_matches_dense_on_rectangle():
    grid = build_grid("rectangle", 15)
    rng = np.random.default_rng(15)
    state = make_state(grid, abc_model(q=1.5, gamma=4.0),
                       0.5 + rng.random(grid.n_nodes))
    hess = hessian_operator(state, 2.0)
    tol = 1e-10 * grid.stencil_scale
    solve_counter.reset()
    delta, _ = smallest_eigenpair(hess, tol=tol)
    assert solve_counter.value > 1
    assert delta == pytest.approx(
        np.linalg.eigvalsh(hess.matrix.toarray())[0], abs=tol)


def test_eigenvalue_is_lower_bound_of_rayleigh_quotients():
    g, op = _laplacian_operator(15)
    delta, _ = smallest_eigenpair(op, tol=1e-10 * g.stencil_scale)
    rng = np.random.default_rng(3)
    for _ in range(20):
        v = rng.standard_normal(15)
        rq = (v @ op(v)) / (v @ v)
        assert rq >= delta - 1e-8 * abs(delta)


def test_smallest_eigenpair_near_degenerate_fold_state():
    # coupled model at its fold: the second eigenvalue (~6.6) is close to
    # the first (~0) compared with their distance to a shift below the
    # Gershgorin bound; the solver must return the first
    grid = build_grid("interval", 127)
    fp = find_fold_direct(grid, coupled_model(q=1.33))
    hess = hessian_operator(fp.state, fp.lam)
    tol = 1e-10 * grid.stencil_scale
    delta, _ = smallest_eigenpair(hess, tol=tol)
    expect = np.linalg.eigvalsh(hess.matrix.toarray())[0]
    assert delta == pytest.approx(expect, abs=tol)


def test_started_eigenpair_matches_in_fewer_solves():
    # started from the fold's null direction, shift-invert Lanczos finds the
    # pair of the fixed random start in fewer solves, and reruns agree
    grid = build_grid("rectangle", 15)
    fp = find_fold_direct(grid, abc_model(q=1.5, gamma=4.0))
    hess = hessian_operator(fp.state, fp.lam)
    tol = 1e-10 * grid.stencil_scale
    counts, pairs = [], []
    for start in (None, fp.v, fp.v):
        solve_counter.reset()
        pairs.append(smallest_eigenpair(hess, tol=tol, start=start))
        counts.append(solve_counter.value)
    assert counts[1] == counts[2] < counts[0]
    assert pairs[1][0] == pytest.approx(pairs[0][0], abs=tol)
    assert grid.node_weight * pairs[0][1] @ pairs[1][1] \
        == pytest.approx(1.0, abs=1e-8)
    assert pairs[1][0] == pairs[2][0]
    assert np.array_equal(pairs[1][1], pairs[2][1])


@pytest.mark.parametrize("kind, n, spec", [
    ("interval", 255, coupled_model(q=1.5)),
    ("rectangle", 55, abc_model(q=1.5, gamma=4.0)),
    ("rectangle", 15, coupled_model(q=1.4)),
], ids=["coupled-interval", "abc-rectangle", "coupled-rectangle"])
def test_row_sums_match_the_sparse_abs_sum_bitwise(monkeypatch, kind, n, spec):
    # scale() and the Gershgorin shift read one row-sum array, computed
    # from the stored data, with the values of abs(matrix).sum(axis=1)
    grid = build_grid(kind, n)
    rng = np.random.default_rng(7)
    state = make_state(grid, spec, 0.5 + rng.random((spec.m, grid.n_nodes)))
    hess = hessian_operator(state, 3.0)
    sums = np.ravel(abs(hess.matrix).sum(axis=1))
    assert np.array_equal(hess.row_abs_sums, sums)
    assert hess.scale() == float(sums.max())

    diag = hess.matrix.diagonal()
    sigma = float((diag - (sums - np.abs(diag))).min()) \
        - 1e-4 * max(float(sums.max()), 1.0)
    shifts = []
    real = linalg._factorized
    monkeypatch.setattr(linalg, "_factorized", lambda op, shift=0.0, border=None:
                        shifts.append(shift) or real(op, shift, border))
    smallest_eigenpair(hess, tol=1e-10 * grid.stencil_scale, start=state.u)
    assert shifts == [sigma]


def test_row_sums_of_empty_rows_are_zero():
    op = LinearOperator(sp.csr_matrix([[0.0, 0.0, 0.0, 0.0],
                                       [1.0, -2.0, 0.0, 0.0],
                                       [0.0, 0.0, 0.0, 0.0],
                                       [0.0, 3.0, 0.0, -4.0]]))
    assert np.array_equal(op.row_abs_sums, [0.0, 3.0, 0.0, 7.0])
    assert op.scale() == 7.0
    empty = LinearOperator(sp.csr_matrix((2, 2)))
    assert np.array_equal(empty.row_abs_sums, [0.0, 0.0])


def _reaches_splu(tree: ast.AST) -> bool:
    """True if the module imports from scipy.sparse.linalg or names splu."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) \
                and node.module == "scipy.sparse.linalg":
            return True
        if isinstance(node, ast.Import) and any(
                a.name == "scipy.sparse.linalg" for a in node.names):
            return True
        if isinstance(node, ast.Name) and node.id == "splu":
            return True
        if isinstance(node, ast.Attribute) and node.attr == "splu":
            return True
    return False


def _calls_bmat(tree: ast.AST) -> bool:
    """True if the module calls bmat, bare or as an attribute."""
    return any(isinstance(node, ast.Call) and (
        (isinstance(node.func, ast.Name) and node.func.id == "bmat")
        or (isinstance(node.func, ast.Attribute) and node.func.attr == "bmat"))
        for node in ast.walk(tree))


def _imports_sparse(tree: ast.AST) -> bool:
    """True if the module imports scipy.sparse or a submodule of it."""
    return any(isinstance(node, ast.Import) and any(
        a.name.startswith("scipy.sparse") for a in node.names)
        or isinstance(node, ast.ImportFrom)
        and (node.module or "").startswith("scipy.sparse")
        for node in ast.walk(tree))


def _splu_options(tree: ast.AST) -> list[bool]:
    """For each splu call, whether it passes ``**_SUPERNODES``."""
    return [any(kw.arg is None and isinstance(kw.value, ast.Name)
                and kw.value.id == "_SUPERNODES" for kw in node.keywords)
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "splu"]


def test_only_linalg_reaches_splu():
    # every factorization goes through linalg, so every solve is counted,
    # and no module assembles a bordered matrix block by block: linalg
    # scatters it straight into the CSC arrays of its factor.  Every splu
    # call there passes the shared supernode options; SuperLU's defaults
    # pad each factor with explicit zeros.  Past the Laplacian, which mesh
    # builds, linalg decides every sparse layout, the Hessian's included
    pkg = Path(foldfinder.__file__).parent
    modules = [info.name for info in pkgutil.iter_modules([str(pkg)])]
    assert "linalg" in modules and "nehari" in modules
    trees = {name: ast.parse((pkg / f"{name}.py").read_text())
             for name in modules}
    binders = [name for name in modules if _reaches_splu(trees[name])]
    assert binders == ["linalg"]
    assemblers = [name for name in modules if _calls_bmat(trees[name])]
    assert assemblers == []
    builders = [name for name in modules if _imports_sparse(trees[name])]
    assert sorted(builders) == ["linalg", "mesh"]
    options = _splu_options(trees["linalg"])
    assert options and all(options)


_SPLU = spla.splu

# Grids no other test builds (extents 1.5), so their orderings start empty;
# an equal grid alive elsewhere would share its cache entry.
_ORDERED_CASES = [("interval", 31, abc_model(q=1.5, gamma=4.0)),
                  ("rectangle", 15, abc_model(q=1.5, gamma=4.0)),
                  ("interval", 31, coupled_model(q=1.5))]
_ORDERED_IDS = ["interval", "rectangle", "coupled"]


def _record_splu(monkeypatch):
    """Record (permc_spec, size, factor, matrix) of every SuperLU factor."""
    calls, real = [], spla.splu

    def splu(a, **kw):
        lu = real(a, **kw)
        calls.append((kw.get("permc_spec"), a.shape[0], lu, a))
        return lu

    monkeypatch.setattr(spla, "splu", splu)
    return calls


def _fresh_factor(matrix):
    return _SPLU(sp.csc_matrix(matrix), permc_spec="MMD_AT_PLUS_A",
                 **linalg._SUPERNODES)


def _grid_order_factor(grid, matrix):
    """Factor of ``matrix`` permuted into the grid's order, computed here:
    the column order of a fresh minimum-degree factor of the Laplacian,
    node-major over the components, a border last."""
    n, size = grid.n_nodes, matrix.shape[0]
    nodes = np.argsort(_fresh_factor(grid.laplacian).perm_c)
    perm = (nodes[:, None] + n * np.arange(size // n)).ravel()
    perm = np.append(perm, np.arange(perm.shape[0], size))
    permuted = sp.csr_matrix(matrix)[perm][:, perm]
    return _SPLU(sp.csc_matrix(permuted), permc_spec="NATURAL",
                 **linalg._SUPERNODES)


@pytest.mark.parametrize("kind, n, spec", _ORDERED_CASES, ids=_ORDERED_IDS)
def test_reused_ordering_matches_fresh_factor(monkeypatch, kind, n, spec):
    # once a pattern is laid out on a grid, its factors (H, H - sigma I and
    # bordered, with c = b and c != b) reuse that layout; their solves
    # match a fresh minimum-degree factor, and their fill is that of the
    # matrix permuted into the grid's order
    grid = build_grid(kind, n, extents=1.5)
    lam = 0.5 * upper_bound_lambda(spec, grid)
    hess = [hessian_operator(sublinear_state(grid, spec, t * lam), t * lam)
            for t in (0.5, 1.0)]
    dim = hess[0].dim
    rng = np.random.default_rng(n)
    rhs = rng.standard_normal(dim)
    c, b_row = rng.standard_normal((2, dim))
    sigma = -0.1 * hess[0].scale()
    linalg._factorized(hess[0])
    linalg._factorized(hess[0], border=(c, c, 0.0))
    calls = _record_splu(monkeypatch)

    def check(solve, matrix, rhs):
        x = solve(rhs)
        permc, _, lu, _ = calls[-1]
        expect = _fresh_factor(matrix).solve(rhs)
        assert permc == "NATURAL"
        assert lu.nnz == _grid_order_factor(grid, matrix).nnz
        assert np.linalg.norm(x - expect) <= 1e-12 * np.linalg.norm(expect)

    for op in hess:
        check(linalg._factorized(op), op.matrix, rhs)
        check(linalg._factorized(op, shift=sigma),
              op.matrix - sigma * sp.identity(dim), rhs)
        for c_col, b, d in ((c, c, 0.0), (c, b_row, 0.3)):
            full = sp.bmat([[op.matrix, c_col.reshape(-1, 1)],
                            [b.reshape(1, -1), [[d]]]])
            check(linalg._factorized(op, border=(c_col, b, d)), full,
                  np.append(rhs, 1.0))
    assert len(calls) == 8


@pytest.mark.parametrize("kind, n, spec", _ORDERED_CASES, ids=_ORDERED_IDS)
def test_each_pattern_is_ordered_once_per_grid(monkeypatch, kind, n, spec):
    # the Laplacian factor is the grid's one minimum-degree ordering; the
    # Hessians, their shifts and the bordered matrices of both fold routes
    # and of the stable solve are laid out in its order
    grid = build_grid(kind, n, extents=1.5)
    lap = np.sort(grid.laplacian.data)
    calls = _record_splu(monkeypatch)
    fp = find_fold_direct(grid, spec)
    solve_stable(grid, spec, 0.5 * fp.lam)
    find_fold_continuation(grid, spec)
    ordered = [a for permc, _, _, a in calls if permc == "MMD_AT_PLUS_A"]
    assert len(ordered) == 1
    assert np.array_equal(np.sort(ordered[0].data), lap)
    assert all(permc in ("MMD_AT_PLUS_A", "NATURAL")
               for permc, _, _, _ in calls)
    assert spec.m * grid.n_nodes + 1 in {size for permc, size, _, _ in calls
                                         if permc == "NATURAL"}


_ABC, _COUPLED = abc_model(q=1.5, gamma=4.0), coupled_model(q=1.5)


@pytest.mark.parametrize("method, kind, n, spec", [
    ("direct", "rectangle", 15, _ABC),
    ("direct", "rectangle", 39, _ABC),
    ("direct", "interval", 31, _COUPLED),
    ("direct", "rectangle", 9, _COUPLED),
    ("continuation", "interval", 31, _ABC),
    ("continuation", "interval", 31, _COUPLED),
    ("continuation", "rectangle", 9, _ABC),
], ids=["direct-rectangle-15", "direct-rectangle-39",
        "direct-coupled-interval", "direct-coupled-rectangle",
        "continuation-interval", "continuation-coupled-interval",
        "continuation-rectangle"])
def test_fold_does_not_depend_on_what_its_grid_keeps(method, kind, n, spec):
    # a fold on a fresh grid, and the same fold on an equal grid while the
    # first is alive, so that it finds the Laplacian factor, the order and
    # the layouts the first run kept: the same bits
    def fold(grid):
        if method == "direct":
            return find_fold_direct(grid, spec)
        return find_fold_continuation(grid, spec).fold_point

    gc.collect()
    grid = build_grid(kind, n, extents=1.7)
    assert grid not in linalg._ORDERINGS
    fresh = fold(grid)
    again = fold(build_grid(kind, n, extents=1.7))
    assert again.lam == fresh.lam
    assert np.array_equal(again.state.u, fresh.state.u)


def test_orderings_are_dropped_with_their_grid():
    grid = build_grid("rectangle", 15, extents=1.5)
    spec = abc_model(q=1.5, gamma=4.0)
    hess = hessian_operator(sublinear_state(grid, spec, 1.0), 1.0)
    linalg._factorized(hess)
    factor_bordered(hess, np.ones(hess.dim), np.ones(hess.dim), 0.0)
    # H layout, Laplacian factor, its order, H and bordered factor layouts
    assert len(linalg._ORDERINGS[grid]) == 5
    ref = weakref.ref(grid)
    layout = weakref.ref(linalg._ORDERINGS[grid]["blocks", 1][2])
    del grid, hess
    gc.collect()
    assert ref() is None and layout() is None
    assert build_grid("rectangle", 15, extents=1.5) not in linalg._ORDERINGS
