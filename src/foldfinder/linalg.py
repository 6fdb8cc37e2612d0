"""Sparse linear algebra over matrix-backed grid operators.

Past the grid Laplacian, which ``mesh`` builds, this is the only module
that decides a sparse layout: ``_layout`` turns a list of (row, col)
entries under a renumbering into the data offset of each entry and the
compressed index arrays.  It lays out the Hessian, in CSR
order, and every factor, in permuted CSC order.
``laplacian_plus_blocks`` builds the Hessian: -Delta_h on each of m
components plus one m x m block per node, laid out once per (grid, m).
Each layout is kept as a template matrix (``_template``), the one matrix
of that layout that goes through scipy's checked constructor, which scans
the index arrays; every Hessian and every factor's matrix is a copy of its
template holding its own values (``_fill``).  The template's index arrays
are read-only and shared, so an in-place scipy operation on one matrix
raises instead of changing the layout of the others.

It is also the only module that factors a matrix, and ``_factor`` is its
only SuperLU binding: every triangular solve in the package goes through a
factor it returns, and is counted in ``solve_counter``.  ``_factor``
factors A - sigma I, or the bordered [[A, c], [b', d]], and scatters A's
data, the shift and the border straight into CSC arrays.  Each grid is
ordered once (George and Liu 1981; Davis 2006): ``laplacian_solve``
factors the grid Laplacian, on first need, with SuperLU's minimum degree
on A' + A (``MMD_AT_PLUS_A``), and the column order SuperLU chose is the
grid's order.  Every other factor of an operator on that grid (H,
H - sigma I and bordered, for any number m of components) is laid out in
that order, expanded node-major over the m components with the border
row and column last, and factored in natural order.  The layout of each
(m, bordered) pattern is built once per grid.  So a factor does not
depend on which factors came before it, and the ordering pass runs once
per grid.  An operator with no grid is ordered afresh at every factor.
The order, the Laplacian factor and the layouts are kept per grid and
dropped with it.
Every factor passes SuperLU the same supernode options (``_SUPERNODES``),
whose supernodes store little more than the true fill (Ashcraft and
Grimes 1989; Demmel et al. 1999).

``factor_bordered`` factors a bordered matrix once and returns a solve
function, so one factor serves several right-hand sides.

``smallest_eigenpair`` picks its path from the matrix pattern.  A
tridiagonal matrix (a scalar model on an interval grid) goes to LAPACK's
tridiagonal eigensolver, which factors nothing and so adds no counted
solve; so does any other matrix of dimension at most ``_DENSE_DIM``, to
LAPACK's dense one.  Every larger matrix (rectangles, m >= 2) is factored
once as H - sigma I and handed to ARPACK as the shift-invert operator,
started from the caller's guess at the eigenvector when there is one.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eigh_tridiagonal

from .errors import ConvergenceError, SingularBorderError
from .mesh import Grid


class _SolveCounter:
    """Counts triangular solves; read by the benchmark command."""

    value = 0

    def reset(self) -> int:
        """Zero the count; returns the count before."""
        count, self.value = self.value, 0
        return count


solve_counter = _SolveCounter()


@dataclass
class LinearOperator:
    """Symmetric sparse operator on flat vectors.

    ``weight`` is the quadrature weight of the underlying grid so residual
    norms agree with the grid norms.  ``grid``, when given, is the grid
    whose fixed pattern the matrix has: its factors are laid out in that
    grid's order.
    """

    matrix: sp.csr_matrix = field(repr=False)
    weight: float = 1.0
    grid: Grid | None = field(default=None, repr=False, compare=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.matrix @ x

    @cached_property
    def row_abs_sums(self) -> np.ndarray:
        """sum_j |a_ij| per row, computed once; 0 on a row with no entry.

        The reduction is the one scipy's ``abs(matrix).sum(axis=1)`` runs,
        without building |A|.
        """
        indptr = self.matrix.indptr
        rows = np.flatnonzero(np.diff(indptr))
        sums = np.zeros(self.dim)
        sums[rows] = np.add.reduceat(np.abs(self.matrix.data), indptr[rows])
        return sums

    def scale(self) -> float:
        """Largest absolute row sum, used to scale shifts and tolerances."""
        return float(self.row_abs_sums.max())


# SuperLU's supernode options for every factor.  Its defaults amalgamate
# relaxed supernodes that store explicit zeros: 148,676 entries for the
# 94,800 true ones of the bordered rectangle:55 factor.  Supernodes relaxed
# by at most two columns store 105,926 and factor 1.3-1.7x faster.
_SUPERNODES = {"relax": 2, "panel_size": 2}

# largest dimension whose eigenpair is computed densely: ARPACK's Krylov
# space cannot exceed the dimension, and in so small a space its last bits
# differ from one process to the next
_DENSE_DIM = 8

# largest relative backward error of a bordered solve, and of the augmented
# Newton step computed on its factor
_BACKWARD_TOL = 1e-10

# keyed by grid and dropped with it: {"laplacian": solve; "order": the node
# order of that factor; (dim, bordered): the _Pattern of factors of that
# size; ("blocks", m): the layout and Laplacian data of
# laplacian_plus_blocks}.  Nothing in a value refers back to its grid.
_ORDERINGS = weakref.WeakKeyDictionary()


def _layout(major: list, minor: list, rank: np.ndarray) -> tuple:
    """Compressed sparse layout of the entries (major[k], minor[k]), both
    renumbered by ``rank``: (pos, indices, indptr).

    ``major`` and ``minor`` are lists of index arrays, flattened and joined.
    ``pos`` gives the data offset of each entry; duplicate entries share
    one offset, so their values are summed.  Indices are sorted within each
    major slice.  Entries given as (row, col) lay out CSR, as (col, row) CSC.
    """
    size = rank.shape[0]
    major, minor = (np.concatenate([np.ravel(a) for a in part])
                    for part in (major, minor))
    uniq, pos = np.unique(rank[major] * size + rank[minor],
                          return_inverse=True)
    indptr = np.zeros(size + 1, dtype=np.intc)
    np.cumsum(np.bincount(uniq // size, minlength=size), out=indptr[1:])
    return pos, (uniq % size).astype(np.intc), indptr


def _template(kind: type, indices: np.ndarray, indptr: np.ndarray):
    """A square ``kind`` (CSR or CSC) matrix of one layout, for ``_fill``.

    It goes through scipy's checked constructor, which scans the index
    arrays, once per layout.  Its index arrays are read-only and shared by
    every matrix filled from it, so an in-place scipy operation on one of
    them (``sort_indices``, say) raises instead of changing the others.
    """
    for arr in (indices, indptr):
        arr.setflags(write=False)
    size = indptr.shape[0] - 1
    return kind((np.zeros(indices.shape[0]), indices, indptr),
                shape=(size, size))


def _fill(template, data: np.ndarray):
    """A matrix of ``template``'s layout holding ``data``, made by scipy's
    copy constructor, which checks the array sizes but not their contents."""
    mat = type(template)(template)
    mat.data = data
    return mat


def _rows(mat) -> np.ndarray:
    """The major index of each stored entry of a compressed matrix."""
    return np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr))


@dataclass
class _Pattern:
    """The CSC template of the pattern with rows and columns in ``perm``
    order.

    ``perm`` lists the indices of the factored matrix in factor order.
    ``pos`` gives the data offset of each source entry: A's stored
    entries, the diagonal, then the border column, row and corner.
    ``source`` is A's (indptr, indices); a later matrix must match it.
    """

    perm: np.ndarray
    pos: np.ndarray
    template: sp.csc_matrix
    source: tuple

    @classmethod
    def build(cls, mat: sp.csr_matrix, bordered: bool, perm: np.ndarray):
        n, node = mat.shape[0], np.arange(mat.shape[0])
        rows, cols = [_rows(mat), node], [mat.indices, node]
        if bordered:
            rows += [node, np.full(n + 1, n)]
            cols += [np.full(n, n), node, [n]]
        rank = np.empty(n + bordered, dtype=np.int64)
        rank[perm] = np.arange(n + bordered)
        # CSC: the column is the major index
        pos, indices, indptr = _layout(cols, rows, rank)
        return cls(perm, pos, _template(sp.csc_matrix, indices, indptr),
                   (mat.indptr, mat.indices))

    def assemble(self, data: np.ndarray) -> sp.csc_matrix:
        return _fill(self.template, np.bincount(
            self.pos, weights=data, minlength=self.template.nnz))

    def matches(self, mat: sp.csr_matrix) -> bool:
        indptr, indices = self.source
        return (np.array_equal(indptr, mat.indptr)
                and np.array_equal(indices, mat.indices))


def _grid_pattern(op: LinearOperator, bordered: bool) -> _Pattern | None:
    """Layout of ``op``'s factor in its grid's order, built once per grid
    and size; None for an operator with no grid, or one whose matrix does
    not have the pattern kept for that size."""
    if op.grid is None:
        return None
    n, dim = op.grid.n_nodes, op.dim
    store, key = _ORDERINGS.setdefault(op.grid, {}), (dim, bordered)
    if key not in store:
        laplacian_solve(op.grid)
        # node-major: the components of one node sit together
        perm = (store["order"][:, None] + np.arange(0, dim, n)).ravel()
        if bordered:
            perm = np.append(perm, dim)
        store[key] = _Pattern.build(op.matrix, bordered, perm)
    pattern = store[key]
    return pattern if pattern.matches(op.matrix) else None


def _factor(op: LinearOperator, shift: float = 0.0,
            border: tuple | None = None) -> tuple:
    """SuperLU factor of A - shift I, or of [[A, c], [b', d]] for a
    ``border`` (c, b, d), and its solve function, which counts its calls:
    (lu, solve).

    An operator on its grid's pattern is laid out in the grid's order
    (``_grid_pattern``) and factored in natural order.  Any other is
    ordered by minimum degree on A' + A.
    """
    mat, n, bordered = op.matrix, op.dim, border is not None
    parts = [mat.data, np.full(n, -shift)]
    if bordered:
        c, b_row, d = border
        parts += [c, b_row, [d]]
    data = np.concatenate(parts)
    pattern, permc_spec = _grid_pattern(op, bordered), "NATURAL"
    if pattern is None:
        pattern = _Pattern.build(mat, bordered, np.arange(n + bordered))
        permc_spec = "MMD_AT_PLUS_A"
    lu = spla.splu(pattern.assemble(data), permc_spec=permc_spec,
                   **_SUPERNODES)
    perm = pattern.perm

    def solve(b: np.ndarray) -> np.ndarray:
        solve_counter.value += 1
        x = np.empty(b.shape)
        x[perm] = lu.solve(b[perm])
        return x

    return lu, solve


def _factorized(op: LinearOperator, shift: float = 0.0,
                border: tuple | None = None
                ) -> Callable[[np.ndarray], np.ndarray]:
    """The solve function of ``_factor``."""
    return _factor(op, shift, border)[1]


def laplacian_solve(grid: Grid) -> Callable[[np.ndarray], np.ndarray]:
    """Solve function of the grid's -Delta_h, factored once per grid.

    This is the grid's one minimum-degree ordering: the factor's column
    order is the grid's order, which every other factor on the grid
    follows.  The factor and its order are kept with the grid and dropped
    with it.
    """
    store = _ORDERINGS.setdefault(grid, {})
    if "laplacian" not in store:
        lu, store["laplacian"] = _factor(
            LinearOperator(grid.laplacian, grid.node_weight))
        store["order"] = np.argsort(lu.perm_c)
    return store["laplacian"]


def laplacian_plus_blocks(grid: Grid, blocks: np.ndarray) -> LinearOperator:
    """-Delta_h on each of m components plus one m x m block per node.

    ``blocks`` has shape (m, m, N); entry (i, j, n) couples component j to
    component i at node n.  The CSR pattern, m copies of the Laplacian's
    plus the diagonal of every (i, j) node block, is laid out by
    ``_layout`` once per (grid, m) and kept with the grid's order,
    together with the Laplacian data placed in it.  Every operator copies
    that data and adds its blocks, so a diagonal entry reads L_nn + b_iin;
    it shares only the index arrays.
    """
    m, _, n = blocks.shape
    store = _ORDERINGS.setdefault(grid, {})
    if ("blocks", m) not in store:
        lap = grid.laplacian
        flat = np.arange(m * n).reshape(m, n)   # component i at node n
        block = np.broadcast_arrays(flat[:, None], flat[None])   # (m, m, N)
        pos, indices, indptr = _layout([flat[:, _rows(lap)], block[0]],
                                       [flat[:, lap.indices], block[1]],
                                       np.arange(m * n))
        lap_pos, block_pos = np.split(pos, [m * lap.nnz])
        base = np.zeros(indices.shape[0])
        base[lap_pos] = np.tile(lap.data, m)
        store["blocks", m] = (base, block_pos.reshape(blocks.shape),
                              _template(sp.csr_matrix, indices, indptr))
    base, block_pos, template = store["blocks", m]
    data = base.copy()
    data[block_pos] += blocks
    return LinearOperator(_fill(template, data), weight=grid.node_weight,
                          grid=grid)


def factor_bordered(op: LinearOperator, c: np.ndarray, b_row: np.ndarray,
                    d: float
                    ) -> Callable[[np.ndarray, float], tuple[np.ndarray, float]]:
    """Factor the bordered matrix [[A, c], [b', d]] once for many solves.

    Returns ``solve(f, g) -> (x, y)``, the solution of
    [[A, c], [b', d]] (x, y) = (f, g).  The bordered matrix is assembled and
    factored whole.  It stays regular at a simple fold, where A itself is
    singular, so no elimination runs through A (Govaerts 2000).  Raises
    ``SingularBorderError`` when the factorization meets an exactly zero
    pivot, and each solve raises it when the backward error of its solution
    exceeds ``_BACKWARD_TOL``.
    """
    c = np.asarray(c, dtype=float).ravel()
    b_row = np.asarray(b_row, dtype=float).ravel()
    n = op.dim
    if not (c.shape[0] == b_row.shape[0] == n):
        raise ValueError("border length mismatch")

    try:
        lu = _factorized(op, border=(c, b_row, d))
    except RuntimeError as exc:   # SuperLU: "Factor is exactly singular"
        raise SingularBorderError(f"bordered system is singular: {exc}") from exc
    size = np.linalg.norm(c) + np.linalg.norm(b_row) + abs(d) + op.scale()

    def solve(rhs_f: np.ndarray, rhs_g: float) -> tuple[np.ndarray, float]:
        rhs_f = np.asarray(rhs_f, dtype=float).ravel()
        if rhs_f.shape[0] != n:
            raise ValueError("rhs length mismatch")
        sol = lu(np.append(rhs_f, rhs_g))
        x, y = sol[:n], sol[n]
        res_f = op(x) + y * c - rhs_f
        res_g = b_row @ x + d * y - rhs_g
        res = math.sqrt(res_f @ res_f + res_g * res_g)
        ref = math.sqrt(rhs_f @ rhs_f + rhs_g * rhs_g) \
            + size * math.sqrt(sol @ sol)
        if not res <= _BACKWARD_TOL * ref:
            raise SingularBorderError("bordered system is numerically singular",
                                      condition_estimate=ref / res)
        return x, float(y)

    return solve


def smallest_eigenpair(op: LinearOperator, tol: float,
                       start: np.ndarray | None = None
                       ) -> tuple[float, np.ndarray]:
    """Principal (smallest) eigenpair of a symmetric operator.

    A matrix whose stored entries all lie within one place of the diagonal
    (every 1-D scalar grid, and n = 1) is tridiagonal: the pair comes from
    LAPACK bisection and inverse iteration (``stebz``/``stein``, via
    ``eigh_tridiagonal``), with no factorization.  Any other matrix of
    dimension at most ``_DENSE_DIM`` goes to the dense ``numpy.linalg.eigh``,
    which gives the same bits in every process.  Any larger one gets
    shift-invert Lanczos (ARPACK; Lehoucq, Sorensen and Yang 1998): H - sigma I
    is factored once, with sigma just below the Gershgorin lower bound of the
    spectrum, so the smallest eigenvalue of H is the largest of the inverse.
    Lanczos starts from ``start``, a guess at the eigenvector, in a Krylov
    space of 8 vectors; without one it starts from a fixed random vector in
    ARPACK's default space.  Either start is fixed by the input, so reruns
    are identical.  The direct paths ignore ``start``.  Either way
    delta is the Rayleigh quotient of the unit eigenvector.  Raises
    ``ConvergenceError`` unless ||H x - delta x|| <= tol.  Returns
    (delta, phi) with phi normalized to quadrature norm one and its
    largest-magnitude entry positive.
    """
    n = op.dim
    mat = op.matrix
    if np.all(np.abs(mat.indices - _rows(mat)) <= 1):
        _, vecs = eigh_tridiagonal(mat.diagonal(), mat.diagonal(1),
                                   select="i", select_range=(0, 0))
    elif n <= _DENSE_DIM:
        vecs = np.linalg.eigh(mat.toarray())[1]
    else:
        diag = mat.diagonal()
        lower = float((diag - (op.row_abs_sums - np.abs(diag))).min())
        sigma = lower - 1e-4 * max(op.scale(), 1.0)
        solve = _factorized(op, shift=sigma)
        shift_invert = spla.LinearOperator((n, n), matvec=solve, dtype=float)
        if start is None:
            v0, ncv = np.random.default_rng(12345).standard_normal(n), None
        else:
            v0, ncv = np.ravel(start), min(8, n)
        try:
            _, vecs = spla.eigsh(mat, k=1, sigma=sigma, which="LM", v0=v0,
                                 ncv=ncv, OPinv=shift_invert)
        except spla.ArpackNoConvergence as exc:
            raise ConvergenceError(
                "shift-invert Lanczos did not converge") from exc
    x = vecs[:, 0] / np.linalg.norm(vecs[:, 0])
    delta = float(x @ (mat @ x))
    resid = float(np.linalg.norm(mat @ x - delta * x))
    if resid > tol:
        raise ConvergenceError("eigenpair residual above tolerance",
                               residual=resid)

    k = int(np.argmax(np.abs(x)))
    if x[k] < 0:
        x = -x
    phi = x / (math.sqrt(op.weight) * np.linalg.norm(x))
    return delta, phi
