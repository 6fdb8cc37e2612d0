"""Sparse linear algebra over matrix-backed grid operators.

This is the only module that factors a matrix, and ``_factorized`` is its
only SuperLU binding: every triangular solve in the package goes through a
factor it returns, and is counted in ``solve_counter``.  Every factor uses
one column ordering, minimum degree on A' + A (``MMD_AT_PLUS_A``), which
keeps the fill of the structurally symmetric stencil matrices low.
``factor_bordered`` assembles and factors a bordered matrix once and
returns a solve function, so one factor serves several right-hand sides;
``solve_bordered`` is that factor used once.  The Newton and fixed-point
loops elsewhere factor their own matrices through ``_factorized``.

``smallest_eigenpair`` picks its path from the matrix pattern.  A
tridiagonal matrix (a scalar model on an interval grid) goes to LAPACK's
tridiagonal eigensolver, which factors nothing and so adds no counted
solve.  Every other matrix (rectangles, m >= 2) is factored once as
H - sigma I and handed to ARPACK as the shift-invert operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import eigh_tridiagonal

from .errors import ConvergenceError, SingularBorderError


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
    norms agree with the grid norms.
    """

    matrix: sp.csr_matrix = field(repr=False)
    weight: float = 1.0

    @classmethod
    def from_matrix(cls, matrix, weight: float = 1.0):
        return cls(matrix=sp.csr_matrix(matrix), weight=weight)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.matrix @ x

    def scale(self) -> float:
        """Largest absolute row sum, used to scale shifts and tolerances."""
        return float(abs(self.matrix).sum(axis=1).max())


def _factorized(matrix) -> Callable[[np.ndarray], np.ndarray]:
    """SuperLU factor of ``matrix`` as a solve function that counts its calls.

    Columns are ordered by minimum degree on the pattern of A' + A, which
    suits the structurally symmetric matrices factored here: stencil
    Hessians, H - sigma I and their bordered extensions.
    """
    lu = spla.splu(sp.csc_matrix(matrix), permc_spec="MMD_AT_PLUS_A")

    def solve(b: np.ndarray) -> np.ndarray:
        solve_counter.value += 1
        return lu.solve(b)

    return solve


def factor_bordered(op: LinearOperator, c: np.ndarray, b_row: np.ndarray,
                    d: float, tol: float = 1e-10
                    ) -> Callable[[np.ndarray, float], tuple[np.ndarray, float]]:
    """Factor the bordered matrix [[A, c], [b', d]] once for many solves.

    Returns ``solve(f, g) -> (x, y)``, the solution of
    [[A, c], [b', d]] (x, y) = (f, g).  The bordered matrix is assembled and
    factored whole.  It stays regular at a simple fold, where A itself is
    singular, so no elimination runs through A (Govaerts 2000).  Raises
    ``SingularBorderError`` when the factorization meets an exactly zero
    pivot, and each solve raises it when the backward error of its solution
    exceeds ``tol``.
    """
    c = np.asarray(c, dtype=float).ravel()
    b_row = np.asarray(b_row, dtype=float).ravel()
    n = op.dim
    if not (c.shape[0] == b_row.shape[0] == n):
        raise ValueError("border length mismatch")

    full = sp.bmat([[op.matrix, sp.csr_matrix(c.reshape(-1, 1))],
                    [sp.csr_matrix(b_row), sp.csr_matrix([[d]])]])
    try:
        lu = _factorized(full)
    except RuntimeError as exc:   # SuperLU: "Factor is exactly singular"
        raise SingularBorderError(f"bordered system is singular: {exc}") from exc
    size = np.linalg.norm(c) + np.linalg.norm(b_row) + abs(d) + op.scale()

    def solve(rhs_f: np.ndarray, rhs_g: float) -> tuple[np.ndarray, float]:
        rhs_f = np.asarray(rhs_f, dtype=float).ravel()
        if rhs_f.shape[0] != n:
            raise ValueError("rhs length mismatch")
        rhs = np.append(rhs_f, rhs_g)
        sol = lu(rhs)
        res = np.linalg.norm(full @ sol - rhs)
        ref = np.linalg.norm(rhs) + size * np.linalg.norm(sol)
        if not res <= tol * ref:
            raise SingularBorderError("bordered system is numerically singular",
                                      condition_estimate=ref / res)
        return sol[:n], float(sol[n])

    return solve


def solve_bordered(op: LinearOperator, c: np.ndarray, b_row: np.ndarray,
                   d: float, rhs_f: np.ndarray, rhs_g: float,
                   tol: float = 1e-10) -> tuple[np.ndarray, float]:
    """Solve the bordered system [[A, c], [b', d]] (x, y) = (f, g).

    One ``factor_bordered`` factor, used once; see there for the errors.
    """
    return factor_bordered(op, c, b_row, d, tol)(rhs_f, rhs_g)


def smallest_eigenpair(op: LinearOperator, tol: float) -> tuple[float, np.ndarray]:
    """Principal (smallest) eigenpair of a symmetric operator.

    A matrix whose stored entries all lie within one place of the diagonal
    (every 1-D scalar grid, and n = 1) is tridiagonal: the pair comes from
    LAPACK bisection and inverse iteration (``stebz``/``stein``, via
    ``eigh_tridiagonal``), with no factorization.  Any other matrix gets
    shift-invert Lanczos (ARPACK; Lehoucq, Sorensen and Yang 1998): H - sigma I
    is factored once, with sigma just below the Gershgorin lower bound of the
    spectrum, so the smallest eigenvalue of H is the largest of the inverse.
    The start vector is fixed, so reruns are identical.  Either way delta is
    the Rayleigh quotient of the unit eigenvector.  Raises
    ``ConvergenceError`` unless ||H x - delta x|| <= tol.  Returns
    (delta, phi) with phi normalized to quadrature norm one and its
    largest-magnitude entry positive.
    """
    n = op.dim
    mat = op.matrix
    rows = np.repeat(np.arange(n), np.diff(mat.indptr))
    if np.all(np.abs(mat.indices - rows) <= 1):
        _, vecs = eigh_tridiagonal(mat.diagonal(), mat.diagonal(1),
                                   select="i", select_range=(0, 0))
    else:
        diag = mat.diagonal()
        row_abs = np.ravel(abs(mat).sum(axis=1))
        lower = float((diag - (row_abs - np.abs(diag))).min())
        sigma = lower - 1e-4 * max(op.scale(), 1.0)
        solve = _factorized(mat - sigma * sp.eye(n))
        shift_invert = spla.LinearOperator((n, n), matvec=solve, dtype=float)
        v0 = np.random.default_rng(12345).standard_normal(n)
        try:
            _, vecs = spla.eigsh(mat, k=1, sigma=sigma, which="LM", v0=v0,
                                 OPinv=shift_invert)
        except spla.ArpackNoConvergence as exc:
            raise ConvergenceError("shift-invert Lanczos did not converge",
                                   best=(exc.eigenvalues, exc.eigenvectors))
    x = vecs[:, 0] / np.linalg.norm(vecs[:, 0])
    delta = float(x @ (mat @ x))
    resid = float(np.linalg.norm(mat @ x - delta * x))
    if resid > tol:
        raise ConvergenceError("eigenpair residual above tolerance",
                               residual=resid, best=(delta, x))

    k = int(np.argmax(np.abs(x)))
    if x[k] < 0:
        x = -x
    phi = x / (math.sqrt(op.weight) * np.linalg.norm(x))
    return delta, phi
