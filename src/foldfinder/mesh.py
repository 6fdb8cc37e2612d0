"""Finite-difference discretization of boxes with a Dirichlet Laplacian.

Grids are intervals or axis-aligned rectangles.  Interior nodes are ordered
lexicographically with the x index running fastest, boundary values are
identically zero and are folded into the second-order central stencil.
Quadrature is the product midpoint-type rule with weight h^d per interior
node, so all functionals below are plain weighted sums over node values.
``Grid.laplacian`` lays the stencil out straight into CSR arrays by index
arithmetic, one path for intervals and rectangles; a grid computes its
spacings, weight, stencil scale and Laplacian once and keeps them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .errors import GridMismatchError


@dataclass(frozen=True)
class Grid:
    """Discretized interval or rectangle with homogeneous Dirichlet boundary.

    ``h[axis] = extents[axis] / (n_interior[axis] + 1)`` exactly; the boundary
    nodes are not stored.
    """

    extents: tuple[float, ...]     # physical side lengths
    n_interior: tuple[int, ...]    # interior node counts per axis

    @property
    def ndim(self) -> int:
        return len(self.n_interior)

    @cached_property
    def h(self) -> tuple[float, ...]:
        return tuple(ext / (n + 1) for ext, n in zip(self.extents, self.n_interior))

    @cached_property
    def n_nodes(self) -> int:
        return math.prod(self.n_interior)

    @cached_property
    def node_weight(self) -> float:
        """Quadrature weight h^d shared by every interior node."""
        return math.prod(self.h)

    @cached_property
    def stencil_scale(self) -> float:
        """Largest stencil coefficient 2*sum(1/h^2); used to scale tolerances."""
        return 2.0 * sum(1.0 / hi**2 for hi in self.h)

    @cached_property
    def coords(self) -> np.ndarray:
        """Interior node coordinates, shape (n_nodes, ndim), x fastest."""
        axes = [h * np.arange(1, n + 1) for h, n in zip(self.h, self.n_interior)]
        if self.ndim == 1:
            return axes[0][:, None]
        xx, yy = np.meshgrid(axes[0], axes[1], indexing="xy")
        return np.column_stack([xx.ravel(), yy.ravel()])

    @cached_property
    def laplacian(self) -> sp.csr_matrix:
        """Sparse matrix of -Delta_h on interior nodes, laid out directly.

        Row i holds the stencil of node i: the neighbour along each axis
        at index offset -stride and +stride, which drops out where it is a
        boundary node, and node i itself.  Listed by offset, largest stride
        first below the diagonal and last above it, a row's entries are in
        column order, so the kept entries are the CSR arrays.
        """
        n, node = self.n_nodes, np.arange(self.n_nodes)
        strides = np.cumprod((1,) + self.n_interior[:-1])
        below, above = [], []
        for stride, size, h in zip(strides, self.n_interior, self.h):
            at = node // stride % size      # the node's index along the axis
            below.insert(0, (node - stride, at > 0, -1.0 / h**2))
            above.append((node + stride, at < size - 1, -1.0 / h**2))
        diag = (node, np.ones(n, dtype=bool), sum(2.0 / h**2 for h in self.h))
        cols, keep, vals = zip(*below, diag, *above)
        keep = np.column_stack(keep)          # (n, 2 ndim + 1), row-major
        indptr = np.zeros(n + 1, dtype=np.intc)
        np.cumsum(keep.sum(axis=1), out=indptr[1:])
        data = np.broadcast_to(np.array(vals), keep.shape)[keep]
        indices = np.column_stack(cols)[keep].astype(np.intc)
        return sp.csr_matrix((data, indices, indptr), shape=(n, n))


def build_grid(kind: str, n_interior, extents=None) -> Grid:
    """Construct a grid; rejects nonpositive sizes.

    ``kind`` is "interval" (1-D) or "rectangle" (2-D); ``extents`` defaults to
    the unit box.
    """
    if kind not in ("interval", "rectangle"):
        raise ValueError(f"unknown grid kind {kind!r}")
    ndim = 1 if kind == "interval" else 2
    if isinstance(n_interior, int):
        n_interior = (n_interior,) * ndim
    n_interior = tuple(int(n) for n in n_interior)
    if extents is None:
        extents = (1.0,) * ndim
    elif isinstance(extents, (int, float)):
        extents = (float(extents),) * ndim
    extents = tuple(float(e) for e in extents)
    if len(n_interior) != ndim or len(extents) != ndim:
        raise ValueError(f"{kind} grid needs {ndim} axis sizes/extents")
    if any(n < 1 for n in n_interior):
        raise ValueError("n_interior must be >= 1 on every axis")
    if any(e <= 0 for e in extents):
        raise ValueError("extents must be positive")
    return Grid(extents=extents, n_interior=n_interior)


def _check_field(grid: Grid, f: np.ndarray) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    if f.shape[-1] != grid.n_nodes:
        raise GridMismatchError(
            f"field has {f.shape[-1]} nodes, grid has {grid.n_nodes}"
        )
    return f


def apply_laplacian(grid: Grid, f: np.ndarray) -> np.ndarray:
    """Apply -Delta_h to one or more components (last axis indexes nodes)."""
    f = _check_field(grid, f)
    # f @ L would go through scipy's __rmatmul__, which builds L' on every
    # call; applying L to the columns of f' computes the same sums
    return np.ascontiguousarray((grid.laplacian @ f.T).T)


def inner_product(grid: Grid, f1: np.ndarray, f2: np.ndarray) -> float:
    """Quadrature inner product; sums over components and nodes alike."""
    f1 = _check_field(grid, f1)
    f2 = _check_field(grid, f2)
    if f1.shape != f2.shape:
        raise GridMismatchError(f"shape mismatch {f1.shape} vs {f2.shape}")
    return grid.node_weight * float(np.vdot(f1, f2).real)


def norm(grid: Grid, f: np.ndarray) -> float:
    """Quadrature norm sqrt(<f, f>)."""
    flat = _check_field(grid, f).ravel()
    # the sum np.linalg.norm computes on a flat real array, without its
    # dispatch
    return math.sqrt(grid.node_weight) * math.sqrt(float(flat @ flat))


def principal_laplacian_eigenvalue(grid: Grid) -> float:
    """Smallest eigenvalue of -Delta_h, in closed form.

    The stencil is a sum of 1-D stencils over the axes, so its smallest
    eigenvalue is the sum of theirs, (2/h^2)(1 - cos(pi h / L)) per axis.
    """
    return sum((2.0 / h**2) * (1.0 - math.cos(math.pi * h / ext))
               for h, ext in zip(grid.h, grid.extents))


def principal_laplacian_eigenvector(grid: Grid) -> np.ndarray:
    """Eigenvector of that eigenvalue: prod_k sin(pi x_k / L_k) at the nodes.

    Each 1-D stencil maps sin(pi x / L) sampled at the nodes to
    (2/h^2)(1 - cos(pi h / L)) times itself, since sin vanishes at both ends.
    """
    return np.prod(np.sin(np.pi * grid.coords / np.array(grid.extents)),
                   axis=1)

