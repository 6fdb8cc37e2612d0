"""Energy functional, its derivatives, Rayleigh quotients, and fiber peaks.

All pairings use the grid quadrature; the gradient pairing <grad u, grad v>
is computed as <-Delta_h u, v>, which is exact summation by parts for the
Dirichlet stencil.  A state is "cone interior" when every node value exceeds
1e-14 times the sup norm; operations involving the weight u^(q-2) reject
anything else.  This module computes values only: the Hessian's node blocks
go to ``linalg.laplacian_plus_blocks``, which lays out and fills the
sparse matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConeError, SigmaError
from .linalg import LinearOperator, laplacian_plus_blocks
from .mesh import Grid, apply_laplacian, inner_product, norm
from .model import ModelSpec, eval_G, eval_g, eval_g_jacobian

CONE_FLOOR_REL = 1e-14


@dataclass(frozen=True)
class State:
    """An m-component grid function tied to its grid and model."""

    grid: Grid
    spec: ModelSpec
    u: np.ndarray  # shape (m, n_nodes)

    def __post_init__(self):
        # one layout for every state: sums over a state differ in their
        # last bit between C and F order
        u = np.ascontiguousarray(self.u, dtype=float)
        if u.ndim == 1:
            u = u[None, :]
        if u.shape != (self.spec.m, self.grid.n_nodes):
            raise ValueError(
                f"state shape {u.shape} != (m, N) = "
                f"({self.spec.m}, {self.grid.n_nodes})")
        if not np.all(np.isfinite(u)):
            raise ValueError("state contains non-finite values")
        u.setflags(write=False)
        object.__setattr__(self, "u", u)

    def with_u(self, u: np.ndarray) -> "State":
        return State(self.grid, self.spec, u)

    @cached_property
    def sup(self) -> float:
        return float(np.abs(self.u).max())

    @cached_property
    def _in_cone(self) -> bool:
        return self.sup > 0 and float(self.u.min()) > CONE_FLOOR_REL * self.sup

    def cone_interior(self) -> bool:
        return self._in_cone


def make_state(grid: Grid, spec: ModelSpec, u) -> State:
    return State(grid, spec, np.asarray(u, dtype=float))


def require_cone_interior(state: State) -> None:
    if not state.cone_interior():
        raise ConeError(
            "state has a node at or below the cone floor "
            f"({CONE_FLOOR_REL:g} * sup norm)")


def phi(state: State, lam: float) -> float:
    """Energy value 1/2 ||grad u||^2 - (lam/q) int |u|^q - int G(u)."""
    # all terms act on |u|, making the energy even in each node value; on
    # the cone this changes nothing and it justifies keeping iterates there
    g, u = state.grid, np.abs(state.u)
    grad2 = inner_product(g, apply_laplacian(g, u), u)
    uq = g.node_weight * float((u ** state.spec.q).sum())
    big_g = g.node_weight * float(np.sum(eval_G(state.spec, u)))
    return 0.5 * grad2 - (lam / state.spec.q) * uq - big_g


def phi_grad(state: State, lam: float) -> np.ndarray:
    """Residual field r = -Delta_h u - lam u^(q-1) - g(u), shape (m, N).

    <r, xi> in the quadrature pairing is the directional derivative of phi.
    """
    require_cone_interior(state)
    g, u, q = state.grid, state.u, state.spec.q
    return apply_laplacian(g, u) - lam * u ** (q - 1.0) - eval_g(state.spec, u)


def hessian_operator(state: State, lam: float) -> LinearOperator:
    """Linearization H phi = -Delta_h phi - G_uu(u) phi - lam (q-1) u^(q-2) phi.

    Computes the (m, m, N) node blocks of the last two terms; the sparse
    operator, its layout and its data are ``linalg.laplacian_plus_blocks``.
    """
    require_cone_interior(state)
    u, q = state.u, state.spec.q
    blocks = -eval_g_jacobian(state.spec, u)  # (m, m, N)
    diagonal = np.einsum("iin->in", blocks)   # a writable view of blocks
    diagonal -= lam * (q - 1.0) * u ** (q - 2.0)
    return laplacian_plus_blocks(state.grid, blocks)


def _sigma_denominator(state: State, v: np.ndarray) -> float:
    q = state.spec.q
    den = inner_product(state.grid, state.u ** (q - 1.0), v)
    ref = norm(state.grid, state.u ** (q - 1.0)) * norm(state.grid, v)
    if abs(den) <= 1e-14 * max(ref, 1e-300):
        raise SigmaError("v lies outside Sigma(u): <u^(q-1), v> = 0")
    return den


def rayleigh_ext(state: State, v: np.ndarray) -> float:
    """Extended Rayleigh quotient R(u, v); zero-homogeneous in v."""
    require_cone_interior(state)
    g, u = state.grid, state.u
    v = np.asarray(v, dtype=float).reshape(u.shape)
    den = _sigma_denominator(state, v)
    num = inner_product(g, apply_laplacian(g, u), v) \
        - inner_product(g, eval_g(state.spec, u), v)
    return num / den


def rayleigh_nl(state: State) -> float:
    """Nonlinear Rayleigh quotient R(u) = R(u, u)."""
    g, u, q = state.grid, state.u, state.spec.q
    uq = g.node_weight * float((np.abs(u) ** q).sum())
    if uq == 0.0:
        raise SigmaError("R(u) undefined at u = 0")
    num = inner_product(g, apply_laplacian(g, u), u) \
        - inner_product(g, eval_g(state.spec, np.abs(u)) * np.sign(u), u)
    return num / uq


def _fiber_peaks(a: np.ndarray, qn: np.ndarray, q: float,
                 degrees: tuple[float, ...], betas: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Argmax and maximum of t -> (a t^2 - sum_k beta_k t^(d_k)) / (qn t^q).

    One fiber per ray: ``a`` and ``qn`` have shape (R,), ``betas`` (K, R);
    a degree below 2 raises ValueError.  In s = log t the slope has the
    sign of psi(s) = (2-q) a - sum_k (d_k-q) beta_k e^((d_k-2) s) over the
    terms with beta_k > 0.  psi falls and is concave, so Newton from the
    smallest single-term root, where psi <= 0, falls monotonically onto the
    root with no bracket or damping.  A ray with no such term, a <= 0 or a
    root beyond t = 1e+-150 has no interior maximum: t = nan, maximum +inf.
    """
    if any(dk < 2.0 for dk in degrees):
        raise ValueError("fiber maxima need every degree to be at least 2")
    d = np.asarray(degrees, dtype=float)[:, None]
    active = betas > 0
    ok = active.any(axis=0) & (a > 0)
    # psi / ((2-q) a) = 1 - sum_k c_k e^((d_k-2) s)
    c = np.where(active & ok, (d - q) * betas, 0.0) \
        / ((2.0 - q) * np.where(ok, a, 1.0))
    with np.errstate(divide="ignore", invalid="ignore"):   # inactive: +inf
        roots = -np.log(c) / (d - 2.0)
    s = np.where(ok, roots.min(axis=0, initial=np.inf), 0.0)
    for _ in range(100):
        w = c * np.exp((d - 2.0) * s)
        slope = np.where(ok, ((d - 2.0) * w).sum(axis=0), 1.0)
        step = np.where(ok, (1.0 - w.sum(axis=0)) / slope, 0.0)
        s += step
        if np.all(np.abs(step) <= 1e-15 * np.maximum(1.0, np.abs(s))):
            break
    ok &= np.abs(s) <= 345.0
    t = np.where(ok, np.exp(s), np.nan)
    value = (a / qn) * t ** (2.0 - q)
    for dk, bk in zip(d[:, 0], betas):
        value -= (bk / qn) * t ** (dk - q)
    return t, np.where(ok, value, np.inf)
