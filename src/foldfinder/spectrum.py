"""Stability index: principal eigenvalue of the linearized operator."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .energy import State, hessian_operator, rayleigh_nl, require_cone_interior
from .linalg import smallest_eigenpair


def stability_tolerance(state: State) -> float:
    """Classification tolerance 1e-9 times the largest stencil coefficient."""
    return 1e-9 * state.grid.stencil_scale


@dataclass(frozen=True)
class StabilityResult:
    delta: float
    eigenfield: np.ndarray       # (m, N), quadrature-normalized


def stability_index(state: State, tol: float = 1e-10,
                    start: np.ndarray | None = None) -> StabilityResult:
    """delta(u): smallest eigenvalue of the Hessian at lambda = R(u, u).

    ``tol`` is relative to the stencil scale; ``start``, a guess at the
    eigenfield, goes to ``smallest_eigenpair``.
    """
    require_cone_interior(state)
    hess = hessian_operator(state, rayleigh_nl(state))
    tol_abs = tol * state.grid.stencil_scale
    delta, phi_flat = smallest_eigenpair(hess, tol=tol_abs, start=start)
    return StabilityResult(delta=delta,
                           eigenfield=phi_flat.reshape(state.u.shape))
