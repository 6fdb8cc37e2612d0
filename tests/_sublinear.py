"""The sublinear family w_lambda, a test fixture built on ``solve_stable``."""

import numpy as np

from foldfinder import make_state, solve_stable, zero_model


def solve_sublinear(grid, q, lam):
    """Positive solution of -Delta_h w = lam w^(q-1), shape (N,), to 1e-13
    of the stencil scale."""
    rep = solve_stable(grid, zero_model(q), lam, tol=1e-13)
    assert rep.converged, rep.message
    return rep.state.u[0]


def sublinear_state(grid, spec, lam):
    """w_lambda tiled over the model components."""
    w = solve_sublinear(grid, spec.q, lam)
    return make_state(grid, spec, np.tile(w, (spec.m, 1)))
