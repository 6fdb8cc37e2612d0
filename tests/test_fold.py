"""Augmented-Newton fold refinement and branch continuation."""

import numpy as np
import pytest
from scipy.optimize import brentq

from foldfinder import (ConvergenceError, NoFoldError, abc_model, build_grid,
                        continue_branch, coupled_model, detect_fold,
                        find_fold_direct, make_state, moore_spence_solve,
                        zero_model, ModelSpec)

LAM_STAR_1 = 8.0 * 1.6 ** 0.25 - 1.6 ** 1.25
U_STAR_1 = np.sqrt(1.6)


def _abc():
    return abc_model(q=1.5, gamma=4.0)


def test_moore_spence_one_node_closed_form():
    grid = build_grid("interval", 1)
    init = make_state(grid, _abc(), np.array([[1.2]]))
    fp = moore_spence_solve(grid, _abc(), init, np.array([[1.0]]), 7.0)
    assert fp.lam == pytest.approx(LAM_STAR_1, abs=1e-10)
    assert fp.state.u[0, 0] == pytest.approx(U_STAR_1, abs=1e-10)
    # null direction is unit in the quadrature norm with positive sign
    assert fp.v[0, 0] == pytest.approx(np.sqrt(2.0), abs=1e-9)
    assert abs(fp.delta) <= 1e-8


def test_fold_certificate():
    grid = build_grid("interval", 31)
    fp = find_fold_direct(grid, _abc())
    assert abs(fp.delta) <= 1e-6 * grid.stencil_scale
    assert fp.eig_alignment >= 0.999


def test_moore_spence_coupled_interval_31_reference():
    # lambda* of the augmented Newton solve, recorded from the assembly that
    # preceded its solve_bordered form
    fp = find_fold_direct(build_grid("interval", 31), coupled_model(q=1.5))
    assert fp.lam == pytest.approx(6.866926288841847, rel=1e-12)


def test_moore_spence_singular_step_raises_convergence_error():
    # one node, g = 0, u = 1, lambda = 8: H s = p C, so the augmented
    # Jacobian is exactly singular and SuperLU meets a zero pivot
    grid = build_grid("interval", 1)
    spec = zero_model(q=1.5)
    init = make_state(grid, spec, np.array([[1.0]]))
    with pytest.raises(ConvergenceError) as info:
        moore_spence_solve(grid, spec, init, np.array([[1.0]]), 8.0)
    assert info.value.best[3] == 8.0


def test_moore_spence_coupled_matches_scalar_reduction():
    grid = build_grid("interval", 15)
    fp2 = find_fold_direct(grid, coupled_model(q=1.5))
    scalar = ModelSpec(m=1, q=1.5, terms=((0.75, (4.0,)),))
    fp1 = find_fold_direct(grid, scalar)
    assert fp2.lam == pytest.approx(fp1.lam, rel=1e-8)
    u = fp2.state.u
    assert np.abs(u[0] - u[1]).max() <= 1e-8 * np.abs(u).max()


def test_branch_one_node_matches_scalar_oracle():
    grid = build_grid("interval", 1)
    branch = continue_branch(grid, _abc(), lam_start=1.0)
    assert branch.fold_bracketed
    saw_stable = False
    for rec, state in zip(branch.records, branch.states):
        if rec.delta <= 0:
            continue
        saw_stable = True
        # stable branch: smallest root of 8*sqrt(u) - u^2.5 = lam
        u_oracle = brentq(lambda s: 8.0 * np.sqrt(s) - s ** 2.5 - rec.lam,
                          1e-14, U_STAR_1, xtol=1e-14)
        assert state.u[0, 0] == pytest.approx(u_oracle, rel=1e-7)
        assert rec.lam <= LAM_STAR_1 + 1e-8
    assert saw_stable


def test_branch_delta_positive_before_bracket():
    grid = build_grid("interval", 15)
    branch = continue_branch(grid, _abc(), lam_start=1.0)
    deltas = [rec.delta for rec in branch.records]
    flip = next(i for i, d in enumerate(deltas) if d <= 0)
    assert all(d > 0 for d in deltas[:flip])


def test_branch_zero_model_never_folds():
    grid = build_grid("interval", 9)
    spec = zero_model(q=1.5, m=1)
    branch = continue_branch(grid, spec, lam_start=1.0, max_records=40)
    assert not branch.fold_bracketed
    assert len(branch.records) == 40
    from foldfinder import principal_laplacian_eigenvalue

    floor = 0.4 * (2.0 - 1.5) * principal_laplacian_eigenvalue(grid)
    assert all(rec.delta > floor for rec in branch.records)


def test_detect_fold_one_node():
    grid = build_grid("interval", 1)
    branch = continue_branch(grid, _abc(), lam_start=1.0)
    det = detect_fold(grid, _abc(), branch)
    assert det.lambda_bisect == pytest.approx(LAM_STAR_1, abs=1e-8)
    assert det.lambda_moore_spence == pytest.approx(LAM_STAR_1, abs=1e-9)
    # lambda is locally maximal at the fold, so both bracket endpoints
    # sit at or below the fold value
    lo, hi = det.bracket
    assert lo <= hi <= LAM_STAR_1 + 1e-8


def test_detect_fold_requires_sign_change():
    grid = build_grid("interval", 9)
    spec = zero_model(q=1.5, m=1)
    branch = continue_branch(grid, spec, lam_start=1.0, max_records=20)
    with pytest.raises(NoFoldError):
        detect_fold(grid, spec, branch)


def test_cross_method_agreement_medium_grid():
    grid = build_grid("interval", 63)
    fp = find_fold_direct(grid, _abc())
    branch = continue_branch(grid, _abc(), lam_start=1.0)
    det = detect_fold(grid, _abc(), branch)
    assert abs(fp.lam - det.lambda_moore_spence) <= 1e-6 * fp.lam
    assert abs(det.lambda_bisect - det.lambda_moore_spence) <= 1e-6 * fp.lam


@pytest.mark.parametrize("spec", [
    abc_model(q=1.5, gamma=4.0),
    abc_model(q=1.5, gamma=3.7),
    coupled_model(q=1.5),
    ModelSpec(m=3, q=1.4, terms=((0.25, (4.0, 0.0, 0.0)),
                                 (0.5, (0.0, 3.5, 0.0)),
                                 (1.0, (2.0, 1.0, 1.5)),
                                 (0.4, (1.0, 0.0, 3.0)))),
], ids=["abc-4", "abc-3.7", "coupled", "mixed-m3"])
def test_third_derivative_blocks_finite_difference(spec):
    from foldfinder.energy import hessian_operator
    from foldfinder.fold import _third_derivative_blocks

    rng = np.random.default_rng(6)
    grid, lam, eps = build_grid("interval", 7), 2.0, 1e-5
    u = 0.5 + rng.random((spec.m, 7))
    v, xi = rng.standard_normal((2, spec.m, 7))
    blocks = _third_derivative_blocks(make_state(grid, spec, u), lam, v)
    assert blocks.shape == (spec.m, spec.m, 7)
    exact = np.einsum("ijn,jn->in", blocks, xi).ravel()
    hv = [hessian_operator(make_state(grid, spec, u + s * eps * xi), lam)(v.ravel())
          for s in (1.0, -1.0)]
    fd = (hv[0] - hv[1]) / (2 * eps)
    assert np.linalg.norm(fd - exact) <= 1e-7 * np.linalg.norm(exact)


@pytest.mark.parametrize("spec", [abc_model(q=1.5, gamma=4.0),
                                  coupled_model(q=1.5)], ids=["m1", "m2"])
@pytest.mark.parametrize("grid", [build_grid("interval", 7),
                                  build_grid("rectangle", (3, 4))],
                         ids=["interval", "rectangle"])
def test_fold_test_function_gradient_finite_difference(spec, grid):
    from foldfinder.energy import hessian_operator
    from foldfinder.fold import _test_function_gradient
    from foldfinder.linalg import solve_bordered

    rng = np.random.default_rng(11)
    shape, lam, eps = (spec.m, grid.n_nodes), 2.0, 1e-5
    u = 0.5 + rng.random(shape)
    xi = rng.standard_normal(shape)
    b = rng.standard_normal(u.size)
    b /= np.linalg.norm(b)

    def test_function(u, lam):
        hess = hessian_operator(make_state(grid, spec, u), lam)
        v, g = solve_bordered(hess, b, b, 0.0, np.zeros(u.size), 1.0)
        return v.reshape(shape), g

    v, _ = test_function(u, lam)
    g_u, g_lam = _test_function_gradient(make_state(grid, spec, u), lam, v)
    fd_u = (test_function(u + eps * xi, lam)[1]
            - test_function(u - eps * xi, lam)[1]) / (2 * eps)
    fd_lam = (test_function(u, lam + eps)[1]
              - test_function(u, lam - eps)[1]) / (2 * eps)
    exact_u = float(np.sum(g_u * xi))
    assert abs(fd_u - exact_u) <= 1e-7 * abs(exact_u)
    assert abs(fd_lam - g_lam) <= 1e-7 * abs(g_lam)
