"""End-to-end acceptance suite.

Each test prints a single PASS/FAIL line for its criterion (run pytest with
``-s`` or read captured output to see them) and asserts the stated
tolerances.
"""

import time

import numpy as np
import pytest

from foldfinder import (ModelSpec, abc_model, build_grid, coupled_model,
                        cw_ascend, continue_branch, detect_fold,
                        find_fold_direct, hessian_operator, inner_product,
                        make_state, newton_solve, norm, phi, phi_grad,
                        rayleigh_ext, rayleigh_nl, solve_stable,
                        stability_index, stability_tolerance,
                        upper_bound_lambda, zero_model)

from _sublinear import solve_sublinear, sublinear_state

Q, GAMMA = 1.5, 4.0
C1 = 8.0                                   # one-node stencil constant 2/h^2
U_STAR = ((2.0 - Q) * C1 / (GAMMA - Q)) ** (1.0 / (GAMMA - 2.0))
LAM_STAR = C1 * U_STAR ** (2.0 - Q) - U_STAR ** (GAMMA - Q)


def _abc():
    return abc_model(q=Q, gamma=GAMMA)


def _report(name, ok):
    print(f"{name}: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_1_single_node_closed_form_fold():
    grid = build_grid("interval", 1)
    find_fold_direct(grid, _abc())  # warm lazy scipy imports
    t0 = time.perf_counter()
    fp = find_fold_direct(grid, _abc())
    elapsed = time.perf_counter() - t0
    ok = (abs(fp.lam - LAM_STAR) <= 1e-10
          and abs(fp.state.u[0, 0] - U_STAR) <= 1e-10
          and abs(fp.delta) <= 1e-8
          and elapsed < 0.1)
    _report("criterion 1 (single-node closed-form fold)", ok)


def test_criterion_2_cross_method_agreement():
    t0 = time.perf_counter()
    grid = build_grid("interval", 127)
    direct = find_fold_direct(grid, _abc()).lam
    branch = continue_branch(grid, _abc(), lam_start=1.0)
    cont = detect_fold(grid, _abc(), branch).lambda_moore_spence
    elapsed = time.perf_counter() - t0
    ok = abs(direct - cont) <= 1e-6 * direct and elapsed <= 10.0
    _report("criterion 2 (direct vs continuation at n=127)", ok)


def test_criterion_3_mesh_convergence_order():
    lams = [find_fold_direct(build_grid("interval", n), _abc()).lam
            for n in (31, 63, 127, 255)]
    ratios = [(lams[i] - lams[i + 1]) / (lams[i + 1] - lams[i + 2])
              for i in range(2)]
    ok = all(3.6 <= r <= 4.4 for r in ratios)
    _report("criterion 3 (second-order Richardson ratios)", ok)


def test_criterion_4_coupled_system_reduction():
    grid = build_grid("interval", 63)
    fp2 = find_fold_direct(grid, coupled_model(q=Q))
    scalar = ModelSpec(m=1, q=Q, terms=((0.75, (4.0,)),))
    fp1 = find_fold_direct(grid, scalar)
    u = fp2.state.u
    ok = (abs(fp2.lam - fp1.lam) <= 1e-8 * fp1.lam
          and np.abs(u[0] - u[1]).max() <= 1e-8 * np.abs(u).max())
    _report("criterion 4 (coupled system scalar reduction)", ok)


def test_criterion_5_nonexistence_above_existence_below():
    grid = build_grid("interval", 31)
    lam_star = find_fold_direct(grid, _abc()).lam

    # above the fold every solver attempt must fail: the stable solve, and
    # Newton from 50 seeded positive starts
    lam_hi = 1.02 * lam_star
    init = sublinear_state(grid, _abc(), lam_hi)
    multi_fail = not solve_stable(grid, _abc(), lam_hi).converged
    for k in range(50):
        start = init.u
        if k > 0:
            rng = np.random.default_rng(7 + k)
            bump = rng.uniform(0.2, 3.0, size=init.u.shape)
            start = 10.0 ** rng.uniform(-1.0, 1.0) * init.u * bump
        state, conv, _, _ = newton_solve(grid, _abc(), lam_hi,
                                         make_state(grid, _abc(), start))
        multi_fail &= not (conv and stability_index(state).delta
                           > stability_tolerance(state))
    _, newton_ok, _, _ = newton_solve(grid, _abc(), lam_hi, init)
    rng = np.random.default_rng(7)
    no_stable_above = True
    for _ in range(8):
        bump = init.u * (1.0 + 0.3 * rng.random(init.u.shape))
        cand = cw_ascend(make_state(grid, _abc(), bump))
        stable = stability_index(cand.state).delta \
            >= -stability_tolerance(cand.state)
        if stable and cand.lambda_cw >= lam_hi:
            no_stable_above = False

    # below the fold continuation supplies a stable solution
    lam_lo = 0.98 * lam_star
    branch = continue_branch(grid, _abc(), lam_start=1.0)
    nearest = min((rec for rec in branch.records if rec.delta > 0),
                  key=lambda rec: abs(rec.lam - lam_lo))
    state, conv, _, _ = newton_solve(grid, _abc(), lam_lo, nearest.state)
    below_ok = conv and stability_index(state).delta > 0

    ok = multi_fail and not newton_ok and no_stable_above and below_ok
    _report("criterion 5 (no stable solutions above the fold)", ok)


def test_criterion_6_bound_chain():
    ok = True
    cases = [(_abc(), 15), (_abc(), 31), (coupled_model(q=Q), 15)]
    for spec, n in cases:
        grid = build_grid("interval", n)
        lam_star = find_fold_direct(grid, spec).lam
        bound = upper_bound_lambda(spec, grid)
        best_stable = -np.inf
        for lam in np.linspace(0.2, 0.95, 6) * lam_star:
            report = solve_stable(grid, spec, float(lam))
            if report.converged:
                best_stable = max(best_stable, report.lam)
        ok &= best_stable <= lam_star + 1e-8 * lam_star
        ok &= lam_star <= bound + 1e-8 * bound
    _report("criterion 6 (stable lambda <= fold lambda <= upper bound)", ok)


def test_criterion_7_formula_invariants():
    rng = np.random.default_rng(0)
    grid = build_grid("interval", 15)
    spec = _abc()
    ok = True

    # quotient homogeneity and diagonal identity
    state = make_state(grid, spec, 0.5 + rng.random((1, 15)))
    v = 0.5 + rng.random((1, 15))
    base = rayleigh_ext(state, v)
    ok &= rayleigh_ext(state, -2.0 * v) == base
    ok &= rayleigh_ext(state, 0.5 * v) == base
    ok &= abs(rayleigh_ext(state, state.u) - rayleigh_nl(state)) \
        <= 1e-13 * abs(base)

    # converged solutions: negative energy and sublinear comparison
    for lam in (2.0, 5.0):
        report = solve_stable(grid, spec, lam)
        ok &= report.converged and phi(report.state, lam) < 0.0
        w = solve_sublinear(grid, Q, lam)
        ok &= bool(np.all(report.state.u + 1e-8 >= w))

    # sublinear scaling law
    w1 = solve_sublinear(grid, Q, 1.0)
    w2 = solve_sublinear(grid, Q, 2.0)
    ok &= np.abs(w2 - 4.0 * w1).max() <= 1e-8

    # central-difference checks and Hessian symmetry
    xi = rng.standard_normal((1, 15))
    eps = 1e-5
    fd = (phi(make_state(grid, spec, state.u + eps * xi), 2.0)
          - phi(make_state(grid, spec, state.u - eps * xi), 2.0)) / (2 * eps)
    exact = inner_product(grid, phi_grad(state, 2.0), xi)
    ok &= abs(fd - exact) <= 1e-6 * abs(exact)
    hess = hessian_operator(state, 2.0)
    fd_h = (phi_grad(make_state(grid, spec, state.u + eps * xi), 2.0)
            - phi_grad(make_state(grid, spec, state.u - eps * xi), 2.0)) \
        / (2 * eps)
    exact_h = hess(xi.ravel()).reshape(xi.shape)
    ok &= norm(grid, fd_h - exact_h) <= 1e-6 * norm(grid, exact_h)
    mat = hess.matrix
    ok &= abs(mat - mat.T).max() <= 1e-12 * abs(mat).max()

    _report("criterion 7 (formula invariant suite)", ok)


def test_criterion_8_sublinear_stability_classification():
    spec = zero_model(q=Q)
    grid1 = build_grid("interval", 1)
    ok = True
    for lam in (1.0, 4.0, 16.0):
        delta = stability_index(sublinear_state(grid1, spec, lam)).delta
        ok &= abs(delta - (2.0 - Q) * C1) <= 1e-10
    for n in (15, 31, 63):
        grid = build_grid("interval", n)
        delta = stability_index(sublinear_state(grid, spec, 4.0)).delta
        ok &= delta > 0.0
    _report("criterion 8 (sublinear family stability index)", ok)
