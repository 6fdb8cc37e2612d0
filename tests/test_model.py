"""Monomial nonlinearity evaluation and structural validation."""

import numpy as np
import pytest

from foldfinder import (ConeError, ModelSpec, abc_model, coupled_model,
                        eval_G, eval_g, eval_g_jacobian, make_model,
                        validate_hypotheses, zero_model)


def _col(*vals):
    return np.array([[v] for v in vals], dtype=float)


def test_g_vanishes_at_zero():
    for spec in (abc_model(q=1.5, gamma=4.0), coupled_model(q=1.5)):
        u = np.zeros((spec.m, 3))
        np.testing.assert_array_equal(eval_g(spec, u), 0.0)
        np.testing.assert_array_equal(eval_G(spec, u), 0.0)


def test_scalar_quartic_derivative():
    spec = abc_model(q=1.5, gamma=4.0)
    np.testing.assert_allclose(eval_g(spec, _col(2.0)), [[8.0]])
    np.testing.assert_allclose(eval_G(spec, _col(2.0)), [2.0 ** 4 / 4.0])


def test_coupled_gradient_by_hand():
    spec = coupled_model(q=1.5)
    g = eval_g(spec, _col(1.0, 1.0))
    np.testing.assert_allclose(g[:, 0], [3.0, 3.0])
    # G(1, 2) = (1 + 16)/4 + 1*4 = 8.25
    np.testing.assert_allclose(eval_G(spec, _col(1.0, 2.0)), [8.25])


def test_jacobian_values():
    spec = abc_model(q=1.5, gamma=4.0)
    jac = eval_g_jacobian(spec, _col(2.0))
    np.testing.assert_allclose(jac[:, :, 0], [[12.0]])
    jac0 = eval_g_jacobian(spec, _col(0.0))
    np.testing.assert_array_equal(jac0, 0.0)
    spec2 = coupled_model(q=1.5)
    jac2 = eval_g_jacobian(spec2, _col(1.0, 1.0))
    np.testing.assert_allclose(jac2[:, :, 0], [[5.0, 4.0], [4.0, 5.0]])


def test_jacobian_symmetry():
    rng = np.random.default_rng(0)
    spec = coupled_model(q=1.5)
    u = rng.random((2, 6)) + 0.2
    jac = eval_g_jacobian(spec, u)
    np.testing.assert_array_equal(jac, np.swapaxes(jac, 0, 1))


def test_gradient_finite_difference():
    rng = np.random.default_rng(1)
    eps = 1e-5
    for spec in (abc_model(q=1.5, gamma=4.0), coupled_model(q=1.5)):
        u = 0.5 + rng.random((spec.m, 4))
        g = eval_g(spec, u)
        for i in range(spec.m):
            up, dn = u.copy(), u.copy()
            up[i] += eps
            dn[i] -= eps
            fd = (eval_G(spec, up) - eval_G(spec, dn)) / (2 * eps)
            err = np.abs(fd - g[i]) / np.maximum(np.abs(g[i]), 1e-12)
            assert err.max() <= 1e-6


def test_euler_identities():
    rng = np.random.default_rng(2)
    for spec, gamma in ((abc_model(q=1.5, gamma=4.0), 4.0),
                        (coupled_model(q=1.5), 4.0)):
        u = 0.5 + rng.random((spec.m, 5))
        g = eval_g(spec, u)
        jac = eval_g_jacobian(spec, u)
        big_g = sum(c * np.prod([u[i] ** p for i, p in enumerate(ps)], axis=0)
                    for c, ps in spec.terms)
        lhs1 = (g * u).sum(axis=0)
        np.testing.assert_allclose(lhs1, gamma * big_g, rtol=1e-12)
        lhs2 = np.einsum("ijn,in,jn->n", jac, u, u)
        np.testing.assert_allclose(lhs2, gamma * (gamma - 1.0) * big_g,
                                   rtol=1e-12)


def test_gradient_positive_on_cone():
    rng = np.random.default_rng(3)
    for spec in (abc_model(q=1.5, gamma=4.0), coupled_model(q=1.5)):
        u = rng.random((spec.m, 8)) + 1e-3
        assert np.all(eval_g(spec, u) >= 0.0)


def test_cone_violation_rejected():
    spec = abc_model(q=1.5, gamma=4.0)
    with pytest.raises(ConeError):
        eval_g(spec, _col(-1.0))


def test_hypotheses_abc_pass():
    report = validate_hypotheses(abc_model(q=1.5, gamma=4.0))
    assert report.ok
    assert report.theta == pytest.approx(4.0)


def test_hypotheses_gamma_three_fails_growth():
    report = validate_hypotheses(abc_model(q=1.5, gamma=3.0))
    assert not report.ok
    assert not report.g3
    assert any("g3" in msg for msg in report.failures)


def test_hypotheses_reject_bad_q():
    report = validate_hypotheses(abc_model(q=2.5, gamma=5.0))
    assert not report.q_ok
    assert not report.ok
    assert any("q" in msg for msg in report.failures)


def test_coupled_model_passes():
    assert validate_hypotheses(coupled_model(q=1.5)).ok


def test_zero_model_fails_superlinearity():
    report = validate_hypotheses(zero_model(q=1.5))
    assert not report.g4


def test_make_model_registry():
    spec = make_model("abc", q=1.4, gamma=5.0)
    assert (spec.m, spec.q) == (1, 1.4)
    spec = make_model("coupled", q=1.5)
    assert spec.m == 2
    with pytest.raises(ValueError):
        make_model("nope", q=1.5)


def test_modelspec_validation():
    with pytest.raises(ValueError):
        ModelSpec(m=0, q=1.5, terms=())
    with pytest.raises(ValueError):
        ModelSpec(m=1, q=1.5, terms=((-1.0, (4.0,)),))


# m = 3 model mixing pure, cross and non-integer monomials, all of degree 4
MIXED3 = ModelSpec(m=3, q=1.5, terms=(
    (0.25, (4.0, 0.0, 0.0)),
    (0.5, (0.0, 4.0, 0.0)),
    (0.3, (0.0, 0.0, 4.0)),
    (1.0, (2.0, 1.0, 1.0)),
    (0.7, (1.5, 1.5, 1.0)),
    (0.4, (1.0, 0.0, 3.0)),
))


def test_three_component_derivatives_finite_difference():
    rng = np.random.default_rng(4)
    eps = 1e-5
    u = 0.5 + rng.random((3, 6))
    g = eval_g(MIXED3, u)
    jac = eval_g_jacobian(MIXED3, u)
    np.testing.assert_array_equal(jac, np.swapaxes(jac, 0, 1))
    for i in range(3):
        up, dn = u.copy(), u.copy()
        up[i] += eps
        dn[i] -= eps
        fd_g = (eval_G(MIXED3, up) - eval_G(MIXED3, dn)) / (2 * eps)
        np.testing.assert_allclose(fd_g, g[i], rtol=1e-8)
        fd_jac = (eval_g(MIXED3, up) - eval_g(MIXED3, dn)) / (2 * eps)
        np.testing.assert_allclose(fd_jac, jac[:, i], rtol=1e-8, atol=1e-10)


def test_third_order_euler_identity():
    from foldfinder.model import _term_partials

    rng = np.random.default_rng(5)
    for spec, d in ((abc_model(q=1.5, gamma=4.0), 4.0),
                    (abc_model(q=1.5, gamma=3.7), 3.7),
                    (coupled_model(q=1.5), 4.0), (MIXED3, 4.0)):
        u = 0.5 + rng.random((spec.m, 5))
        g3 = _term_partials(spec, u, 3).sum(axis=0)
        lhs = np.einsum("ijkn,in,jn,kn->n", g3, u, u, u)
        np.testing.assert_allclose(lhs, d * (d - 1) * (d - 2) * eval_G(spec, u),
                                   rtol=1e-12)
    # a vanished falling factorial must not meet 0 ** (negative) at u = 0
    at_zero = _term_partials(coupled_model(q=1.5), np.zeros((2, 3)), 3)
    assert np.all(np.isfinite(at_zero))
