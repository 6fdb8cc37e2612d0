"""Monomial nonlinearity family: evaluation, derivatives, hypothesis checks.

The nonlinear term is the gradient of a primitive
``G(u) = sum_k c_k * prod_i u_i^(p_ki)`` with nonnegative coefficients and
exponents, evaluated on the closed positive cone.  This family keeps all the
structural hypotheses decidable in closed form via Euler's identity while
covering both the scalar concave-convex benchmark and a genuinely coupled
two-component system.

One kernel, ``_term_partials``, differentiates the model to any order: each
partial of a monomial is a falling-factorial coefficient times the monomial
with reduced exponents, and the table of coefficients and reduced exponents
is built once per (model, order).  G, g, G_uu, the third derivatives used by
fold refinement, the fiber coefficients and the a-priori bound all read it.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import ConeError

Term = tuple[float, tuple[float, ...]]  # (coefficient, exponents per component)


@dataclass(frozen=True)
class ModelSpec:
    m: int
    q: float
    terms: tuple[Term, ...] = ()

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("component count m must be at least 1")
        terms = tuple((float(c), tuple(float(p) for p in ps)) for c, ps in self.terms)
        object.__setattr__(self, "terms", terms)
        for c, ps in terms:
            if c < 0:
                raise ValueError("term coefficients must be nonnegative")
            if len(ps) != self.m:
                raise ValueError("each term needs one exponent per component")
            if any(p < 0 for p in ps):
                raise ValueError("exponents must be nonnegative")

    @property
    def degrees(self) -> tuple[float, ...]:
        """Total degree of each term with a positive coefficient."""
        return tuple(sum(ps) for c, ps in self.terms if c > 0)

    @property
    def gamma1(self) -> float | None:
        return min(self.degrees) if self.degrees else None

    @property
    def gamma2(self) -> float | None:
        return max(self.degrees) if self.degrees else None


def _check_cone(spec: ModelSpec, u) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.shape[0] != spec.m:
        raise ValueError(f"state has {u.shape[0]} components, model has {spec.m}")
    if np.any(u < 0):
        raise ConeError("negative component: g is defined on the positive cone only")
    return u


@functools.lru_cache(maxsize=64)
def _partial_table(spec: ModelSpec, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients and reduced exponents of every partial of the given order.

    Entry [k, a] belongs to term k and the a-th ordered multi-index
    (i_1, ..., i_order) in ``itertools.product`` order.  The coefficient is
    c_k times, per component, the falling factorial of its exponent over the
    number of times the multi-index names it; the reduced exponents are the
    exponents less those counts.  Where the coefficient vanishes the reduced
    exponents are set to 0, so that 0 ** (negative) never meets a zero
    factor (which would give NaN on the cone boundary).  Only terms with a
    positive coefficient are kept, in the order of ``spec.degrees``.
    """
    exps = np.array([ps for c, ps in spec.terms if c > 0]).reshape(-1, spec.m)
    coef = np.array([c for c, _ in spec.terms if c > 0])
    counts = np.array([np.bincount(idx, minlength=spec.m) for idx in
                       itertools.product(range(spec.m), repeat=order)])  # (M, m)
    falling = np.ones(exps.shape[:1] + counts.shape)    # (K, M, m)
    for j in range(order):
        falling *= np.where(counts > j, exps[:, None, :] - j, 1.0)
    coef = coef[:, None] * falling.prod(axis=2)         # (K, M)
    reduced = np.where(coef[..., None] != 0.0, exps[:, None, :] - counts, 0.0)
    coef.setflags(write=False)
    reduced.setflags(write=False)
    return coef, reduced


def _term_partials(spec: ModelSpec, u, order: int) -> np.ndarray:
    """Partial derivatives of each term of G, shape (K,) + (m,)*order + (...).

    The one monomial kernel: d^order/du_i1...du_i(order) of the k-th term
    c_k prod_i u_i^p_ki at every node of u, shape (m, ...); summing over the
    first axis differentiates G itself.  Terms follow ``spec.degrees``.
    """
    u = _check_cone(spec, u)
    coef, reduced = _partial_table(spec, order)
    tail = (1,) * (u.ndim - 1)
    powers = u ** reduced.reshape(reduced.shape + tail)     # (K, M, m, ...)
    vals = coef.reshape(coef.shape + tail) * powers.prod(axis=2)
    return vals.reshape(coef.shape[:1] + (spec.m,) * order + u.shape[1:])


def eval_G(spec: ModelSpec, u) -> float | np.ndarray:
    """Primitive G(u); supports nodewise evaluation with shape (m, ...)."""
    out = _term_partials(spec, u, 0).sum(axis=0)
    return float(out) if out.ndim == 0 else out


def eval_g(spec: ModelSpec, u) -> np.ndarray:
    """Gradient g_i = dG/du_i, shape (m, ...)."""
    return _term_partials(spec, u, 1).sum(axis=0)


def eval_g_jacobian(spec: ModelSpec, u) -> np.ndarray:
    """Second derivatives G_{u_i u_j}, shape (m, m, ...); symmetric."""
    return _term_partials(spec, u, 2).sum(axis=0)


@dataclass
class HypothesisReport:
    """Outcome of the structural checks (g1)-(g4) plus the exponent window."""

    q_ok: bool
    g1: bool
    g2: bool
    g3: bool
    g4: bool
    theta: float | None
    gamma1: float | None
    gamma2: float | None
    g4_method: str | None = None
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.q_ok and self.g1 and self.g2 and self.g3 and self.g4

    def summary(self) -> str:
        lines = []
        for name, passed in [("q", self.q_ok), ("g1", self.g1), ("g2", self.g2),
                             ("g3", self.g3), ("g4", self.g4)]:
            lines.append(f"({name}): {'pass' if passed else 'FAIL'}")
        if self.theta is not None:
            lines.append(f"theta={self.theta:g} gamma1={self.gamma1:g} "
                         f"gamma2={self.gamma2:g}")
        if self.g4_method:
            lines.append(f"(g4) checked via {self.g4_method}")
        lines.extend(self.failures)
        return "\n".join(lines)


def validate_hypotheses(spec: ModelSpec) -> HypothesisReport:
    """Closed-form checks of the structural hypotheses for monomial models.

    Degrees must sit in (2, 2*); on the (<= 2)-dimensional domains supported
    here the upper Sobolev bound is +infinity.  By Euler's identity the
    superhomogeneity checks reduce to degree comparisons: (g2) needs the
    minimum total degree theta > 2 and (g3) needs it >= q + 2.  (g4) passes
    exactly when every component owns a pure single-variable term; otherwise
    a heuristic ray-sampling fallback is used and reported as such.
    """
    failures: list[str] = []
    q_ok = 1.0 < spec.q < 2.0
    if not q_ok:
        failures.append(f"exponent window violated: 1 < q < 2 fails for q={spec.q:g}")

    degrees = spec.degrees
    if not degrees:
        g1 = g2 = g3 = True  # vacuous for g == 0
        g4 = False
        failures.append("(g4): g vanishes identically, no superlinear growth")
        return HypothesisReport(q_ok, g1, g2, g3, g4, theta=None,
                                gamma1=None, gamma2=None, failures=failures)

    gamma1, gamma2 = min(degrees), max(degrees)
    theta = gamma1
    g1 = gamma1 > 2.0
    if not g1:
        failures.append(f"(g1): minimum total degree {gamma1:g} is not > 2")
    g2 = theta > 2.0
    if not g2:
        failures.append(f"(g2): theta = {theta:g} is not > 2")
    g3 = gamma1 >= spec.q + 2.0
    if not g3:
        failures.append(
            f"(g3): minimum total degree {gamma1:g} < q + 2 = {spec.q + 2.0:g}")

    pure = all(
        any(c > 0 and ps[i] > 0 and all(ps[j] == 0 for j in range(spec.m) if j != i)
            for c, ps in spec.terms)
        for i in range(spec.m)
    )
    if pure:
        g4 = True
        g4_method = "pure-terms"
    else:
        g4_method = "ray-sampling (heuristic)"
        rays = _simplex_rays(spec.m)
        # by Euler's identity u . g(u) = sum_k d_k c_k prod_i u_i^p_ki
        growth = np.array(degrees) @ _term_partials(spec, rays.T, 0)
        bad = np.flatnonzero(growth <= 0.0)
        g4 = bad.size == 0
        if not g4:
            failures.append(
                f"(g4): no superlinear growth along the ray {tuple(rays[bad[0]])}")

    return HypothesisReport(q_ok, g1, g2, g3, g4, theta=theta,
                            gamma1=gamma1, gamma2=gamma2, g4_method=g4_method,
                            failures=failures)


def _simplex_rays(m: int, count: int = 64) -> np.ndarray:
    """Deterministic sample of directions on the positive unit simplex."""
    if m == 1:
        return np.ones((1, 1))
    if m == 2:
        t = np.linspace(0.0, 1.0, count)
        return np.column_stack([t, 1.0 - t])
    rng = np.random.default_rng(0)
    rays = rng.dirichlet(np.ones(m), size=count)
    rays = np.vstack([rays, np.eye(m)])
    return rays


# --- built-in registry ------------------------------------------------------

def abc_model(q: float, gamma: float) -> ModelSpec:
    """Scalar concave-convex benchmark: G(u) = u^gamma / gamma."""
    return ModelSpec(m=1, q=q, terms=((1.0 / gamma, (gamma,)),))


def coupled_model(q: float) -> ModelSpec:
    """Symmetric two-component model G = (u1^4 + u2^4)/4 + u1^2 u2^2."""
    return ModelSpec(m=2, q=q, terms=(
        (0.25, (4.0, 0.0)),
        (0.25, (0.0, 4.0)),
        (1.0, (2.0, 2.0)),
    ))


def zero_model(q: float) -> ModelSpec:
    """Pure sublinear scalar problem, g == 0 (no fold exists)."""
    return ModelSpec(m=1, q=q, terms=())


def make_model(name: str, *, q: float,
               gamma: float | None = None) -> ModelSpec:
    """The named model; only ``abc`` has a ``gamma`` (default 4)."""
    if name == "abc":
        return abc_model(q, gamma if gamma is not None else 4.0)
    if name not in ("coupled", "zero"):
        raise ValueError(f"unknown model {name!r} "
                         "(expected abc, coupled, or zero)")
    if gamma is not None:
        raise ValueError(f"the {name} model has no gamma")
    return coupled_model(q) if name == "coupled" else zero_model(q)
