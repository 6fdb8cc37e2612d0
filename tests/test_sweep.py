"""The two fold routes over 400 generated models (opt-in: ``pytest -m sweep``).

The routes are independent, so their agreement is the system's own check.
The sweep takes about 15 s and is left out of the default run.
"""

import random

import pytest

from foldfinder import (FoldFinderError, ModelSpec, build_grid,
                        find_fold_continuation, find_fold_direct,
                        validate_hypotheses)

# The models that fail on each route.  The four continuation failures are
# decoupled m = 3 models with two identical components: H has a double zero
# eigenvalue at lambda*, where the augmented system with one border is
# singular, a non-simple fold.
DIRECT_FAILS = [130, 143, 302, 356]
CONTINUATION_FAILS = [51, 84, 356, 381]


def _model(rng: random.Random) -> ModelSpec:
    """One draw of m, q and 1-3 monomial terms; see ``generated_models``."""
    m = rng.choice([1, 1, 2, 2, 3])
    q = rng.uniform(1.02, 1.98)
    terms = []
    for _ in range(rng.randint(1, 3)):
        c, d = rng.uniform(0.1, 2.0), rng.uniform(q + 2.0, 6.5)
        if m == 1 or rng.random() < 0.5:
            powers = [0.0] * m
            powers[rng.randrange(m)] = d
        else:
            weights = [rng.random() for _ in range(m)]
            powers = [d * w / sum(weights) for w in weights]
        terms.append((c, tuple(powers)))
    for i in range(m):
        if not any(p[i] > 0 and sum(p) == p[i] for _, p in terms):
            terms.append((1.0, tuple(q + 2.5 if j == i else 0.0
                                     for j in range(m))))
    return ModelSpec(m=m, q=q, terms=tuple(terms))


def generated_models(count: int = 400, seed: int = 11):
    """(spec, kind, n) of ``count`` models drawn from ``random.Random(seed)``.

    A term is pure in one random component (always when m = 1, otherwise
    with probability 1/2), or its degree is split over the components by
    random weights; a component with no pure term gets (1.0, q + 2.5).  A
    model is redrawn whole until ``validate_hypotheses`` passes.  The grid
    is an interval with 2/3 probability, otherwise a rectangle.
    """
    rng = random.Random(seed)
    for _ in range(count):
        spec = _model(rng)
        while not validate_hypotheses(spec).ok:
            spec = _model(rng)
        if rng.random() < 2.0 / 3.0:
            yield spec, "interval", rng.choice([1, 2, 3, 7, 15, 31])
        else:
            yield spec, "rectangle", rng.choice([1, 2, 3, 7, 11])


@pytest.mark.sweep
def test_routes_agree_over_the_generated_models():
    direct_fails, cont_fails, wrong = [], [], []
    for k, (spec, kind, n) in enumerate(generated_models()):
        grid = build_grid(kind, n)
        try:
            direct = find_fold_direct(grid, spec).lam
        except FoldFinderError:
            direct_fails.append(k)
            direct = None
        try:
            cont = find_fold_continuation(grid, spec).lambda_moore_spence
        except FoldFinderError:
            cont_fails.append(k)
            continue
        if direct is not None and not abs(cont - direct) <= 1e-10 * direct:
            wrong.append((k, direct, cont))
    assert not wrong
    assert direct_fails == DIRECT_FAILS
    assert cont_fails == CONTINUATION_FAILS
