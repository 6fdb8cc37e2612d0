"""Seeded workloads of ``foldfinder fold`` operations and their output checks.

A workload is a list of cases (method, model, grid).  One pass runs every
case once; a run repeats passes.  Each case group draws its model parameters
once from the seed: q ~ U[1.3, 1.7] and, for ``abc``, gamma ~ U[q+2.2, 5.0],
stratified over the groups.  Every pass repeats the same argv, so the passes
of a run are true repeats.  The program sees only the generated argv.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass, field


@dataclass(frozen=True)
class Case:
    method: str      # "direct" or "continuation"
    model: str       # "abc" or "coupled"
    grid: str        # "interval:127", "rectangle:39", ...
    group: int       # cases of one group share their model parameters


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cases: tuple[Case, ...]
    cross_route: bool = False   # compare direct and continuation lambda*


def _cases(model, grids, methods):
    return tuple(Case(method, model, grid, group)
                 for group, grid in enumerate(grids) for method in methods)


WORKLOADS = {w.name: w for w in (
    Workload(
        "direct-rect",
        "fold --method direct, abc model, rectangle grids 39/47/55: "
        "bound by SuperLU factorizations inside smallest_eigenpair",
        _cases("abc", ("rectangle:39", "rectangle:47", "rectangle:55"),
               ("direct",))),
    Workload(
        "cont-interval",
        "fold --method continuation, abc model, interval grids 127/191/255: "
        "bound by sparse assembly along ~150-record branches",
        _cases("abc", ("interval:127", "interval:191", "interval:255"),
               ("continuation",))),
    Workload(
        "coupled-routes",
        "both fold methods, two-component coupled model, interval grids "
        "63/191/255: block Hessians and the system's own cross-route check",
        _cases("coupled", ("interval:63", "interval:191", "interval:255"),
               ("direct", "continuation")),
        cross_route=True),
)}


@dataclass
class Operation:
    pass_index: int
    case: Case
    q: float
    gamma: float | None
    csv_path: str = ""
    # filled in by the runner
    seconds: float = math.nan
    exit_code: int | None = None
    stdout: str = ""
    stderr: str = ""
    crashed: str = ""
    checks: dict = field(default_factory=dict)   # check name -> (ok, detail)

    @property
    def label(self) -> str:
        params = f"q={self.q:.6f}"
        if self.gamma is not None:
            params += f" gamma={self.gamma:.6f}"
        return (f"pass {self.pass_index} {self.case.method:12s} "
                f"{self.case.model} {self.case.grid} {params}")

    def argv(self) -> list[str]:
        gamma = [] if self.gamma is None else ["--gamma", repr(self.gamma)]
        return ["fold", "--method", self.case.method, "--model",
                self.case.model, "--q", repr(self.q), *gamma,
                "--grid", self.case.grid, "--output", self.csv_path]

    @property
    def lambda_star(self) -> float | None:
        for token in self.stdout.split():
            if token.startswith("lambda_star="):
                return float(token.split("=", 1)[1])
        return None

    @property
    def failed(self) -> bool:
        return (self.exit_code != 0 or bool(self.crashed)
                or not all(ok for ok, _ in self.checks.values()))


def make_pass(workload: Workload, seed: int, index: int) -> list[Operation]:
    """The operations of pass ``index``; the same argv in every pass.

    Latin hypercube over the groups: each group takes q, and gamma's place
    in its range, from its own stratum, in an order the seed shuffles.  So
    every draw is uniform while the groups of one seed spread over the range.
    """
    rng = random.Random(f"{workload.name}:{seed}")
    groups = sorted({c.group for c in workload.cases})
    n = len(groups)
    q_strata, gamma_strata = rng.sample(range(n), n), rng.sample(range(n), n)
    params = {}
    for group, sq, sg in zip(groups, q_strata, gamma_strata):
        # rounded so that the argv spells the exact value used
        q = round(1.3 + 0.4 * (sq + rng.random()) / n, 6)
        lo = q + 2.2
        params[group] = (q, round(lo + (5.0 - lo) * (sg + rng.random()) / n,
                                  6))
    return [Operation(index, case, params[case.group][0],
                      params[case.group][1] if case.model == "abc" else None)
            for case in workload.cases]


# ---------------------------------------------------------------------------
# output checks (run after the clock stops, untraced)

# Defects known at the seed, both on the coupled model on interval:127, where
# the principal eigenpairs are near-degenerate and the library's inverse
# iteration either hits its cap or converges to the second eigenvalue.  No
# workload case runs there, so that every timed operation can succeed; each
# run replays these operations once, untimed, and reports whether the
# defects still reproduce.
EIGEN_CAP_MESSAGE = "inverse iteration hit its cap"


def _eigen_cap(op: Operation) -> bool:
    return op.exit_code == 2 and EIGEN_CAP_MESSAGE in op.stdout + op.stderr


def _delta_miss_only(op: Operation) -> bool:
    missed = {name for name, (ok, _) in op.checks.items() if not ok}
    return op.exit_code == 0 and missed == {"delta"}


KNOWN_DEFECTS = (
    ("coupled continuation on interval:127 exits 2 with "
     f"'{EIGEN_CAP_MESSAGE}'",
     Case("continuation", "coupled", "interval:127", 0), 1.5, _eigen_cap),
    ("coupled direct on interval:127 with q < ~1.37 prints a library delta "
     "that misses, at a fold that passes every other check",
     Case("direct", "coupled", "interval:127", 0), 1.33,
     _delta_miss_only),
)


def _read_fold_csv(path, grid, m):
    import numpy as np

    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = np.array([[float(x) for x in row] for row in reader])
    ucols = [k for k, h in enumerate(header) if h.startswith("u_")]
    vcols = [k for k, h in enumerate(header) if h.startswith("v_")]
    if len(ucols) != m or len(vcols) != m or rows.shape[0] != grid.n_nodes:
        raise ValueError(f"fold CSV shape {rows.shape} / header {header} "
                         f"does not match the grid and model")
    coords = rows[:, :grid.ndim]
    if not np.array_equal(coords, grid.coords):
        raise ValueError("fold CSV coordinates differ from the grid nodes")
    return rows[:, ucols].T.copy(), rows[:, vcols].T.copy()


def _reference_delta(mat) -> float:
    """Smallest eigenvalue by ARPACK shift-invert below the Gershgorin bound.

    Independent of the library's own inverse iteration, which is what the
    library check above exercises.
    """
    import numpy as np
    from scipy.sparse.linalg import eigsh

    diag = mat.diagonal()
    off = np.ravel(abs(mat).sum(axis=1)) - np.abs(diag)
    sigma = float((diag - off).min()) - 1.0
    vals = eigsh(mat.tocsc(), k=1, sigma=sigma, which="LM",
                 v0=np.ones(mat.shape[0]), return_eigenvectors=False)
    return float(vals[0])


def check_operation(op: Operation) -> None:
    """Recompute the fold certificate from the CSV and the printed lambda*."""
    from foldfinder.cw import upper_bound_lambda
    from foldfinder.energy import hessian_operator, make_state, phi_grad
    from foldfinder.mesh import build_grid, norm
    from foldfinder.model import make_model
    from foldfinder.spectrum import stability_index, stability_tolerance

    if op.exit_code != 0 or op.crashed:
        return
    lam = op.lambda_star
    if lam is None:
        op.checks["lambda_printed"] = (False, "no lambda_star= in stdout")
        return
    kind, _, n = op.case.grid.partition(":")
    grid = build_grid(kind, int(n))
    params = {} if op.gamma is None else {"gamma": op.gamma}
    spec = make_model(op.case.model, q=op.q, **params)
    try:
        u, v = _read_fold_csv(op.csv_path, grid, spec.m)
    except (OSError, ValueError, StopIteration) as exc:
        op.checks["csv_readable"] = (False, str(exc))
        return
    tol = 1e-12 * grid.stencil_scale
    state = make_state(grid, spec, u)
    res_f = norm(grid, phi_grad(state, lam))
    op.checks["residual_F"] = (res_f <= tol, f"{res_f:.3e} <= {tol:.3e}")
    hess = hessian_operator(state, lam)
    res_hv = norm(grid, hess(v.ravel()).reshape(v.shape))
    op.checks["residual_Hv"] = (res_hv <= tol, f"{res_hv:.3e} <= {tol:.3e}")
    tol_stab = stability_tolerance(state)
    delta = stability_index(state).delta
    op.checks["delta"] = (abs(delta) <= tol_stab,
                          f"library |{delta:.3e}| <= {tol_stab:.3e}")
    ref = _reference_delta(hess.matrix)
    op.checks["delta_reference"] = (abs(ref) <= tol_stab,
                                    f"ARPACK |{ref:.3e}| <= {tol_stab:.3e}")
    bound = upper_bound_lambda(spec, grid)
    op.checks["below_bound"] = (lam <= bound, f"{lam:.17g} <= {bound:.17g}")


def check_cross_route(ops: list[Operation]) -> None:
    """Direct and continuation lambda* of one group agree to 1e-6 relative."""
    by_group: dict[tuple[int, int], dict[str, Operation]] = {}
    for op in ops:
        by_group.setdefault((op.pass_index, op.case.group), {})[
            op.case.method] = op
    for pair in by_group.values():
        direct, cont = pair.get("direct"), pair.get("continuation")
        if direct is None or cont is None:
            continue
        la, lb = direct.lambda_star, cont.lambda_star
        if direct.exit_code != 0 or cont.exit_code != 0 or la is None \
                or lb is None:
            continue   # the failed operation is already counted
        rel = abs(la - lb) / max(abs(la), abs(lb))
        result = (rel <= 1e-6, f"|{la:.17g} - {lb:.17g}| rel {rel:.3e} "
                               f"<= 1e-06")
        direct.checks["cross_route"] = result
        cont.checks["cross_route"] = result
