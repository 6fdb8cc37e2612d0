"""Command-line front end: configuration, run orchestration, CSV emission.

Subcommands: ``solve`` (fixed-lambda branch solve), ``fold`` (locate the
maximal fold point), ``continue`` (trace the solution branch), ``bench``
(compare fold methods across grids), ``check`` (model validation and
derivative self-tests).  Exit codes: 0 success, 2 non-convergence or
nonexistence, 3 invalid model, 64 usage error.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from .cw import upper_bound_lambda
from .energy import make_state, phi, phi_grad, hessian_operator, State
from .errors import ConvergenceError, FoldFinderError, NoFoldError
from .fold import (continue_branch, find_fold_continuation,
                   find_fold_direct, _third_derivative_blocks)
from .linalg import solve_counter
from .mesh import Grid, build_grid, inner_product, norm
from .model import ModelSpec, make_model, validate_hypotheses
from .nehari import solve_stable

EXIT_OK = 0
EXIT_NO_CONVERGENCE = 2
EXIT_INVALID_MODEL = 3
EXIT_USAGE = 64

_FLOAT_FMT = "%.17g"


class UsageError(Exception):
    """Bad flags, bad config file, or an inconsistent parameter range."""


class _Parser(argparse.ArgumentParser):
    """Argument parser that reports usage problems with exit code 64."""

    def error(self, message):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# configuration

_COMMON_KEYS = {"model", "q", "gamma", "m", "grid", "output"}
_KEYS_BY_COMMAND = {
    "solve": _COMMON_KEYS | {"lambda", "init", "tol"},
    "fold": _COMMON_KEYS | {"method", "tol"},
    "continue": _COMMON_KEYS | {"lambda_start", "step", "max_records"},
    "bench": _COMMON_KEYS | {"grids", "methods"},
    "check": _COMMON_KEYS | {"seed"},
}
_FLOAT_KEYS = {"q", "gamma", "lambda", "lambda_start", "step", "tol"}
_INT_KEYS = {"m", "seed", "max_records"}


@dataclass
class RunConfig:
    """Flat run description merged from the config file and flags."""

    command: str
    values: dict = field(default_factory=dict)

    def get(self, key, default=None):
        return self.values.get(key, default)

    def require(self, key):
        if key not in self.values:
            raise UsageError(f"missing required option '{key}'")
        return self.values[key]


def _parse_config_file(path: str, command: str) -> dict:
    """Read the flat ``key = value`` file, rejecting unknown keys."""
    allowed = _KEYS_BY_COMMAND[command]
    out = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}")
    for ln, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{ln}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in allowed:
            raise UsageError(f"{path}:{ln}: unknown key '{key}'")
        out[key] = value
    return out


def _coerce(key: str, value):
    if value is None or not isinstance(value, str):
        return value
    try:
        if key in _FLOAT_KEYS:
            number = float(value)
        elif key in _INT_KEYS:
            number = int(value)
        else:
            return value
    except ValueError:
        raise UsageError(f"option '{key}' expects a number, got '{value}'")
    if not math.isfinite(number):
        raise UsageError(f"option '{key}' must be finite, got '{value}'")
    return number


def _merge_config(args: argparse.Namespace, command: str) -> RunConfig:
    values = {}
    if getattr(args, "config", None):
        values.update(_parse_config_file(args.config, command))
    for key in _KEYS_BY_COMMAND[command]:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    values = {k: _coerce(k, v) for k, v in values.items()}
    for key in ("tol", "step"):
        if key in values and values[key] <= 0:
            raise UsageError(f"option '{key}' must be positive")
    if values.get("max_records", 1) < 1:
        raise UsageError("option 'max_records' must be at least 1")
    return RunConfig(command=command, values=values)


def _build_problem(cfg: RunConfig) -> tuple[Grid, ModelSpec]:
    gridspec = cfg.get("grid", "interval:31")
    kind, _, count = str(gridspec).partition(":")
    try:
        n = int(count)
    except ValueError:
        raise UsageError(f"bad grid spec '{gridspec}' (expected kind:n)")
    try:
        grid = build_grid(kind, n)
    except ValueError as exc:
        raise UsageError(str(exc))
    name = cfg.get("model", "abc")
    kwargs = {"q": cfg.get("q", 1.5)}
    if cfg.get("gamma") is not None:
        kwargs["gamma"] = cfg.get("gamma")
    if cfg.get("m") is not None:
        kwargs["m"] = cfg.get("m")
    try:
        spec = make_model(name, **kwargs)
    except (ValueError, TypeError) as exc:
        raise UsageError(str(exc))
    return grid, spec


# ---------------------------------------------------------------------------
# CSV helpers

def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return _FLOAT_FMT % float(x)


def _write_csv(path, header, rows, row_format=None):
    """Comma-delimited, '.'-decimal CSV with 17-significant-digit floats.

    Rows whose cells are all floats can pass one ``row_format`` for every
    row; it writes the bytes that formatting each cell would.
    """
    sink = open(path, "w", newline="", encoding="utf-8") if path else sys.stdout
    try:
        writer = csv.writer(sink, lineterminator="\n")
        writer.writerow(header)
        if row_format is None:
            for row in rows:
                writer.writerow([_fmt(x) for x in row])
        else:
            sink.write("".join(row_format % tuple(row) for row in rows))
    finally:
        if path:
            sink.close()


def _field_header(grid: Grid, m: int, names=("u",)) -> list[str]:
    coords = ["x"] if grid.ndim == 1 else ["x", "y"]
    cols = list(coords)
    for name in names:
        cols.extend(f"{name}_{i + 1}" for i in range(m))
    return cols


def _write_fields(path, header, grid: Grid, fields: list[np.ndarray]) -> None:
    """One row per node: its coordinates, then each field's components."""
    rows = np.column_stack([grid.coords, *(f.T for f in fields)]).tolist()
    _write_csv(path, header, rows, ",".join([_FLOAT_FMT] * len(header)) + "\n")


def write_solution_csv(path, grid: Grid, u: np.ndarray) -> None:
    _write_fields(path, _field_header(grid, u.shape[0]), grid, [u])


def write_fold_csv(path, grid: Grid, u: np.ndarray, v: np.ndarray) -> None:
    header = _field_header(grid, u.shape[0], names=("u", "v"))
    _write_fields(path, header, grid, [u, v])


def read_solution_csv(path, grid: Grid, spec: ModelSpec) -> State:
    """Load a solution CSV back as an initial state on the given grid."""
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read solution file: {exc}")
    with fh:
        reader = csv.reader(fh)
        header = next(reader)
        ncoord = 1 if grid.ndim == 1 else 2
        ucols = [k for k, name in enumerate(header) if name.startswith("u_")]
        if len(ucols) != spec.m or ncoord + len(ucols) > len(header):
            raise UsageError(f"CSV header {header} does not match the model")
        rows = [[float(cell) for cell in row] for row in reader]
    if len(rows) != grid.n_nodes:
        raise UsageError(f"CSV has {len(rows)} rows, grid has "
                         f"{grid.n_nodes} nodes")
    u = np.array([[row[k] for k in ucols] for row in rows]).T
    return make_state(grid, spec, u)


# ---------------------------------------------------------------------------
# subcommands

def _validated(grid: Grid, spec: ModelSpec) -> int | None:
    report = validate_hypotheses(spec)
    if not report.ok:
        print(report.summary())
        return EXIT_INVALID_MODEL
    return None


def cmd_solve(cfg: RunConfig) -> int:
    grid, spec = _build_problem(cfg)
    bad = _validated(grid, spec)
    if bad is not None:
        return bad
    lam = float(cfg.require("lambda"))
    if lam <= 0:
        raise UsageError("lambda must be positive")
    bound = upper_bound_lambda(spec, grid)
    if lam > bound:
        print(f"lambda={_fmt(lam)} exceeds the solvability bound "
              f"{_fmt(bound)}: no positive solutions exist")
        return EXIT_NO_CONVERGENCE
    init_path = cfg.get("init")
    init = read_solution_csv(init_path, grid, spec) if init_path else None
    winner = solve_stable(grid, spec, lam, init=init,
                          tol=float(cfg.get("tol", 1e-11)))
    if not winner.converged:
        source = f" from the init state {init_path}" if init_path else ""
        print(f"no converged stable solution at lambda={_fmt(lam)}{source}: "
              f"{winner.message}")
        return EXIT_NO_CONVERGENCE
    write_solution_csv(cfg.get("output"), grid, winner.state.u)
    print(f"lambda={_fmt(lam)} phi={_fmt(winner.energy)} "
          f"delta={_fmt(winner.delta)} residual={_fmt(winner.residual_norm)} "
          f"iterations={winner.iterations}")
    return EXIT_OK


def cmd_fold(cfg: RunConfig) -> int:
    grid, spec = _build_problem(cfg)
    method = cfg.get("method", "direct")
    if method not in ("direct", "continuation"):
        raise UsageError(f"unknown fold method '{method}'")
    # nonexistence of a fold (g with no superlinear part) is reported before
    # hypothesis validation so it surfaces as a non-convergence signal
    if not spec.degrees:
        print("model has no superlinear part: no fold exists")
        return EXIT_NO_CONVERGENCE
    bad = _validated(grid, spec)
    if bad is not None:
        return bad
    tol = float(cfg.get("tol", 1e-12))
    try:
        if method == "direct":
            fp = find_fold_direct(grid, spec, tol=tol)
        else:
            fp = find_fold_continuation(grid, spec, tol=tol).fold_point
    except (ConvergenceError, NoFoldError) as exc:
        print(f"fold search failed: {exc}")
        return EXIT_NO_CONVERGENCE
    write_fold_csv(cfg.get("output"), grid, fp.state.u, fp.v)
    r1, r2, r3 = fp.residuals
    print(f"lambda_star={_fmt(fp.lam)} delta={_fmt(fp.delta)} "
          f"residuals={_fmt(r1)},{_fmt(r2)},{_fmt(r3)} "
          f"iterations={fp.newton_iterations}")
    return EXIT_OK


def cmd_continue(cfg: RunConfig) -> int:
    lam_start = float(cfg.get("lambda_start", 0.5))
    if lam_start <= 0:
        raise UsageError("lambda_start must be positive")
    grid, spec = _build_problem(cfg)
    bad = _validated(grid, spec)
    if bad is not None:
        return bad
    try:
        branch = continue_branch(grid, spec, lam_start=lam_start,
                                 step=float(cfg.get("step", 0.05)),
                                 max_records=int(cfg.get("max_records", 200)))
    except ConvergenceError as exc:
        print(f"branch trace failed: {exc}")
        return EXIT_NO_CONVERGENCE
    header = ["lambda", "sup_norm", "energy", "delta", "corrector_iters"]
    rows = [(r.lam, r.sup_norm, r.energy, r.delta, r.corrector_iters)
            for r in branch.records]
    _write_csv(cfg.get("output"), header, rows)
    print(f"records={len(branch.records)} "
          f"fold_bracketed={str(branch.fold_bracketed).lower()}")
    return EXIT_OK


def _bench_one(method: str, n: int, spec: ModelSpec):
    grid = build_grid("interval", n)
    solve_counter.reset()
    t0 = time.perf_counter()
    if method == "direct":
        lam = find_fold_direct(grid, spec).lam
    else:
        lam = find_fold_continuation(grid, spec).lambda_moore_spence
    elapsed = time.perf_counter() - t0
    return (method, n, lam, elapsed, solve_counter.reset())


def cmd_bench(cfg: RunConfig) -> int:
    grid_list = str(cfg.get("grids", "31,63,127,255"))
    method_list = str(cfg.get("methods", "direct,continuation"))
    try:
        sizes = [int(s) for s in grid_list.split(",") if s.strip()]
    except ValueError:
        raise UsageError(f"bad grid list '{grid_list}'")
    methods = [s.strip() for s in method_list.split(",") if s.strip()]
    if not sizes or not methods:
        raise UsageError("empty benchmark matrix")
    for method in methods:
        if method not in ("direct", "continuation"):
            raise UsageError(f"unknown bench method '{method}'")
    _, spec = _build_problem(cfg)
    bad = _validated(build_grid("interval", sizes[0]), spec)
    if bad is not None:
        return bad
    try:
        results = [_bench_one(method, n, spec)
                   for method in methods for n in sizes]
    except (ConvergenceError, NoFoldError) as exc:
        print(f"benchmark run failed: {exc}")
        return EXIT_NO_CONVERGENCE
    header = ["method", "grid_n", "lambda_star", "wall_seconds",
              "linear_solves"]
    _write_csv(cfg.get("output"), header, results)
    return EXIT_OK


def cmd_check(cfg: RunConfig) -> int:
    grid, spec = _build_problem(cfg)
    report = validate_hypotheses(spec)
    print(report.summary())
    if not report.ok:
        return EXIT_INVALID_MODEL
    # finite-difference self-tests for the energy derivatives
    rng = np.random.default_rng(int(cfg.get("seed", 0)))
    u = 0.5 + rng.random((spec.m, grid.n_nodes))
    xi = rng.standard_normal((spec.m, grid.n_nodes))
    state = make_state(grid, spec, u)
    lam, eps = 1.0, 1e-5
    ok = True

    fd = (phi(make_state(grid, spec, u + eps * xi), lam)
          - phi(make_state(grid, spec, u - eps * xi), lam)) / (2 * eps)
    exact = inner_product(grid, phi_grad(state, lam), xi)
    rel_g = abs(fd - exact) / max(abs(exact), 1e-30)
    print(f"gradient_fd_error={_fmt(rel_g)}")
    ok &= rel_g <= 1e-6

    hess = hessian_operator(state, lam)
    fd_h = (phi_grad(make_state(grid, spec, u + eps * xi), lam)
            - phi_grad(make_state(grid, spec, u - eps * xi), lam)) / (2 * eps)
    exact_h = hess(xi.ravel()).reshape(xi.shape)
    rel_h = norm(grid, fd_h - exact_h) / max(norm(grid, exact_h), 1e-30)
    print(f"hessian_fd_error={_fmt(rel_h)}")
    ok &= rel_h <= 1e-6

    v = rng.standard_normal(xi.shape)
    hv = [hessian_operator(make_state(grid, spec, u + s * eps * xi), lam)(v.ravel())
          for s in (1.0, -1.0)]
    fd_t = ((hv[0] - hv[1]) / (2 * eps)).reshape(xi.shape)
    exact_t = np.einsum("ijn,jn->in",
                        _third_derivative_blocks(state, lam, v), xi)
    rel_t = norm(grid, fd_t - exact_t) / max(norm(grid, exact_t), 1e-30)
    print(f"third_derivative_fd_error={_fmt(rel_t)}")
    ok &= rel_t <= 1e-6

    mat = hess.matrix
    asym = abs(mat - mat.T).max()
    print(f"hessian_asymmetry={_fmt(asym)}")
    ok &= asym <= 1e-12 * grid.stencil_scale

    if not ok:
        print("derivative self-tests FAILED")
        return EXIT_NO_CONVERGENCE
    print("all checks passed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point

def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="flat key = value config file")
    sub.add_argument("--model", help="model name: abc, coupled, zero")
    sub.add_argument("--q", help="sublinear exponent (1 < q < 2)")
    sub.add_argument("--gamma", help="superlinear degree (abc model)")
    sub.add_argument("--m", help="component count (zero model)")
    sub.add_argument("--grid", help="grid spec kind:n, e.g. interval:127")
    sub.add_argument("--output", "-o", help="CSV output path (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="foldfinder",
                     description="Locate maximal fold points of "
                                 "sublinear-superlinear Dirichlet systems.")
    subs = parser.add_subparsers(dest="command", metavar="command")

    p = subs.add_parser("solve", help="solve at a fixed lambda")
    _add_common(p)
    p.add_argument("--lambda", dest="lambda", help="branch parameter")
    p.add_argument("--init", help="solution CSV to use as initial state")
    p.add_argument("--tol", help="relative solver tolerance")

    p = subs.add_parser("fold", help="locate the maximal fold point")
    _add_common(p)
    p.add_argument("--method", help="direct or continuation")
    p.add_argument("--tol", help="relative augmented-Newton tolerance")

    p = subs.add_parser("continue", help="trace the solution branch")
    _add_common(p)
    p.add_argument("--lambda-start", dest="lambda_start")
    p.add_argument("--step", help="initial continuation step; later steps "
                   "adapt to the corrector's iteration count")
    p.add_argument("--max-records", dest="max_records")

    p = subs.add_parser("bench", help="benchmark fold methods across grids")
    _add_common(p)
    p.add_argument("--grids", help="comma-separated interior node counts")
    p.add_argument("--methods", help="comma-separated method names")

    p = subs.add_parser("check", help="validate the model and derivatives")
    _add_common(p)
    p.add_argument("--seed", help="seed for the finite-difference probes")
    return parser


_DISPATCH = {"solve": cmd_solve, "fold": cmd_fold, "continue": cmd_continue,
             "bench": cmd_bench, "check": cmd_check}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError("a subcommand is required")
        cfg = _merge_config(args, args.command)
        return _DISPATCH[args.command](cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FoldFinderError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
