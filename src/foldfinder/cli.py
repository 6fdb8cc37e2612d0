"""Command-line front end: options, run orchestration, CSV emission.

Subcommands: ``solve`` (fixed-lambda branch solve), ``fold`` (locate the
maximal fold point), ``continue`` (trace the solution branch), ``bench``
(compare fold methods across grids), ``check`` (model validation and
derivative self-tests).  Every option is declared once, in ``_OPTIONS``,
with the converter that types and checks its value and its help text;
``_COMMANDS`` names each subcommand's own options, with their defaults,
next to the common ones.  The parser's flags, the keys a ``--config`` file
may set and the conversion of every value all read these two tables, so a
command accepts as a flag exactly what it accepts as a key.  Flags must be
spelled in full.  A command receives a dict of converted values, None
where an option without a default is unset.  Exit codes: 0 success, 2
non-convergence or nonexistence, 3 invalid model, 64 usage error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import math
import sys
import time

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
# options

# each --method name and the fold point its route finds; the library
# functions are looked up when called, so a rebound one is the one called
_ROUTES = {
    "direct": lambda grid, spec, **kw: find_fold_direct(grid, spec, **kw),
    "continuation": lambda grid, spec, **kw: find_fold_continuation(
        grid, spec, **kw).fold_point,
}


def _checked(expects: str, parse, valid=lambda value: True):
    """Converter of an option's text: ``parse`` it, then require ``valid``.

    Raises ValueError naming what the option ``expects``.
    """
    def convert(text: str):
        try:
            value = parse(text)
            ok = valid(value)
        except ValueError:
            ok = False
        if not ok:
            raise ValueError(f"expects {expects}, got '{text}'")
        return value
    return convert


def _items(text: str) -> list[str]:
    return [s.strip() for s in text.split(",") if s.strip()]


def _grid(text: str) -> Grid:
    kind, _, count = text.partition(":")
    return build_grid(kind, int(count))


_FINITE = _checked("a finite number", float, math.isfinite)
_POSITIVE = _checked("a positive finite number", float,
                     lambda x: math.isfinite(x) and x > 0)
_ROUTE_NAMES = ", ".join(_ROUTES)

# name: (converter, help, flag aliases...); the flag is --name, '_' as '-'
_OPTIONS = {
    "model": (str, "model name: abc, coupled, zero"),
    "q": (_FINITE, "sublinear exponent (1 < q < 2)"),
    "gamma": (_FINITE, "superlinear degree (abc model only)"),
    "grid": (_checked("kind:n with kind interval or rectangle and n >= 1",
                      _grid),
             "grid spec kind:n, e.g. interval:127"),
    "output": (str, "CSV output path (default stdout)", "-o"),
    "lambda": (_POSITIVE, "branch parameter"),
    "init": (str, "solution CSV to use as initial state"),
    "tol": (_POSITIVE, "solver tolerance, relative to the stencil scale "
            "times the norm of the iterate"),
    "method": (_checked(f"one of {_ROUTE_NAMES}", str, _ROUTES.__contains__),
               f"fold route: {_ROUTE_NAMES}"),
    "lambda_start": (_POSITIVE, "lambda of the first branch record"),
    "step": (_POSITIVE, "initial continuation step; later steps adapt to "
             "the corrector's iteration count"),
    "max_records": (_checked("an integer >= 1", int, lambda n: n >= 1),
                    "most branch records to trace"),
    "grids": (_checked("comma-separated node counts >= 1",
                       lambda s: [int(n) for n in _items(s)],
                       lambda ns: ns and min(ns) >= 1),
              "comma-separated interior node counts"),
    "methods": (_checked(f"comma-separated routes from {_ROUTE_NAMES}",
                         _items, lambda ms: ms and set(ms) <= _ROUTES.keys()),
                "comma-separated fold routes"),
    "seed": (_checked("an integer >= 0", int, lambda n: n >= 0),
             "seed for the finite-difference probes"),
}

# every command's options, with the text of its default (None for none)
_COMMON = {"model": "abc", "q": "1.5", "gamma": None}
_GRID, _OUTPUT = {"grid": "interval:31"}, {"output": None}


def _defaults(command: str) -> dict:
    """The command's options, common ones first, with their default texts."""
    return {**_COMMON, **_COMMANDS[command][2]}


def _read_config(path: str, command: str) -> dict:
    """Read the flat ``key = value`` file, rejecting unknown keys."""
    allowed = _defaults(command)
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


def _options(args: argparse.Namespace) -> dict:
    """The command's defaults, overridden by its config file and then by
    its flags, each converted by its ``_OPTIONS`` entry."""
    texts = _defaults(args.command)
    if args.config:
        texts.update(_read_config(args.config, args.command))
    texts.update((key, value) for key, value in vars(args).items()
                 if key in texts and value is not None)
    values = {}
    for key, text in texts.items():
        try:
            values[key] = None if text is None else _OPTIONS[key][0](text)
        except ValueError as exc:
            raise UsageError(f"option '{key}' {exc}")
    return values


def _model(opts: dict) -> ModelSpec:
    try:
        return make_model(opts["model"], q=opts["q"], gamma=opts["gamma"])
    except ValueError as exc:
        raise UsageError(str(exc))


# ---------------------------------------------------------------------------
# CSV helpers

def _write_csv(path, header, rows, row_format: str) -> None:
    """Comma-delimited, '.'-decimal CSV: the header, then ``row_format %
    row`` for each row, with ``%.17g`` for floats."""
    with open(path, "w", newline="", encoding="utf-8") if path \
            else contextlib.nullcontext(sys.stdout) as sink:
        sink.write(",".join(header) + "\n")
        sink.write("".join(row_format % tuple(row) for row in rows))


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
    """Load a solution CSV back as an initial state on the given grid.

    An unreadable, empty, non-numeric, short-rowed or non-finite file is a
    ``UsageError``.
    """
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read solution file: {exc}")
    with fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        ncoord = 1 if grid.ndim == 1 else 2
        ucols = [k for k, name in enumerate(header) if name.startswith("u_")]
        if len(ucols) != spec.m or ncoord + len(ucols) > len(header):
            raise UsageError(f"CSV header {header} does not match the model")
        rows = list(reader)
    if len(rows) != grid.n_nodes:
        raise UsageError(f"CSV has {len(rows)} rows, grid has "
                         f"{grid.n_nodes} nodes")
    try:
        u = np.array([[float(cell) for cell in row] for row in rows])
        return make_state(grid, spec, u[:, ucols].T)
    except (ValueError, IndexError) as exc:   # ragged, non-numeric, non-finite
        raise UsageError(f"malformed solution file: {exc}")


# ---------------------------------------------------------------------------
# subcommands

def _validated(spec: ModelSpec) -> int | None:
    report = validate_hypotheses(spec)
    if not report.ok:
        print(report.summary())
        return EXIT_INVALID_MODEL
    return None


def cmd_solve(opts: dict) -> int:
    grid, spec = opts["grid"], _model(opts)
    bad = _validated(spec)
    if bad is not None:
        return bad
    lam = opts["lambda"]
    if lam is None:
        raise UsageError("missing required option 'lambda'")
    bound = upper_bound_lambda(spec, grid)
    if lam > bound:
        print(f"lambda={lam:.17g} exceeds the solvability bound "
              f"{bound:.17g}: no positive solutions exist")
        return EXIT_NO_CONVERGENCE
    init_path = opts["init"]
    init = read_solution_csv(init_path, grid, spec) if init_path else None
    winner = solve_stable(grid, spec, lam, init=init, tol=opts["tol"])
    if not winner.converged:
        source = f" from the init state {init_path}" if init_path else ""
        print(f"no converged stable solution at lambda={lam:.17g}{source}: "
              f"{winner.message}")
        return EXIT_NO_CONVERGENCE
    write_solution_csv(opts["output"], grid, winner.state.u)
    print(f"lambda={lam:.17g} phi={winner.energy:.17g} "
          f"delta={winner.delta:.17g} residual={winner.residual_norm:.17g} "
          f"iterations={winner.iterations}")
    return EXIT_OK


def cmd_fold(opts: dict) -> int:
    grid, spec = opts["grid"], _model(opts)
    # nonexistence of a fold (g with no superlinear part) is reported before
    # hypothesis validation so it surfaces as a non-convergence signal
    if not spec.degrees:
        print("model has no superlinear part: no fold exists")
        return EXIT_NO_CONVERGENCE
    bad = _validated(spec)
    if bad is not None:
        return bad
    try:
        fp = _ROUTES[opts["method"]](grid, spec, tol=opts["tol"])
    except (ConvergenceError, NoFoldError) as exc:
        print(f"fold search failed: {exc}")
        return EXIT_NO_CONVERGENCE
    write_fold_csv(opts["output"], grid, fp.state.u, fp.v)
    r1, r2, r3 = fp.residuals
    print(f"lambda_star={fp.lam:.17g} delta={fp.delta:.17g} "
          f"residuals={r1:.17g},{r2:.17g},{r3:.17g} "
          f"iterations={fp.newton_iterations}")
    return EXIT_OK


def cmd_continue(opts: dict) -> int:
    grid, spec = opts["grid"], _model(opts)
    bad = _validated(spec)
    if bad is not None:
        return bad
    try:
        branch = continue_branch(grid, spec, lam_start=opts["lambda_start"],
                                 step=opts["step"],
                                 max_records=opts["max_records"])
    except ConvergenceError as exc:
        print(f"branch trace failed: {exc}")
        return EXIT_NO_CONVERGENCE
    header = ["lambda", "sup_norm", "energy", "delta", "corrector_iters"]
    rows = [(r.lam, r.sup_norm, r.energy, r.delta, r.corrector_iters)
            for r in branch.records]
    _write_csv(opts["output"], header, rows, "%.17g,%.17g,%.17g,%.17g,%d\n")
    print(f"records={len(branch.records)} "
          f"fold_bracketed={str(branch.fold_bracketed).lower()}")
    return EXIT_OK


def _bench_one(method: str, n: int, spec: ModelSpec):
    grid = build_grid("interval", n)
    solve_counter.reset()
    t0 = time.perf_counter()
    lam = _ROUTES[method](grid, spec).lam
    return method, n, lam, time.perf_counter() - t0, solve_counter.reset()


def cmd_bench(opts: dict) -> int:
    spec = _model(opts)
    bad = _validated(spec)
    if bad is not None:
        return bad
    try:
        results = [_bench_one(method, n, spec)
                   for method in opts["methods"] for n in opts["grids"]]
    except (ConvergenceError, NoFoldError) as exc:
        print(f"benchmark run failed: {exc}")
        return EXIT_NO_CONVERGENCE
    header = ["method", "grid_n", "lambda_star", "wall_seconds",
              "linear_solves"]
    _write_csv(opts["output"], header, results, "%s,%d,%.17g,%.17g,%d\n")
    return EXIT_OK


def cmd_check(opts: dict) -> int:
    grid, spec = opts["grid"], _model(opts)
    report = validate_hypotheses(spec)
    print(report.summary())
    if not report.ok:
        return EXIT_INVALID_MODEL
    # finite-difference self-tests for the energy derivatives
    rng = np.random.default_rng(opts["seed"])
    u = 0.5 + rng.random((spec.m, grid.n_nodes))
    xi = rng.standard_normal((spec.m, grid.n_nodes))
    state = make_state(grid, spec, u)
    lam, eps = 1.0, 1e-5
    ok = True

    fd = (phi(make_state(grid, spec, u + eps * xi), lam)
          - phi(make_state(grid, spec, u - eps * xi), lam)) / (2 * eps)
    exact = inner_product(grid, phi_grad(state, lam), xi)
    rel_g = abs(fd - exact) / max(abs(exact), 1e-30)
    print(f"gradient_fd_error={rel_g:.17g}")
    ok &= rel_g <= 1e-6

    hess = hessian_operator(state, lam)
    fd_h = (phi_grad(make_state(grid, spec, u + eps * xi), lam)
            - phi_grad(make_state(grid, spec, u - eps * xi), lam)) / (2 * eps)
    exact_h = hess(xi.ravel()).reshape(xi.shape)
    rel_h = norm(grid, fd_h - exact_h) / max(norm(grid, exact_h), 1e-30)
    print(f"hessian_fd_error={rel_h:.17g}")
    ok &= rel_h <= 1e-6

    v = rng.standard_normal(xi.shape)
    hv = [hessian_operator(make_state(grid, spec, u + s * eps * xi), lam)(v.ravel())
          for s in (1.0, -1.0)]
    fd_t = ((hv[0] - hv[1]) / (2 * eps)).reshape(xi.shape)
    exact_t = np.einsum("ijn,jn->in",
                        _third_derivative_blocks(state, lam, v), xi)
    rel_t = norm(grid, fd_t - exact_t) / max(norm(grid, exact_t), 1e-30)
    print(f"third_derivative_fd_error={rel_t:.17g}")
    ok &= rel_t <= 1e-6

    mat = hess.matrix
    asym = abs(mat - mat.T).max()
    print(f"hessian_asymmetry={asym:.17g}")
    ok &= asym <= 1e-12 * grid.stencil_scale

    if not ok:
        print("derivative self-tests FAILED")
        return EXIT_NO_CONVERGENCE
    print("all checks passed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point

# name: (handler, help, own options with the text of their defaults)
_COMMANDS = {
    "solve": (cmd_solve, "solve at a fixed lambda",
              {**_GRID, **_OUTPUT, "lambda": None, "init": None,
               "tol": "1e-11"}),
    "fold": (cmd_fold, "locate the maximal fold point",
             {**_GRID, **_OUTPUT, "method": "direct", "tol": "1e-12"}),
    "continue": (cmd_continue, "trace the solution branch",
                 {**_GRID, **_OUTPUT, "lambda_start": "0.5", "step": "0.05",
                  "max_records": "200"}),
    "bench": (cmd_bench, "benchmark fold methods across grids",
              {**_OUTPUT, "grids": "31,63,127,255",
               "methods": "direct,continuation"}),
    "check": (cmd_check, "validate the model and derivatives",
              {**_GRID, "seed": "0"}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="foldfinder", allow_abbrev=False,
                     description="Locate maximal fold points of "
                                 "sublinear-superlinear Dirichlet systems.")
    subs = parser.add_subparsers(dest="command", metavar="command")
    for command, (_, help_text, _) in _COMMANDS.items():
        sub = subs.add_parser(command, help=help_text, allow_abbrev=False)
        sub.add_argument("--config", help="flat key = value config file")
        for name in _defaults(command):
            _, option_help, *aliases = _OPTIONS[name]
            sub.add_argument("--" + name.replace("_", "-"), *aliases,
                             dest=name, help=option_help)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command is None:
            raise UsageError("a subcommand is required")
        return _COMMANDS[args.command][0](_options(args))
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FoldFinderError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
