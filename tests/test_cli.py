"""Command-line interface: exit codes, CSV contracts, determinism."""

import argparse
import ast
import csv
import inspect
import os
import pkgutil
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import foldfinder
from foldfinder import (build_grid, make_model, phi, stability_index,
                        stability_tolerance, upper_bound_lambda)
from foldfinder.cli import (EXIT_INVALID_MODEL, EXIT_NO_CONVERGENCE, EXIT_OK,
                            EXIT_USAGE, UsageError, build_parser, main,
                            read_solution_csv, write_fold_csv, _read_config)


def run(args):
    return main(args)


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_solve_exit_zero_and_row_count(tmp_path, capsys):
    out = tmp_path / "sol.csv"
    code = run(["solve", "--model", "abc", "--q", "1.5", "--gamma", "4",
                "--grid", "interval:127", "--lambda", "1.0",
                "-o", str(out)])
    assert code == EXIT_OK
    rows = _read_rows(out)
    assert rows[0] == ["x", "u_1"]
    assert len(rows) == 128
    summary = capsys.readouterr().out
    assert "lambda=1" in summary and "delta=" in summary


def test_solve_invalid_model_reports_growth_condition(capsys):
    code = run(["solve", "--model", "abc", "--q", "1.5", "--gamma", "3",
                "--grid", "interval:15", "--lambda", "1.0"])
    assert code == EXIT_INVALID_MODEL
    assert "(g3)" in capsys.readouterr().out


def test_solve_above_bound_nonexistence(capsys):
    code = run(["solve", "--model", "abc", "--q", "1.5", "--gamma", "4",
                "--grid", "interval:15", "--lambda", "100"])
    assert code == EXIT_NO_CONVERGENCE


def test_fold_one_node_closed_form(tmp_path, capsys):
    out = tmp_path / "fold.csv"
    code = run(["fold", "--model", "abc", "--q", "1.5", "--gamma", "4",
                "--grid", "interval:1", "-o", str(out)])
    assert code == EXIT_OK
    lam_star = 8.0 * 1.6 ** 0.25 - 1.6 ** 1.25
    summary = capsys.readouterr().out
    value = float(summary.split("lambda_star=")[1].split()[0])
    assert value == pytest.approx(lam_star, abs=1e-9)
    rows = _read_rows(out)
    assert rows[0] == ["x", "u_1", "v_1"]
    assert float(rows[1][1]) == pytest.approx(np.sqrt(1.6), abs=1e-9)


def test_fold_coupled_continuation_interval_127(capsys):
    code = run(["fold", "--method", "continuation", "--model", "coupled",
                "--q", "1.5", "--grid", "interval:127"])
    assert code == EXIT_OK, capsys.readouterr()


def test_fold_coupled_direct_prints_principal_delta(tmp_path, capsys):
    # the second eigenvalue of the fold's Hessian lies only ~6.6 above the
    # first; an eigen-solver that settles on it prints delta ~ 6.6
    out = tmp_path / "fold.csv"
    code = run(["fold", "--method", "direct", "--model", "coupled",
                "--q", "1.33", "--grid", "interval:127", "-o", str(out)])
    assert code == EXIT_OK
    delta = float(capsys.readouterr().out.split("delta=")[1].split()[0])
    grid = build_grid("interval", 127)
    spec = make_model("coupled", q=1.33)
    state = read_solution_csv(str(out), grid, spec)
    assert abs(delta) <= stability_tolerance(state)


def test_fold_zero_model_exit_two(capsys):
    code = run(["fold", "--model", "zero", "--q", "1.5",
                "--grid", "interval:15"])
    assert code == EXIT_NO_CONVERGENCE


def test_continue_branch_csv(tmp_path):
    out = tmp_path / "branch.csv"
    code = run(["continue", "--model", "abc", "--q", "1.5", "--gamma", "4",
                "--grid", "interval:15", "--lambda-start", "1.0",
                "-o", str(out)])
    assert code == EXIT_OK
    rows = _read_rows(out)
    assert rows[0] == ["lambda", "sup_norm", "energy", "delta",
                       "corrector_iters"]
    lams = [float(r[0]) for r in rows[1:]]
    deltas = [float(r[3]) for r in rows[1:]]
    flip = next(i for i, d in enumerate(deltas) if d <= 0)
    # monotone increase along the stable branch, then the fold bracket; the
    # record past the fold lies on the unstable branch, below lambda*
    assert all(b > a for a, b in zip(lams[:flip], lams[1:flip]))
    assert flip > 0 and any(d <= 0 for d in deltas)


def test_continue_near_q_two_traces_a_real_branch(tmp_path):
    # with an absolute stop test every record but the last held a state of
    # sup 1e-26, with lambda doubling up to 2e17 against Lambda = 9.28
    out = tmp_path / "branch.csv"
    assert run(["continue", "--q", "1.95", "--gamma", "4",
                "-o", str(out)]) == EXIT_OK
    rows = _read_rows(out)[1:]
    lams = [float(r[0]) for r in rows]
    deltas = [float(r[3]) for r in rows]
    spec = make_model("abc", q=1.95, gamma=4.0)
    assert max(lams) <= upper_bound_lambda(spec, build_grid("interval", 31))
    assert deltas[-2] > 0 >= deltas[-1]
    assert lams[-1] < lams[-2] < 9.2608159 < lams[-2] * (1 + 1e-3)


def test_continue_lambda_end_is_unknown_flag(tmp_path):
    # continuation stops at the fold or max_records; there is no end value
    code = run(["continue", "--model", "abc", "--q", "1.5", "--gamma", "4",
                "--grid", "interval:15", "--lambda-start", "2.0",
                "--lambda-end", "3.0"])
    assert code == EXIT_USAGE
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model = abc\nlambda_end = 3.0\n")
    assert run(["continue", "--config", str(cfg)]) == EXIT_USAGE


def _fold_summary(capsys, args):
    assert run(args) == EXIT_OK
    out = capsys.readouterr().out
    iterations = int(out.split("iterations=")[1].split()[0])
    residuals = [float(r) for r in out.split("residuals=")[1].split()[0].split(",")]
    return iterations, max(residuals)


def test_fold_honours_tol(capsys):
    scale = build_grid("interval", 15).stencil_scale
    for method in ("direct", "continuation"):
        args = ["fold", "--method", method, "--model", "abc", "--q", "1.5",
                "--gamma", "4", "--grid", "interval:15"]
        strict = _fold_summary(capsys, args)
        loose = _fold_summary(capsys, args + ["--tol", "1e-6"])
        assert loose[0] < strict[0]
        assert strict[1] <= 1e-12 * scale < loose[1] <= 1e-6 * scale


def test_fold_continuation_on_rectangle_agrees_with_direct(capsys):
    # a fixed 0.05 step ran out of records before this fold
    args = ["fold", "--model", "abc", "--q", "1.5", "--gamma", "4",
            "--grid", "rectangle:15", "--method"]
    lam = {}
    for method in ("direct", "continuation"):
        assert run(args + [method]) == EXIT_OK
        out = capsys.readouterr().out
        lam[method] = float(out.split("lambda_star=")[1].split()[0])
    assert lam["continuation"] == pytest.approx(lam["direct"], rel=1e-8)


@pytest.mark.parametrize("command, key, value", [
    ("fold", "q", "nan"), ("fold", "gamma", "inf"), ("fold", "tol", "nan"),
    ("solve", "lambda", "nan"), ("continue", "lambda_start", "nan"),
    ("continue", "lambda_start", "inf"), ("continue", "step", "inf"),
    ("continue", "step", "nan"), ("continue", "max_records", "0"),
    ("bench", "grids", "0"), ("check", "seed", "-1"),
])
def test_non_finite_or_out_of_range_option_rejected(tmp_path, capsys,
                                                     command, key, value):
    flag = "--" + key.replace("_", "-")
    grid = [] if command == "bench" else ["--grid", "interval:7"]
    assert run([command, "--model", "abc", *grid, flag, value]) == EXIT_USAGE
    assert f"option '{key}'" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"model = abc\n{key} = {value}\n")
    assert run([command, "--config", str(cfg)]) == EXIT_USAGE
    assert f"option '{key}'" in capsys.readouterr().err


@pytest.mark.parametrize("command, key, value", [
    ("fold", "seed", "3"), ("continue", "seed", "3"), ("bench", "seed", "3"),
    ("continue", "tol", "1e-6"), ("bench", "tol", "1e-6"),
    ("check", "tol", "1e-6"), ("fold", "restarts", "3"),
    ("solve", "restarts", "3"), ("solve", "seed", "3"),
    ("continue", "lambda", "2"), ("fold", "m", "2"),
    ("bench", "grid", "interval:7"), ("check", "output", "check.csv"),
])
def test_unused_seed_and_tol_rejected(tmp_path, capsys, command, key, value):
    # each command accepts seed and tol only where it uses them; fold runs
    # one ascent and solve one deterministic solve, so neither has restarts
    # or a seed.  bench builds its own grids from --grids and check writes
    # no CSV, so neither has --grid or --output respectively.  The error
    # names the key, not some other missing option
    grid = [] if command == "bench" else ["--grid", "interval:7"]
    assert run([command, "--model", "abc", *grid,
                f"--{key}", value]) == EXIT_USAGE
    assert f"--{key}" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"model = abc\n{key} = {value}\n")
    assert run([command, "--config", str(cfg)]) == EXIT_USAGE
    assert f"unknown key '{key}'" in capsys.readouterr().err


@pytest.mark.parametrize("model", ["coupled", "zero"])
def test_gamma_rejected_for_a_model_without_gamma(tmp_path, capsys, model):
    # only abc has a superlinear degree to set; elsewhere gamma went nowhere
    assert run(["fold", "--model", model, "--gamma", "5",
                "--grid", "interval:7"]) == EXIT_USAGE
    assert "no gamma" in capsys.readouterr().err
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"model = {model}\ngamma = 5\ngrid = interval:7\n")
    assert run(["fold", "--config", str(cfg)]) == EXIT_USAGE
    assert "no gamma" in capsys.readouterr().err


def test_every_flag_is_a_config_key_of_its_command(tmp_path):
    # a command's flags and its config keys come from one option table
    parser = build_parser()
    subparsers = next(action.choices for action in parser._actions
                      if isinstance(action, argparse._SubParsersAction))
    dests = {command: {action.dest for action in sub._actions}
             - {"help", "config"} for command, sub in subparsers.items()}
    assert set(dests) == {"solve", "fold", "continue", "bench", "check"}
    every = set().union(*dests.values())
    cfg = tmp_path / "run.cfg"
    for command, own in dests.items():
        accepted = set()
        for key in every:
            cfg.write_text(f"{key} = 1\n")
            try:
                _read_config(str(cfg), command)
            except UsageError:
                continue
            accepted.add(key)
        assert accepted == own, command


def _readme_commands():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0].replace("\\\n", " ")
    return [shlex.split(line) for line in block.splitlines() if line.strip()]


def test_readme_command_line_examples_run(tmp_path, monkeypatch):
    commands = _readme_commands()
    assert {argv[1] for argv in commands} \
        == {"solve", "fold", "continue", "bench", "check"}
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert argv[0] == "foldfinder"
        assert run(argv[1:]) == EXIT_OK, argv


def test_unknown_flag_usage_error():
    assert run(["solve", "--frobnicate", "1"]) == EXIT_USAGE
    assert run(["definitely-not-a-command"]) == EXIT_USAGE
    assert run([]) == EXIT_USAGE


def test_bench_matrix(tmp_path):
    out = tmp_path / "bench.csv"
    code = run(["bench", "--model", "abc", "--q", "1.5", "--gamma", "4",
                "--grids", "7,15", "--methods", "direct", "-o", str(out)])
    assert code == EXIT_OK
    rows = _read_rows(out)
    assert rows[0] == ["method", "grid_n", "lambda_star", "wall_seconds",
                       "linear_solves"]
    assert [r[:2] for r in rows[1:]] == [["direct", "7"], ["direct", "15"]]
    assert all(int(r[4]) > 0 for r in rows[1:])


def test_check_command(capsys):
    code = run(["check", "--model", "coupled", "--q", "1.5",
                "--grid", "interval:7"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert "third_derivative_fd_error=" in out
    assert run(["check", "--model", "abc", "--q", "2.5", "--gamma", "4",
                "--grid", "interval:7"]) == EXIT_INVALID_MODEL


def test_config_file_flags_win(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model = abc\nq = 1.5\ngamma = 4\n"
                   "grid = interval:15\nlambda = 2.0  # comment\n")
    code = run(["solve", "--config", str(cfg), "--lambda", "1.0"])
    assert code == EXIT_OK
    assert "lambda=1 " in capsys.readouterr().out


def test_config_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("model = abc\nbogus = 1\n")
    assert run(["solve", "--config", str(cfg), "--lambda", "1"]) == EXIT_USAGE


def test_deterministic_rerun_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["solve", "--model", "abc", "--q", "1.5", "--gamma", "4",
            "--grid", "interval:31", "--lambda", "2.0"]
    assert run(args + ["-o", str(a)]) == EXIT_OK
    assert run(args + ["-o", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def _solution_csv(tmp_path):
    out = tmp_path / "sol.csv"
    assert run(["solve", "--model", "abc", "--q", "1.5", "--gamma", "4",
                "--grid", "interval:7", "--lambda", "2.0",
                "-o", str(out)]) == EXIT_OK
    return out


def test_solve_init_failure_names_the_init_state(tmp_path, capsys):
    # no tolerance below rounding is reachable, so the one solve fails
    init = _solution_csv(tmp_path)
    capsys.readouterr()
    assert run(["solve", "--model", "abc", "--q", "1.5", "--gamma", "4",
                "--grid", "interval:7", "--lambda", "2.0",
                "--init", str(init), "--tol", "1e-300"]) \
        == EXIT_NO_CONVERGENCE
    out = capsys.readouterr().out
    assert f"from the init state {init}" in out
    assert "restarts" not in out


@pytest.mark.parametrize("edit, message", [
    (None, "cannot read solution file"),
    (lambda lines: [], "does not match the model"),
    (lambda lines: lines[:3] + ["0.5,abc"] + lines[4:], "malformed"),
    (lambda lines: lines[:3] + ["0.5"] + lines[4:], "malformed"),
    (lambda lines: lines[:3] + ["0.5,nan"] + lines[4:], "non-finite"),
], ids=["missing", "empty", "non-numeric", "short-row", "nan"])
def test_solve_init_missing_file_is_usage_error(tmp_path, capsys, edit,
                                                message):
    init = tmp_path / "missing.csv"
    if edit is not None:
        lines = _solution_csv(tmp_path).read_text().splitlines()
        init.write_text("".join(line + "\n" for line in edit(lines)))
    assert run(["solve", "--model", "abc", "--q", "1.5", "--gamma", "4",
                "--grid", "interval:7", "--lambda", "2.0",
                "--init", str(init)]) == EXIT_USAGE
    assert message in capsys.readouterr().err


def test_solution_csv_round_trip(tmp_path, capsys):
    out = tmp_path / "sol.csv"
    args = ["solve", "--model", "abc", "--q", "1.5", "--gamma", "4",
            "--grid", "interval:15", "--lambda", "2.0", "-o", str(out)]
    assert run(args) == EXIT_OK
    summary = capsys.readouterr().out
    phi_reported = float(summary.split("phi=")[1].split()[0])
    delta_reported = float(summary.split("delta=")[1].split()[0])
    grid = build_grid("interval", 15)
    spec = make_model("abc", q=1.5, gamma=4.0)
    state = read_solution_csv(str(out), grid, spec)
    assert phi(state, 2.0) == pytest.approx(phi_reported, abs=1e-12)
    assert stability_index(state).delta == pytest.approx(delta_reported,
                                                         abs=1e-12)


def test_fold_csv_matches_reference_formatter(tmp_path):
    grid = build_grid("rectangle", (3, 4))
    rng = np.random.default_rng(5)
    u, v = rng.random((2, grid.n_nodes)), rng.standard_normal((2, grid.n_nodes))
    out = tmp_path / "fold.csv"
    write_fold_csv(str(out), grid, u, v)
    lines = ["x,y,u_1,u_2,v_1,v_2"]
    for j in range(grid.n_nodes):
        row = [*grid.coords[j], *u[:, j], *v[:, j]]
        lines.append(",".join("%.17g" % float(x) for x in row))
    assert out.read_bytes() == ("\n".join(lines) + "\n").encode()


def _imports_scipy_optimize(tree):
    """True if the module imports scipy.optimize anywhere, functions included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{a.name}" for a in node.names]
            names.append(node.module or "")
        else:
            continue
        if any(n == "scipy.optimize" or n.startswith("scipy.optimize.")
               for n in names):
            return True
    return False


def test_no_module_imports_scipy_optimize():
    # the fiber maxima and roots come from the package's own kernels, and
    # importing scipy.optimize would cost about a third of start-up
    pkg = Path(foldfinder.__file__).parent
    modules = [info.name for info in pkgutil.iter_modules([str(pkg)])]
    assert "cw" in modules and "nehari" in modules
    assert not [name for name in modules if _imports_scipy_optimize(
        ast.parse((pkg / f"{name}.py").read_text()))]


# rayleigh_ext, the paper's extended Rayleigh quotient R(u, v), has no
# caller in the package: acceptance criterion 7 tests its invariants
_PUBLIC_WITHOUT_CALLER = {"rayleigh_ext"}


def test_every_public_function_and_class_is_loaded_in_the_package():
    # public code that only tests call is deleted, with its export
    pkg = Path(foldfinder.__file__).parent
    loaded = {node.id for path in pkg.glob("*.py") if path.name != "__init__.py"
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    public = {name for name in foldfinder.__all__
              if inspect.isfunction(getattr(foldfinder, name))
              or inspect.isclass(getattr(foldfinder, name))}
    assert "solve_stable" in public and "Grid" in public
    assert sorted(public - loaded - _PUBLIC_WITHOUT_CALLER) == []


def test_warm_up_fold_leaves_scipy_optimize_unloaded(tmp_path):
    script = (
        "import sys\n"
        "import foldfinder.cli as cli\n"
        f"rc = cli.main(['fold', '--grid', 'interval:1', '--output', "
        f"{str(tmp_path / 'fold.csv')!r}])\n"
        "print(rc, any(m == 'scipy.optimize' or m.startswith('scipy.optimize.')"
        " for m in sys.modules))\n")
    env = dict(os.environ,
               PYTHONPATH=str(Path(foldfinder.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-2:] == ["0", "False"]
