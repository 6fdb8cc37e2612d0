"""Benchmark of the ``foldfinder fold`` command, run from the repository root.

    python3 perfbench/run.py --workload direct-rect --seed 1 --seconds 25 --trace 0

One process per run.  The library is imported from ``src/`` of the checkout
and ``foldfinder.cli.main(argv)`` is called in-process with stdout captured;
each fold CSV goes to a scratch directory under ``.bench_out/``.  Outputs are
checked after the clock stops.

``--trace 0`` runs one whole pass over the workload's cases, then further
passes until ``--seconds`` have gone (no operation starts after that), and
reports the end-to-end metrics.  Each run also replays the seed's known
defects once, untimed and outside ``attempted``, and reports whether they
still reproduce.  ``--trace 1`` runs pass 0 three times:
untraced, traced and untraced again, and reports the per-layer metrics of the
traced pass plus the tracing overhead against the two untraced ones.  The
last line of stdout is the JSON result; a fuller record (every operation,
its lambda* to 17 digits, CSV digests, exact counts, environment) is written
to ``.bench_out/<workload>-seed<seed>-trace<t>.json``, and the spans of a
traced run next to it as ``.spans.jsonl``.
"""

from __future__ import annotations

import os

# serial load: single-threaded BLAS and OpenMP pools, set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 5           # set-ups, each in a fresh process
CHILD_TIMEOUT_S = 120

sys.path.insert(0, str(HERE))
from tracer import SPLU, Tracer  # noqa: E402
from workloads import (KNOWN_DEFECTS, WORKLOADS, Operation,  # noqa: E402
                       check_cross_route, check_operation, make_pass)


class BenchError(Exception):
    """The benchmark cannot run here (no sources, failed set-up)."""


def _import_library() -> None:
    if not (SRC / "foldfinder" / "cli.py").is_file():
        raise BenchError(f"no foldfinder sources under {SRC}")
    sys.path.insert(0, str(SRC))


def setup_once(workdir: Path) -> float:
    """Import the CLI and run one warm-up fold; returns the seconds taken."""
    t0 = time.perf_counter()
    import foldfinder.cli as cli

    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["fold", "--grid", "interval:1",
                       "--output", str(workdir / "warmup.csv")])
    elapsed = time.perf_counter() - t0
    if rc != 0:
        raise BenchError(f"warm-up fold exited with {rc}")
    return elapsed


def setup_samples() -> list[float]:
    """The set-up timed in fresh processes, so every sample imports numpy."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def run_operation(op: Operation) -> None:
    import foldfinder.cli as cli

    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            op.exit_code = cli.main(op.argv())
    except Exception:   # a crash is a failed and incorrect operation
        op.crashed = traceback.format_exc()
    op.seconds = time.perf_counter() - t0
    op.stdout, op.stderr = out.getvalue(), err.getvalue()


def run_pass(workload, seed: int, index: int, workdir: Path, tag: str,
             tracer: Tracer | None = None,
             deadline: float = math.inf) -> list[Operation]:
    """Run the pass's operations in order; none starts after ``deadline``."""
    ops = make_pass(workload, seed, index)
    for k, op in enumerate(ops):
        if time.perf_counter() >= deadline:
            return ops[:k]
        op.csv_path = str(workdir / f"{tag}-{k}.csv")
        if tracer is not None:
            tracer.op_id = k
        run_operation(op)
    return ops


def _digest(path: str) -> str | None:
    try:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()
    except OSError:
        return None


def _lambda17(op: Operation) -> str | None:
    lam = op.lambda_star
    return None if lam is None else f"{lam:.17g}"


def _record(op: Operation) -> dict:
    return {
        "label": op.label, "argv": op.argv()[:-2], "seconds": op.seconds,
        "exit_code": op.exit_code, "failed": op.failed,
        "lambda_star": _lambda17(op),
        "csv_sha256": _digest(op.csv_path) if op.exit_code == 0 else None,
        "message": (op.stdout + op.stderr).strip(),
        "crash": op.crashed,
        "checks": {k: {"ok": ok, "detail": d}
                   for k, (ok, d) in op.checks.items()},
    }


def _environment() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "loadavg": list(os.getloadavg()),
        "threads": {v: os.environ[v] for v in
                    ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS")},
    }


def _check_all(ops: list[Operation], cross_route: bool) -> None:
    """Check every output; repeats of one output are checked once.

    Two operations with the same argv, exit code, stdout and CSV bytes have
    the same checks, so only the first of them is recomputed.
    """
    checked: dict[tuple, dict] = {}
    for op in ops:
        key = (tuple(op.argv()[:-2]), op.exit_code, op.stdout, op.crashed,
               _digest(op.csv_path))
        if key not in checked:
            check_operation(op)
            checked[key] = op.checks
        op.checks = dict(checked[key])
    if cross_route:
        check_cross_route(ops)


def known_defects(workdir: Path) -> list[dict]:
    """Replay the seed's known defects, untimed; report which reproduce."""
    found = []
    for k, (what, case, q, reproduces) in enumerate(KNOWN_DEFECTS):
        op = Operation(0, case, q, None, str(workdir / f"defect-{k}.csv"))
        run_operation(op)
        check_operation(op)
        found.append({"defect": what, "argv": op.argv()[:-2],
                      "reproduces": reproduces(op), **_record(op)})
    return found


# ---------------------------------------------------------------------------
# end-to-end run

def timed_run(workload, seed: int, seconds: float, workdir: Path):
    setup = setup_samples()
    setup_once(workdir)
    passes: list[list[Operation]] = []
    t_start = time.perf_counter()
    # the first pass runs whole, so that every case has a sample; later
    # passes stop at the deadline
    passes.append(run_pass(workload, seed, 0, workdir, "p0"))
    while time.perf_counter() - t_start < seconds:
        passes.append(run_pass(workload, seed, len(passes), workdir,
                               f"p{len(passes)}",
                               deadline=t_start + seconds))
    measured = time.perf_counter() - t_start
    # before the checks, whose own solves would raise the high-water mark
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    ops = [op for ops in passes for op in ops]
    _check_all(ops, workload.cross_route)

    # per case, the median over passes: robust to a pass that ran while the
    # machine was slow
    case_med = [statistics.median(p[c].seconds for p in passes
                                  if c < len(p))
                for c in range(len(workload.cases))]
    failed = sum(op.failed for op in ops)
    n = (f"{len(ops)} operations over {len(workload.cases)} cases, "
         f"{len(passes)} passes")
    metrics = {
        "setup_s": (statistics.median(setup), "s",
                    f"median of {len(setup)} set-ups in fresh processes"),
        "wall_s": (sum(case_med), "s",
                   f"one pass: sum over cases of the median operation; {n}"),
        "peak_rss_mb": (rss_mb, "MB", "ru_maxrss of this process"),
    }
    # reported but not gated: each rests on one case's 2-5 operations, and a
    # run of 9-20 operations leaves no sample beyond the maximum; fail_frac
    # is 0 on every workload, where a bound that is a share of the median
    # cannot work
    extra = {
        "fold_s.p50": (statistics.median(case_med), "s",
                       f"median over cases of the median operation; {n}"),
        "fold_s.max": (max(case_med), "s",
                       f"slowest case's median operation; {n}"),
        "fail_frac": (failed / len(ops), "ratio",
                      f"{failed} failed of {len(ops)} attempted"),
    }
    detail = {"setup_samples": setup, "case_median_s": case_med,
              "measured_s": measured}
    return ops, metrics, extra, detail


# ---------------------------------------------------------------------------
# traced run

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, overhead: float) -> dict:
    s = tracer.summary()

    def get(name, key="calls"):
        return s.get(name, {}).get(key, 0)

    eig = "linalg.smallest_eigenpair"
    splu_in_eig = tracer.children_of(eig, SPLU)
    # the stability_index spans of each completed detect_fold, less its
    # final evaluation at the bracketed fold
    bisect = (tracer.children_of("fold.detect_fold", "spectrum.stability_index",
                                 completed_parents=True)
              - get("fold.detect_fold") + get("fold.detect_fold", "failed"))
    m = {
        "linalg.splu.calls": (get(SPLU), "count"),
        "linalg.splu.s": (get(SPLU, "s"), "s"),
        "linalg.splu.fill_nnz": (tracer.fill_nnz, "count"),
        "linalg.splu_per_eigenpair": (_ratio(splu_in_eig, get(eig)), "ratio"),
        "linalg.lu_solves": (tracer.lu_solves, "count"),
    }
    timed = {
        eig: ("calls", "s", "self_s", "failed"),
        "linalg.solve_bordered": ("calls", "s", "self_s", "failed"),
        "energy.hessian_operator": ("calls", "s", "self_s"),
        "spectrum.stability_index": ("calls", "s", "self_s"),
        "fold.continue_branch": ("calls", "s", "self_s", "records"),
        "fold.detect_fold": ("calls", "s", "self_s"),
        "nehari.newton_solve": ("calls", "s", "self_s", "iterations"),
        "cw.cw_ascend": ("calls", "s", "self_s", "iterations"),
        "mesh.apply_laplacian": ("calls", "s"),
        "cw.upper_bound_lambda": ("calls", "s"),
        "mesh.principal_laplacian_eigenvalue": ("calls", "s"),
        "model.eval_g": ("calls", "s"),
        "model.eval_g_jacobian": ("calls", "s"),
        "fold.moore_spence_solve": ("calls", "s", "self_s", "iterations"),
        "fold.find_fold_direct": ("calls", "s", "self_s"),
        "cli.main": ("calls", "s", "self_s"),
        "cli.write_fold_csv": ("calls", "s"),
    }
    for name, keys in timed.items():
        for key in keys:
            unit = "s" if key in ("s", "self_s") else "count"
            m[f"{name}.{key}"] = (get(name, key), unit)
    m["fold.detect_fold.bisection_steps"] = (bisect, "count")
    m["nehari.newton_solve.ok_ratio"] = (
        _ratio(get("nehari.newton_solve", "ok"), get("nehari.newton_solve")),
        "ratio")
    m["cw.cw_ascend.stable_ratio"] = (
        _ratio(get("cw.cw_ascend", "stable"), get("cw.cw_ascend")), "ratio")
    m["trace.overhead"] = (overhead, "ratio")
    return m


def traced_run(workload, seed: int, workdir: Path):
    setup_once(workdir)
    before = run_pass(workload, seed, 0, workdir, "untraced-a")
    tracer = Tracer()
    tracer.install()
    try:
        traced = run_pass(workload, seed, 0, workdir, "traced", tracer)
    finally:
        tracer.uninstall()
    after = run_pass(workload, seed, 0, workdir, "untraced-b")
    ops = before + traced + after
    _check_all(ops, workload.cross_route)
    for a, b in zip(before, traced):
        same = _digest(a.csv_path) == _digest(b.csv_path)
        b.checks["same_csv_untraced"] = (
            same, f"fold CSV {'equals' if same else 'differs from'} the "
                  f"untraced pass's")

    def total(run):
        return sum(op.seconds for op in run)

    base = 0.5 * (total(before) + total(after))
    overhead = total(traced) / base - 1.0
    metrics = layer_metrics(tracer, overhead)
    summary = tracer.summary()
    exact = {f"{name}.{key}": value for name, row in summary.items()
             for key, value in row.items() if key not in ("s", "self_s")}
    exact["linalg.lu_solves"] = tracer.lu_solves
    exact["linalg.splu.fill_nnz"] = tracer.fill_nnz
    exact["fold.detect_fold.bisection_steps"] = \
        metrics["fold.detect_fold.bisection_steps"][0]
    detail = {"traced_ops": [op.label for op in traced],
              "wall_untraced": [total(before), total(after)],
              "wall_traced": total(traced),
              "exact_counts": dict(sorted(exact.items())),
              "lambda_star": [_lambda17(op) for op in traced],
              "csv_sha256": [_digest(op.csv_path) for op in traced],
              "functions": summary}
    return ops, metrics, tracer, detail


# ---------------------------------------------------------------------------
# report

def print_report(workload, seed, trace, ops, metrics, extra, env,
                 defects) -> None:
    print(f"# workload {workload.name} seed {seed} trace {trace}")
    print(f"#   {workload.why}")
    print(f"# env nproc={env['nproc']} affinity={env['affinity']} "
          f"python={env['python']} numpy={env['numpy']} "
          f"scipy={env['scipy']} loadavg={env['loadavg']}")
    for op in ops:
        status = "FAILED" if op.failed else "ok"
        print(f"op {op.label}: {op.seconds:.4f} s exit={op.exit_code} "
              f"lambda*={_lambda17(op) or '-'} {status}")
        if op.exit_code != 0 or op.crashed:
            msg = (op.stdout + op.stderr + op.crashed).strip()
            print(f"   message: {msg.splitlines()[-1] if msg else '-'}")
        for name, (ok, detail) in op.checks.items():
            print(f"   check {name}: {'pass' if ok else 'FAIL'} ({detail})")
    for name, spec in {**metrics, **extra}.items():
        value, unit = spec[0], spec[1]
        note = f"  [{spec[2]}]" if len(spec) > 2 else ""
        print(f"metric {name} = {value:.6g} {unit}{note}")
    for found in defects:
        print(f"known defect {'reproduces' if found['reproduces'] else 'GONE'}"
              f" (untimed, not counted): {found['defect']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        _import_library()
        OUT.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(dir=OUT, prefix="csv-"))
        try:
            if args.setup_probe:
                print(setup_once(workdir))
                return 0
            if args.workload is None:
                parser.error("--workload is required")
            return _bench(args, WORKLOADS[args.workload], workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


def _bench(args, workload, workdir: Path) -> int:
    env = _environment()
    stem = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        ops, metrics, tracer, detail = traced_run(workload, args.seed,
                                                  workdir)
        extra = {}
        tracer.write_spans(f"{stem}.spans.jsonl")
    else:
        ops, metrics, extra, detail = timed_run(workload, args.seed,
                                                args.seconds, workdir)
    defects = known_defects(workdir)
    failed = sum(op.failed for op in ops)
    correct = failed == 0
    record = {"workload": workload.name, "seed": args.seed,
              "trace": args.trace, "seconds": args.seconds, "env": env,
              "correct": correct, "attempted": len(ops), "failed": failed,
              "metrics": {k: list(v) for k, v in {**metrics,
                                                   **extra}.items()},
              "operations": [_record(op) for op in ops],
              "known_defects": defects, **detail}
    Path(f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print_report(workload, args.seed, args.trace, ops, metrics, extra, env,
                 defects)
    print(json.dumps({
        "correct": correct, "attempted": len(ops), "failed": failed,
        "metrics": {k: {"value": v[0], "unit": v[1]}
                    for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
