"""Every workload in one command, with the determinism self-check.

    python3 perfbench/suite.py --seed 1 --seconds 25

For each workload: one end-to-end run (``--trace 0``), whose report lists
every metric with its unit and sample count and every output check, then
two traced runs with the same seed.  The two traced runs must agree on
every exact count (factorizations, triangular solves, eigenpair calls,
Newton and ascent iterations, branch records, ...), on the fold CSV bytes
and on lambda* to 17 digits.  The metric names printed are compared with
``BENCHMARK.json``.  Exits 1 if any run is incorrect, the traced runs
differ, or the names disagree.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402


def bench(workload: str, seed: int, seconds: float, trace: int):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"run.py {workload} trace {trace} exited "
                         f"{proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.rstrip("\n").splitlines()
    result = json.loads(lines[-1])
    record = json.loads(
        (OUT / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return lines[:-1], result, record


def _expected(key: str) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec[key]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    args = parser.parse_args(argv)
    ok = True
    for name in WORKLOADS:
        report, result, _ = bench(name, args.seed, args.seconds, 0)
        print("\n".join(report))
        print(f"result correct={result['correct']} attempted="
              f"{result['attempted']} failed={result['failed']}")
        ok &= result["correct"]
        ok &= _same_names("end_to_end", result["metrics"])

        _, first, rec_a = bench(name, args.seed, args.seconds, 1)
        _, second, rec_b = bench(name, args.seed, args.seconds, 1)
        ok &= first["correct"] and second["correct"]
        ok &= _same_names("per_layer", first["metrics"])
        print(f"# traced pass of {name}: {len(rec_a['traced_ops'])} "
              f"operations; tracing overhead "
              f"{first['metrics']['trace.overhead']['value']:+.3f} "
              f"(traced wall / untraced wall - 1)")
        for metric, value in first["metrics"].items():
            print(f"layer {metric} = {value['value']:.6g} {value['unit']}")
        diffs = [key for key in ("exact_counts", "csv_sha256", "lambda_star")
                 if rec_a[key] != rec_b[key]]
        if diffs:
            ok = False
            print(f"determinism: FAIL, traced runs differ in {diffs}")
        else:
            print(f"determinism: pass ({len(rec_a['exact_counts'])} exact "
                  f"counts, {len(rec_a['csv_sha256'])} CSVs and lambda* "
                  f"identical across two traced runs)")
        print()
    print("suite: " + ("pass" if ok else "FAIL"))
    return 0 if ok else 1


def _same_names(key: str, metrics: dict) -> bool:
    expected = _expected(key)
    if sorted(expected) == sorted(metrics):
        return True
    print(f"BENCHMARK.json {key} names differ from the run's metrics: "
          f"missing {sorted(set(metrics) - set(expected))}, "
          f"extra {sorted(set(expected) - set(metrics))}")
    return False


if __name__ == "__main__":
    sys.exit(main())
