"""Time and check the Dickman rho table build at one or more revisions.

Each revision runs in child processes of its own: "." is this checkout's
src/, anything else is a git revision whose src/ is extracted first.
Per revision the report holds:

- build: specfun.build_rho_table() at its defaults, the best of REPEATS
  wall times, and the tracemalloc peak of one more build;
- accuracy: max |delta log rho| against the first revision's table over
  the whole grid, and against tests/oracles.dickman_log_rho (the
  mpmath Taylor route) at the points ORACLE_U;
- lambda: the median wall time of REPEATS runs of
  `smoothnum lambda --x 1e10 --y 100`, each in a new interpreter, as a
  user runs it, and the value it printed;
- theorem1: the README verify-theorem1 CSV.  Per column, the largest
  relative change against the first revision's CSV, and whether the
  psi_exact column is byte-identical to it.

--tiny runs each timing once, on a two-point grid, for a smoke run.

    python scripts/bench_rho.py --rev 077f7ad --rev . --out BENCH_rho.json
"""

import argparse
import csv
import io
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_lambda import ROOT, _machine, _src_of

REPEATS = 5
ORACLE_U = (3.0, 10.0, 20.0, 40.0, 63.5)
LAMBDA = ["lambda", "--x", "1e10", "--y", "100"]
THEOREM1 = [
    "verify-theorem1", "--y-min", "500", "--y-max", "5000", "--n-points", "8",
    "--beta0", "0.7,0.8", "--skip-infeasible",
]
TINY_THEOREM1 = [
    "verify-theorem1", "--y-min", "500", "--y-max", "694.748", "--n-points", "2",
    "--beta0", "0.8",
]


def _child(repeats: int, out: str) -> dict:
    import time
    import tracemalloc

    import numpy as np

    from smoothnum import specfun

    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        table = specfun.build_rho_table()
        times.append(time.perf_counter() - start)
    tracemalloc.start()
    specfun.build_rho_table()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    np.save(out, table.log_rho)
    return {
        "numpy": np.__version__,
        "build_best_s": min(times),
        "build_s": times,
        "tracemalloc_peak_mib": peak / 2**20,
        "log_rho_at": {str(u): specfun.log_rho(table, u) for u in ORACLE_U},
    }


def _cli(args: list, env: dict) -> tuple:
    """(wall seconds, stdout) of one CLI run in a new interpreter."""
    start = time.perf_counter()
    run = subprocess.run(
        [sys.executable, "-m", "smoothnum.cli", *args],
        capture_output=True, text=True, env=env, check=True, timeout=600,
    )
    return time.perf_counter() - start, run.stdout


def _column_changes(base: str, csv_text: str) -> dict:
    """Per column, the largest |new - old| / |old| over the rows."""
    old_rows = list(csv.DictReader(io.StringIO(base)))
    new_rows = list(csv.DictReader(io.StringIO(csv_text)))
    if len(old_rows) != len(new_rows):
        raise ValueError("the two CSVs have different row counts")
    changes = {}
    for column in old_rows[0] if old_rows else []:
        worst = 0.0
        for old, new in zip(old_rows, new_rows):
            a, b = old[column], new[column]
            if a == b:
                continue
            a, b = float(a), float(b)
            worst = max(worst, abs(b - a) / abs(a) if a else math.inf)
        changes[column] = worst
    return changes


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--rev", action="append", default=None,
                        help='revision to time, repeatable; "." is the working tree')
    parser.add_argument("--out", default="BENCH_rho.json")
    parser.add_argument("--tiny", action="store_true",
                        help="one run per timing and a two-point grid, for a smoke run")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.child:
        spec = json.loads(args.child)
        json.dump(_child(spec["repeats"], spec["out"]), sys.stdout)
        return 0

    import numpy as np

    sys.path[:0] = [str(ROOT / "tests")]
    import oracles

    repeats = 1 if args.tiny else REPEATS
    theorem1 = TINY_THEOREM1 if args.tiny else THEOREM1
    oracle = {u: oracles.dickman_log_rho(u) for u in ORACLE_U}

    runs = []
    with tempfile.TemporaryDirectory() as scratch:
        first = None
        for i, rev in enumerate(args.rev or ["."]):
            src, commit = _src_of(rev, Path(scratch))
            env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
            saved = str(Path(scratch) / f"log_rho_{i}.npy")
            spec = json.dumps({"repeats": repeats, "out": saved})
            child = subprocess.run(
                [sys.executable, __file__, "--child", spec],
                capture_output=True, text=True, env=env, check=True, timeout=600,
            )
            run = dict(json.loads(child.stdout), rev=rev, commit=commit)
            log_rho = np.load(saved)
            run["max_abs_dlog_rho_vs_oracle"] = max(
                abs(run["log_rho_at"][str(u)] - want) for u, want in oracle.items()
            )

            lambda_runs = [_cli(LAMBDA, env) for _ in range(repeats)]
            run["lambda_cmd"] = "smoothnum " + " ".join(LAMBDA)
            run["lambda_median_s"] = statistics.median(t for t, _ in lambda_runs)
            run["lambda_stdout"] = lambda_runs[0][1].strip()
            _, grid_csv = _cli(theorem1, env)
            run["theorem1_cmd"] = "smoothnum " + " ".join(theorem1)

            if first is None:
                first = {"rev": rev, "log_rho": log_rho, "csv": grid_csv}
            run["vs_rev"] = first["rev"]
            run["max_abs_dlog_rho_vs_rev"] = float(np.max(np.abs(log_rho - first["log_rho"])))
            run["theorem1_max_rel_change_vs_rev"] = _column_changes(first["csv"], grid_csv)
            run["theorem1_psi_exact_identical_vs_rev"] = [
                row["psi_exact"] for row in csv.DictReader(io.StringIO(grid_csv))
            ] == [row["psi_exact"] for row in csv.DictReader(io.StringIO(first["csv"]))]
            runs.append(run)

    report = {
        "topic": "Dickman rho table build: time, memory and accuracy",
        "command": "python scripts/bench_rho.py " + " ".join(sys.argv[1:]),
        "machine": _machine(),
        "blas_threads": 1,
        "oracle_log_rho": {str(u): v for u, v in oracle.items()},
        "runs": runs,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
        handle.write("\n")
    for run in runs:
        print(
            f"{run['rev']}: build {run['build_best_s'] * 1e3:.1f} ms, "
            f"peak {run['tracemalloc_peak_mib']:.2f} MiB, "
            f"|dlog rho| {run['max_abs_dlog_rho_vs_rev']:.1e} vs {run['vs_rev']}, "
            f"{run['max_abs_dlog_rho_vs_oracle']:.1e} vs oracle, "
            f"lambda CLI {run['lambda_median_s']:.3f} s"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
