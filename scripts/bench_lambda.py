"""Time Lambda(x, y) per point at one or more revisions of the package.

Each revision runs in its own child process: "." is this checkout's
src/, anything else is a git revision whose src/ is extracted first.
Per point the child builds the rho table, makes one warm-up call, then
times REPEATS calls of debruijn.lambda_xy and keeps the median; it also
counts the rho' evaluations of one call.  At each point it also times
the two routes of the correction factor G at the saddle beta of (x, y),
gfactor.g_direct and gfactor.g_value, and keeps each one's median.  The
points are the benchmark's prediction-sweep grid at seed 0.  The FAR_X
points, at y = x^(1/3), run at the last revision only; there the signed
criterion-05 deviation Lambda / debruijn.lambda_asymptotic - 1 (the
first-order form x rho(3) K(-xi(3)/log y)) is recorded too.

    python scripts/bench_lambda.py --rev 2d7c63a --rev . --out BENCH_lambda.json
"""

import argparse
import io
import json
import os
import platform
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
REPEATS = 5
FAR_X = (1e20, 1e25, 1e30)


def _child(points: list, far: list) -> dict:
    import resource
    import statistics
    import time

    import numpy as np

    from smoothnum import debruijn, gfactor, primes, specfun

    table = specfun.default_rho_table()
    pt = primes.sieve(int(max(y for _, y in points)))
    rho_prime = specfun.rho_prime
    evaluated = []

    def counting(tab, u):
        evaluated.append(np.size(u))
        return rho_prime(tab, u)

    def timed(call, *args):
        """(value of a warm-up call, median and min of REPEATS timed calls)"""
        value = call(*args)
        times = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            call(*args)
            times.append(time.perf_counter() - start)
        return value, statistics.median(times), min(times)

    def measure(x, y):
        lam, median, fastest = timed(debruijn.lambda_xy, x, y, table)
        specfun.rho_prime = counting
        evaluated.clear()
        debruijn.lambda_xy(x, y, table)
        specfun.rho_prime = rho_prime
        return {
            "x": x, "y": y, "lambda": lam,
            "median_s": median, "min_s": fastest,
            "rho_prime_evals": int(sum(evaluated)),
        }

    rows = []
    for x, y in points:
        row = measure(x, y)
        beta = row["beta"] = specfun.saddle(x, y, table).beta
        row["g_direct_median_s"] = timed(gfactor.g_direct, beta, y, pt)[1]
        row["g_value_median_s"] = timed(gfactor.g_value, beta, y, pt)[1]
        rows.append(row)
    far_rows = []
    for x in far:
        row = measure(x, x ** (1.0 / 3.0))
        asymptotic = debruijn.lambda_asymptotic(x, row["y"], table)
        row["criterion05_signed_deviation"] = row["lambda"] / asymptotic - 1.0
        far_rows.append(row)
    return {
        "numpy": np.__version__,
        "points": rows,
        "far_points": far_rows,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _src_of(rev: str, scratch: Path) -> tuple:
    """(src directory, commit) for a revision; "." is the working tree."""
    def git(*args):
        return subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, check=True, timeout=120
        ).stdout

    if rev == ".":
        try:
            commit = git("rev-parse", "HEAD").decode().strip() + " + working tree"
        except (OSError, subprocess.SubprocessError):
            commit = "unknown"
        return ROOT / "src", commit
    commit = git("rev-parse", rev).decode().strip()
    with tarfile.open(fileobj=io.BytesIO(git("archive", commit, "src"))) as tar:
        tar.extractall(scratch / commit)
    return scratch / commit / "src", commit


def _machine() -> dict:
    def field(path, key):
        try:
            with open(path, encoding="utf-8") as handle:
                for line in handle:
                    if line.startswith(key):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return "unknown"

    return {
        "cpu_model": field("/proc/cpuinfo", "model name"),
        "nproc": os.cpu_count(),
        "mem_total": field("/proc/meminfo", "MemTotal"),
        "os": platform.platform(),
        "python": platform.python_version(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--rev", action="append", default=None,
                        help='revision to time, repeatable; "." is the working tree')
    parser.add_argument("--out", default="BENCH_lambda.json")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.child:
        spec = json.loads(args.child)
        json.dump(_child(spec["points"], spec["far"]), sys.stdout)
        return 0

    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench.workloads import SWEEP_X, SWEEP_Y

    revs = args.rev or ["."]
    points = [(x, y) for y in SWEEP_Y for x in SWEEP_X]
    runs = []
    with tempfile.TemporaryDirectory() as scratch:
        for i, rev in enumerate(revs):
            src, commit = _src_of(rev, Path(scratch))
            far = list(FAR_X) if i == len(revs) - 1 else []
            spec = json.dumps({"points": points, "far": far})
            env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
            child = subprocess.run(
                [sys.executable, __file__, "--child", spec],
                capture_output=True, text=True, env=env, check=True, timeout=3600,
            )
            runs.append(dict(json.loads(child.stdout), rev=rev, commit=commit))

    report = {
        "topic": "lambda_xy cost and accuracy per point",
        "command": "python scripts/bench_lambda.py " + " ".join(sys.argv[1:]),
        "machine": _machine(),
        "blas_threads": 1,
        "runs": runs,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
        handle.write("\n")
    for run in runs:
        lam, direct, value = (
            sum(p[key] for p in run["points"])
            for key in ("median_s", "g_direct_median_s", "g_value_median_s")
        )
        print(f"{run['rev']}: {len(run['points'])} points, {lam:.4f} s in lambda_xy, "
              f"{direct:.4f} s in g_direct, {value:.4f} s in g_value")
    return 0


if __name__ == "__main__":
    sys.exit(main())
