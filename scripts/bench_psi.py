"""Time psi_exact, phase by phase, at one or more revisions of the package.

Each revision runs in child processes of its own, one per section, so
every section's peak RSS is its own: "." is this checkout's src/,
anything else is a git revision whose src/ is extracted first.  The
sections are:

- grid: the README verify-theorem1 grid (beta0 = 0.7 and 0.8, eight y
  from 500 to 5000, points above x = 10^12 skipped).  Per point the
  child times the fold and the rough-tree walk of psi_exact separately,
  REPEATS times, keeping the medians, and records the fold-list size,
  the first rough prime p0, the leaf table's width V (None at revisions
  without one) and the count.
- big: the points (10^11, 10^4) and (10^12, 10^5), the corner of the
  psi_exact envelope, each timed once in a child of its own, so each
  has its own peak RSS.
- bias-scan: the README bias-scan command, timed once end to end; the
  sha256 of its CSV shows whether two revisions print the same bytes.

--tiny keeps two cheap grid points and drops the other sections.

    python scripts/bench_psi.py --rev 687b01c --rev . --out BENCH_psi.json
"""

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from bench_lambda import ROOT, _machine, _src_of

REPEATS = 3
GRID = {"y_min": 500.0, "y_max": 5000.0, "n_points": 8, "beta0": [0.7, 0.8]}
TINY_GRID = {"y_min": 500.0, "y_max": 694.748, "n_points": 2, "beta0": [0.8]}
MAX_X = 10**12
BIG = [(10**11, 10**4), (10**12, 10**5)]
BIAS_SCAN = [
    "bias-scan", "--beta0", "0.75", "--y-min", "1000", "--y-max", "3800",
    "--n-points", "12", "--zeros", str(ROOT / "fixtures" / "zeros1e4.txt"),
    "--T", "1000",
]


def _child(section: str, spec) -> dict:
    import contextlib
    import hashlib
    import io
    import resource
    import statistics
    import time

    import numpy as np

    from smoothnum import cli, primes, smoothcount

    def phases(x, y, pt):
        top = int(np.searchsorted(pt.primes, y, side="right"))
        fold_s, tree_s = [], []
        for _ in range(REPEATS if section == "grid" else 1):
            start = time.perf_counter()
            smooth, first = smoothcount._fold_list(pt.primes[:top], x)
            mid = time.perf_counter()
            rough = pt.primes[first:top].astype(np.int64)
            count = smoothcount._walk_rough_tree(smooth, rough, x) if rough.size else smooth.size
            fold_s.append(mid - start)
            tree_s.append(time.perf_counter() - mid)
        table = getattr(smoothcount, "_leaf_table", None)
        width = (
            int(table(smooth, rough, x, smooth.nbytes).shape[1])
            if table and rough.size else None
        )
        return {
            "x": x, "y": y, "count": int(count), "list_size": int(smooth.size),
            "p0": int(rough[0]) if rough.size else None, "V": width,
            "fold_s": statistics.median(fold_s), "tree_s": statistics.median(tree_s),
        }

    out = {"numpy": np.__version__}
    if section == "bias-scan":
        buf = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = cli.main(spec)
        out.update(
            wall_s=time.perf_counter() - start, exit_code=code,
            csv_sha256=hashlib.sha256(buf.getvalue().encode()).hexdigest(),
        )
    else:
        pt = primes.sieve(max(y for _, y in spec))
        out["points"] = [phases(x, y, pt) for x, y in spec]
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return out


def _grid_points(grid: dict) -> list:
    """(x, y) of the verify-theorem1 grid as psi_exact receives them."""
    from smoothnum import bias, cli

    ys = cli._log_grid(grid["y_min"], grid["y_max"], grid["n_points"])
    points = []
    for beta0 in grid["beta0"]:
        for y in ys:
            x = int(math.exp(bias.x_of_y(y, beta0)))
            if x <= MAX_X:
                points.append((x, int(y)))
    return points


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--rev", action="append", default=None,
                        help='revision to time, repeatable; "." is the working tree')
    parser.add_argument("--out", default="BENCH_psi.json")
    parser.add_argument("--tiny", action="store_true",
                        help="two cheap grid points only, for a smoke run")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.child:
        section, spec = json.loads(args.child)
        json.dump(_child(section, spec), sys.stdout)
        return 0

    sys.path[:0] = [str(ROOT / "src")]
    jobs = [("grid", _grid_points(TINY_GRID if args.tiny else GRID))]
    if not args.tiny:
        jobs += [("big", [point]) for point in BIG] + [("bias-scan", BIAS_SCAN)]

    runs = []
    with tempfile.TemporaryDirectory() as scratch:
        for rev in args.rev or ["."]:
            src, commit = _src_of(rev, Path(scratch))
            env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
            run = {"rev": rev, "commit": commit}
            for section, spec in jobs:
                child = subprocess.run(
                    [sys.executable, __file__, "--child", json.dumps([section, spec])],
                    capture_output=True, text=True, env=env, check=True, timeout=3600,
                )
                out = json.loads(child.stdout)
                if section == "big":
                    run.setdefault("big", []).append(out)
                else:
                    run[section] = out
            runs.append(run)

    report = {
        "topic": "psi_exact fold and tree time per point, and end-to-end runs",
        "command": "python scripts/bench_psi.py " + " ".join(sys.argv[1:]),
        "machine": _machine(),
        "blas_threads": 1,
        "runs": runs,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
        handle.write("\n")
    for run in runs:
        points = run["grid"]["points"]
        fold = sum(p["fold_s"] for p in points)
        tree = sum(p["tree_s"] for p in points)
        line = f"{run['rev']}: {len(points)} points, fold {fold:.3f} s, tree {tree:.3f} s"
        for big in run.get("big", []):
            point = big["points"][0]
            line += f"; ({point['x']:.0e}, {point['y']:.0e}) {point['fold_s'] + point['tree_s']:.2f} s"
            line += f" {big['peak_rss_mb']:.0f} MB"
        if "bias-scan" in run:
            line += f"; bias-scan {run['bias-scan']['wall_s']:.1f} s"
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
