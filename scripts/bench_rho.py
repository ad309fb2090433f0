"""Time and check the Dickman rho table build at one or more revisions.

Each revision runs in child processes of its own: "." is this checkout's
src/, anything else is a git revision whose src/ is extracted first.
Per revision the report holds:

- build: specfun.build_rho_table() at its defaults, the best of REPEATS
  wall times after a warm-up build, and the tracemalloc peak of one
  more build;
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

import csv
import io
import math
import statistics
import sys

import _bench

REPEATS = 5
ORACLE_U = (3.0, 10.0, 20.0, 40.0, 63.5)


def _child(spec: dict) -> dict:
    import tracemalloc

    import numpy as np

    from smoothnum import specfun

    table, times = _bench.timed(specfun.build_rho_table, repeats=spec["repeats"])
    tracemalloc.start()
    specfun.build_rho_table()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    np.save(spec["out"], table.log_rho)
    return {
        "numpy": np.__version__,
        "build_best_s": min(times),
        "build_s": times,
        "tracemalloc_peak_mib": peak / 2**20,
        "log_rho_at": {str(u): specfun.log_rho(table, u) for u in ORACLE_U},
    }


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


def _revision(args, i, env, scratch) -> dict:
    """The run of the i-th revision; its rho table and theorem1 CSV are
    kept in scratch, where later revisions compare against the first's."""
    import numpy as np

    repeats = 1 if args.tiny else REPEATS
    theorem1 = _bench.theorem1(args.tiny)
    run = _bench.child({"repeats": repeats, "out": str(scratch / f"log_rho_{i}.npy")}, env)
    lambda_runs = [_bench.cli(_bench.LAMBDA, env) for _ in range(repeats)]
    run["lambda_cmd"] = "smoothnum " + " ".join(_bench.LAMBDA)
    run["lambda_median_s"] = statistics.median(t for t, _ in lambda_runs)
    run["lambda_stdout"] = lambda_runs[0][1].strip()
    (scratch / f"theorem1_{i}.csv").write_text(_bench.cli(theorem1, env)[1])
    run["theorem1_cmd"] = "smoothnum " + " ".join(theorem1)

    log_rho, base_rho = (np.load(scratch / f"log_rho_{k}.npy") for k in (i, 0))
    grid_csv, base_csv = ((scratch / f"theorem1_{k}.csv").read_text() for k in (i, 0))
    run["vs_rev"] = args.rev[0]
    run["max_abs_dlog_rho_vs_rev"] = float(np.max(np.abs(log_rho - base_rho)))
    run["theorem1_max_rel_change_vs_rev"] = _column_changes(base_csv, grid_csv)
    run["theorem1_psi_exact_identical_vs_rev"] = [
        row["psi_exact"] for row in csv.DictReader(io.StringIO(grid_csv))
    ] == [row["psi_exact"] for row in csv.DictReader(io.StringIO(base_csv))]
    return run


def _finish(args, runs) -> dict:
    sys.path.insert(0, str(_bench.ROOT / "tests"))
    import oracles

    oracle = {u: oracles.dickman_log_rho(u) for u in ORACLE_U}
    for run in runs:
        run["max_abs_dlog_rho_vs_oracle"] = max(
            abs(run["log_rho_at"][str(u)] - want) for u, want in oracle.items()
        )
    return {"oracle_log_rho": {str(u): v for u, v in oracle.items()}}


def _line(run) -> str:
    return (
        f"{run['rev']}: build {run['build_best_s'] * 1e3:.1f} ms, "
        f"peak {run['tracemalloc_peak_mib']:.2f} MiB, "
        f"|dlog rho| {run['max_abs_dlog_rho_vs_rev']:.1e} vs {run['vs_rev']}, "
        f"{run['max_abs_dlog_rho_vs_oracle']:.1e} vs oracle, "
        f"lambda CLI {run['lambda_median_s']:.3f} s"
    )


if __name__ == "__main__":
    sys.exit(_bench.main(
        __doc__, "Dickman rho table build: time, memory and accuracy", "BENCH_rho.json",
        _child, _revision, _line,
        tiny="one run per timing and a two-point grid, for a smoke run", finish=_finish,
    ))
