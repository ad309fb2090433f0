"""Time Lambda(x, y) per point at one or more revisions of the package.

Each revision runs in its own child process: "." is this checkout's
src/, anything else is a git revision whose src/ is extracted first.
Per point the child builds the rho table, makes one warm-up call, then
times REPEATS calls of debruijn.lambda_xy and keeps the median; it also
counts the rho points that one call interpolates (rho_points), one per
point that reaches the kernel specfun._interp_log_rho: an array counts
its size and a single float counts one.  Every rho, rho' and derivative
bound passes through that kernel.  Older revisions send a float through
specfun._interp_log_rho_scalar instead, counted as one point per call
where a revision has it.  At each point it also times
the two routes of the correction factor G at the saddle beta of (x, y),
gfactor.g_direct and gfactor.g_value, and keeps each one's median.  The
points are the benchmark's prediction-sweep grid at seed 0.  The FAR_X
points, at y = x^(1/3), run at the last revision only; there the signed
criterion-05 deviation Lambda / debruijn.lambda_asymptotic - 1 (the
first-order form x rho(3) K(-xi(3)/log y)) is recorded too.  Every run
records whether each of its Lambda values has the same float.hex as at
the first --rev (lambda_identical_vs_rev, over the points both ran).

    python scripts/bench_lambda.py --rev 752d3ce --rev . --out BENCH_lambda.json
"""

import statistics
import sys

import _bench

REPEATS = 5
FAR_X = (1e20, 1e25, 1e30)


def _child(spec: dict) -> dict:
    import resource

    import numpy as np

    from smoothnum import debruijn, gfactor, primes, specfun

    table = specfun.default_rho_table()
    pt = primes.sieve(int(max(y for _, y in spec["points"])))
    evaluated = []

    def counted(kernel):
        def counting(tab, u):
            evaluated.append(np.size(u))
            return kernel(tab, u)
        return counting

    # kernel name -> (the kernel, a stand-in that counts its points)
    kernels = {
        name: (getattr(specfun, name), counted(getattr(specfun, name)))
        for name in ("_interp_log_rho", "_interp_log_rho_scalar")
        if hasattr(specfun, name)
    }

    def median(call, *args):
        return statistics.median(_bench.timed(call, *args, repeats=REPEATS)[1])

    def measure(x, y):
        lam, times = _bench.timed(debruijn.lambda_xy, x, y, table, repeats=REPEATS)
        evaluated.clear()
        for name, (_, counting) in kernels.items():
            setattr(specfun, name, counting)
        try:
            debruijn.lambda_xy(x, y, table)
        finally:
            for name, (kernel, _) in kernels.items():
                setattr(specfun, name, kernel)
        return {
            "x": x, "y": y, "lambda": lam,
            "median_s": statistics.median(times), "min_s": min(times),
            "rho_points": int(sum(evaluated)),
        }

    rows = []
    for x, y in spec["points"]:
        row = measure(x, y)
        # The table is passed for --rev runs of older revisions, whose saddle requires one.
        beta = row["beta"] = specfun.saddle(x, y, table).beta
        row["g_direct_median_s"] = median(gfactor.g_direct, beta, y, pt)
        row["g_value_median_s"] = median(gfactor.g_value, beta, y, pt)
        rows.append(row)
    far_rows = []
    for x in spec["far"]:
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


def _revision(args, i, env, scratch) -> dict:
    from perfbench.workloads import SWEEP_X, SWEEP_Y

    points = [(x, y) for y in SWEEP_Y for x in SWEEP_X]
    far = list(FAR_X) if i == len(args.rev) - 1 else []
    return _bench.child({"points": points, "far": far}, env)


def _finish(args, runs) -> dict:
    first = runs[0]
    for run in runs:
        run["vs_rev"] = first["rev"]
        run["lambda_identical_vs_rev"] = all(
            float.hex(p["lambda"]) == float.hex(q["lambda"])
            for part in ("points", "far_points")
            for p, q in zip(run[part], first[part])
        )
    return {}


def _line(run) -> str:
    lam, direct, value = (
        sum(p[key] for p in run["points"])
        for key in ("median_s", "g_direct_median_s", "g_value_median_s")
    )
    return (f"{run['rev']}: {len(run['points'])} points, {lam:.4f} s in lambda_xy, "
            f"{direct:.4f} s in g_direct, {value:.4f} s in g_value, "
            f"Lambda identical to {run['vs_rev']}: {run['lambda_identical_vs_rev']}")


if __name__ == "__main__":
    sys.exit(_bench.main(
        __doc__, "lambda_xy cost and accuracy per point", "BENCH_lambda.json",
        _child, _revision, _line, finish=_finish,
    ))
