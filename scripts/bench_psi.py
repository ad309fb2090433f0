"""Time psi_exact, phase by phase, at one or more revisions of the package.

Each revision runs in child processes of its own, one per section, so
every section's peak RSS is its own: "." is this checkout's src/,
anything else is a git revision whose src/ is extracted first.  The
sections are:

- grid: the README verify-theorem1 grid (beta0 = 0.7 and 0.8, eight y
  from 500 to 5000, points above x = 10^12 skipped).  Per point the
  child records fold_peak_mb, the tracemalloc peak of one untimed fold
  (the bytes numpy's arrays hold at once while the list is built,
  without the sort's scratch), then times the fold and the rough-tree
  walk of psi_exact separately, REPEATS times after a warm-up call,
  keeping the medians, and records the fold-list size, the first rough
  prime p0, the count, and the width V, the rows and the median build
  time of the leaf table that the walk itself built (None without rough
  primes).  One more untimed walk counts the leaf columns and the leaf
  charges, the (node, c) pairs of those columns, that _charge_leaves
  takes on each path: wide_columns and wide_leaves on the
  scalar-divisor path, narrow_columns and narrow_leaves in the flat
  gather (columns of at most _NARROW_COLUMN_NODES nodes; a revision
  without that constant charges every column as wide).  An inner
  child's pair is counted too; the table's sentinel charges it 0.
- big: the points (10^11, 10^4), (10^12, 10^4) and (10^12, 10^5), the
  corner of the psi_exact envelope, measured the same way, each in a
  child of its own, so each has its own peak RSS.
- verify-theorem1 and bias-scan: the README commands, each timed once
  end to end through cli.main in a child of its own (the grid section
  above times each point alone, so only these show what one command
  shares between its points); the sha256 of each CSV shows whether two
  revisions print the same bytes.

--tiny keeps two cheap grid points and drops the other sections.

    python scripts/bench_psi.py --rev dd25c9f --rev . --out BENCH_psi.json
"""

import math
import sys

import _bench

REPEATS = 3
MAX_X = 10**12
BIG = [(10**11, 10**4), (10**12, 10**4), (10**12, 10**5)]
# README commands timed end to end, by section name.
END_TO_END = {"verify-theorem1": _bench.theorem1(False), "bias-scan": _bench.BIAS_SCAN}


def _child(job: list) -> dict:
    import contextlib
    import hashlib
    import io
    import resource
    import statistics
    import time
    import tracemalloc

    import numpy as np

    from smoothnum import cli, primes, smoothcount

    section, spec = job
    # Record each leaf table the walk builds: its shape and build time.
    tables = []
    build = smoothcount._leaf_table

    def recorded(*args):
        start = time.perf_counter()
        table = build(*args)
        tables.append((table.shape, time.perf_counter() - start))
        return table

    smoothcount._leaf_table = recorded

    # Count each leaf column, and its (node, c) pairs, by charge path.
    narrow_nodes = getattr(smoothcount, "_NARROW_COLUMN_NODES", 0)
    charged = {}
    charge = smoothcount._charge_leaves

    def counted(budget, cap, rough, table):
        nodes = np.searchsorted(-cap, -np.arange(int(cap[0])), side="left")
        for path, n in (("wide", nodes[nodes > narrow_nodes]), ("narrow", nodes[nodes <= narrow_nodes])):
            charged[path + "_columns"] += int(n.size)
            charged[path + "_leaves"] += int(n.sum())
        return charge(budget, cap, rough, table)

    def phases(x, y, pt):
        top = int(np.searchsorted(pt.primes, y, side="right"))
        tracemalloc.start()
        smoothcount._fold_list(pt.primes[:top], x)
        fold_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        (smooth, first), fold_s = _bench.timed(
            smoothcount._fold_list, pt.primes[:top], x, repeats=REPEATS
        )
        rough = pt.primes[first:top].astype(np.int64)
        charged.update(dict.fromkeys(
            ("wide_columns", "wide_leaves", "narrow_columns", "narrow_leaves"), 0
        ))
        if rough.size:
            smoothcount._charge_leaves = counted
            smoothcount._walk_rough_tree(smooth, rough, x)
            smoothcount._charge_leaves = charge
        tables.clear()
        count, tree_s = (
            _bench.timed(smoothcount._walk_rough_tree, smooth, rough, x, repeats=REPEATS)
            if rough.size else (smooth.size, [0.0])
        )
        # The leaf table's last column is a zero sentinel.
        (rows, width), _ = tables[-1] if tables else ((None, None), None)
        return {
            "x": x, "y": y, "count": int(count), "list_size": int(smooth.size),
            "p0": int(rough[0]) if rough.size else None,
            "V": width - 1 if width else None, "table_rows": rows,
            "table_s": statistics.median(t for _, t in tables) if tables else None,
            "fold_s": statistics.median(fold_s), "tree_s": statistics.median(tree_s),
            "fold_peak_mb": fold_peak / (1 << 20), **charged,
        }

    out = {"numpy": np.__version__}
    if section in END_TO_END:
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


def _grid_points(argv: list) -> list:
    """(x, y) of a verify-theorem1 command's grid as psi_exact receives them."""
    from smoothnum import bias, cli

    args = cli._parse_args(argv)
    ys = cli._log_grid(args.y_min, args.y_max, args.n_points)
    points = []
    for beta0 in args.beta0.split(","):
        for y in ys:
            x = int(math.exp(bias.x_of_y(y, float(beta0))))
            if x <= MAX_X:
                points.append((x, int(y)))
    return points


def _revision(args, i, env, scratch) -> dict:
    run = {"grid": _bench.child(["grid", _grid_points(_bench.theorem1(args.tiny))], env)}
    if not args.tiny:
        run["big"] = [_bench.child(["big", [point]], env) for point in BIG]
        for name, argv in END_TO_END.items():
            run[name] = _bench.child([name, argv], env)
    return run


def _line(run) -> str:
    points = run["grid"]["points"]
    fold = sum(p["fold_s"] for p in points)
    tree = sum(p["tree_s"] for p in points)
    line = f"{run['rev']}: {len(points)} points, fold {fold:.3f} s, tree {tree:.3f} s"
    line += f", fold peak {max(p['fold_peak_mb'] for p in points):.1f} MB"
    line += f", narrow leaves {sum(p['narrow_leaves'] for p in points)}"
    line += f" of {sum(p['wide_leaves'] + p['narrow_leaves'] for p in points)}"
    for big in run.get("big", []):
        point = big["points"][0]
        line += f"; ({point['x']:.0e}, {point['y']:.0e}) {point['fold_s'] + point['tree_s']:.2f} s"
        line += f" {big['peak_rss_mb']:.0f} MB"
    for name in END_TO_END:
        if name in run:
            line += f"; {name} {run[name]['wall_s']:.2f} s"
    return line


if __name__ == "__main__":
    sys.exit(_bench.main(
        __doc__, "psi_exact fold and tree time per point, and end-to-end runs", "BENCH_psi.json",
        _child, _revision, _line, tiny="two cheap grid points only, for a smoke run",
    ))
