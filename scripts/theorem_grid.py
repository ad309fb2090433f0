"""Desk-scale grid experiment: exact counts against the corrected prediction.

Runs the verify-theorem1 subcommand over a log-spaced y grid at two
saddle exponents, writing a CSV plus plot data under results/.  Points
whose exact count would blow the resource envelope are skipped; the
default run takes about 3 s on a 2-vCPU Xeon.
"""

import argparse
import os
import sys

from smoothnum.cli import main as cli_main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--y-min", type=float, default=500.0)
    parser.add_argument("--y-max", type=float, default=5000.0)
    parser.add_argument("--n-points", type=int, default=8)
    parser.add_argument("--beta0", default="0.7,0.8")
    parser.add_argument("--zeros", default=None, help="optional zero table for the model column")
    parser.add_argument("--outdir", default="results")
    args = parser.parse_args()

    os.makedirs(args.outdir, exist_ok=True)
    argv = [
        "verify-theorem1",
        "--y-min", str(args.y_min),
        "--y-max", str(args.y_max),
        "--n-points", str(args.n_points),
        "--beta0", args.beta0,
        "--skip-infeasible",
        "--out", os.path.join(args.outdir, "theorem_grid.csv"),
        "--plot", os.path.join(args.outdir, "theorem_grid"),
    ]
    if args.zeros:
        argv += ["--zeros", args.zeros]
    rc = cli_main(argv)
    if rc == 0:
        print(f"wrote {args.outdir}/theorem_grid.csv and plot data")
    return rc


if __name__ == "__main__":
    sys.exit(main())
