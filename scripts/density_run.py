"""Monte Carlo logarithmic densities of the smooth-count race.

First reproduces the pi-vs-Li calibration density with the leading 1000
ordinates (expected 0.999999 at the default seed), then sweeps beta0 and
prints the density with which the exact count exceeds the de Bruijn
value in the random model.  Densities sit near 1 because the constant
term 1/(2*beta0 - 1) dominates the truncated oscillation.
"""

import argparse
import os
import sys

from smoothnum import bias, zetazeros
from smoothnum.errors import ParseError, RangeError


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--zeros", default=os.path.join("fixtures", "zeros1e4.txt"))
    parser.add_argument("--ordinates", type=int, default=1000)
    parser.add_argument("--n-samples", type=int, default=1_000_000)
    parser.add_argument("--seed", type=int, default=16)
    parser.add_argument(
        "--beta0-list", default="0.6,0.7,0.75,0.8,0.9",
        help="comma-separated saddle exponents to sweep",
    )
    args = parser.parse_args()

    try:
        zeros = zetazeros.load_zeros(args.zeros)
        big_t = zeros.leading_height(args.ordinates)
    except ParseError as exc:
        print(exc, file=sys.stderr)
        return 2
    except RangeError as exc:
        print(exc, file=sys.stderr)
        return 3

    cfg = bias.BiasConfig(beta0=0.75, T=big_t, seed=args.seed, n_samples=args.n_samples)
    cal = bias.li_density(cfg, zeros, calibration=True)
    print(f"calibration: density={cal.density:.6f} stderr={cal.stderr:.2e} "
          f"(seed={cal.seed}, n={cal.n_samples}, {args.ordinates} ordinates)")

    for tok in args.beta0_list.split(","):
        beta0 = float(tok)
        cfg = bias.BiasConfig(beta0=beta0, T=big_t, seed=args.seed, n_samples=args.n_samples)
        est = bias.li_density(cfg, zeros)
        print(f"beta0={beta0:.2f}: density={est.density:.6f} stderr={est.stderr:.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
