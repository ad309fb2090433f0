"""Smooth-number counts and their analytic approximations.

The package is used through its layer modules (``from smoothnum import
debruijn``; ``debruijn.lambda_xy(...)``); the top level binds no
function, class or error.  Layers, bottom to top:

- zetazeros: zeta off the critical line, a continuous log branch,
  zero-table ingestion, and zero sums;
- specfun: the Dickman function (table + interpolation), its Laplace
  transform, the saddle-point solver, and the zeta-based K factor;
- primes: sieves, Chebyshev psi, truncated Euler products;
- debruijn: the refined approximation Lambda(x, y) and its cross-check;
- smoothcount: exact Psi(x, y) and the alpha weights;
- gfactor: the correction factor G = zeta(s,y)/F(s,y) assembled along
  two routes, and the corrected prediction Lambda * G;
- bias: the pinned-saddle curve x(y), normalized deviations, the
  zero-sum model and its prediction of Psi/Lambda, and Monte Carlo
  logarithmic densities;
- cli: deterministic command-line front end (import smoothnum.cli).
"""

from . import bias, debruijn, gfactor, primes, smoothcount, specfun, zetazeros

__version__ = "0.1.0"

__all__ = [
    "bias", "debruijn", "gfactor", "primes", "smoothcount", "specfun", "zetazeros", "__version__",
]
