"""Smooth-number counts and their analytic approximations.

Layers, bottom to top:

- zetazeros: zeta off the critical line, a continuous log branch,
  zero-table ingestion, and zero sums;
- specfun: the Dickman function (table + interpolation), its Laplace
  transform, the saddle-point solver, and the zeta-based K factor;
- primes: sieves, Chebyshev psi, truncated Euler products;
- debruijn: the refined approximation Lambda(x, y) two independent ways;
- smoothcount: exact Psi(x, y) and the weighted variants;
- gfactor: the correction factor G = zeta(s,y)/F(s,y) assembled along
  two routes, and the corrected prediction Lambda * G;
- bias: the pinned-saddle curve x(y), normalized deviations, the
  zero-sum model and its prediction of Psi/Lambda, and Monte Carlo
  logarithmic densities;
- cli: deterministic command-line front end (import smoothnum.cli).
"""

from . import bias, debruijn, gfactor, primes, smoothcount, specfun, zetazeros
from .bias import BiasConfig, DensityEstimate, li_density, model_rhs, psiover_rhs, x_of_y
from .debruijn import LambdaResult, lambda_atom_sum, lambda_ibp, lambda_xy
from .errors import (
    DomainError,
    ParseError,
    PoleError,
    RangeError,
    ResourceError,
    SingularityError,
    SmoothnumError,
)
from .gfactor import GBreakdown, corrected_prediction, g_value
from .primes import PrimeTable, chebyshev_psi, partial_zeta, sieve
from .smoothcount import alpha_summatory, psi_exact
from .specfun import RhoTable, build_rho_table, default_rho_table, rho, saddle, xi
from .zetazeros import ZeroList, load_zeros, riemann_zeta, zero_sum

__version__ = "0.1.0"

__all__ = [
    "bias",
    "debruijn",
    "gfactor",
    "primes",
    "smoothcount",
    "specfun",
    "zetazeros",
    "BiasConfig",
    "DensityEstimate",
    "li_density",
    "model_rhs",
    "psiover_rhs",
    "x_of_y",
    "LambdaResult",
    "lambda_atom_sum",
    "lambda_ibp",
    "lambda_xy",
    "DomainError",
    "ParseError",
    "PoleError",
    "RangeError",
    "ResourceError",
    "SingularityError",
    "SmoothnumError",
    "GBreakdown",
    "corrected_prediction",
    "g_value",
    "PrimeTable",
    "chebyshev_psi",
    "partial_zeta",
    "sieve",
    "alpha_summatory",
    "psi_exact",
    "RhoTable",
    "build_rho_table",
    "default_rho_table",
    "rho",
    "saddle",
    "xi",
    "ZeroList",
    "load_zeros",
    "riemann_zeta",
    "zero_sum",
    "__version__",
]
