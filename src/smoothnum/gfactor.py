"""Correction factor linking the exact smooth count to the de Bruijn
approximation.

At the saddle point beta the truncated Euler product splits as

    log zeta(s, y) = log F(s, y) + log G1(s, y) + log G2(s, y)

where F is the transform-side normalization (see debruijn.f_transform),
G1 carries the prime-counting error psi(y) - y (and hence the zeta-zero
oscillations), and G2 the prime powers p^k <= y-free tail already
isolated in primes.log_g2.  The product G = G1*G2 multiplies the de
Bruijn main term.  Production callers take the direct route, g_direct;
g_value assembles the factored route beside it, for `g --breakdown` and
the route-identity check of criterion 04.  The module also evaluates
the zero-sum prediction for the corrected ratio.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from . import primes as primes_mod
from .debruijn import f_transform, lambda_xy
from .errors import DomainError
from .primes import PrimeTable
from .specfun import RhoTable, saddle
from .zetazeros import ZeroList, zero_sum

__all__ = [
    "GBreakdown",
    "log_g1",
    "g_direct",
    "g_value",
    "corrected_prediction",
    "psiover_rhs",
]


@dataclass(frozen=True)
class GBreakdown:
    """Both assembly routes for G(s, y); they agree to rounding error."""

    log_g1: complex
    log_g2: complex
    g_factored: complex
    g_direct: complex


def _check_args(s: complex, y: float) -> None:
    if complex(s).real <= 0.0:
        raise DomainError(f"need Re s > 0, got {s}")
    if y < 4.0:
        raise DomainError(f"need y >= 4, got {y:g}")


def log_g1(s, y: float, pt: PrimeTable) -> complex:
    """log G1(s,y) = sum_{p^k <= y} p^(-ks)/k - log F(s,y) with the
    log log y normalization folded into f_transform.

    Near a zero of zeta the log branch blows up (SingularityError).
    """
    _check_args(s, y)
    log_f = f_transform(s, y)  # checks zeta's domain before the prime sum runs
    return primes_mod.prime_power_sum(pt, s, y) - log_f


def g_direct(s, y: float, pt: PrimeTable) -> complex:
    """G(s,y) by the direct quotient exp(log zeta(s,y) - log F(s,y))."""
    _check_args(s, y)
    log_f = f_transform(s, y)  # checks zeta's domain before the Euler product runs
    return cmath.exp(primes_mod.partial_zeta(pt, s, y) - log_f)


def g_value(s, y: float, pt: PrimeTable) -> GBreakdown:
    """G(s,y) both ways: exp(log_g1 + log_g2) against the direct
    quotient exp(log zeta(s,y) - log F(s,y)).

    The two routes share f_transform but compute the truncated Euler
    product independently (prime powers up to y plus the k-tail blocks,
    versus full per-prime -log(1-p^-s) expansions), so their agreement
    exercises the split identity rather than restating it.
    """
    lg1 = log_g1(s, y, pt)
    lg2 = primes_mod.log_g2(pt, s, y)
    return GBreakdown(
        log_g1=lg1,
        log_g2=lg2,
        g_factored=cmath.exp(lg1 + lg2),
        g_direct=g_direct(s, y, pt),
    )


def corrected_prediction(x: float, y: float, pt: PrimeTable, table: RhoTable) -> float:
    """Lambda(x,y) * G(beta,y) with beta from the saddle point.

    Smoothness bounds above x degenerate to u = 1: every integer up to x
    counts, the saddle sits at beta = 1, and the prediction collapses to
    floor(x) * G(1, x).
    """
    if x < 2.0 or y < 2.0:
        raise DomainError(f"need x >= 2 and y >= 2, got x={x:g}, y={y:g}")
    y_eff = min(float(y), float(x))
    sd = saddle(x, y_eff, table)
    lam = lambda_xy(x, y_eff, table)
    g = g_direct(sd.beta, y_eff, pt).real
    return lam * g


def psiover_rhs(
    x: float,
    y: float,
    big_t: float,
    zeros: ZeroList,
    table: RhoTable,
) -> float:
    """Zero-sum prediction for the corrected ratio Psi/Lambda:

        1 + y^(-beta)/log y * ( -sum_{|Im rho| <= T} y^rho/(rho - beta)
                                + y^(1/2)/(2 beta - 1) )

    beta is the saddle abscissa of (x, y).  The 1/(2 beta - 1) term
    degenerates as beta -> 1/2, so the saddle must stay clear of the
    critical line (beta >= 0.55).
    """
    sd = saddle(x, y, table)
    beta = sd.beta
    if beta < 0.55:
        raise DomainError(
            f"saddle abscissa {beta:.6f} too close to 1/2 (need beta >= 0.55)"
        )
    zsum = zero_sum(zeros, y, beta, big_t)
    log_y = math.log(y)
    main = -zsum + math.sqrt(y) / (2.0 * beta - 1.0)
    return 1.0 + y ** (-beta) / log_y * main
