"""Correction factor linking the exact smooth count to the de Bruijn
approximation.

At the saddle point beta the truncated Euler product splits as

    log zeta(s, y) = log F(s, y) + log G1(s, y) + log G2(s, y)

where F is the transform-side normalization (see debruijn.f_transform),
G1 carries the prime-counting error psi(y) - y (and hence the zeta-zero
oscillations), and G2 the k >= 2 tail over prime powers p^k > y,
isolated in primes.log_g2.  The product G = G1*G2 multiplies the de
Bruijn main term.  Production callers take the direct route, g_direct,
which reads log zeta(s, y) from primes.partial_zeta (one closed-form
-log(1 - p^-s) per prime).  g_value assembles the factored route
beside it from the k-series of prime_power_sum and log_g2, for
`g --breakdown` and the route-identity check of criterion 04, and takes
its direct field from g_direct.  Both fields exponentiate through
_exp_g, the one place where G's float overflow becomes a RangeError.
The zero-sum side of the correction lives in bias.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

from . import primes as primes_mod
from .debruijn import f_transform, lambda_xy
from .errors import DomainError, RangeError
from .primes import PrimeTable
from .specfun import RhoTable, saddle

__all__ = [
    "GBreakdown",
    "g_direct",
    "g_value",
    "corrected_prediction",
]


@dataclass(frozen=True)
class GBreakdown:
    """Both assembly routes for G(s, y); they agree to rounding error.

    log_g1 = sum_{p^k <= y} p^(-ks)/k - log F(s,y), with the log log y
    normalization folded into f_transform.
    """

    log_g1: complex
    log_g2: complex
    g_factored: complex
    g_direct: complex


def _log_f(s, y: float) -> complex:
    """log F(s,y) after the argument checks; f_transform checks zeta's
    domain, so this runs before any prime sum."""
    if complex(s).real <= 0.0:
        raise DomainError(f"need Re s > 0, got {s}")
    if y < 4.0:
        raise DomainError(f"need y >= 4, got {y:g}")
    return f_transform(s, y)


def _exp_g(log_g: complex, s, y: float) -> complex:
    """exp(log_g), or RangeError where G overflows a float (y = 100, s near 1e-300)."""
    try:
        return cmath.exp(log_g)
    except OverflowError:
        raise RangeError(f"G({s}, {y:g}) overflows a float") from None


def g_direct(s, y: float, pt: PrimeTable) -> complex:
    """G(s,y) by the direct quotient exp(log zeta(s,y) - log F(s,y))."""
    log_f = _log_f(s, y)
    return _exp_g(primes_mod.partial_zeta(pt, s, y) - log_f, s, y)


def g_value(s, y: float, pt: PrimeTable) -> GBreakdown:
    """G(s,y) both ways: exp(log_g1 + log_g2) against g_direct.

    The two routes share f_transform but compute the truncated Euler
    product independently (the k-series over prime powers up to y plus
    the k-tail blocks, versus one closed-form -log(1-p^-s) per prime),
    so their agreement exercises the split identity rather than
    restating it.  log_g2's DomainError comes before G's RangeError,
    and both come before the k-series are summed: at small Re s those
    take seconds.  Near a zero of zeta the log branch blows up
    (SingularityError).
    """
    log_f = _log_f(s, y)
    primes_mod._log_g2_plan(pt, s, y)
    direct = g_direct(s, y, pt)
    lg1 = primes_mod.prime_power_sum(pt, s, y) - log_f
    lg2 = primes_mod.log_g2(pt, s, y)
    return GBreakdown(
        log_g1=lg1,
        log_g2=lg2,
        g_factored=_exp_g(lg1 + lg2, s, y),
        g_direct=direct,
    )


def corrected_prediction(x: float, y: float, pt: PrimeTable, table: RhoTable) -> float:
    """Lambda(x,y) * G(beta,y) with beta from the saddle point.

    Smoothness bounds above x degenerate to u = 1: every integer up to x
    counts, the saddle sits at beta = 1, and the prediction collapses to
    floor(x) * G(1, x).  x < 2 or y < 2 is a DomainError from saddle.
    """
    y_eff = min(float(y), float(x))
    sd = saddle(x, y_eff, table)
    lam = lambda_xy(x, y_eff, table)
    g = g_direct(sd.beta, y_eff, pt).real
    return lam * g
