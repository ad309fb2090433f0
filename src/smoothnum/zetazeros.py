"""Riemann zeta evaluation and ingestion of tables of zeta zeros.

The zeta evaluator is an Euler-Maclaurin sum tuned for the strip
Re s in [-1, 4] with |Im s| up to 1e5, which covers every use in this
package (the K factor, the F transform, and spot checks against the
first zeros).  Zero ordinates are never computed here: they are read
from plain-text tables (one ascending positive ordinate per line) such
as the bundled fixtures/zeros1e4.txt.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, PoleError, RangeError, SingularityError

# B_{2k} / (2k)! for k = 1..10; corrections through B_20, from the
# exact rationals rather than hand-typed decimals.
_B2K = [
    (1, 6), (-1, 30), (1, 42), (-1, 30), (5, 66),
    (-691, 2730), (7, 6), (-3617, 510), (43867, 798), (-174611, 330),
]
_FACT = [math.factorial(2 * k) for k in range(1, 11)]
_BERN = [num / den / f for (num, den), f in zip(_B2K, _FACT)]

# Stieltjes constants, for zeta(s)(s-1) near s = 1.
_STIELTJES = [
    0.57721566490153286,
    -0.072815845483676725,
    -0.0096903631928723184,
    0.0020538344203033459,
    0.0023253700654673000,
    0.00079332381730106270,
]

MAX_IM = 1.0e5


def _euler_maclaurin(s: complex, want_deriv: bool = False):
    """zeta(s) (and optionally zeta'(s)) away from s = 1."""
    n_terms = int(math.ceil(10 + 2 * abs(s.imag)))
    n = np.arange(1, n_terms, dtype=np.float64)
    log_n = np.log(n)
    powers = np.exp(-s * log_n)
    value = np.sum(powers)
    deriv = -np.sum(log_n * powers) if want_deriv else 0.0

    big_n = float(n_terms)
    log_big = math.log(big_n)
    tail_pole = big_n ** (1 - s) / (s - 1)
    half = 0.5 * big_n ** (-s)
    value += tail_pole + half
    if want_deriv:
        deriv += tail_pole * (-log_big - 1.0 / (s - 1)) - half * log_big

    # Bernoulli corrections: B_2k/(2k)! * s(s+1)...(s+2k-2) * N^(1-s-2k).
    poch = s
    poch_deriv = 1.0 + 0j
    scale = big_n ** (-s - 1)
    for k, coef in enumerate(_BERN, start=1):
        term = coef * poch * scale
        value += term
        if want_deriv:
            deriv += coef * (poch_deriv - poch * log_big) * scale
        if k == len(_BERN):
            break
        factor = (s + 2 * k - 1) * (s + 2 * k)
        poch_deriv = poch_deriv * factor + poch * (2 * s + 4 * k - 1)
        poch = poch * factor
        scale /= big_n * big_n
    return value, deriv


def _validate_domain(s: complex) -> complex:
    s = complex(s)
    if not (-1.0 <= s.real <= 4.0 and abs(s.imag) <= MAX_IM):
        raise RangeError(
            f"zeta evaluation restricted to Re s in [-1, 4], |Im s| <= {MAX_IM:g}; got {s}"
        )
    return s


def riemann_zeta(s) -> complex:
    """zeta(s) on the strip Re s in [-1, 4], |Im s| <= 1e5."""
    s = _validate_domain(s)
    if s == 1:
        raise PoleError("zeta has its pole at s = 1")
    return complex(_euler_maclaurin(s)[0])


def riemann_zeta_prime(s) -> complex:
    s = _validate_domain(s)
    if s == 1:
        raise PoleError("zeta has its pole at s = 1")
    return complex(_euler_maclaurin(s, want_deriv=True)[1])


def zeta_times_s_minus_1(s) -> complex:
    """The entire function zeta(s)(s-1), stable through the pole at s = 1."""
    s = _validate_domain(s)
    d = s - 1
    if abs(d) < 1e-3:
        # Laurent expansion of zeta about s=1 times (s-1).
        acc = 1.0 + 0j
        power = d
        fact = 1.0
        for n, gamma_n in enumerate(_STIELTJES):
            acc += (-1) ** n * gamma_n * power / fact
            power *= d
            fact *= n + 1
        return complex(acc)
    return complex(_euler_maclaurin(s)[0] * d)


_NEAR_ZERO = 1e-7


def log_zeta_times_s_minus_1(s) -> complex:
    """log(zeta(s)(s-1)), real on the positive real axis.

    The branch is fixed by continuing along the vertical segment from
    Re(s) up to s; each step keeps |delta arg| < pi/2, subdividing as
    needed.  Evaluation closer than about 1e-8 to a zeta zero raises
    SingularityError rather than returning a garbage branch.
    """
    s = _validate_domain(s)

    def w_checked(point: complex) -> complex:
        w = zeta_times_s_minus_1(point)
        if abs(w) < _NEAR_ZERO * max(1.0, abs(point)):
            raise SingularityError(f"zeta is (nearly) zero at {point}")
        return w

    sigma = s.real
    w_base = w_checked(complex(sigma, 0.0))
    if w_base.real <= 0:
        # Does not happen for sigma > -1: zeta(sigma)(sigma-1) > 0 there.
        raise SingularityError(f"no real branch point at sigma = {sigma}")
    if s.imag == 0.0:
        return complex(math.log(w_base.real), 0.0)

    total_arg = 0.0
    t_prev, w_prev = 0.0, w_base
    pending = [s.imag]
    steps = 0
    while pending:
        t_next = pending[-1]
        w_next = w_checked(complex(sigma, t_next))
        dphi = cmath.phase(w_next / w_prev)
        if abs(dphi) >= 0.45 * math.pi:
            if steps > 4000:
                raise SingularityError(f"branch tracking failed near {s}")
            pending.append(0.5 * (t_prev + t_next))
            continue
        total_arg += dphi
        t_prev, w_prev = t_next, w_next
        pending.pop()
        steps += 1
    return complex(math.log(abs(w_prev)), total_arg)


@dataclass(frozen=True)
class ZeroList:
    """Positive ordinates of zeta zeros, ascending, complete up to height."""

    gammas: np.ndarray
    height: float

    @property
    def count(self) -> int:
        return int(self.gammas.size)


FIRST_ORDINATE = 14.134725141734694


def load_zeros(path, height: float) -> ZeroList:
    """Read a plain-text zero table and truncate it at the given height.

    The caller asserts the file is complete up to `height`; a
    Riemann-von Mangoldt count check catches grossly inconsistent claims.
    """
    if height <= 0:
        raise RangeError("height must be positive")
    with open(path, "r", encoding="utf-8") as handle:
        raw = handle.read().splitlines()
    values = []
    prev = 0.0
    for lineno, line in enumerate(raw, start=1):
        text = line.strip()
        if not text:
            raise ParseError("blank line in zero table", line=lineno)
        try:
            gamma = float(text)
        except ValueError:
            raise ParseError(f"not a number: {text!r}", line=lineno) from None
        if not math.isfinite(gamma) or gamma <= 0:
            raise ParseError(f"ordinate must be finite and positive: {text}", line=lineno)
        if gamma <= prev:
            raise ParseError(f"ordinates must be strictly ascending: {text}", line=lineno)
        prev = gamma
        values.append(gamma)

    if values and abs(values[0] - FIRST_ORDINATE) > 0.01:
        raise ParseError(
            f"first ordinate {values[0]} does not match the first zeta zero"
        )
    gammas = np.array(values, dtype=np.float64)
    gammas = gammas[gammas <= height]
    if gammas.size:
        # Sanity: |count - N(height)| should be small if the table really is
        # complete up to `height`.  N(T) = T/2pi log(T/2pi e) + 7/8 + O(log T).
        expected = height / (2 * math.pi) * math.log(height / (2 * math.pi * math.e)) + 0.875
        if abs(gammas.size - expected) > max(5.0, 0.05 * expected):
            raise ParseError(
                f"table holds {gammas.size} ordinates below {height:g} "
                f"but about {expected:.0f} were expected"
            )
    return ZeroList(gammas=gammas, height=float(height))


def zero_sum(zeros: ZeroList, y: float, s0, big_t: float) -> complex:
    """Sum of y^rho / (rho - s0) over zeros with 0 < Im rho <= big_t,
    together with the conjugate pair of each.

    For real s0 each pair contributes 2 Re(y^rho/(rho-s0)), so the result
    is exactly real by construction.
    """
    if big_t > zeros.height * (1 + 1e-12):
        raise RangeError(
            f"requested height {big_t:g} exceeds table completeness bound {zeros.height:g}"
        )
    if y <= 1:
        raise RangeError("zero_sum needs y > 1")
    g = zeros.gammas[zeros.gammas <= big_t]
    if g.size == 0:
        return complex(0.0, 0.0)
    log_y = math.log(y)
    sqrt_y = math.sqrt(y)
    phase = g * log_y
    s0 = complex(s0)
    if s0.imag == 0.0:
        a = 0.5 - s0.real
        denom = a * a + g * g
        real_part = 2.0 * sqrt_y * np.sum((np.cos(phase) * a + np.sin(phase) * g) / denom)
        return complex(real_part, 0.0)
    up = np.exp(1j * phase) / (complex(0.5, 0.0) + 1j * g - s0)
    down = np.exp(-1j * phase) / (complex(0.5, 0.0) - 1j * g - s0)
    return complex(sqrt_y * (np.sum(up) + np.sum(down)))
