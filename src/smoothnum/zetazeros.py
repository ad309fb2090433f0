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


def _euler_maclaurin(s: complex):
    """zeta(s) away from s = 1."""
    n_terms = int(math.ceil(10 + 2 * abs(s.imag)))
    n = np.arange(1, n_terms, dtype=np.float64)
    powers = np.exp(-s * np.log(n))
    value = np.sum(powers)

    big_n = float(n_terms)
    value += big_n ** (1 - s) / (s - 1) + 0.5 * big_n ** (-s)

    # Bernoulli corrections: B_2k/(2k)! * s(s+1)...(s+2k-2) * N^(1-s-2k).
    poch = s
    scale = big_n ** (-s - 1)
    for k, coef in enumerate(_BERN, start=1):
        value += coef * poch * scale
        if k == len(_BERN):
            break
        poch *= (s + 2 * k - 1) * (s + 2 * k)
        scale /= big_n * big_n
    return value


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
    return complex(_euler_maclaurin(s))


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
    return complex(_euler_maclaurin(s) * d)


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

    def up_to(self, big_t: float) -> np.ndarray:
        """The ordinates 0 < gamma <= big_t; RangeError for a negative or
        NaN big_t or one above the height."""
        if not big_t >= 0:
            raise RangeError(f"requested height must be >= 0, got {big_t:g}")
        if big_t > self.height * (1 + 1e-12):
            raise RangeError(
                f"requested height {big_t:g} exceeds table completeness bound {self.height:g}"
            )
        return self.gammas[self.gammas <= big_t]

    def leading_height(self, n: int) -> float:
        """A cutoff T just above the n-th ordinate, so up_to(T) keeps the
        first n; RangeError unless 1 <= n <= count."""
        if n < 1:
            raise RangeError(f"need at least one ordinate, got {n}")
        if n > self.count:
            raise RangeError(f"zero table holds {self.count} ordinates, need {n}")
        return float(self.gammas[n - 1]) * (1 + 1e-12)


FIRST_ORDINATE = 14.134725141734694


def _parse_lines(raw: list) -> list:
    """The ordinates of a zero table's lines, or ParseError at the first
    line that is blank, not a number, not finite and positive, or not
    above the line before."""
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
    return values


def load_zeros(path, height: float | None = None) -> ZeroList:
    """Read a plain-text zero table and truncate it at the given height.

    The caller asserts the file is complete up to `height`, which
    defaults to the last ordinate in the file; a Riemann-von Mangoldt
    count check catches grossly inconsistent claims.
    """
    if height is not None and not 0 < height < math.inf:
        raise RangeError("height must be positive" if height <= 0 else "height must be finite")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = handle.read().splitlines()
    except OSError as exc:
        raise ParseError(f"cannot read zero table: {exc}") from None
    # One parse and three vectorised checks; numpy parses each line as
    # float() does.  Only a table that fails them is walked line by line,
    # for the first bad line's number.
    try:
        gammas = np.array(raw, dtype=np.float64)
    except ValueError:
        gammas = None
    if gammas is None or not (
        np.all(np.isfinite(gammas))
        and (gammas.size == 0 or gammas[0] > 0)
        and np.all(gammas[1:] > gammas[:-1])
    ):
        gammas = np.array(_parse_lines(raw), dtype=np.float64)

    if gammas.size and abs(gammas[0] - FIRST_ORDINATE) > 0.01:
        raise ParseError(
            f"first ordinate {float(gammas[0])} does not match the first zeta zero"
        )
    if height is None:
        if not gammas.size:
            raise ParseError("zero table is empty")
        height = float(gammas[-1])
    gammas = gammas[gammas <= height]
    # Sanity: |count - N(height)| should be small if the table really is
    # complete up to `height`, empty or not.  N(T) = T/2pi log(T/2pi e) + 7/8
    # + O(log T).
    expected = height / (2 * math.pi) * math.log(height / (2 * math.pi * math.e)) + 0.875
    if abs(gammas.size - expected) > max(5.0, 0.05 * expected):
        raise ParseError(
            f"table holds {gammas.size} ordinates below {height:g} "
            f"but about {expected:.0f} were expected"
        )
    return ZeroList(gammas=gammas, height=float(height))


def _pair_terms(g: np.ndarray, log_y: float, a: float) -> np.ndarray:
    """Re(e^(i gamma log y) / (a + i gamma)) for each ordinate gamma.

    Each conjugate pair of zeros contributes twice this, which is why
    sums built from it are real by construction, not by cancellation.
    """
    phase = g * log_y
    return (np.cos(phase) * a + np.sin(phase) * g) / (a * a + g * g)


def zero_sum(zeros: ZeroList, y: float, s0: float, big_t: float) -> float:
    """Sum of y^rho / (rho - s0) over zeros with 0 < Im rho <= big_t,
    together with the conjugate pair of each, for a real shift s0.

    Each pair contributes 2 Re(y^rho/(rho-s0)), so the result is real by
    construction; the pair terms are summed exactly rounded (math.fsum),
    so the value does not depend on summation order.
    """
    g = zeros.up_to(big_t)
    if y <= 1:
        raise RangeError("zero_sum needs y > 1")
    if g.size == 0:
        return 0.0
    terms = _pair_terms(g, math.log(y), 0.5 - float(s0))
    return 2.0 * math.sqrt(y) * math.fsum(terms.tolist())
