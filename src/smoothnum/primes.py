"""Prime sieving, Chebyshev psi, and prime-power sums.

These feed the truncated Euler product log zeta(s, y) and its k >= 2
remainder.  All sums are evaluated in a fixed order (or exactly
rounded), so repeated runs produce bit-identical floating-point output.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, RangeError, ResourceError
from .limits import env_limit

_SEGMENT_ODDS = 1 << 21  # odd numbers per segment above sqrt(limit)


@dataclass(frozen=True)
class PrimeTable:
    """All primes up to ``limit``, ascending, as an int64 array."""

    limit: int
    primes: np.ndarray

    @property
    def count(self) -> int:
        return int(self.primes.size)


@dataclass(frozen=True)
class ChebyshevValue:
    """psi(y) = sum of log p over prime powers p^k <= y, plus pi(y)."""

    psi: float
    pi_count: int


def _simple_sieve(limit: int) -> np.ndarray:
    # Odd-only mask: index i stands for 2i+1; index 0 (the unit 1) is skipped.
    size = (limit - 1) // 2
    composite = np.zeros(size + 1, dtype=bool)
    for p in range(3, math.isqrt(limit) + 1, 2):
        if not composite[p // 2]:
            composite[p * p // 2 :: p] = True
    odd = 2 * np.nonzero(~composite)[0][1:] + 1
    return np.concatenate(([2], odd)).astype(np.int64)


def _segmented_tail(limit: int, base_odd: np.ndarray, start: int) -> list:
    """Primes in (start, limit] found segment by segment (odd values only)."""
    chunks = []
    lo = start + 1
    if lo % 2 == 0:
        lo += 1
    while lo <= limit:
        hi = min(lo + 2 * (_SEGMENT_ODDS - 1), limit)
        n = (hi - lo) // 2 + 1
        composite = np.zeros(n, dtype=bool)
        for p in base_odd:
            p = int(p)
            first = max(p * p, ((lo + p - 1) // p) * p)
            if first > hi:
                continue
            if first % 2 == 0:
                first += p
            composite[(first - lo) // 2 :: p] = True
        chunks.append(lo + 2 * np.nonzero(~composite)[0].astype(np.int64))
        lo = hi + 2
    return chunks


def sieve(limit: int) -> PrimeTable:
    """All primes up to ``limit`` (2 <= limit <= SMOOTHNUM_MAX_SIEVE)."""
    limit = int(limit)
    max_limit = env_limit("SMOOTHNUM_MAX_SIEVE")
    if limit < 2 or limit > max_limit:
        raise ResourceError(
            f"sieve limit must lie in [2, {max_limit}]; got {limit}"
        )
    root = math.isqrt(limit)
    base = _simple_sieve(root)
    parts = [base] + _segmented_tail(limit, base[1:], root)
    return PrimeTable(limit=limit, primes=np.concatenate(parts))


def _check_y(pt: PrimeTable, y: float) -> float:
    y = float(y)
    if y > pt.limit:
        raise RangeError(f"y = {y:g} exceeds the sieved range {pt.limit}")
    return y


def chebyshev_psi(pt: PrimeTable, y: float) -> ChebyshevValue:
    """Chebyshev psi(y), exactly rounded over ascending prime powers."""
    y = _check_y(pt, y)
    if y < 2:
        return ChebyshevValue(psi=0.0, pi_count=0)
    tops = _power_tops(pt, math.floor(y))
    log_p = [math.log(p) for p in pt.primes[: tops[0]].tolist()]
    psi = math.fsum(v for top in tops for v in log_p[:top])
    return ChebyshevValue(psi=psi, pi_count=tops[0])


def prime_power_sum(pt: PrimeTable, s, y: float) -> complex:
    """Sum of p^(-k s)/k over prime powers p^k <= y, exactly rounded.

    This is sum_{n<=y} Lambda(n)/(n^s log n) in prime-power bookkeeping.
    """
    y = _check_y(pt, y)
    s = complex(s)
    if y < 2:
        return complex(0.0, 0.0)
    re_parts, im_parts = [], []
    for k, top in enumerate(_power_tops(pt, math.floor(y)), 1):
        block = np.exp(-k * s * np.log(pt.primes[:top].astype(np.float64))) / k
        re_parts.append(block.real)
        im_parts.append(block.imag)
    total_re = math.fsum(x for part in re_parts for x in part.tolist())
    total_im = math.fsum(x for part in im_parts for x in part.tolist())
    return complex(total_re, total_im)


def _power_tops(pt: PrimeTable, n: int) -> list:
    """[#{p : p^k <= n} for k = 1, 2, ... while 2^k <= n].

    The one place that decides p^k <= n; exact integer k-th roots keep
    boundary cases like 5^3 vs 125 clear of float rounding.
    """
    tops = []
    k = 1
    while 2**k <= n:
        tops.append(int(np.searchsorted(pt.primes, _floor_root(n, k), side="right")))
        k += 1
    return tops


def _floor_root(n: int, k: int) -> int:
    """Largest integer m with m^k <= n (exact integer arithmetic)."""
    if k == 1:
        return n
    m = int(round(n ** (1.0 / k)))
    while m > 1 and m**k > n:
        m -= 1
    while (m + 1) ** k <= n:
        m += 1
    return m


def partial_zeta(pt: PrimeTable, s, y: float) -> complex:
    """log of the Euler product over p <= y: sum_{p<=y} -log(1 - p^-s).

    Returned as the log value.  Each factor's log is the termwise series
    sum_k p^(-ks)/k; blocks are summed k-major with iterated vector
    powers until the remaining tail is below 1e-18.
    """
    s = complex(s)
    if s.real <= 0:
        raise DomainError("partial_zeta requires Re s > 0")
    y = _check_y(pt, y)
    if y < 2:
        return complex(0.0, 0.0)
    idx = int(np.searchsorted(pt.primes, math.floor(y), side="right"))
    base = np.exp(-s * np.log(pt.primes[:idx].astype(np.float64)))
    sigma = s.real
    decay = 2.0**-sigma
    total = complex(0.0, 0.0)
    powers = base.copy()
    k = 1
    while True:
        total += complex(np.sum(powers)) / k
        k += 1
        # Tail over k' >= k is below idx * 2^(-k*sigma) / (k (1 - 2^-sigma)).
        if idx * decay**k / (k * (1.0 - decay)) < 1e-18:
            break
        if k > 100000:
            raise ResourceError("partial_zeta series did not converge")
        powers *= base
    return total


def log_g2(pt: PrimeTable, s, y: float) -> complex:
    """sum over k >= 2 of sum_{y^(1/k) < p <= y} p^(-ks)/k.

    The inner block at each k keeps the primes with p^k > y: those past
    _power_tops' count, or all of them once 2^k > y.  The k loop stops
    once the worst-case remaining tail (all primes from 2, i.e.
    pi(y) * 2^(-k sigma)/k, summed geometrically) drops below 1e-18.
    """
    s = complex(s)
    if s.real <= 0:
        raise DomainError("log_g2 requires Re s > 0")
    y = _check_y(pt, y)
    if y < 2:
        return complex(0.0, 0.0)
    tops = _power_tops(pt, math.floor(y))
    idx_y = tops[0]
    log_p = np.log(pt.primes[:idx_y].astype(np.float64))
    sigma = s.real
    decay = 2.0**-sigma
    total = complex(0.0, 0.0)
    k = 2
    while True:
        lo = tops[k - 1] if k <= len(tops) else 0
        if lo < idx_y:
            block = np.exp(-k * s * log_p[lo:])
            total += complex(np.sum(block)) / k
        k += 1
        if idx_y * decay**k / (k * (1.0 - decay)) < 1e-18:
            break
        if k > 100000:
            raise ResourceError("log_g2 series did not converge")
    return total
