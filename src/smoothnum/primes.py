"""Prime sieving, Chebyshev psi, and prime-power sums.

partial_zeta is the truncated Euler product log zeta(s, y), one closed
form -log(1 - p^-s) per prime.  prime_power_sum and log_g2 split the
same double sum over p^(-ks)/k at p^k = y, as series in k; they are the
factored route that gfactor checks partial_zeta against.  All sums are
evaluated in a fixed order (or exactly rounded), so repeated runs
produce bit-identical floating-point output.
"""

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, RangeError, ResourceError
from .limits import env_limit

_SEGMENT_ODDS = 1 << 21  # odd numbers per segment above sqrt(limit)
_LOG_G2_MAX_K = 100_000  # the last k log_g2 may sum


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
    if math.isnan(y):
        raise DomainError("y must be a number, got nan")
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

    Each factor -log(1 - z), z = p^-s, is taken in closed form.  Where
    |z| > 1/2 it is -log|w| - i arg w, w = 1 - z = -expm1(-s log p),
    accurate to rounding however close z is to 1; elsewhere it is
    -1/2 log1p(Re z (Re z - 2) + (Im z)^2) + i atan2(Im z, 1 - Re z),
    which keeps the digits log|w| would lose.  This is the principal
    branch of sum_k z^k/k, so one pass serves every Re s > 0.
    """
    s = complex(s)
    if s.real <= 0:
        raise DomainError("partial_zeta requires Re s > 0")
    y = _check_y(pt, y)
    if y < 2:
        return complex(0.0, 0.0)
    idx = int(np.searchsorted(pt.primes, math.floor(y), side="right"))
    exponent = -s * np.log(pt.primes[:idx].astype(np.float64))
    z = np.exp(exponent)
    re, im = z.real, z.imag
    near = np.abs(z) > 0.5
    w = -np.expm1(exponent[near])
    far = np.where(near, 0.0, re * (re - 2.0) + im * im)  # never log1p(-1)
    log_abs = -0.5 * np.log1p(far)
    log_abs[near] = -np.log(np.abs(w))
    arg = np.arctan2(im, 1.0 - re)
    arg[near] = np.arctan2(-w.imag, w.real)
    return complex(float(np.sum(log_abs)), float(np.sum(arg)))


def log_g2(pt: PrimeTable, s, y: float) -> complex:
    """sum over k >= 2 of sum_{y^(1/k) < p <= y} p^(-ks)/k.

    The inner block at each k keeps the primes with p^k > y: those past
    _power_tops' count, or all of them once 2^k > y.  The k loop stops
    at the first k >= 3 where the worst-case remaining tail (all primes
    from 2, i.e. pi(y) * 2^(-k sigma)/k, summed geometrically) is below
    1e-18, found by bisection before the loop.

    Domain: Re s > 0 with that stop reached by k = _LOG_G2_MAX_K + 1,
    which needs Re s above 5.6e-4 at y = 4 and above 6.5e-4 at y = 10^4
    (the bound grows with log pi(y)).  Below it DomainError is raised
    before any term is summed, and so is RangeError where k s log p
    leaves float range (|Im s| near float max).
    """
    plan = _log_g2_plan(pt, s, y)
    if plan is None:
        return complex(0.0, 0.0)
    s, tops, stop = plan
    idx_y = tops[0]
    log_p = np.log(pt.primes[:idx_y].astype(np.float64))
    total = complex(0.0, 0.0)
    for k in range(2, stop):
        lo = tops[k - 1] if k <= len(tops) else 0
        if lo < idx_y:
            block = np.exp(-k * s * log_p[lo:])
            total += complex(np.sum(block)) / k
    return total


def _log_g2_plan(pt: PrimeTable, s, y: float):
    """log_g2's checks, in its order, without its sum: (s, _power_tops at
    y, the first k it does not sum), or None where its value is 0."""
    s = complex(s)
    if s.real <= 0:
        raise DomainError("log_g2 requires Re s > 0")
    y = _check_y(pt, y)
    if y < 2:
        return None
    tops = _power_tops(pt, math.floor(y))
    idx_y = tops[0]
    decay = 2.0**-s.real
    if decay == 0.0:  # every p^(-ks) underflows (Re s above about 1075)
        return None

    def stopped(k):  # never, where 2^(-Re s) rounds to 1 (Re s below ~1e-16)
        return decay < 1.0 and idx_y * decay**k / (k * (1.0 - decay)) < 1e-18

    # The tail falls with k, so the first k >= 3 where it stops is bisected.
    stop = bisect.bisect_left(range(_LOG_G2_MAX_K + 2), True, lo=3, key=stopped)
    if stop > _LOG_G2_MAX_K + 1:
        raise DomainError(
            f"log_g2 needs more than {_LOG_G2_MAX_K} terms at Re s = {s.real:g}, y = {y:g}"
        )
    if not math.isfinite(stop * (abs(s.real) + abs(s.imag)) * math.log(y)):
        raise RangeError(f"log_g2 at s = {s}, y = {y:g}: k s log p leaves float range")
    return s, tops, stop
