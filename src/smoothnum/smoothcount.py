"""Exact counts of smooth numbers and the alpha summatory function.

psi_exact(x, y) counts n <= x whose prime factors are all <= y, in pure
integer arithmetic, in two phases.

Fold phase: the small primes are folded, in increasing order, into an
explicit sorted int64 list of every number <= x built from them.
Folding p appends the sorted runs list[:idx_k] * p^k, and numpy's
stable sort (a timsort) finds the runs and merges them; nothing is
sorted from scratch.  A fold costs a pass over the whole list, so
folding stops at the first prime whose fold would grow the list by
less than a fixed fraction of its size, or would push it past
_SMOOTH_LIST_CAP entries.

Tree phase: the remaining "rough" primes p0 < ... <= y form a tree of
products d (multisets enumerated by non-increasing prime index), and
each node is charged the number of listed values <= x // d.  Every
integer below p0 is in the list, so a node whose budget x // d is below
p0 is a leaf charged its budget, without a search; the others cost one
binary search each.  The tree is walked depth-first from a stack of
node batches; children are created lazily, at most _NODE_CHUNK at a
time, from a cursor into their parent batch, so the walk holds about
depth * _NODE_CHUNK nodes on top of the list.  Any split between the
phases gives the same exact count.

alpha_values tabulates the coefficients alpha_y(n) of
exp(sum_{p^k <= y} p^(-ks)/k), the multiplicative weights that agree
with the smooth indicator whenever every prime-power component of n is
<= y.
"""

import math
from fractions import Fraction

import numpy as np

from .errors import DomainError, RangeError, ResourceError
from .limits import env_limit
from .primes import PrimeTable

_SMOOTH_LIST_CAP = 8_000_000
# Stop folding at the first prime whose fold would add fewer than this
# fraction of the list's size.  psi_exact time over the 12 points of the
# README verify-theorem1 grid (2-vCPU shared x86 host, runs repeated):
# 1/50 6.4 s, 1/20 4.7 s, 1/10 3.2 s, 1/7 2.5-3.0 s, 1/5 1.7-2.5 s,
# 1/4 1.7-2.7 s, 1/3 1.9-2.1 s, 1/2 2.8-3.2 s.  (10^11, 10^4) is flat
# within noise from 1/20 to 1/3 (5.3-8.3 s) and slower at 1/2 (9.4-9.9 s).
_FOLD_MIN_GROWTH = 0.25
# Children made per batch.  Same grid: 2^12 3.8 s, 2^14 and 2^16
# 2.3-2.6 s, 2^18 2.5-2.7 s, 2^20 2.9 s; larger batches leave the cache.
_NODE_CHUNK = 1 << 16


def _fold_projection(smooth: np.ndarray, p: int, x: int) -> np.ndarray:
    """For each p^k <= x, how many listed values are <= x // p^k."""
    powers = [p]
    while powers[-1] * p <= x:
        powers.append(powers[-1] * p)
    return np.searchsorted(smooth, x // np.array(powers, dtype=np.int64), side="right")


def _fold(smooth: np.ndarray, p: int, idx: np.ndarray) -> np.ndarray:
    """The list with p folded in.  The listed values are coprime to p,
    so the sorted runs smooth[:idx[k-1]] * p^k are disjoint from the
    list and from each other.  numpy's stable sort is a timsort: it finds
    the runs in their concatenation and merges them, nothing is re-sorted."""
    runs = [smooth] + [smooth[:k] * p**e for e, k in enumerate(idx.tolist(), start=1)]
    merged = np.concatenate(runs)
    merged.sort(kind="stable")
    return merged


def _fold_list(primes: np.ndarray, x: int) -> tuple:
    """The sorted list of numbers <= x built from primes[:i], and i."""
    smooth = np.ones(1, dtype=np.int64)
    for i, p in enumerate(primes.tolist()):
        idx = _fold_projection(smooth, p, x)
        growth = int(idx.sum())
        if (
            smooth.size + growth > _SMOOTH_LIST_CAP
            or growth < _FOLD_MIN_GROWTH * smooth.size
        ):
            return smooth, i
        smooth = _fold(smooth, p, idx)
    return smooth, len(primes)


def _walk_rough_tree(smooth: np.ndarray, rough: np.ndarray, x: int) -> int:
    """Sum over products d <= x of rough primes of #{listed s <= x // d}.

    A node is kept as its budget x // d; its children use rough[c] for
    c below its cap.  Each stack entry holds a batch of inner nodes, the
    prefix sums of their child counts and a cursor into those children.
    """
    p0 = int(rough[0])
    total = int(np.searchsorted(smooth, x, side="right"))
    stack = [[np.array([x], dtype=np.int64), np.array([0, rough.size], dtype=np.int64), 0]]
    while stack:
        batch = stack[-1]
        budget, offsets, start = batch
        end = int(offsets[-1])
        stop = min(start + _NODE_CHUNK, end)
        if stop == end:
            stack.pop()
        else:
            batch[2] = stop
        first = int(np.searchsorted(offsets, start, side="right")) - 1
        last = int(np.searchsorted(offsets, stop, side="left"))
        spans = np.diff(np.clip(offsets[first : last + 1], start, stop))
        parent = np.repeat(np.arange(first, last), spans)
        c = np.arange(start, stop) - offsets[parent]
        child = budget[parent] // rough[c]
        # Leaves below p0 are charged their budget; the rest search the
        # list, and a child made with rough[c] may use rough[:c + 1].
        inner = child >= p0
        child_in = child[inner]
        total += int(child.sum()) - int(child_in.sum())
        if child_in.size:
            total += int(np.searchsorted(smooth, child_in, side="right").sum())
            cnt = np.minimum(c[inner] + 1, np.searchsorted(rough, child_in, side="right"))
            child_offsets = np.zeros(cnt.size + 1, dtype=np.int64)
            np.cumsum(cnt, out=child_offsets[1:])
            stack.append([child_in, child_offsets, 0])
    return total


def psi_exact(x: int, y: int, pt: PrimeTable) -> int:
    """Number of y-smooth integers in [1, x], exact."""
    x = int(x)
    y = int(y)
    max_x = env_limit("SMOOTHNUM_MAX_PSI_X")
    max_y = env_limit("SMOOTHNUM_MAX_PSI_Y")
    if x > max_x or y > max_y:
        raise ResourceError(
            f"psi_exact envelope is x <= {max_x:g}, y <= {max_y:g}; got ({x}, {y})"
        )
    if x < 1:
        return 0
    if y >= x:
        return x
    if y < 2:
        return 1
    if y > pt.limit:
        raise RangeError(f"prime table only covers [2, {pt.limit}], need y = {y}")

    top = int(np.searchsorted(pt.primes, y, side="right"))
    primes = pt.primes[:top]
    phase = "fold"
    try:
        smooth, first_rough = _fold_list(primes, x)
        if first_rough == top:
            return int(smooth.size)
        phase = "tree"
        return _walk_rough_tree(smooth, primes[first_rough:].astype(np.int64), x)
    except MemoryError as exc:
        raise ResourceError(
            f"psi_exact({x}, {y}) ran out of memory in the {phase} phase"
        ) from exc


def buchstab_residual_psi(x: int, y: int, z: int, pt: PrimeTable) -> int:
    """Psi(x,y) - [Psi(x,z) - sum_{y < p <= z} Psi(x/p, p)]; exactly 0."""
    x, y, z = int(x), int(y), int(z)
    if not (2 <= y <= z <= x):
        raise DomainError("buchstab residual requires 2 <= y <= z <= x")
    lo = int(np.searchsorted(pt.primes, y, side="right"))
    hi = int(np.searchsorted(pt.primes, z, side="right"))
    branch = sum(psi_exact(x // int(p), int(p), pt) for p in pt.primes[lo:hi])
    return psi_exact(x, y, pt) - psi_exact(x, z, pt) + branch


def _prime_power_weights(pt: PrimeTable, x: int, y: int):
    """(q, log p) for prime powers q = p^k <= min(x, y)."""
    bound = min(x, y)
    out = []
    for p in pt.primes[: np.searchsorted(pt.primes, bound, side="right")]:
        p = int(p)
        w = math.log(p)
        q = p
        while q <= bound:
            out.append((q, w))
            q *= p
    return out


def alpha_values(x: int, y: int, pt: PrimeTable) -> np.ndarray:
    """alpha_y(n) for n = 0..x (index 0 unused) from the recurrence

        alpha(n) log n = sum over prime powers q = p^k <= y dividing n
                         of log(p) * alpha(n/q),

    obtained by differentiating the defining identity
    sum alpha(n) n^-s = exp(sum_{p^k<=y} p^(-ks)/k).  Blocks [L, 2L)
    only consume values below L, so the whole recurrence vectorizes.
    """
    x = int(x)
    y = int(y)
    if x > env_limit("SMOOTHNUM_MAX_ALPHA_X"):
        raise ResourceError(f"alpha recurrence envelope exceeded at x = {x}")
    if x < 1:
        raise DomainError("alpha_values needs x >= 1")
    if y > pt.limit:
        raise RangeError(f"prime table only covers [2, {pt.limit}], need y = {y}")
    alpha = np.zeros(x + 1)
    alpha[1] = 1.0
    acc = np.zeros(x + 1)
    weights = _prime_power_weights(pt, x, y)
    lo = 2
    while lo <= x:
        hi = min(2 * lo, x + 1)
        for q, w in weights:
            m_lo = (lo + q - 1) // q
            m_hi = (hi + q - 1) // q
            if m_lo < m_hi:
                acc[q * m_lo : hi : q] += w * alpha[m_lo:m_hi]
        alpha[lo:hi] = acc[lo:hi] / np.log(np.arange(lo, hi))
        lo = hi
    return alpha


def _exact_component_series(max_k: int, degree: int) -> list:
    """Coefficients of exp(sum_{k=1}^{max_k} t^k / k) up to t^degree, exact."""
    poly = [Fraction(0)] * (degree + 1)
    for k in range(1, min(max_k, degree) + 1):
        poly[k] = Fraction(1, k)
    series = [Fraction(0)] * (degree + 1)
    series[0] = Fraction(1)
    # exp via the ODE: series' = poly' * series.
    for n in range(1, degree + 1):
        acc = Fraction(0)
        for k in range(1, n + 1):
            acc += k * poly[k] * series[n - k]
        series[n] = acc / n
    return series


def alpha_exact(n: int, y: int) -> Fraction:
    """alpha_y(n) as an exact rational, via multiplicativity: the value
    at p^e is the t^e coefficient of exp(sum_{k: p^k <= y} t^k/k)."""
    if n < 1:
        raise DomainError("alpha_exact needs n >= 1")
    n = int(n)
    y = int(y)
    result = Fraction(1)
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            max_k = 0
            q = p
            while q <= y:
                max_k += 1
                q *= p
            result *= _exact_component_series(max_k, e)[e]
        p += 1
    if n > 1:  # leftover prime
        result *= Fraction(1) if n <= y else Fraction(0)
    return result


def alpha_summatory(x: int, y: int, pt: PrimeTable) -> float:
    """sum_{n <= x} alpha_y(n).

    Exact rationals for small x (every alpha_y(n) is rational), the
    vectorized float recurrence beyond; both paths agree to float
    rounding on their overlap.
    """
    x = int(x)
    if x <= 4000:
        return float(sum(alpha_exact(n, y) for n in range(1, x + 1)))
    return float(np.sum(alpha_values(x, y, pt)[1:]))
