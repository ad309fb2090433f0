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
each node is charged the number of listed values <= x // d.  A number
below p0^2 has at most one rough prime factor, so the whole subtree of
a node whose budget v = x // d is below V = min(p0^2, x + 1) is known in
closed form: with children drawn from rough[:c + 1] it counts
#{listed s <= v} + sum_{j <= c} v // rough[j].  That table, the small-
argument table of the Meissel-Lehmer phi(x, a) computation (Lagarias,
Miller and Odlyzko, 1985), is built once per call in int32, no larger
than the fold list in bytes (V is halved until it is), and a child
below V is one lookup, never pushed.  The other children cost one
binary search each.  The tree is walked depth-first from a stack of
node batches; children are created lazily, at most _NODE_CHUNK at a
time, from a cursor into their parent batch, so the walk holds about
depth * _NODE_CHUNK nodes on top of the list and the table.  Any split
between the phases gives the same exact count.

alpha_values tabulates the coefficients alpha_y(n) of
exp(sum_{p^k <= y} p^(-ks)/k), the multiplicative weights that agree
with the smooth indicator whenever every prime-power component of n is
<= y.  They come from a float recurrence in log n, and alpha_summatory
sums that table.
"""

import math

import numpy as np

from .errors import DomainError, RangeError, ResourceError
from .limits import env_limit
from .primes import PrimeTable

_SMOOTH_LIST_CAP = 8_000_000
# Stop folding at the first prime whose fold would add fewer than this
# fraction of the list's size.  psi_exact time over the 12 points of the
# README verify-theorem1 grid (2-vCPU shared x86 host, three runs each):
# 1/10 2.2 s, 1/7 1.5 s, 1/5 1.1-1.3 s, 1/4 0.92-0.97 s, 1/3 0.86-0.89 s,
# 1/2 1.2-1.3 s, 1 2.8-2.9 s.  (10^11, 10^4), two runs each: 3.7-4.0 s
# from 1/10 to 1/4, 4.9-5.0 s at 1/3, 5.8-6.2 s at 1/2, 9.0-9.3 s at 1.
_FOLD_MIN_GROWTH = 0.25
# Children made per batch.  Same grid: 0.97-1.35 s at every size from
# 2^12 to 2^20 (the tree is a third of it).  (10^11, 10^4): 2^12
# 5.1-5.3 s, 2^14 3.9-4.9 s, 2^16 3.7-3.8 s, 2^18 4.2-4.7 s, 2^20
# 4.9-5.2 s.
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


def _leaf_table(smooth: np.ndarray, rough: np.ndarray, x: int, max_bytes: int) -> np.ndarray:
    """The int32 table F[c, v] = #{listed s <= v} + sum_{j <= c} v // rough[j]
    for v < V: the subtree of a node with budget v whose children may use
    rough[:c + 1], when V <= p0^2.  V starts at min(p0^2, x + 1) and is
    halved until F fits in max_bytes.  A prime above v adds nothing, so
    F keeps one row per rough prime below V, and at least one.  An entry
    is at most v (1 + sum 1/p over primes below V) < 5V, and V <= max_bytes
    / 4, which the fold list's bytes keep far below 2^31 / 5.
    """
    p0 = int(rough[0])
    size = min(p0 * p0, x + 1)

    def rows(size):
        return max(1, int(np.searchsorted(rough, size)))

    while size > 1 and 4 * rows(size) * size > max_bytes:
        size //= 2
    v = np.arange(size, dtype=np.int32)
    table = v // rough[: rows(size), None].astype(np.int32)
    np.cumsum(table, axis=0, out=table)
    table += np.searchsorted(smooth, v, side="right").astype(np.int32)
    return table


def _walk_rough_tree(smooth: np.ndarray, rough: np.ndarray, x: int) -> int:
    """Sum over products d <= x of rough primes of #{listed s <= x // d}.

    A node is kept as its budget x // d; its children use rough[c] for
    c below its cap.  Each stack entry holds a batch of inner nodes, the
    prefix sums of their child counts and a cursor into those children.
    """
    table = _leaf_table(smooth, rough, x, smooth.nbytes)
    rows, size = table.shape
    flat = table.ravel()
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
        # A child made with rough[c] may use rough[:c + 1].  Below the
        # table's size its whole subtree is one entry; the rest search
        # the list and are pushed.
        leaf = child < size
        total += int(flat[np.minimum(c[leaf], rows - 1) * size + child[leaf]].sum())
        inner = ~leaf
        child_in = child[inner]
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


def alpha_summatory(x: int, y: int, pt: PrimeTable) -> float:
    """sum_{n <= x} alpha_y(n), summed from the alpha_values recurrence."""
    return float(np.sum(alpha_values(x, y, pt)[1:]))
