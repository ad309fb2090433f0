"""Exact counts of smooth numbers and the alpha summatory function.

psi_exact(x, y) counts n <= x whose prime factors are all <= y, in pure
integer arithmetic, in two phases.

Fold phase: the small primes are folded, in increasing order, into an
explicit sorted int64 list of every number <= x built from them.
Folding p writes the list and the sorted runs list[:idx_k] * p^k into
one new buffer, frees the old list, and only then sorts the buffer:
numpy's stable sort (a timsort) finds the runs and merges them, nothing
is sorted from scratch.  So a fold holds the old and the new list at
once, and later the new one beside timsort's scratch, never all three.
A fold costs a pass over the whole list, so folding stops at the first
prime whose fold would grow the list by less than a fixed fraction of
its size, or would push it past _SMOOTH_LIST_CAP entries.

Tree phase: the remaining "rough" primes p0 < ... <= y form a tree of
products d (multisets enumerated by non-increasing prime index), and
each node is charged the number of listed values <= x // d.  A number
below p0^2 has at most one rough prime factor, so the whole subtree of
a node whose budget v = x // d is below V = min(p0^2, x + 1) is known in
closed form: with children drawn from rough[:c + 1] it counts
F[c, v] = #{listed s <= v} + sum_{j <= c} v // rough[j].  That table, the
small-argument table of the Meissel-Lehmer phi(x, a) computation
(Lagarias, Miller and Odlyzko, 1985), is built once per call in int32,
no larger than the fold list in bytes (V is halved until it is).  A
child below V is a leaf and is never made.  The leaves of a batch of
nodes are charged column by column: with the batch sorted by cap, the
nodes that have a child c are a prefix, divided at once by the scalar
rough[c], and each quotient indexes one row of F, padded with a zero
sentinel column at V that catches every quotient >= V.  Only the inner
children, budget >= V, are made as nodes, one binary search each.  The
tree is walked depth-first from a stack of node batches; children are
created lazily, at most _NODE_CHUNK at a time, from a cursor into their
parent batch, so the walk holds about depth * _NODE_CHUNK nodes on top
of the list and the table.  Any split between the phases gives the
same exact count.

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
from .primes import PrimeTable, _power_tops

_SMOOTH_LIST_CAP = 8_000_000
# Stop folding at the first prime whose fold would add fewer than this
# fraction of the list's size.  Time and peak RSS of a process that runs
# only psi_exact (30 MB before the first call), on a 2-vCPU shared x86
# host: over the 12 points of the README verify-theorem1 grid (three
# runs), at (10^11, 10^4) (median and quartiles of ten runs), and at
# (10^12, 10^4) and (10^12, 10^5) (three runs).
#   0.3   0.50-0.60 s  99 MB | 0.85 (0.81-0.88) s  93 MB | 2.3-2.7 s 131 MB | 16.5-18.6 s 131 MB
#   1/3   0.44-0.50 s  83 MB | 0.88 (0.81-0.96) s  77 MB | 2.6-3.0 s 131 MB | 18.4-20.0 s 131 MB
#   0.35  0.38-0.49 s  86 MB | 0.95 (0.92-0.98) s  65 MB | 2.7-3.1 s 131 MB | 17.4-18.1 s 131 MB
#   0.4   0.33-0.41 s  59 MB | 1.00 (0.95-1.03) s  55 MB | 2.6-3.1 s 102 MB | 17.0-20.1 s 102 MB
#   0.45  0.38-0.41 s  50 MB | 1.07 (1.03-1.10) s  48 MB | 2.9-3.4 s  80 MB | 19.1-21.3 s  81 MB
# The rule: the lowest grid peak among the stops no slower than 0.3 on
# the grid and within 20% of it at (10^11, 10^4) and (10^12, 10^5).
# 0.45 is 26% slower at (10^11, 10^4), 0.4 18%.  So 0.4: the corner
# (10^12, 10^5) trades up to a tenth more time for 29 MB less memory,
# and (10^12, 10^4), outside the rule, 10-30% more for the same 29 MB.
_FOLD_MIN_GROWTH = 0.4
# Children made per batch.  Same grid: 0.33-0.38 s at every size from
# 2^12 to 2^20.  (10^11, 10^4): 2^12 0.75 s, 2^14 0.58 s, 2^16
# 0.53-0.54 s, 2^18 0.54 s, 2^20 0.53-0.54 s.
_NODE_CHUNK = 1 << 16


def _fold_projection(smooth: np.ndarray, p: int, x: int) -> np.ndarray:
    """For each p^k <= x, how many listed values are <= x // p^k."""
    powers = [p]
    while powers[-1] * p <= x:
        powers.append(powers[-1] * p)
    return np.searchsorted(smooth, x // np.array(powers, dtype=np.int64), side="right")


def _fold(smooth: np.ndarray, p: int, idx: np.ndarray) -> np.ndarray:
    """The list with p folded in, unsorted: one buffer holding the list
    followed by the runs smooth[:idx[k-1]] * p^k, each multiplied straight
    into its place.  The listed values are coprime to p, so the runs are
    sorted and disjoint from the list and from each other; numpy's stable
    sort is a timsort, which finds them and merges them, nothing is
    re-sorted."""
    buf = np.empty(smooth.size + int(idx.sum()), dtype=np.int64)
    buf[: smooth.size] = smooth
    start = smooth.size
    for e, k in enumerate(idx.tolist(), start=1):
        np.multiply(smooth[:k], p**e, out=buf[start : start + k])
        start += k
    return buf


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
        # Rebinding frees the old list before timsort takes its scratch.
        smooth = _fold(smooth, p, idx)
        smooth.sort(kind="stable")
    return smooth, len(primes)


def _leaf_table(smooth: np.ndarray, rough: np.ndarray, x: int, max_bytes: int) -> np.ndarray:
    """The int32 table F[c, v] = #{listed s <= v} + sum_{j <= c} v // rough[j]
    for v < V: the subtree of a node with budget v whose children may use
    rough[:c + 1], when V <= p0^2.  Column V is a zero sentinel for
    _charge_leaves.  V starts at min(p0^2, x + 1) and is halved until
    the V columns fit in max_bytes.  A prime above v adds nothing, so F
    keeps one row per rough prime below V, and at least one.  An entry
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
    table = np.zeros((rows(size), size + 1), dtype=np.int32)
    body = table[:, :size]
    np.floor_divide(v, rough[: rows(size), None].astype(np.int32), out=body)
    np.cumsum(body, axis=0, out=body)
    body += np.searchsorted(smooth, v, side="right").astype(np.int32)
    return table


def _charge_leaves(budget: np.ndarray, cap: np.ndarray, rough: list, table: np.ndarray) -> int:
    """Sum of F[min(c, rows - 1), budget // rough[c]] over every node of a
    batch and every c below its cap, where a quotient >= V charges 0.

    table is F with a zero sentinel column at index V; rough holds Python
    ints, so each division takes numpy's scalar-divisor path.  The batch
    is sorted by cap, descending, so the nodes with cap > c are a prefix
    and column c is one division of that prefix.  take's clip mode puts
    every quotient >= V, an inner child's, on the sentinel: inner
    children are made and charged as nodes of their own.
    """
    rows, width = table.shape
    prefix = np.searchsorted(-cap, -np.arange(int(cap[0])), side="left").tolist()
    quot = np.empty(budget.size, dtype=np.int64)
    vals = np.empty(budget.size, dtype=np.int32)
    total = 0
    for c, n in enumerate(prefix):
        q = np.floor_divide(budget[:n], rough[c], out=quot[:n])
        row = table[min(c, rows - 1)]
        total += int(row.take(q, mode="clip", out=vals[:n]).sum(dtype=np.int64))
    return total


def _walk_rough_tree(smooth: np.ndarray, rough: np.ndarray, x: int) -> int:
    """Sum over products d <= x of rough primes of #{listed s <= x // d}.

    A node is kept as its budget b = x // d; its children use rough[c]
    for c below its cap.  Only the inner children, c < min(cap, c*(b))
    with c*(b) = #{rough primes <= b // V}, have budget >= V and are made
    as nodes; the others are charged from the leaf table when their
    parent's batch is pushed.  Each stack entry holds a batch of nodes,
    the prefix sums of their inner-child counts and a cursor into those
    children.
    """
    table = _leaf_table(smooth, rough, x, smooth.nbytes)
    size = table.shape[1] - 1
    rough_ints = rough.tolist()
    total = int(np.searchsorted(smooth, x, side="right"))
    stack = []

    def push(budget, cap):
        nonlocal total
        order = np.argsort(-cap)
        budget, cap = budget[order], cap[order]
        total += _charge_leaves(budget, cap, rough_ints, table)
        inner = np.minimum(cap, np.searchsorted(rough, budget // size, side="right"))
        offsets = np.zeros(inner.size + 1, dtype=np.int64)
        np.cumsum(inner, out=offsets[1:])
        if offsets[-1]:
            stack.append([budget, offsets, 0])

    push(np.array([x], dtype=np.int64), np.array([rough.size], dtype=np.int64))
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
        # A child made with rough[c] may use rough[:c + 1].
        total += int(np.searchsorted(smooth, child, side="right").sum())
        push(child, np.minimum(c + 1, np.searchsorted(rough, child, side="right")))
    return total


def psi_exact(x: int, y: int, pt: PrimeTable) -> int:
    """Number of y-smooth integers in [1, x], exact."""
    x = int(x)
    y = int(y)
    if x < 1:
        return 0
    if y >= x:
        return x
    if y < 2:
        return 1
    max_x = env_limit("SMOOTHNUM_MAX_PSI_X")
    max_y = env_limit("SMOOTHNUM_MAX_PSI_Y")
    if x > max_x or y > max_y:
        raise ResourceError(
            f"psi_exact envelope is x <= {max_x:g}, y <= {max_y:g}; got ({x}, {y})"
        )
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
    """(q, log p) for prime powers q = p^k <= min(x, y), in (p, k) order."""
    tops = _power_tops(pt, min(x, y))
    out = []
    for i, p in enumerate(pt.primes[: tops[0] if tops else 0].tolist()):
        w = math.log(p)
        out += [(p**k, w) for k in range(1, 1 + sum(top > i for top in tops))]
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
