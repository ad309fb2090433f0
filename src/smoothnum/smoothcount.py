"""Exact counts of smooth numbers and the alpha summatory function.

psi_exact(x, y) counts n <= x whose prime factors are all <= y, in pure
integer arithmetic, in two phases.

Fold phase: the small primes are folded, in increasing order, into an
explicit sorted int64 list of every number <= x built from them.
Folding p grows that one list in place (a realloc), writes the sorted
runs list[:idx_k] * p^k into its new tail, and sorts it: numpy's stable
sort (a timsort) finds the runs and merges them, nothing is sorted from
scratch.  So a fold holds one list, and while it sorts, timsort's merge
scratch (at most half the list) beside it.
A fold costs a pass over the whole list, so folding stops at the first
prime whose fold would grow the list by less than a fixed fraction of
its size, or would push it past _SMOOTH_LIST_CAP entries.

Tree phase: the remaining "rough" primes p0 < ... <= y form a tree of
products d (multisets enumerated by non-increasing prime index), and
each node is charged the number of listed values <= x // d.  The whole
subtree of a node whose budget v = x // d is below V, with children
drawn from rough[:c + 1], counts F[c, v], from the recurrence
F[-1, v] = #{listed s <= v}, F[c, v] = F[c - 1, v] + F[c, v // rough[c]]
(the subtree without rough[c], and the one that uses it at least once).
That table, the small-argument table of the Meissel-Lehmer phi(x, a)
computation (Lagarias, Miller and Odlyzko, 1985; Deleglise and Rivat,
1996), is built once per call, one row per rough prime below V, each
row in log_r V slice steps: on the slice [r^k, r^(k+1)) the quotient
v // r is constant on aligned runs of r entries, so a slice is one
broadcast add of the slice before it and one scalar add for its ragged
tail.  F[c, v] counts distinct n <= v, as listed
part times rough part, so F <= v and the table is uint16 with
V <= 2^16 - 1.  V is the largest value <= x + 1 whose table fits in
_LEAF_TABLE_SHARE of the fold list's bytes, found by bisection: a
larger table leaves fewer nodes.  A child below V is a leaf and is never
made.  The leaves of a batch of nodes are charged column by column: with
the batch sorted by cap, the nodes that have a child c are a prefix,
divided at once by the scalar rough[c], and each quotient indexes one
row of F, padded with a zero sentinel column at V that catches every
quotient >= V.  A column of few nodes costs more in numpy call overhead
than in division, so the last columns, those of at most
_NARROW_COLUMN_NODES nodes, are charged together instead: one division
of each (node, c) pair and one gather from the flattened table.  Only
the inner children, budget >= V, are made as nodes, one binary search
each, in sorted order.
The tree is walked depth-first from a stack of node batches; children
are created lazily, at most _NODE_CHUNK at a time, from a cursor into
their parent batch, so the walk holds about depth * _NODE_CHUNK nodes on
top of the list and the table.  Any split between the phases gives the
same exact count.

A grid command counts many points, and the list of its largest point,
at X, holds what the others need: the list of numbers <= X built from
primes[:i], cut at x <= X, is the list for x, and a leaf table built on
it serves every walk whose rough primes it has, since F[c, v] depends
only on rough[:c + 1] and on the list's counts below V.  So psi_many
folds the largest point once and counts from that list every point
whose y is at least the last folded prime; each such point is only a
walk.  A point whose rough primes are all the largest point's reads
that point's own table, A, the one psi_exact builds for it alone; any
other reads table B, whose rows run up to the largest y of any point,
and so a V no larger (B is A when A's V is at most its own last rough
prime).  The readers of A are walked before those of B, so a grid
builds at most two tables, one at a time; a grid with one beta0 builds
only A.  Nothing outlives the call.  A MemoryError in a build or in a
walk ends the sharing, and the points left are not counted: the caller
hands each of them to psi_exact, as for the points psi_many passes over.

alpha_values tabulates the coefficients alpha_y(n) of
exp(sum_{p^k <= y} p^(-ks)/k), the multiplicative weights that agree
with the smooth indicator whenever every prime-power component of n is
<= y.  They come from a float recurrence in log n, and alpha_summatory
sums that table.
"""

import math

import numpy as np

from .errors import DomainError, RangeError, ResourceError, SmoothnumError
from .limits import env_limit
from .primes import PrimeTable, _finite_int, _power_tops

# The fold list's length cap: a longer list folds more primes and
# leaves a smaller rough tree, at the cost of its bytes.
_SMOOTH_LIST_CAP = 8_000_000
# Stop folding at the first prime whose fold would add fewer than this
# fraction of the list's size; a higher stop leaves a smaller list, a
# smaller leaf table and a larger rough tree.
_FOLD_MIN_GROWTH = 0.45
# Children made per batch: the walk holds about depth * _NODE_CHUNK nodes.
# It also caps the (node, c) pairs of one flat step of _charge_leaves.
_NODE_CHUNK = 1 << 14
# Leaf columns of at most this many nodes are charged in one flat gather,
# which costs more per node than a column's division but no call overhead.
_NARROW_COLUMN_NODES = 256
# The leaf table's bytes, as a share of the fold list's: a larger table
# leaves fewer nodes, and sits beside the list and the node batches.
_LEAF_TABLE_SHARE = 0.5
# The measurements behind these settings are in CHANGES.md.


def _fold_projection(smooth: np.ndarray, p: int, x: int) -> np.ndarray:
    """For each p^k <= x, how many listed values are <= x // p^k."""
    powers = [p]
    while powers[-1] * p <= x:
        powers.append(powers[-1] * p)
    return np.searchsorted(smooth, x // np.array(powers, dtype=np.int64), side="right")


def _fold(smooth: np.ndarray, p: int, idx: np.ndarray) -> np.ndarray:
    """Fold p into the list in place and return it, sorted.

    The list grows by ndarray.resize, a realloc (for a large block an
    mremap, with no copy), and each run smooth[:idx[k-1]] * p^k is
    multiplied straight into the new tail.  The listed values are coprime
    to p, so the runs are sorted and disjoint from the list and from each
    other; numpy's stable sort is a timsort, which finds them and merges
    them, nothing is re-sorted.  The caller must hold no view of smooth:
    resize may move its buffer."""
    size = smooth.size
    smooth.resize(size + int(idx.sum()), refcheck=False)
    start = size
    for e, k in enumerate(idx.tolist(), start=1):
        np.multiply(smooth[:k], p**e, out=smooth[start : start + k])
        start += k
    smooth.sort(kind="stable")
    return smooth


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
    """The uint16 table F[c, v], v < V, of the subtree count of a node with
    budget v whose children may use rough[:c + 1], by the recurrence

        F[-1, v] = #{listed s <= v},   F[c, v] = F[c - 1, v] + F[c, v // rough[c]],

    which splits the subtree by whether rough[c] is used.  Since
    v // rough[c] < v for v >= 1 and F[c, 0] = 0, row c is filled in the
    slices [r^k, r^(k+1)) of r = rough[c], each reading only the slice
    before it.  F[c, v] counts every n <= v at most once, as its listed
    part times its rough part, so F[c, v] <= v < 2^16.  A prime >= V adds
    nothing, so F keeps one row per rough prime below V, and at least one.
    V is the largest value <= min(x + 1, 2^16 - 1), and at least 1, whose
    rows and V + 1 columns fit in max_bytes; column V is a zero sentinel
    for _charge_leaves.
    """
    def rows(size):
        return max(1, int(np.searchsorted(rough, size)))

    # The table's bytes grow with V, so the sizes that fit are a prefix of
    # 1..top, and its length is found by bisection.
    fits = 0
    top = min(x + 1, (1 << 16) - 1)
    while fits < top:
        mid = (fits + top + 1) // 2
        if 2 * rows(mid) * (mid + 1) <= max_bytes:
            fits = mid
        else:
            top = mid - 1
    size = max(1, fits)
    table = np.zeros((rows(size), size + 1), dtype=np.uint16)
    prev = np.searchsorted(smooth, np.arange(size), side="right")
    for row, r in zip(table, rough.tolist()):
        row[:size] = prev
        lo = r
        while lo < size:
            # v // r is constant on the aligned runs [m r, (m + 1) r).
            hi = min(lo * r, size)
            cut = hi - hi % r
            runs = row[lo:cut].reshape(-1, r)
            runs += row[lo // r : cut // r, None]
            row[cut:hi] += row[cut // r]
            lo = hi
        prev = row[:size]
    return table


def _flat_pairs(offsets: np.ndarray, start: int, stop: int) -> tuple:
    """(owner, k) of the flat pairs start..stop - 1, where entry i owns the
    pairs offsets[i]..offsets[i + 1] - 1 and k counts from 0 within each."""
    first = int(np.searchsorted(offsets, start, side="right")) - 1
    last = int(np.searchsorted(offsets, stop, side="left"))
    spans = np.diff(np.clip(offsets[first : last + 1], start, stop))
    owner = np.repeat(np.arange(first, last), spans)
    return owner, np.arange(start, stop) - offsets[owner]


def _charge_leaves(budget: np.ndarray, cap: np.ndarray, rough: np.ndarray, table: np.ndarray) -> int:
    """Sum of F[min(c, rows - 1), budget // rough[c]] over every node of a
    batch and every c below its cap, where a quotient >= V charges 0.

    table is F with a zero sentinel column at index V.  The batch is
    sorted by cap, descending, so the nodes with cap > c are a prefix.
    A wide column, one of more than _NARROW_COLUMN_NODES nodes, is one
    division of that prefix by the Python int rough[c] (numpy's
    scalar-divisor path) and one take, whose clip mode puts every
    quotient >= V, an inner child's, on the sentinel.  The prefixes
    shrink with c, so the narrow columns are the last ones; their
    (node, c) pairs are charged together, _NODE_CHUNK pairs at a time,
    by one vector division and one take from the flattened table, each
    quotient clipped to V on its own.  Inner children are made and
    charged as nodes of their own.
    """
    rows, width = table.shape
    prefix = np.searchsorted(-cap, -np.arange(int(cap[0])), side="left")
    wide = int(np.searchsorted(-prefix, -_NARROW_COLUMN_NODES, side="left"))
    quot = np.empty(budget.size, dtype=np.int64)
    vals = np.empty(budget.size, dtype=table.dtype)
    total = 0
    for c, (n, r) in enumerate(zip(prefix[:wide].tolist(), rough[:wide].tolist())):
        q = np.floor_divide(budget[:n], r, out=quot[:n])
        row = table[min(c, rows - 1)]
        total += int(row.take(q, mode="clip", out=vals[:n]).sum(dtype=np.int64))
    if wide == prefix.size:
        return total
    nodes = int(prefix[wide])
    offsets = np.zeros(nodes + 1, dtype=np.int64)
    np.cumsum(cap[:nodes] - wide, out=offsets[1:])
    flat = table.ravel()
    end = int(offsets[-1])
    for start in range(0, end, _NODE_CHUNK):
        node, c = _flat_pairs(offsets, start, min(start + _NODE_CHUNK, end))
        c += wide
        q = budget[node] // rough[c]
        np.minimum(q, width - 1, out=q)
        q += np.minimum(c, rows - 1) * width
        total += int(flat.take(q).sum(dtype=np.int64))
    return total


def _walk_rough_tree(smooth: np.ndarray, rough: np.ndarray, x: int, table=None) -> int:
    """Sum over products d <= x of rough primes of #{listed s <= x // d}.

    A node is kept as its budget b = x // d; its children use rough[c]
    for c below its cap.  Only the inner children, c < min(cap, c*(b))
    with c*(b) = #{rough primes <= b // V}, have budget >= V and are made
    as nodes; the others are charged from the leaf table when their
    parent's batch is pushed.  Each stack entry holds a batch of nodes,
    the prefix sums of their inner-child counts and a cursor into those
    children.  A chunk of children is sorted before it is searched in
    the fold list, so that successive searches walk nearby entries.
    table is a leaf table that covers this walk (see _Fold); without one,
    the walk builds its own from smooth and rough.
    """
    if table is None:
        table = _leaf_table(smooth, rough, x, int(_LEAF_TABLE_SHARE * smooth.nbytes))
    size = table.shape[1] - 1
    total = int(np.searchsorted(smooth, x, side="right"))
    stack = []

    def push(budget, cap):
        nonlocal total
        order = np.argsort(-cap)
        budget, cap = budget[order], cap[order]
        total += _charge_leaves(budget, cap, rough, table)
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
        parent, c = _flat_pairs(offsets, start, stop)
        child = budget[parent] // rough[c]
        # A child made with rough[c] may use rough[:c + 1].
        total += int(np.searchsorted(smooth, np.sort(child), side="right").sum())
        push(child, np.minimum(c + 1, np.searchsorted(rough, child, side="right")))
    return total


class _Fold:
    """The list of numbers <= x folded from primes[:top], the rough primes
    it leaves, primes[first:], and, once a walk needs one, a leaf table.

    Folding and the leaf table are exact whatever the split between the
    phases, so one _Fold counts every (x', y') with x' <= x whose y' is
    at least the last folded prime and at most the last rough prime: the
    walk at x' reads smooth[:#{listed <= x'}] and rough[:top' - first].
    F[c, v] depends only on rough[:c + 1] and on the list's counts below
    V <= x + 1, so a table serves every walk whose rough primes it has.
    Two tables may serve a walk: A, on the rough primes of primes[:top]
    alone, the table of the point (x, primes[top - 1]) itself, and B, on
    every rough prime, whose rows may run further and so leave it a V
    no larger.  A walk whose rough primes A has reads A, any other B; only
    one is held at a time, and it is dropped before the other is built.
    """

    def __init__(self, primes: np.ndarray, top: int, x: int):
        self.x = x
        self.top = top
        self.smooth, self.first = _fold_list(primes[:top], x)
        self.rough = primes[self.first :].astype(np.int64)
        self.table = None
        self.table_top = 0

    def leaf_table(self, top: int) -> np.ndarray:
        """The table for a walk on rough[:top - first]: A or B.

        If A has no row for some of its own rough primes, those are >= its
        V, and so are the primes that B adds: B's rows and V are A's, and
        A is kept for the walks that B would serve."""
        want = self.top if top <= self.top else self.first + self.rough.size
        held = self.table_top
        if held != want and not (0 < held < want and len(self.table) < held - self.first):
            self.table = None
            share = int(_LEAF_TABLE_SHARE * self.smooth.nbytes)
            self.table = _leaf_table(self.smooth, self.rough[: want - self.first], self.x, share)
            self.table_top = want
        return self.table

    def covers(self, x: int, top: int) -> bool:
        return x <= self.x and self.first <= top <= self.first + self.rough.size

    def count(self, x: int, top: int) -> int:
        """Psi(x, primes[top - 1]) for a point this fold covers."""
        listed = int(np.searchsorted(self.smooth, x, side="right"))
        if top == self.first:
            return listed
        rough = self.rough[: top - self.first]
        return _walk_rough_tree(self.smooth[:listed], rough, x, self.leaf_table(top))


def psi_many(points: list, pt: PrimeTable) -> list[int | None]:
    """Psi(x, y) at each (x, y) of points from one fold, or None where
    this does not count it.

    The fold is that of the largest point (x, then y) that psi_exact
    would fold, from the primes up to its y, and its rough primes run up
    to the largest y of any such point, so it covers every such point
    whose y is at least the last folded prime (see _Fold).  The points
    that read table A are walked before those that read table B.  A
    MemoryError in the fold, a build or a walk ends the sharing, and the
    points left get None.  A point with None is one for psi_exact alone:
    its count, or its error, is then that of a single call.
    """
    counts = [None] * len(points)
    todo = []
    for i, (x, y) in enumerate(points):
        try:
            x, y = _finite_int(x, "x"), _finite_int(y, "y")
            if not 2 <= y < x:
                continue
            _check_envelope(x, y, pt)
        except SmoothnumError:
            continue
        todo.append((x, int(np.searchsorted(pt.primes, y, side="right")), i))
    if not todo:
        return counts
    x_top, top_y, _ = max(todo)
    top_rough = max(top for _, top, _ in todo)
    try:
        fold = _Fold(pt.primes[:top_rough], top_y, x_top)
        for x, top, i in sorted(todo, key=lambda point: point[1] > top_y):
            if fold.covers(x, top):
                counts[i] = fold.count(x, top)
    except MemoryError:
        pass
    return counts


def _check_envelope(x: int, y: int, pt: PrimeTable) -> None:
    """psi_exact's refusals of a point that needs a fold, 2 <= y < x."""
    # The fold list is int64, so no setting admits x >= 2^63.
    max_x = min(env_limit("SMOOTHNUM_MAX_PSI_X"), 2**63 - 1)
    max_y = env_limit("SMOOTHNUM_MAX_PSI_Y")
    if x > max_x or y > max_y:
        raise ResourceError(
            f"psi_exact envelope is x <= {max_x:g}, y <= {max_y:g}; got ({x}, {y})"
        )
    if y > pt.limit:
        raise RangeError(f"prime table only covers [2, {pt.limit}], need y = {y}")


def psi_exact(x: int, y: int, pt: PrimeTable) -> int:
    """Number of y-smooth integers in [1, x], exact.

    One point is a _Fold of the primes <= y at x and a walk from it.
    A NaN or an infinite x or y is a DomainError."""
    x, y = _finite_int(x, "x"), _finite_int(y, "y")
    if x < 1:
        return 0
    if y >= x:
        return x
    if y < 2:
        return 1
    _check_envelope(x, y, pt)
    top = int(np.searchsorted(pt.primes, y, side="right"))
    phase = "fold"
    try:
        fold = _Fold(pt.primes[:top], top, x)
        phase = "tree"
        return fold.count(x, top)
    except MemoryError as exc:
        raise ResourceError(
            f"psi_exact({x}, {y}) ran out of memory in the {phase} phase"
        ) from exc


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
    A NaN or an infinite x or y is a DomainError.
    """
    x, y = _finite_int(x, "x"), _finite_int(y, "y")
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
