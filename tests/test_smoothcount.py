"""Tests for smoothnum.smoothcount: exact smooth counts, the discrete
Buchstab identity, and the multiplicative alpha weights.

The enumeration oracle (greatest-prime-factor sieve) and the exact
rational alpha oracle live in tests/oracles.py.
"""

import bisect
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from smoothnum import bias, cli, debruijn, primes, smoothcount, specfun
from smoothnum.errors import DomainError, RangeError, ResourceError


# ----------------------------------------------------------------------
# psi_exact
# ----------------------------------------------------------------------

def test_psi_exact_small_examples(pt100k):
    assert smoothcount.psi_exact(10, 3, pt100k) == 7  # {1,2,3,4,6,8,9}
    assert smoothcount.psi_exact(100, 2, pt100k) == 7  # powers of two and 1
    assert smoothcount.psi_exact(1, 2, pt100k) == 1
    assert smoothcount.psi_exact(0, 5, pt100k) == 0
    assert smoothcount.psi_exact(50, 50, pt100k) == 50
    assert smoothcount.psi_exact(50, 97, pt100k) == 50
    assert smoothcount.psi_exact(17, 1, pt100k) == 1  # only n = 1


def test_psi_exact_frozen_counts(pt100k):
    # Frozen from the enumeration oracle over the full 10^5 sieve.
    want = {2: 17, 3: 101, 5: 313, 7: 694, 11: 1197, 31: 6070}
    for y, count in want.items():
        assert smoothcount.psi_exact(10**5, y, pt100k) == count


@given(st.integers(min_value=1, max_value=30000), st.integers(min_value=2, max_value=100))
def test_psi_exact_matches_enumeration(x, y):
    pt = primes.sieve(10**5)
    gpf = oracles.gpf_sieve(10**5)
    assert smoothcount.psi_exact(x, y, pt) == oracles.psi_brute(x, y, gpf)


def test_psi_exact_step_function_in_y(pt100k):
    # No prime in (23, 29), so every y in between gives the same count.
    base = smoothcount.psi_exact(50000, 23, pt100k)
    for y in (24, 25, 26, 27, 28):
        assert smoothcount.psi_exact(50000, y, pt100k) == base
    assert smoothcount.psi_exact(50000, 29, pt100k) > base


def test_psi_exact_monotone(pt100k):
    for x in range(990, 1011):
        assert smoothcount.psi_exact(x + 1, 7, pt100k) >= smoothcount.psi_exact(x, 7, pt100k)
    counts = [smoothcount.psi_exact(12345, y, pt100k) for y in range(2, 60)]
    assert all(b >= a for a, b in zip(counts, counts[1:]))


def test_psi_exact_interval_inequality(pt100k, gpf100k):
    # Psi(a+b, y) - Psi(a, y) <= Psi(b, y) + 1 on random samples.
    rng = np.random.default_rng(42)
    for _ in range(50):
        a = int(rng.integers(1, 50000))
        b = int(rng.integers(1, 40000))
        y = int(rng.integers(2, 200))
        lhs = smoothcount.psi_exact(a + b, y, pt100k) - smoothcount.psi_exact(a, y, pt100k)
        assert lhs <= smoothcount.psi_exact(b, y, pt100k) + 1


def test_psi_exact_rough_tree_path_matches_direct(pt100k, monkeypatch):
    # Force the capped fold so the rough-prime tree walk engages, and
    # compare against the pure fold-list answer.
    want = [smoothcount.psi_exact(10**5, y, pt100k) for y in (31, 97, 1000)]
    monkeypatch.setattr(smoothcount, "_SMOOTH_LIST_CAP", 50)
    got = [smoothcount.psi_exact(10**5, y, pt100k) for y in (31, 97, 1000)]
    assert got == want


@pytest.mark.parametrize("chunk", [1, 2, 7])
def test_psi_exact_node_chunk_does_not_change_counts(pt100k, monkeypatch, chunk):
    # Tiny batches split every parent's children over many batches and
    # deepen the stack; (10^6, 1000) leaves 158 of 168 primes rough.
    points = [(10**5, 31), (10**5, 97), (10**5, 1000), (10**6, 1000)]
    want = [smoothcount.psi_exact(x, y, pt100k) for x, y in points]
    monkeypatch.setattr(smoothcount, "_NODE_CHUNK", chunk)
    assert [smoothcount.psi_exact(x, y, pt100k) for x, y in points] == want


@pytest.fixture(scope="module")
def gpf300k():
    return oracles.gpf_sieve(3 * 10**5)


@given(
    st.integers(min_value=1, max_value=3 * 10**5),
    st.integers(min_value=2, max_value=2000),
    st.integers(min_value=1, max_value=300),
)
def test_psi_exact_small_fold_list_matches_enumeration(pt100k, gpf300k, x, y, cap):
    # A list of at most `cap` entries stops the fold at p0 <= 7 or so,
    # so most children fall below p0^2 and are charged from the table.
    with mock.patch.object(smoothcount, "_SMOOTH_LIST_CAP", cap):
        got = smoothcount.psi_exact(x, y, pt100k)
    assert got == oracles.psi_brute(x, y, gpf300k)


def _products_up_to(x, ps):
    """Every number <= x built from the primes ps, sorted, by enumeration."""
    values = [1]
    for p in ps:
        grown = []
        for v in values:
            while v <= x:
                grown.append(v)
                v *= p
        values = grown
    return sorted(values)


def _fold_at(x, y, pt):
    """(the primes <= y, psi_exact's fold list at (x, y), how many of the
    primes it folded)."""
    primes_y = pt.primes[: int(np.searchsorted(pt.primes, y, side="right"))]
    return (primes_y, *smoothcount._fold_list(primes_y, x))


@pytest.mark.parametrize("stop", [0.3, 0.45])
@pytest.mark.parametrize("x, y", [(10**6, 100), (3 * 10**7, 1000), (10**5, 3)])
def test_fold_list_matches_enumerated_products(pt100k, monkeypatch, stop, x, y):
    # The folded primes are a prefix primes[:i] from p = 2: both of them
    # at y = 3, and 7 to 11 of them elsewhere, fewer at the higher stop.
    monkeypatch.setattr(smoothcount, "_FOLD_MIN_GROWTH", stop)
    primes_y, smooth, i = _fold_at(x, y, pt100k)
    assert 1 <= i <= primes_y.size and smooth.dtype == np.int64
    # The fold grows the list it owns; no view of a freed buffer escapes.
    assert smooth.flags.owndata
    assert smooth.tolist() == _products_up_to(x, primes_y[:i].tolist())
    if i < primes_y.size:
        growth = int(smoothcount._fold_projection(smooth, int(primes_y[i]), x).sum())
        assert growth < stop * smooth.size


def test_fold_list_peak_is_the_last_list(pt100k):
    # Each fold grows the one list in place (a realloc that tracemalloc
    # follows), so numpy never holds two lists at once; timsort's scratch
    # is not traced.
    tracemalloc.start()
    try:
        _, smooth, _ = _fold_at(10**9, 100, pt100k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert smooth.size > 10**5
    assert peak <= 1.05 * smooth.nbytes


def _rough_part_counts(rough, size, gpf):
    """want[c, v] = #{1 <= n <= v : the part of n made of primes >= p0 is a
    product of primes in rough[:c + 1]}, by trial division below p0 and the
    greatest prime factor of what is left."""
    rest = np.arange(size, dtype=np.int64)
    for p in range(2, int(rough[0])):
        while True:
            hit = (rest % p == 0) & (rest > 0)
            if not hit.any():
                break
            rest[hit] //= p
    rows = max(1, int(np.searchsorted(rough, size)))
    return np.array([
        np.cumsum((rest > 0) & (gpf[rest] <= rough[c])) for c in range(rows)
    ])


def test_leaf_table_matches_rough_part_counts(gpf100k):
    # p0 = 11: the listed values are the 7-smooth numbers <= x.  A 1 MiB
    # bound gives V = 7083 > 11^3, so rough parts with up to three prime
    # factors (1331, 2431 = 11 * 13 * 17, ...) are counted.
    x = 10**4
    smooth = oracles.smooth_values(x, 7, gpf100k)
    rough = np.array([p for p in range(11, 400) if gpf100k[p] == p], dtype=np.int64)
    full = smoothcount._leaf_table(smooth, rough, x, 1 << 20)
    assert full.dtype == np.uint16 and full.shape == (74, 7084)
    assert 11**3 < 7083 and full.nbytes <= 1 << 20 < 2 * 74 * 7085
    assert np.array_equal(full[:, :7083], _rough_part_counts(rough, 7083, gpf100k))
    assert (full[:, :7083] <= np.arange(7083)).all()
    assert not full[:, 7083].any()
    # The walk's bound, a share of the fold list's bytes, keeps a corner of F.
    bound = int(smoothcount._LEAF_TABLE_SHARE * smooth.nbytes)
    small = smoothcount._leaf_table(smooth, rough, x, bound)
    rows, width = small.shape
    assert small.nbytes <= bound < 2 * int(np.searchsorted(rough, width)) * (width + 1)
    assert np.array_equal(small[:, : width - 1], full[:rows, : width - 1])
    assert not small[:, width - 1].any()


@pytest.mark.parametrize("p0", [2, 3, 5])
def test_leaf_table_fill_at_slice_edges(gpf100k, p0):
    # Row c is filled slice by slice, [r^k, r^(k+1)) with r = rough[c], in
    # aligned runs of r entries and a ragged tail.  V = x + 1 sits at
    # p0^k - 1, p0^k and p0^k + 1, so the first row's last slice is cut
    # one short, ends on a power or takes one entry past it; the rows of
    # the other primes end in ragged tails of every length.
    rough = np.array([p for p in range(p0, 200) if gpf100k[p] == p], dtype=np.int64)
    checked = 0
    for k in range(1, 14):
        for size in (p0**k - 1, p0**k, p0**k + 1):
            if not 1 <= size <= 8200:
                continue
            x = size - 1
            smooth = oracles.smooth_values(x, p0 - 1, gpf100k)
            table = smoothcount._leaf_table(smooth, rough, x, 1 << 24)
            assert table.shape[1] == size + 1
            assert np.array_equal(table[:, :size], _rough_part_counts(rough, size, gpf100k))
            assert not table[:, size].any()
            checked += 1
    assert checked >= 12


@pytest.mark.parametrize("x", [11, 60, 100, 120])
def test_rough_tree_below_p0_squared_is_one_lookup_row(gpf100k, x):
    # x < p0^2 = 121, so V = x + 1 and the root's children are all leaves.
    smooth = oracles.smooth_values(x, 7, gpf100k)
    rough = np.array([p for p in range(11, 98) if gpf100k[p] == p], dtype=np.int64)
    table = smoothcount._leaf_table(smooth, rough, x, 1 << 20)
    assert table.shape[1] == x + 2
    want = oracles.psi_brute(x, 97, gpf100k)
    assert table[-1, x] == want
    assert smoothcount._walk_rough_tree(smooth, rough, x) == want


def _phi(b, cap, smooth, rough):
    """#{(s, d) : s listed, d a product of primes in rough[:cap], s d <= b},
    by plain recursion over the largest prime index of d."""
    total = bisect.bisect_right(smooth, b)
    for c in range(cap):
        if rough[c] > b:
            break
        total += _phi(b // rough[c], c + 1, smooth, rough)
    return total


def _column_nodes(cap):
    """The node count of each leaf column of a batch sorted by cap, descending."""
    return np.searchsorted(-cap, -np.arange(int(cap[0])), side="left")


# 2^16 is larger than any batch here, so it stands for the production chunk.
@pytest.mark.parametrize("chunk", [1, 2, 7, 1 << 16])
@pytest.mark.parametrize("table_bytes", ["fold list", "below p0", "one entry", "past p0 squared"])
@pytest.mark.parametrize("x, folded, y", [(10**4, 7, 300), (3000, 2, 1500), (120, 7, 97)])
def test_walk_matches_plain_recursion(gpf100k, monkeypatch, chunk, table_bytes, x, folded, y):
    # The listed values are the numbers <= x built from primes <= folded,
    # the rough primes the rest up to y.  "fold list" is the walk's own
    # bound.  Shrinking the leaf table below p0 makes nodes with budget
    # under p0, whose cap is 0; one entry leaves no leaves at all, so
    # every node is made and searched.  Past p0^2, leaves have rough
    # parts with two prime factors and nodes are still made (x >= p0^3).
    # Each case runs at four narrow-column thresholds: 0 charges every
    # column on the scalar-divisor path, 1 gathers the one-node columns
    # (the root's batch among them), 3 mixes both paths in one batch, and
    # 2^17, above every batch, gathers every column; the chunk also caps
    # the pairs of one gather.
    smooth = oracles.smooth_values(x, folded, gpf100k)
    rough = np.array([p for p in range(folded + 1, y + 1) if gpf100k[p] == p], dtype=np.int64)
    p0 = int(rough[0])
    # In 2-byte entries, each bound counting the zero sentinel column;
    # past p0^2 the bound is the size of the table with V = 4 p0^2.
    past = 4 * p0 * p0
    limit = {
        "below p0": 2 * p0,
        "one entry": 2 * 2,
        "past p0 squared": 2 * max(1, int(np.searchsorted(rough, past))) * (past + 1),
    }.get(table_bytes)
    build, charge = smoothcount._leaf_table, smoothcount._charge_leaves
    caps, sizes = [], []

    def built(s, r, x, max_bytes):
        table = build(s, r, x, max_bytes if limit is None else limit)
        sizes.append(table.shape[1] - 1)
        return table

    def recorded(budget, cap, primes, table):
        caps.append(cap.copy())
        return charge(budget, cap, primes, table)

    monkeypatch.setattr(smoothcount, "_leaf_table", built)
    monkeypatch.setattr(smoothcount, "_charge_leaves", recorded)
    monkeypatch.setattr(smoothcount, "_NODE_CHUNK", chunk)
    want = _phi(x, rough.size, smooth.tolist(), rough.tolist())
    assert want == oracles.psi_brute(x, y, gpf100k)
    mixed = False
    for threshold in (0, 1, 3, 1 << 17):
        caps.clear()
        sizes.clear()
        monkeypatch.setattr(smoothcount, "_NARROW_COLUMN_NODES", threshold)
        assert smoothcount._walk_rough_tree(smooth, rough, x) == want, threshold
        nodes = [_column_nodes(cap) for cap in caps if cap.size and cap[0]]
        assert nodes[0].max() == 1  # the root's batch
        if threshold == 3:
            mixed = any((n > 3).any() and (n <= 3).any() for n in nodes)
    if x < p0 * p0:
        return
    assert mixed or chunk <= 2
    [size] = sizes
    if table_bytes == "past p0 squared":
        assert x >= p0**3 and size > p0 * p0
    made = np.concatenate(caps[1:])
    assert (size >= p0) == (0 not in made)
    assert (table_bytes in ("below p0", "one entry")) == (size < p0)
    # Past p0^2 at x = 10^4 the root's only inner children are 11 to 19.
    if chunk > 2 and made.size > 4:
        assert any(np.unique(cap).size < cap.size for cap in caps)


def _scanned_table_size(rough, x, max_bytes):
    """The leaf table's V by a scan of every candidate size."""
    sizes = np.arange(1, min(x + 1, (1 << 16) - 1) + 1)
    rows = np.maximum(1, np.searchsorted(rough, sizes))
    return max(1, int(np.count_nonzero(2 * rows * (sizes + 1) <= max_bytes)))


def test_leaf_table_size_matches_scan(gpf100k):
    # V is bisected on the fit predicate; a scan of all the sizes is the
    # oracle, over x on both sides of the 2^16 - 1 cap and bounds from
    # below one entry to past the largest table, with a bound that a
    # table fills exactly and one a byte short of it.
    smooth = np.ones(1, dtype=np.int64)
    primes_100k = np.flatnonzero(gpf100k[: 10**5] == np.arange(10**5)).astype(np.int64)
    primes_100k = primes_100k[primes_100k >= 2]
    checked = 0
    for p0 in (2, 11, 97, 1009, 65000, 65521):
        rough = primes_100k[primes_100k >= p0]
        for x in (1, 2, 10, 120, 5000, 65533, 65534, 10**5, 10**12):
            third = min(x + 1, (1 << 16) - 1) // 3 + 1
            exact = 2 * max(1, int(np.searchsorted(rough, third))) * (third + 1)
            for max_bytes in (
                0, 3, 4, 5, 2 * p0, 999, exact - 1, exact, 1 << 16, 1 << 20, 1 << 27, 1 << 33,
            ):
                want = _scanned_table_size(rough, x, max_bytes)
                if 2 * max(1, int(np.searchsorted(rough, want))) * (want + 1) > 1 << 24:
                    continue  # tables past 16 MiB are not built here
                table = smoothcount._leaf_table(smooth, rough, x, max_bytes)
                assert table.shape[1] - 1 == want, (p0, x, max_bytes)
                checked += 1
    assert checked > 300, checked


@pytest.mark.parametrize("bound", ["one row", "below p0", "one entry"])
def test_psi_exact_leaf_table_bound_does_not_change_counts(pt100k, monkeypatch, bound):
    # Shrinking the table's byte bound moves children from the table
    # back to the search-and-push route; below p0 some pushed nodes
    # have no children at all.
    points = [(10**5, 31), (10**5, 97), (10**5, 1000), (10**6, 1000)]
    want = [smoothcount.psi_exact(x, y, pt100k) for x, y in points]
    build = smoothcount._leaf_table
    shapes = []

    def bounded(smooth, rough, x, max_bytes):
        p0 = int(rough[0])
        # In 2-byte entries, each bound counting the zero sentinel column.
        limit = {"one row": 2 * (min(p0 * p0, x + 1) + 1), "below p0": 2 * p0, "one entry": 2 * 2}
        table = build(smooth, rough, x, limit[bound])
        shapes.append((table.shape, p0, limit[bound]))
        return table

    monkeypatch.setattr(smoothcount, "_leaf_table", bounded)
    assert [smoothcount.psi_exact(x, y, pt100k) for x, y in points] == want
    assert shapes
    for (rows, width), p0, limit in shapes:
        assert 2 * rows * width <= limit
        assert bound == "one row" or width - 1 < p0


def test_psi_exact_leaf_table_out_of_memory_is_resource_error(pt100k, monkeypatch, capsys):
    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(smoothcount, "_leaf_table", out_of_memory)
    with pytest.raises(ResourceError) as info:
        smoothcount.psi_exact(10**6, 1000, pt100k)
    assert str(info.value) == "psi_exact(1000000, 1000) ran out of memory in the tree phase"
    assert isinstance(info.value.__cause__, MemoryError)
    assert cli.main(["psi", "--x", "1e6", "--y", "1000"]) == 4
    assert capsys.readouterr().err.startswith("smoothnum: ResourceError: psi_exact(")


@pytest.mark.parametrize("x, y", [(10**5, 293), (99_991, 317), (65_536, 251)])
def test_psi_exact_mostly_rough_matches_enumeration(pt100k, gpf100k, x, y):
    # y near sqrt(x): the growth stop leaves most primes to the tree.
    top = int(np.searchsorted(pt100k.primes, y, side="right"))
    _, first_rough = smoothcount._fold_list(pt100k.primes[:top], x)
    assert first_rough < top // 2
    assert smoothcount.psi_exact(x, y, pt100k) == oracles.psi_brute(x, y, gpf100k)


def test_psi_exact_frozen_grid_counts(pt100k):
    # The four cheapest beta0 = 0.8 points of the README verify-theorem1
    # grid, as (int(x(y)), int(y)).
    want = {
        (226074, 500): 81635,
        (734521, 694): 233049,
        (2585571, 965): 706627,
        (9914577, 1341): 2348652,
    }
    for (x, y), count in want.items():
        assert smoothcount.psi_exact(x, y, pt100k) == count


# A grid of every kind of point a SharedFold meets.  The largest point,
# (10^8, 1000), folds up to 23; its own table, V = 884, has no row for
# its rough primes from 887 on, so it is also the table of the rough
# primes up to 3000, and the block builds it alone.
_MIXED_GRID = [
    (10**8, 1000),
    (3 * 10**7, 3000),  # rough primes past the largest point's y
    (5 * 10**6, 500),
    (500, 300),  # x below V
    (10**6, 13),  # y below the last folded prime: folds on its own
    (50, 100), (0, 10), (1000, 1),  # x <= y, x < 1, y < 2
    (2 * 10**12, 100), (10**6, 2 * 10**5),  # past the envelope
]

# A grid that reads both tables, in turn: A, the largest point's own,
# with a row for each of its rough primes 29..97 and V = 7970, and B,
# on the rough primes up to 3000, V = 884.
_TWO_TABLE_GRID = [
    (10**8, 100),  # A
    (3 * 10**7, 3000),  # B
    (2 * 10**7, 60),  # A
    (5 * 10**6, 500),  # B
    (500, 300),  # B, x below V
    (10**6, 13),  # folds on its own
    (50, 100), (2 * 10**12, 100),
]


def _psi_or_error(x, y, pt):
    try:
        return smoothcount.psi_exact(x, y, pt)
    except ResourceError as exc:
        return str(exc)


def _recording_fold_list(monkeypatch):
    calls = []
    fold_list = smoothcount._fold_list

    def recorded(primes, x):
        calls.append(x)
        return fold_list(primes, x)

    monkeypatch.setattr(smoothcount, "_fold_list", recorded)
    return calls


def _recording_leaf_table(monkeypatch, shared=None):
    """The (largest rough prime, table) of each leaf table built; with a
    SharedFold, each build asserts that its fold holds no table."""
    tables = []
    build = smoothcount._leaf_table

    def recorded(smooth, rough, x, max_bytes):
        if shared is not None and shared.fold is not None:
            assert shared.fold.table is None
        tables.append((int(rough[-1]), build(smooth, rough, x, max_bytes)))
        return tables[-1][1]

    monkeypatch.setattr(smoothcount, "_leaf_table", recorded)
    return tables


def _recording_walks(monkeypatch):
    """The (x, largest rough prime, table) of each walk given a table."""
    walks = []
    walk = smoothcount._walk_rough_tree

    def recorded(smooth, rough, x, table=None):
        walks.append((x, int(rough[-1]), table))
        return walk(smooth, rough, x, table)

    monkeypatch.setattr(smoothcount, "_walk_rough_tree", recorded)
    return walks


def test_shared_fold_counts_match_psi_exact_alone(pt100k, monkeypatch):
    want = [_psi_or_error(x, y, pt100k) for x, y in _MIXED_GRID]
    assert want[-2:] == [
        "psi_exact envelope is x <= 1e+12, y <= 100000; got (2000000000000, 100)",
        "psi_exact envelope is x <= 1e+12, y <= 100000; got (1000000, 200000)",
    ]
    calls = _recording_fold_list(monkeypatch)
    with smoothcount.SharedFold(_MIXED_GRID, pt100k) as shared:
        tables = _recording_leaf_table(monkeypatch, shared)
        assert shared.fold is None  # built at the first point that may use it
        got = [_psi_or_error(x, y, pt100k) for x, y in _MIXED_GRID]
        fold = shared.fold
        assert (fold.x, int(fold.rough[0]), int(fold.rough[-1])) == (10**8, 29, 2999)
        assert fold.table.shape == (144, 885)
        assert not fold.covers(10**6, int(np.searchsorted(pt100k.primes, 13, side="right")))
    assert got == want
    assert calls == [10**8, 10**6]
    # One table, A; B would be the same table.
    assert [top for top, _ in tables] == [997]
    share = int(smoothcount._LEAF_TABLE_SHARE * fold.smooth.nbytes)
    every = smoothcount._leaf_table(fold.smooth, fold.rough, 10**8, share)
    assert np.array_equal(every, tables[0][1])
    assert shared.fold is None and smoothcount._SHARED.get() is None
    # Outside the block every point folds on its own again.
    smoothcount.psi_exact(5 * 10**6, 500, pt100k)
    assert calls[-1] == 5 * 10**6


def test_shared_fold_reads_the_largest_points_own_table(pt100k, monkeypatch):
    # A point whose rough primes are all the largest point's reads table A,
    # any other table B; the block drops the table it holds before it
    # builds the other, so a grid that alternates builds each in turn.
    want = [_psi_or_error(x, y, pt100k) for x, y in _TWO_TABLE_GRID]
    walks = _recording_walks(monkeypatch)
    with smoothcount.SharedFold(_TWO_TABLE_GRID, pt100k) as shared:
        tables = _recording_leaf_table(monkeypatch, shared)
        got = [_psi_or_error(x, y, pt100k) for x, y in _TWO_TABLE_GRID]
    assert got == want
    # (10^6, 13) folds every prime of its own and builds no table.
    assert [top for top, _ in tables] == [97, 2999, 97, 2999]
    assert [t.shape for _, t in tables[:2]] == [(16, 7971), (144, 885)]
    read = {(x, top): table for x, top, table in walks}
    assert read[10**8, 97] is tables[0][1] and read[3 * 10**7, 2999] is tables[1][1]
    assert read[2 * 10**7, 59] is tables[2][1] and read[500, 293] is tables[3][1]
    # Table A is the one psi_exact builds for the largest point alone.
    alone = _recording_leaf_table(monkeypatch)
    assert smoothcount.psi_exact(10**8, 100, pt100k) == want[0]
    [(_, table)] = alone
    assert np.array_equal(read[10**8, 97], table)


@pytest.mark.parametrize("table", ["A", "B"])
def test_shared_fold_out_of_memory_counts_alone(pt100k, monkeypatch, table):
    # A MemoryError in the first build of table A, or of table B, ends the
    # sharing: that point and the rest fold on their own.
    want = [_psi_or_error(x, y, pt100k) for x, y in _TWO_TABLE_GRID]
    build = smoothcount._leaf_table
    failing = {"A": 97, "B": 2999}[table]
    failed = []

    def shared_build_fails(smooth, rough, x, max_bytes):
        if not failed and x == 10**8 and rough[-1] == failing:
            failed.append(x)
            raise MemoryError
        return build(smooth, rough, x, max_bytes)

    monkeypatch.setattr(smoothcount, "_leaf_table", shared_build_fails)
    calls = _recording_fold_list(monkeypatch)
    with smoothcount.SharedFold(_TWO_TABLE_GRID, pt100k) as shared:
        got = [_psi_or_error(x, y, pt100k) for x, y in _TWO_TABLE_GRID]
        assert shared.fold is None
    assert failed and got == want
    # The shared fold, then each point from the failed one on with a fold
    # of its own.
    alone = [3 * 10**7, 2 * 10**7, 5 * 10**6, 500, 10**6]
    assert calls == {"A": [10**8, 10**8] + alone, "B": [10**8] + alone}[table]


def test_grid_command_folds_its_largest_point_once(monkeypatch, capsys, pt100k):
    argv = ["bias-scan", "--beta0", "0.75", "--y-min", "1000", "--y-max", "2000",
            "--n-points", "3"]
    largest = int(math.exp(bias.x_of_y(2000.0, 0.75)))
    calls = _recording_fold_list(monkeypatch)
    tables = _recording_leaf_table(monkeypatch)
    assert cli.main(argv) == 0
    assert calls == [largest]
    # One beta0: the largest point has the largest y, so only table A.
    assert [top for top, _ in tables] == [1999]
    rows = capsys.readouterr().out.splitlines()[1:]
    counts = [int(float(row.split(",")[4])) for row in rows]
    points = [(float(row.split(",")[0]), float(row.split(",")[1])) for row in rows]
    # A second command pays for its own fold: nothing outlives cli.main.
    assert cli.main(argv) == 0
    assert calls == [largest, largest]
    assert smoothcount._SHARED.get() is None
    assert counts == [smoothcount.psi_exact(x, y, pt100k) for x, y in points]


def test_readme_grid_builds_two_leaf_tables(monkeypatch, capsys, pt100k):
    # The README verify-theorem1 grid: the beta0 = 0.7 points, the largest
    # (1.29e11, 1341) among them, read table A, then the beta0 = 0.8
    # points up to y = 1341 still read A and those past it B.
    argv = ["verify-theorem1", "--y-min", "500", "--y-max", "5000", "--n-points", "8",
            "--beta0", "0.7,0.8", "--skip-infeasible"]
    tables = _recording_leaf_table(monkeypatch)
    walks = _recording_walks(monkeypatch)
    assert cli.main(argv) == 0
    csv_bytes = capsys.readouterr().out
    assert [top for top, _ in tables] == [1327, 4999]
    x, top, table = max(walks, key=lambda walk: walk[0])
    assert (x, top) == (128972325503, 1327) and table is tables[0][1]
    tables.clear()
    assert smoothcount.psi_exact(x, 1341, pt100k) == 2336757732
    [(_, alone)] = tables
    assert np.array_equal(table, alone)
    # The other order of beta0 reads A, B and A again, to the same bytes.
    tables.clear()
    assert cli.main(argv[:-2] + ["0.8,0.7", "--skip-infeasible"]) == 0
    assert capsys.readouterr().out == csv_bytes
    assert [top for top, _ in tables] == [1327, 4999, 1327]


def test_psi_exact_frozen_count_at_large_x(pt100k):
    # 10^11 with y = 10^4: a fold list of millions and a rough tree of
    # about 0.9M nodes whose 150M leaves are charged column by column.
    assert smoothcount.psi_exact(10**11, 10**4, pt100k) == 9091106074


_MEMORY_CAP_CHILD = """
import resource, sys
import numpy as np
from smoothnum import cli, primes, smoothcount, specfun
from smoothnum.errors import ResourceError

pt = primes.sieve(10**4)
specfun.default_rho_table()
np.ones((64, 64)) @ np.ones((64, 64))  # BLAS buffers, before the cap
with open("/proc/self/statm") as f:
    mapped = int(f.read().split()[0]) * resource.getpagesize()
headroom_mib = {headroom_mib}
if headroom_mib is not None:
    resource.setrlimit(resource.RLIMIT_AS, (mapped + (headroom_mib << 20), resource.RLIM_INFINITY))
{body}
"""


def _run_under_memory_cap(body, headroom_mib=64, env=None):
    """Run body in a child whose address space may grow by headroom_mib
    past what it maps after its set-up, or without a cap if None."""
    src = Path(smoothcount.__file__).resolve().parents[1]
    env = dict(os.environ, **(env or {}), PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    child = _MEMORY_CAP_CHILD.format(body=body, headroom_mib=headroom_mib)
    return subprocess.run(
        [sys.executable, "-c", child],
        capture_output=True, text=True, env=env, timeout=300,
    )


@pytest.mark.skipif(
    not os.path.exists("/proc/self/statm"), reason="needs Linux address-space accounting"
)
def test_psi_exact_out_of_memory_is_resource_error():
    # Both infeasible points stop folding at _SMOOTH_LIST_CAP, not at the
    # growth stop (6.64M and 7.25M entries after their last fold, at
    # every stop from 0.3 to 0.45).  That fold grows its one list in
    # place, then timsort's merge scratch, up to half the list, sits
    # beside it; together they exceed the 64 MiB headroom, though the
    # list alone (51 and 55 MiB) does not.  That premise is checked here
    # in uncapped children: the fold must raise VmPeak by more than the
    # headroom over what the child had mapped before it.
    x_grid = int(math.exp(bias.x_of_y(2600.0, 0.7)))  # ~7.4e13
    for x, y in [(10**13, 10**4), (x_grid, 2600)]:
        fold = _run_under_memory_cap(
            "def vm_peak():\n"
            "    with open('/proc/self/status') as f:\n"
            "        return next(int(l.split()[1]) << 10 for l in f if l.startswith('VmPeak:'))\n"
            "before = vm_peak()\n"
            f"primes_y = pt.primes[: int(np.searchsorted(pt.primes, {y}, side='right'))]\n"
            f"smooth, _ = smoothcount._fold_list(primes_y, {x})\n"
            "print(before - mapped, vm_peak() - mapped, smooth.nbytes)\n",
            headroom_mib=None,
        )
        assert fold.returncode == 0, fold.stderr
        before, after, list_bytes = map(int, fold.stdout.split())
        assert before < after and list_bytes < 64 << 20 < after
    env = {"SMOOTHNUM_MAX_PSI_X": "1e14"}
    lib = _run_under_memory_cap(
        "print(smoothcount.psi_exact(10**5, 31, pt))\n"
        "try:\n"
        "    smoothcount.psi_exact(10**13, 10**4, pt)\n"
        "except ResourceError as exc:\n"
        "    print(exc)\n",
        env=env,
    )
    assert lib.returncode == 0, lib.stderr
    assert lib.stdout.splitlines() == [
        "6070",
        "psi_exact(10000000000000, 10000) ran out of memory in the fold phase",
    ]
    psi = _run_under_memory_cap(
        "sys.exit(cli.main(['psi', '--x', '1e13', '--y', '1e4']))", env=env
    )
    assert psi.returncode == 4, psi.stderr
    assert psi.stderr.startswith("smoothnum: ResourceError: psi_exact(")
    # x(50) ~ 1718 fits; x(2600) does not.
    grid = _run_under_memory_cap(
        "sys.exit(cli.main(['verify-theorem1', '--y-min', '50', '--y-max', '2600',"
        " '--n-points', '2', '--beta0', '0.7', '--skip-infeasible']))",
        env=env,
    )
    assert grid.returncode == 0, grid.stderr
    rows = grid.stdout.splitlines()
    assert len(rows) == 2 and rows[1].split(",")[1] == "50"


@pytest.mark.skipif(
    not os.path.exists("/proc/self/statm"), reason="needs Linux address-space accounting"
)
@pytest.mark.parametrize("headroom_mib", [16, 32])
def test_lambda_under_tight_memory_cap_never_dies_in_blas(headroom_mib):
    # Lambda's quadrature reduces with numpy sums, not BLAS matvecs: an
    # OpenBLAS buffer that cannot be allocated aborts the process with
    # exit 1 and no smoothnum error line.
    run = _run_under_memory_cap(
        "sys.exit(cli.main(['lambda', '--x', '2e6', '--y', '200']))", headroom_mib
    )
    assert run.returncode in (0, 4), run.stderr
    assert "OpenBLAS" not in run.stderr


@pytest.mark.skipif(
    not os.path.exists("/proc/self/statm"), reason="needs Linux address-space accounting"
)
def test_memory_error_outside_guarded_kernels_exits_4():
    # The 10^7-point y grid is built before any kernel runs.
    run = _run_under_memory_cap(
        "sys.exit(cli.main(['verify-theorem1', '--y-min', '500', '--y-max', '5000',"
        " '--n-points', '10000000', '--beta0', '0.7']))"
    )
    assert run.returncode == 4, run.stderr
    assert run.stdout == ""
    assert run.stderr == "smoothnum: ResourceError: out of memory\n"


def test_lambda_out_of_memory_is_resource_error(monkeypatch, capsys):
    def out_of_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(debruijn, "_integrate_pieces", out_of_memory)
    with pytest.raises(ResourceError) as info:
        debruijn.lambda_xy(4.4e5, 200.0, specfun.default_rho_table())
    assert str(info.value) == "lambda_xy(440000.0, 200.0) ran out of memory"
    assert isinstance(info.value.__cause__, MemoryError)
    assert cli.main(["lambda", "--x", "4.4e5", "--y", "200"]) == 4
    assert capsys.readouterr().err.startswith("smoothnum: ResourceError: lambda_xy(")


def test_psi_exact_resource_and_range_errors(pt100k, monkeypatch):
    with pytest.raises(ResourceError):
        smoothcount.psi_exact(2 * 10**12, 100, pt100k)
    with pytest.raises(ResourceError):
        smoothcount.psi_exact(10**6, 2 * 10**5, pt100k)
    small = primes.sieve(1000)
    with pytest.raises(RangeError):
        smoothcount.psi_exact(10**6, 5000, small)
    monkeypatch.setenv("SMOOTHNUM_MAX_PSI_X", "1000")
    with pytest.raises(ResourceError):
        smoothcount.psi_exact(2000, 10, pt100k)


def test_psi_exact_refuses_x_past_int64_whatever_the_setting(pt100k, monkeypatch, capsys):
    # The fold list is int64; 2^63 - 1 is the largest x it can hold.
    monkeypatch.setenv("SMOOTHNUM_MAX_PSI_X", "1e19")
    with pytest.raises(ResourceError):
        smoothcount.psi_exact(2**63, 3, pt100k)
    assert cli.main(["psi", "--x", "1e19", "--y", "3"]) == 4
    assert capsys.readouterr().err.startswith("smoothnum: ResourceError: psi_exact")
    x = 2**63 - 1
    want, power3 = 0, 1
    while power3 <= x:  # 2^a 3^b <= x for the a below (x // 3^b).bit_length()
        want += (x // power3).bit_length()
        power3 *= 3
    assert want == 1303
    assert smoothcount.psi_exact(x, 3, pt100k) == want


def test_psi_exact_trivial_cases_come_before_the_envelope():
    # None of these reads the prime table, which covers only [2, 10].
    small = primes.sieve(10)
    assert smoothcount.psi_exact(10, 9 * 10**8, small) == 10
    assert smoothcount.psi_exact(2 * 10**6, 3 * 10**6, small) == 2 * 10**6
    assert smoothcount.psi_exact(5 * 10**12, 1, small) == 1
    assert smoothcount.psi_exact(0, 9 * 10**8, small) == 0


# ----------------------------------------------------------------------
# buchstab_residual_psi
# ----------------------------------------------------------------------

def test_buchstab_residual_examples(pt100k):
    assert smoothcount.buchstab_residual_psi(100, 3, 10, pt100k) == 0
    assert smoothcount.buchstab_residual_psi(10**6, 10**2, 10**3, pt100k) == 0
    assert smoothcount.buchstab_residual_psi(500, 7, 7, pt100k) == 0


def test_buchstab_residual_random_triples(pt100k):
    rng = np.random.default_rng(20260813)
    for _ in range(25):
        x = int(rng.integers(100, 10**6))
        y = int(rng.integers(2, 50))
        z = int(rng.integers(y, 500))
        assert smoothcount.buchstab_residual_psi(x, y, z, pt100k) == 0


def test_buchstab_residual_domain_error(pt100k):
    with pytest.raises(DomainError):
        smoothcount.buchstab_residual_psi(100, 10, 3, pt100k)


# ----------------------------------------------------------------------
# alpha weights
# ----------------------------------------------------------------------

def test_alpha_values_match_exact_rationals(pt100k):
    for y in (5, 10):
        vals = smoothcount.alpha_values(200, y, pt100k)
        for n in range(1, 201):
            want = float(oracles.alpha_rational(n, y))
            assert vals[n] == pytest.approx(want, abs=1e-12), f"n={n} y={y}"
    # Frozen spot values: alpha_3(4) = 1/2, alpha_5(8) = 2/3.
    assert smoothcount.alpha_values(4, 3, pt100k)[4] == pytest.approx(0.5, abs=1e-15)
    assert smoothcount.alpha_values(8, 5, pt100k)[8] == pytest.approx(2 / 3, abs=1e-15)


def test_alpha_is_one_on_squarefree_smooth(pt100k, gpf100k):
    vals = smoothcount.alpha_values(10**4, 10, pt100k)
    sq = np.ones(10**4 + 1, dtype=bool)
    for p in range(2, 101):
        sq[p * p :: p * p] = False
    for n in range(1, 10**4 + 1):
        if gpf100k[n] <= 10 and sq[n]:
            assert vals[n] == pytest.approx(1.0, abs=1e-12), f"n={n}"


def test_alpha_vanishes_off_smooth_support(pt100k, gpf100k):
    vals = smoothcount.alpha_values(10**4, 10, pt100k)
    rough = np.flatnonzero(gpf100k[: 10**4 + 1] > 10)
    assert np.all(vals[rough] == 0.0)


def test_alpha_summatory_frozen_value(pt100k):
    # Frozen from the exact rational sum, which rounds to the same float.
    assert smoothcount.alpha_summatory(1000, 5, pt100k) == 29.33182319223986


def test_alpha_summatory_matches_rational_oracle(pt100k):
    for x, y in ((1000, 5), (3000, 7)):
        want = float(sum(oracles.alpha_rational(n, y) for n in range(1, x + 1)))
        assert smoothcount.alpha_summatory(x, y, pt100k) == pytest.approx(want, rel=1e-12)


def test_alpha_errors(pt100k, monkeypatch):
    with pytest.raises(ResourceError):
        smoothcount.alpha_values(2 * 10**7, 10, pt100k)
    with pytest.raises(DomainError):
        smoothcount.alpha_values(0, 10, pt100k)
    small = primes.sieve(100)
    with pytest.raises(RangeError):
        smoothcount.alpha_values(1000, 500, small)
    monkeypatch.setenv("SMOOTHNUM_MAX_ALPHA_X", "100")
    with pytest.raises(ResourceError):
        smoothcount.alpha_values(200, 10, pt100k)
