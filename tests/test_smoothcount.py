"""Tests for smoothnum.smoothcount: exact smooth counts, the discrete
Buchstab identity, and the multiplicative alpha weights.

The enumeration oracle (greatest-prime-factor sieve) and the exact
rational alpha oracle live in tests/oracles.py.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from smoothnum import cli, debruijn, primes, smoothcount, specfun
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
resource.setrlimit(resource.RLIMIT_AS, (mapped + ({headroom_mib} << 20), resource.RLIM_INFINITY))
{body}
"""


def _run_under_memory_cap(body, headroom_mib=64):
    src = Path(smoothcount.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    child = _MEMORY_CAP_CHILD.format(body=body, headroom_mib=headroom_mib)
    return subprocess.run(
        [sys.executable, "-c", child],
        capture_output=True, text=True, env=env, timeout=300,
    )


@pytest.mark.skipif(
    not os.path.exists("/proc/self/statm"), reason="needs Linux address-space accounting"
)
def test_psi_exact_out_of_memory_is_resource_error():
    # Under a 64 MB address-space cap the 8M-entry list cannot be built.
    lib = _run_under_memory_cap(
        "print(smoothcount.psi_exact(10**5, 31, pt))\n"
        "try:\n"
        "    smoothcount.psi_exact(10**12, 10**4, pt)\n"
        "except ResourceError as exc:\n"
        "    print(exc)\n"
    )
    assert lib.returncode == 0, lib.stderr
    assert lib.stdout.splitlines() == [
        "6070",
        "psi_exact(1000000000000, 10000) ran out of memory in the fold phase",
    ]
    psi = _run_under_memory_cap("sys.exit(cli.main(['psi', '--x', '1e12', '--y', '1e4']))")
    assert psi.returncode == 4, psi.stderr
    assert psi.stderr.startswith("smoothnum: ResourceError: psi_exact(")
    # x(50) ~ 1718 fits; x(1341) ~ 1.3e11 needs a list of millions.
    grid = _run_under_memory_cap(
        "sys.exit(cli.main(['verify-theorem1', '--y-min', '50', '--y-max', '1341.348',"
        " '--n-points', '2', '--beta0', '0.7', '--skip-infeasible']))"
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
