"""Tests for smoothnum.zetazeros: zeta evaluation, zero tables, zero sums.

mpmath (arbitrary precision, independent algorithm) serves as the oracle
for zeta values and brute-force zero sums.
"""

import cmath
import math

import mpmath as mp
import numpy as np
import pytest

from conftest import ZEROS_PATH
from smoothnum import primes, zetazeros
from smoothnum.errors import ParseError, PoleError, RangeError, SingularityError

mp.mp.dps = 30


# ----------------------------------------------------------------------
# riemann_zeta
# ----------------------------------------------------------------------

def test_zeta_closed_forms():
    assert zetazeros.riemann_zeta(2.0).real == pytest.approx(math.pi**2 / 6, rel=1e-12)
    assert zetazeros.riemann_zeta(0.0).real == pytest.approx(-0.5, rel=1e-12)
    assert zetazeros.riemann_zeta(-1.0).real == pytest.approx(-1.0 / 12.0, rel=1e-12)


def test_zeta_matches_mpmath_across_strip():
    points = [
        2.0,
        0.5 + 14.1j,
        -1.0 + 3.0j,
        4.0 - 100.0j,
        0.1 + 1000.0j,
        3.9 + 99999.0j,
        0.5 - 0.5j,
    ]
    for s in points:
        got = zetazeros.riemann_zeta(s)
        want = complex(mp.zeta(mp.mpc(s)))
        assert abs(got - want) <= 1e-10 * abs(want), f"s={s}"


def test_zeta_small_at_first_zero(zeros10k):
    gamma1 = float(zeros10k.gammas[0])
    assert abs(zetazeros.riemann_zeta(complex(0.5, gamma1))) < 1e-4


def test_zeta_conjugate_symmetry():
    rng = np.random.default_rng(7)
    re = rng.uniform(-1.0, 4.0, 100)
    im = rng.uniform(0.1, 1000.0, 100)
    for sr, si in zip(re, im):
        s = complex(sr, si)
        assert zetazeros.riemann_zeta(s.conjugate()) == zetazeros.riemann_zeta(s).conjugate()


def test_zeta_pole_and_range_errors():
    with pytest.raises(PoleError):
        zetazeros.riemann_zeta(1.0)
    for bad in (5.0, -2.0, 1.0 + 2e5j):
        with pytest.raises(RangeError):
            zetazeros.riemann_zeta(bad)


# ----------------------------------------------------------------------
# zeta_times_s_minus_1
# ----------------------------------------------------------------------

def test_entire_product_at_pole_is_one():
    assert zetazeros.zeta_times_s_minus_1(1.0) == 1.0 + 0.0j


def test_entire_product_near_pole_matches_mpmath():
    # Crosses the Laurent-series window (|s-1| < 1e-3) and the direct
    # evaluation just outside it.
    for d in (1e-4 + 1e-4j, 9.9e-4, -8e-4j, 1.1e-3, 0.1):
        s = 1.0 + d
        got = zetazeros.zeta_times_s_minus_1(s)
        want = complex(mp.zeta(mp.mpc(s)) * (mp.mpc(s) - 1))
        assert abs(got - want) <= 1e-12 * abs(want), f"d={d}"


# ----------------------------------------------------------------------
# log_zeta_times_s_minus_1
# ----------------------------------------------------------------------

def test_log_branch_real_axis():
    got = zetazeros.log_zeta_times_s_minus_1(2.0)
    assert got.imag == 0.0
    assert got.real == pytest.approx(math.log(math.pi**2 / 6), rel=1e-12)
    assert zetazeros.log_zeta_times_s_minus_1(0.75).imag == 0.0


def test_log_branch_exponentiates_back():
    for s in (0.75 + 33.7j, 2.0 + 5.0j, 0.3 + 100.5j, 1.0 + 1.0j, 0.6 - 21.5j):
        lw = zetazeros.log_zeta_times_s_minus_1(s)
        w = zetazeros.zeta_times_s_minus_1(s)
        assert abs(cmath.exp(lw) - w) <= 1e-9 * abs(w), f"s={s}"


def test_log_branch_conjugate_symmetry():
    up = zetazeros.log_zeta_times_s_minus_1(0.75 + 0.5j)
    down = zetazeros.log_zeta_times_s_minus_1(0.75 - 0.5j)
    assert up == down.conjugate()


def test_log_branch_singularity_near_zero(zeros10k):
    gamma1 = float(zeros10k.gammas[0])
    with pytest.raises(SingularityError):
        zetazeros.log_zeta_times_s_minus_1(complex(0.5, gamma1))


# ----------------------------------------------------------------------
# load_zeros
# ----------------------------------------------------------------------

def test_load_zeros_truncation(tmp_path):
    path = tmp_path / "two.txt"
    path.write_text("14.134725\n21.022040\n")
    zl = zetazeros.load_zeros(path, height=20.0)
    assert zl.count == 1
    assert zl.height == 20.0


def test_load_zeros_empty_file(tmp_path):
    path = tmp_path / "empty.txt"
    path.write_text("")
    # N(10) is about 0, so an empty table is complete up to 10; about 9.4
    # ordinates lie below 50, so claiming that height for it is an error.
    zl = zetazeros.load_zeros(path, height=10.0)
    assert zl.count == 0
    assert zl.height == 10.0
    with pytest.raises(ParseError):
        zetazeros.load_zeros(path, height=50.0)


def test_load_zeros_first_hundred(tmp_path, zeros10k):
    # gamma_100 = 236.5242... sits just above 236, so height 236 keeps 99
    # ordinates and height 237 keeps the full hundred.
    head = "\n".join(f"{float(g)!r}" for g in zeros10k.gammas[:100]) + "\n"
    path = tmp_path / "first100.txt"
    path.write_text(head)
    assert zetazeros.load_zeros(path, height=236.0).count == 99
    assert zetazeros.load_zeros(path, height=237.0).count == 100


def test_load_zeros_parse_errors(tmp_path):
    cases = {
        "blank.txt": ("14.134725\n\n21.022040\n", 2),
        "garbled.txt": ("14.134725\ntwenty-one\n", 2),
        "negative.txt": ("14.134725\n-3.0\n", 2),
        "unsorted.txt": ("14.134725\n25.010858\n21.022040\n", 3),
    }
    for name, (content, lineno) in cases.items():
        path = tmp_path / name
        path.write_text(content)
        with pytest.raises(ParseError) as exc:
            zetazeros.load_zeros(path, height=30.0)
        assert exc.value.line == lineno
        assert f"line {lineno}" in str(exc.value)


def test_load_zeros_rejects_wrong_first_ordinate(tmp_path):
    path = tmp_path / "wrongfirst.txt"
    path.write_text("15.0\n21.022040\n")
    with pytest.raises(ParseError):
        zetazeros.load_zeros(path, height=30.0)


def test_load_zeros_count_consistency_check(tmp_path, zeros10k):
    # 100 ordinates cannot possibly be complete up to height 10^4.
    head = "\n".join(f"{float(g)!r}" for g in zeros10k.gammas[:100]) + "\n"
    path = tmp_path / "incomplete.txt"
    path.write_text(head)
    with pytest.raises(ParseError):
        zetazeros.load_zeros(path, height=1e4)


def test_load_zeros_default_height_is_last_ordinate(tmp_path, zeros10k):
    full = zetazeros.load_zeros(ZEROS_PATH)
    last = zetazeros.load_zeros(ZEROS_PATH, height=float(full.gammas[-1]))
    assert full.height == last.height == float(full.gammas[-1])
    assert np.array_equal(full.gammas, last.gammas)
    # The count check still runs: the first 100 ordinates plus one at
    # 9924.4 cannot be complete up to that last ordinate.
    sparse = tmp_path / "sparse.txt"
    gammas = list(zeros10k.gammas[:100]) + [zeros10k.gammas[-100]]
    sparse.write_text("\n".join(f"{float(g)!r}" for g in gammas) + "\n")
    with pytest.raises(ParseError, match="were expected"):
        zetazeros.load_zeros(sparse)
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    with pytest.raises(ParseError, match="zero table is empty"):
        zetazeros.load_zeros(empty)
    for unreadable in (tmp_path / "missing.txt", tmp_path):
        with pytest.raises(ParseError, match="cannot read zero table"):
            zetazeros.load_zeros(unreadable)


def test_leading_height_keeps_first_n(zeros10k):
    for n in (1, 1000, zeros10k.count):
        big_t = zeros10k.leading_height(n)
        assert big_t == float(zeros10k.gammas[n - 1]) * (1 + 1e-12)
        assert zeros10k.up_to(big_t).size == n
    for n in (0, -3, zeros10k.count + 1):
        with pytest.raises(RangeError):
            zeros10k.leading_height(n)


def test_load_zeros_bad_height():
    for height in (0.0, math.nan, math.inf):
        with pytest.raises(RangeError):
            zetazeros.load_zeros(ZEROS_PATH, height=height)


def test_fixture_table_shape(zeros10k):
    # The shipped table is complete through height 10010 (10154 zeros).
    assert zeros10k.count == 10154
    assert np.all(np.diff(zeros10k.gammas) > 0)
    assert zeros10k.gammas[0] == pytest.approx(14.134725141734694, abs=1e-9)
    assert zeros10k.gammas[-1] <= zeros10k.height


# ----------------------------------------------------------------------
# zero_sum
# ----------------------------------------------------------------------

def test_zero_sum_empty_below_first_ordinate(zeros10k):
    assert zetazeros.zero_sum(zeros10k, 100.0, 0.0, 10.0) == 0.0


def test_zero_sum_exactly_real_for_real_s0(zeros10k):
    for s0 in (0.0, 0.7, -0.3):
        val = zetazeros.zero_sum(zeros10k, 1234.5, s0, 5000.0)
        assert type(val) is float
    # Frozen bit for bit.
    assert zetazeros.zero_sum(zeros10k, 1234.5, 0.7, 5000.0).real == -3.2818859388110138


def test_zero_sum_matches_mpmath_brute(zeros10k):
    g = zeros10k.gammas
    big_t = float(g[49])
    for s0 in (0.0, 0.7):
        want = mp.mpc(0)
        for gamma in g[g <= big_t]:
            rho = mp.mpc(0.5, gamma)
            want += mp.power(100, rho) / (rho - mp.mpc(s0))
            want += mp.power(100, mp.conj(rho)) / (mp.conj(rho) - mp.mpc(s0))
        got = zetazeros.zero_sum(zeros10k, 100.0, s0, big_t)
        assert abs(got - complex(want)) <= 1e-12 * max(1.0, abs(complex(want)))


def test_zero_sum_shift_bound(zeros10k):
    # Moving s0 from 0 to beta changes each pair by at most
    # |beta| * 2 sqrt(y) / (gamma (gamma - |beta|)).
    beta, y, big_t = 0.7, 100.0, 1000.0
    g = zeros10k.gammas[zeros10k.gammas <= big_t]
    bound = beta * np.sum(2.0 * math.sqrt(y) / (g * (g - beta)))
    diff = abs(
        zetazeros.zero_sum(zeros10k, y, beta, big_t)
        - zetazeros.zero_sum(zeros10k, y, 0.0, big_t)
    )
    assert diff <= bound


def test_zero_sum_explicit_formula_residual(zeros10k, pt100k):
    # psi(y) - y + sum over |gamma| <= y of y^rho/rho is small (of the
    # order log^2 y; the sqrt(y) bound here is deliberately loose).
    y = 1e4
    psi = primes.chebyshev_psi(pt100k, y).psi
    zs = zetazeros.zero_sum(zeros10k, y, 0.0, y)
    assert abs(psi - y + zs.real) <= math.sqrt(y)


@pytest.mark.parametrize("big_t, bound", [(1000.0, 0.15), (10009.1, 0.04)])
def test_explicit_formula_on_a_log_grid(zeros10k, big_t, bound):
    """psi(y) = y - sum_rho y^rho/rho - log 2 pi - 1/2 log(1 - y^-2),
    truncated at |gamma| <= T, at 40 points y = floor(e^t) + 1/2 with t
    evenly spaced over [log 100, log 1.5e5] (no y is a prime power).

    The bounds on max |residual|/sqrt(y) are the measured 0.105 at
    T = 1000 and 0.026 at T = 10009.1, with room.  This checks that
    zero_sum, _pair_terms and chebyshev_psi are consistent with each
    other; it is not a proof that the table is complete: dropping 50
    zeros near gamma = 5000 moved the residual at T = 10009.1 only from
    0.026 to 0.030.
    """
    pt = primes.sieve(150_000)
    worst = 0.0
    for t in np.linspace(math.log(100.0), math.log(1.5e5), 40):
        y = math.floor(math.exp(t)) + 0.5
        psi = primes.chebyshev_psi(pt, y).psi
        model = (
            y
            - zetazeros.zero_sum(zeros10k, y, 0.0, big_t)
            - math.log(2.0 * math.pi)
            - 0.5 * math.log1p(-(y**-2))
        )
        worst = max(worst, abs(psi - model) / math.sqrt(y))
    assert worst <= bound


def test_zero_sum_range_errors(zeros10k):
    with pytest.raises(RangeError):
        zetazeros.zero_sum(zeros10k, 100.0, 0.0, zeros10k.height * 1.01)
    with pytest.raises(RangeError):
        zeros10k.up_to(math.nan)
    with pytest.raises(RangeError):
        zetazeros.zero_sum(zeros10k, 1.0, 0.0, 100.0)
