"""Tests for smoothnum.primes: sieve, chebyshev_psi, prime-power sums.

Brute-force oracles (trial-division sieve, mpmath prime-power sums,
exact lcm) live in tests/oracles.py; frozen literals below were
produced by them.
"""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

import oracles
from smoothnum import primes
from smoothnum.errors import DomainError, RangeError, ResourceError


def _pps_brute(pt, s, y):
    """Prime-power sum via mpmath, term by term (independent route)."""
    total = mp.mpc(0)
    for p in pt.primes[pt.primes <= y]:
        p = int(p)
        k = 1
        while p**k <= y:
            total += mp.power(p, -k * mp.mpc(s)) / k
            k += 1
    return complex(total)


# ----------------------------------------------------------------------
# sieve
# ----------------------------------------------------------------------

def test_sieve_small():
    assert primes.sieve(10).primes.tolist() == [2, 3, 5, 7]
    assert primes.sieve(2).primes.tolist() == [2]
    assert primes.sieve(100).count == 25


def test_sieve_matches_factor_oracle(pt100k, gpf100k):
    want = np.flatnonzero(gpf100k == np.arange(gpf100k.size))
    want = want[want >= 2]
    assert np.array_equal(pt100k.primes, want)
    assert pt100k.count == 9592


def test_sieve_count_at_one_million():
    assert primes.sieve(10**6).count == 78498


def test_sieve_strictly_increasing(pt100k):
    assert np.all(np.diff(pt100k.primes) > 0)


@pytest.mark.parametrize("segment_odds", [1, 7, 64])
def test_segmented_sieve_matches_factor_oracle(monkeypatch, gpf100k, segment_odds):
    # Short segments put many boundaries below each limit.
    monkeypatch.setattr(primes, "_SEGMENT_ODDS", segment_odds)
    is_prime = gpf100k == np.arange(gpf100k.size)
    for limit in (2, 3, 4, 5, 97, 98, 99, 100, 101, 1000, 50_000):
        want = np.flatnonzero(is_prime[: limit + 1])
        want = want[want >= 2]
        assert np.array_equal(primes.sieve(limit).primes, want), f"limit={limit}"


def test_sieve_resource_errors(monkeypatch):
    with pytest.raises(ResourceError):
        primes.sieve(1)
    with pytest.raises(ResourceError):
        primes.sieve(2 * 10**9)
    monkeypatch.setenv("SMOOTHNUM_MAX_SIEVE", "1000")
    with pytest.raises(ResourceError):
        primes.sieve(2000)
    assert primes.sieve(1000).count == 168
    for raw in ("not-a-number", "nan", "inf", "-inf", "1e400"):
        monkeypatch.setenv("SMOOTHNUM_MAX_SIEVE", raw)
        with pytest.raises(ResourceError):
            primes.sieve(10)


# ----------------------------------------------------------------------
# chebyshev_psi
# ----------------------------------------------------------------------

def test_chebyshev_psi_trivial_values(pt100k):
    assert primes.chebyshev_psi(pt100k, 1.5).psi == 0.0
    assert primes.chebyshev_psi(pt100k, 1.5).pi_count == 0
    cv = primes.chebyshev_psi(pt100k, 2.0)
    assert cv.psi == math.log(2.0)
    assert cv.pi_count == 1


def test_chebyshev_psi_matches_lcm_oracle(pt100k):
    # psi(y) = log lcm(1..floor(y)), computed exactly from big integers.
    for y in (10, 100, 1000, 10**4):
        want = oracles.chebyshev_psi_lcm(y)
        got = primes.chebyshev_psi(pt100k, float(y)).psi
        assert got == pytest.approx(want, abs=1e-11 * max(1.0, y / 100))


def test_chebyshev_psi_frozen_value(pt100k):
    # Determinism pin for the summation order (frozen from this build,
    # cross-checked against log lcm(1..10^4) to the last bit).
    assert primes.chebyshev_psi(pt100k, 1e4).psi == 10013.396693263116


def test_chebyshev_psi_von_koch_bound(pt100k):
    y = 1e4
    cv = primes.chebyshev_psi(pt100k, y)
    assert abs(cv.psi - y) <= math.sqrt(y) * math.log(y) ** 2


def test_chebyshev_psi_jumps_exactly_at_prime_powers(pt100k, gpf100k):
    prev = primes.chebyshev_psi(pt100k, 1.0).psi
    for n in range(2, 300):
        cur = primes.chebyshev_psi(pt100k, float(n)).psi
        p = int(gpf100k[n])
        is_prime_power = p > 0 and any(p**k == n for k in range(1, 10))
        if is_prime_power:
            assert cur > prev
            assert cur - prev == pytest.approx(math.log(p), rel=1e-12)
        else:
            assert cur == prev
        prev = cur


def test_chebyshev_psi_range_error(pt100k):
    with pytest.raises(RangeError):
        primes.chebyshev_psi(pt100k, 2e5)


# ----------------------------------------------------------------------
# prime_power_sum
# ----------------------------------------------------------------------

def test_prime_power_sum_matches_mpmath(pt100k):
    for s in (1.0, 0.8, 0.8 + 14.13j, 2.0 - 3.0j):
        want = _pps_brute(pt100k, s, 1000.0)
        got = primes.prime_power_sum(pt100k, s, 1000.0)
        assert abs(got - want) <= 1e-13 * abs(want), f"s={s}"


def test_prime_power_sum_small(pt100k):
    # y=4 keeps 2, 3, and 2^2: 2^-s + 3^-s + 2^-2s/2 at s=1.
    want = 0.5 + 1.0 / 3.0 + 0.125
    assert primes.prime_power_sum(pt100k, 1.0, 4.0) == pytest.approx(want, rel=1e-15)
    assert primes.prime_power_sum(pt100k, 1.0, 1.5) == 0.0


# ----------------------------------------------------------------------
# partial_zeta
# ----------------------------------------------------------------------

def test_partial_zeta_single_factor(pt100k):
    got = primes.partial_zeta(pt100k, 2.0, 2.0)
    assert got.real == pytest.approx(math.log(4.0 / 3.0), rel=1e-15)
    assert got.imag == 0.0


def test_partial_zeta_matches_smooth_dirichlet_sum(pt100k):
    # exp(partial_zeta(2, 10)) is the Dirichlet sum of n^-2 over
    # 10-smooth n; enumerate all 2^a 3^b 5^c 7^d up to 10^8 directly.
    total = mp.mpf(0)
    bound = 10**8
    a = 1
    while a <= bound:
        b = a
        while b <= bound:
            c = b
            while c <= bound:
                d = c
                while d <= bound:
                    total += mp.mpf(d) ** -2
                    d *= 7
                c *= 5
            b *= 3
        a *= 2
    want = float(mp.log(total))
    got = primes.partial_zeta(pt100k, 2.0, 10.0)
    assert got.real == pytest.approx(want, abs=1e-8)
    assert got.imag == 0.0


@given(
    st.floats(min_value=0.3, max_value=4.0),
    st.floats(min_value=0.0, max_value=40.0),
)
def test_partial_zeta_conjugate_symmetry(sigma, t):
    pt = primes.sieve(10**4)
    s = complex(sigma, t)
    left = primes.partial_zeta(pt, s.conjugate(), 1e4)
    right = primes.partial_zeta(pt, s, 1e4).conjugate()
    assert left == right


@pytest.mark.parametrize("s, y, rel", [
    (0.36, 1e5, 1e-14),
    (0.45, 1e5, 1e-14),
    (0.75, 5000.0, 1e-14),
    (0.95, 1e5, 1e-14),
    (0.8 - 0.3j, 1e4, 1e-14),
    (0.5 + 14.0j, 1000.0, 1e-14),
    (0.05, 100.0, 1e-14),
    # Near z = p^-s = 1, w = 1 - z comes from expm1 and keeps its digits:
    # every point below measured within 1.5e-16.  The log1p form was off
    # by 9.3e-12 at 1e-4 and 8.5e-7 at 1e-7, and overflowed at 1e-9; the
    # first two bounds date from it.
    (1e-3, 1e4, 1e-13),
    (1e-4, 100.0, 1e-10),
    (1e-5, 1e5, 1e-14),
    (1e-7, 1e4, 1e-14),
    (1e-9, 100.0, 1e-14),
])
def test_partial_zeta_matches_mpmath_euler_product(pt100k, s, y, rel):
    want = oracles.log_euler_product(s, y)
    got = primes.partial_zeta(pt100k, s, y)
    assert abs(got - want) <= rel * abs(want)


def test_partial_zeta_domain_error(pt100k):
    with pytest.raises(DomainError):
        primes.partial_zeta(pt100k, -0.5, 100.0)
    with pytest.raises(DomainError):
        primes.partial_zeta(pt100k, 0.0 + 3.0j, 100.0)


# ----------------------------------------------------------------------
# log_g2
# ----------------------------------------------------------------------

def test_log_g2_brute_force_small(pt100k):
    # y=3, s=1: all k >= 2 blocks over p in {2, 3} with p^k > 3.
    want = 0.0
    for k in range(2, 200):
        for p in (2, 3):
            if p**k > 3:
                want += p ** (-k) / k
    got = primes.log_g2(pt100k, 1.0, 3.0)
    assert got.real == pytest.approx(want, rel=1e-14)
    assert got.imag == 0.0


def test_log_g2_lemma_integral_form():
    # The k=2-dominated sum approaches (1/2) * integral over [sqrt(y), y]
    # of t^(-2s)/log t; the deviation shrinks as y grows (the k >= 3
    # blocks decay faster).  Measured: 13.9% at 1e4, 5.0% at 1e6.
    s = 0.75

    def ratio(y, limit):
        pt = primes.sieve(limit)
        val = primes.log_g2(pt, s, y).real
        integral = 0.5 * quad(
            lambda t: t ** (-2 * s) / math.log(t), math.sqrt(y), y, limit=400
        )[0]
        return val / integral

    r4 = ratio(1e4, 10**5)
    r6 = ratio(1e6, 10**6)
    assert abs(r4 - 1.0) <= 0.15
    assert abs(r6 - 1.0) <= 0.10
    assert abs(r6 - 1.0) < abs(r4 - 1.0)


def test_log_g2_decays_in_real_s(pt100k):
    mags = [abs(primes.log_g2(pt100k, s, 1e4)) for s in (1.0, 2.0, 4.0, 8.0)]
    assert all(a > b for a, b in zip(mags, mags[1:]))
    assert mags[-1] < 1e-15


@given(
    st.sampled_from([0.6, 1.0]),
    st.floats(min_value=-30.0, max_value=30.0),
)
def test_log_g2_magnitude_bounded_by_real_axis_value(sigma, t):
    pt = primes.sieve(10**4)
    bound = primes.log_g2(pt, sigma, 1e4).real
    assert abs(primes.log_g2(pt, complex(sigma, t), 1e4)) <= bound * (1 + 1e-12)


def test_log_g2_domain_error(pt100k):
    with pytest.raises(DomainError):
        primes.log_g2(pt100k, 0.0, 100.0)
    # 2^(-Re s) rounds to 1 below Re s ~ 1.1e-16, so the tail bound
    # 1/(1 - 2^(-Re s)) never falls.
    for s in (1e-17, 5e-324, complex(1e-17, 3.0)):
        with pytest.raises(DomainError, match="needs more than 100000 terms"):
            primes.log_g2(pt100k, s, 100.0)


@pytest.mark.parametrize("s", [1100.0, 1e308, math.inf, complex(2000.0, 5.0)])
def test_log_g2_past_underflow_is_zero(pt100k, s):
    # Every p^(-ks) underflows, and past Re s ~ 9e307 so would -k s log p.
    assert primes.log_g2(pt100k, s, 100.0) == 0


@pytest.mark.parametrize("s", [complex(0.5, 1e308), complex(0.5, -1e308), complex(2.0, math.inf)])
def test_log_g2_past_float_range_in_im_s_is_range_error(pt100k, s):
    # -k s log p leaves float range, where numpy would warn of an invalid
    # value; g_value's f_transform refuses such s before log_g2.
    with pytest.raises(RangeError, match="leaves float range"):
        primes.log_g2(pt100k, s, 100.0)
    assert math.isfinite(abs(primes.log_g2(pt100k, complex(0.5, 1e300), 100.0)))


def test_nan_y_is_domain_error(pt100k):
    for call in (primes.partial_zeta, primes.prime_power_sum, primes.log_g2):
        with pytest.raises(DomainError):
            call(pt100k, 0.8, math.nan)
    with pytest.raises(DomainError):
        primes.chebyshev_psi(pt100k, math.nan)


# ----------------------------------------------------------------------
# the prime-power bookkeeping identity
# ----------------------------------------------------------------------

def test_partial_zeta_splits_into_power_sum_plus_g2(pt100k):
    # log zeta(s,y) = sum over prime powers <= y plus the k >= 2
    # remainder over p^k > y; the two routes partition the double sum.
    for s in (0.6, 1.0, 0.75 + 5.0j, 2.0 - 3.0j):
        # Prime powers y = p^k, where exact k-th roots decide the split.
        for y in (100.0, 9973.0, 127.999, 128.0, 961.0, 1331.0, 3125.0):
            whole = primes.partial_zeta(pt100k, s, y)
            parts = primes.prime_power_sum(pt100k, s, y) + primes.log_g2(pt100k, s, y)
            assert abs(whole - parts) <= 1e-10 * max(1.0, abs(whole)), f"s={s} y={y}"
