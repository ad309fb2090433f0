"""Tests for smoothnum.gfactor: the correction factor G(s,y) assembled
two ways and the corrected smooth-count prediction.
"""

import cmath
import math

import pytest

from smoothnum import debruijn, gfactor, primes, specfun
from smoothnum.errors import DomainError, SingularityError


# ----------------------------------------------------------------------
# log_g1
# ----------------------------------------------------------------------

def test_four_piece_identity(pt100k):
    # log G1 + log G2 + log F = log zeta(s,y): four independently
    # computed pieces must reassemble the truncated Euler product.
    for s, y in ((0.8, 1e3), (0.65 + 0.1j, 1e4)):
        lhs = (
            gfactor.g_value(s, y, pt100k).log_g1
            + primes.log_g2(pt100k, s, y)
            + debruijn.f_transform(s, y)
        )
        rhs = primes.partial_zeta(pt100k, s, y)
        assert abs(lhs - rhs) <= 1e-10, f"s={s} y={y}"


def test_log_g1_tracks_chebyshev_deviation(pt100k):
    # log G1(beta, y) is y^(-beta) (psi(y) - y)/log y up to a
    # y^(1/2-beta)-sized remainder (factor 3 used as the band).
    y = 1e4
    psi = primes.chebyshev_psi(pt100k, y).psi
    for beta in (0.6, 0.75, 0.9):
        lg1 = gfactor.g_value(beta, y, pt100k).log_g1.real
        target = y ** (-beta) * (psi - y) / math.log(y)
        slack = 3.0 * y ** (0.5 - beta) / math.log(y)
        assert abs(lg1 - target) <= slack, f"beta={beta}"


def test_log_g1_conjugate_symmetry(pt100k):
    a = gfactor.g_value(0.8 + 0.3j, 1e4, pt100k).log_g1
    b = gfactor.g_value(0.8 - 0.3j, 1e4, pt100k).log_g1
    assert a == b.conjugate()


def test_log_g1_domain_and_singularity(pt100k):
    with pytest.raises(DomainError):
        gfactor.g_value(-0.2, 1e3, pt100k)
    with pytest.raises(DomainError):
        gfactor.g_value(0.8, 3.0, pt100k)
    with pytest.raises(SingularityError):
        gfactor.g_value(complex(0.5, 14.134725141734694), 1e3, pt100k)


# ----------------------------------------------------------------------
# g_value
# ----------------------------------------------------------------------

def test_g_routes_agree_on_grid(pt100k):
    for sr in (0.55, 0.65, 0.75, 0.85, 0.95):
        for si in (0.0, 0.1, -0.1):
            for y in (1e3, 1e4, 1e5):
                gb = gfactor.g_value(complex(sr, si), y, pt100k)
                assert abs(gb.g_factored / gb.g_direct - 1.0) <= 1e-8, f"s={sr}+{si}j y={y}"


def test_g_real_positive_on_real_axis(pt100k):
    for s in (0.55, 0.75, 0.95):
        gb = gfactor.g_value(s, 1e4, pt100k)
        assert gb.g_direct.imag == 0.0
        assert gb.g_factored.imag == 0.0
        assert gb.g_direct.real > 0.0


@pytest.mark.parametrize("s", [0.75, complex(0.75, 0.1)])
def test_g_value_fields_equal_separate_routes(pt100k, s):
    # One f_transform feeds both routes; each field stays bit for bit
    # what its own public route gives.
    gb = gfactor.g_value(s, 1e4, pt100k)
    lg1 = primes.prime_power_sum(pt100k, s, 1e4) - debruijn.f_transform(s, 1e4)
    lg2 = primes.log_g2(pt100k, s, 1e4)
    assert gb.log_g1 == lg1
    assert gb.log_g2 == lg2
    assert gb.g_factored == cmath.exp(lg1 + lg2)
    assert gb.g_direct == gfactor.g_direct(s, 1e4, pt100k)


def test_g_deviation_band(pt100k):
    # G(beta,y) - 1 sits in the y^(-beta)(psi(y)-y + O(sqrt y))/log y band.
    y = 1e4
    psi = primes.chebyshev_psi(pt100k, y).psi
    for beta in (0.6, 0.75):
        g = gfactor.g_value(beta, y, pt100k).g_direct.real
        center = y ** (-beta) * (psi - y) / math.log(y)
        slack = 3.0 * y ** (0.5 - beta) / math.log(y)
        assert abs((g - 1.0) - center) <= slack, f"beta={beta}"


def test_g_approaches_one_at_fixed_u(pt100k, rho_table):
    # u = 2, y = 1e3, 1e4, 1e5: |G - 1| shrinks (0.019, 0.0054, 0.0013).
    deviations = []
    for y in (1e3, 1e4, 1e5):
        beta = specfun.saddle(y * y, y, rho_table).beta
        deviations.append(abs(gfactor.g_value(beta, y, pt100k).g_direct.real - 1.0))
    assert deviations[0] > deviations[1] > deviations[2]
    assert deviations[-1] <= 0.05


# ----------------------------------------------------------------------
# corrected_prediction
# ----------------------------------------------------------------------

def test_corrected_prediction_degenerate(pt100k, rho_table):
    # y above x collapses to u = 1: floor(x) * G(1, x).
    got = gfactor.corrected_prediction(500.0, 1000.0, pt100k, rho_table)
    want = 500.0 * gfactor.g_value(1.0, 500.0, pt100k).g_direct.real
    assert got == pytest.approx(want, rel=1e-12)
    assert got == pytest.approx(500.0, rel=0.02)


def test_corrected_prediction_positive(pt100k, rho_table):
    for x, y in ((1e6, 1e2), (1e5, 1e3)):
        assert gfactor.corrected_prediction(x, y, pt100k, rho_table) > 0.0


def test_corrected_prediction_domain_errors(pt100k, rho_table):
    with pytest.raises(DomainError):
        gfactor.corrected_prediction(1.0, 100.0, pt100k, rho_table)
    with pytest.raises(DomainError):
        gfactor.corrected_prediction(100.0, 1.0, pt100k, rho_table)
