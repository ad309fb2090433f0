"""Tests for smoothnum.specfun: xi, big_i, the rho table, rho_hat, k_factor.

Expected values marked "frozen" were computed by the independent
implementations in tests/oracles.py (series/bisection routes that share
no code with the package) and pasted here as literals.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from smoothnum import specfun
from smoothnum.errors import DomainError, PoleError, RangeError, ResourceError

EULER_GAMMA = 0.57721566490153286

# Frozen output of oracles.dickman_log_rho (Taylor-propagation route).
ORACLE_LOG_RHO = {
    3.0: -3.0239591643861568,
    10.0: -24.309526669379235,
    20.0: -65.87408188223074,
    40.0: -166.16804753050513,
    63.5: -299.8228387722229,
}

# |table - oracle| tolerance on the log scale; the table accumulates
# interpolation/quadrature error roughly linearly in u.
LOG_RHO_TOL = {3.0: 1e-10, 10.0: 1e-8, 20.0: 1e-8, 40.0: 1e-8, 63.5: 1e-8}


def _table_laplace(table, s):
    """Composite Simpson of exp(-s*u) * rho(u) over the table grid.

    Each unit window is integrated separately so the integer kinks of
    rho sit only at panel boundaries.
    """
    h = table.step
    n = table.points_per_unit
    vals = np.exp(table.log_rho)
    u = np.arange(vals.size) * h
    f = vals * np.exp(-s * u)
    total = 0.0 if not np.iscomplexobj(f) else 0.0j
    for k in range(int(round(table.u_max))):
        seg = f[k * n : k * n + n + 1]
        total += (h / 3.0) * (
            seg[0] + seg[-1] + 4.0 * seg[1:-1:2].sum() + 2.0 * seg[2:-1:2].sum()
        )
    return total


# ----------------------------------------------------------------------
# xi
# ----------------------------------------------------------------------

@given(st.floats(min_value=0.0, max_value=math.log(1e6)))
def test_xi_satisfies_defining_equation(log_u):
    u = math.exp(log_u)
    x = specfun.xi(u)
    resid = abs(math.expm1(x) - u * x)
    assert resid <= 1e-12 * (1.0 + u * x)


def test_xi_at_one_is_zero():
    assert specfun.xi(1.0) == 0.0


def test_xi_vectorized_matches_scalar():
    u = np.array([1.0, 1.5, 2.0, 10.0, 123.4, 1e6])
    vec = specfun.xi(u)
    for ui, vi in zip(u, vec):
        assert specfun.xi(float(ui)) == pytest.approx(vi, rel=1e-14, abs=1e-15)


def test_xi_matches_bisection_oracle():
    for u in (1.5, 2.0, 5.0, 37.2, 1e4):
        assert specfun.xi(u) == pytest.approx(oracles.xi_bisection(u), rel=1e-12)


def test_xi_strictly_increasing():
    u = np.linspace(1.0, 300.0, 4000)
    assert np.all(np.diff(specfun.xi(u)) > 0)


def test_xi_rejects_u_below_one():
    with pytest.raises(DomainError):
        specfun.xi(0.999)
    with pytest.raises(DomainError):
        specfun.xi(0.0)
    with pytest.raises(DomainError):
        specfun.xi(np.array([2.0, 0.5]))


# ----------------------------------------------------------------------
# big_i
# ----------------------------------------------------------------------

def test_big_i_zero_is_zero():
    assert specfun.big_i(0.0) == 0.0


@given(
    st.floats(min_value=-25.0, max_value=25.0),
    st.floats(min_value=-25.0, max_value=25.0),
)
def test_big_i_matches_series_oracle(re, im):
    s = complex(re, im)
    got = specfun.big_i(s)
    want = oracles.big_i_series(s)
    assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


@given(
    st.floats(min_value=-20.0, max_value=20.0),
    st.floats(min_value=0.01, max_value=20.0),
)
def test_big_i_conjugate_symmetry(re, im):
    s = complex(re, im)
    assert specfun.big_i(s.conjugate()) == specfun.big_i(s).conjugate()


def test_big_i_real_on_real_axis():
    for s in (-7.0, -1.0, 0.5, 3.0, 12.0):
        assert specfun.big_i(s).imag == 0.0


# ----------------------------------------------------------------------
# rho table construction
# ----------------------------------------------------------------------

def test_build_rejects_bad_parameters():
    with pytest.raises(DomainError):
        specfun.build_rho_table(step=1.0 / 32.0)  # coarser than 1/64
    with pytest.raises(DomainError):
        specfun.build_rho_table(step=0.003)  # 1/step not an integer
    with pytest.raises(DomainError):
        specfun.build_rho_table(u_max=0.5)
    with pytest.raises(DomainError):
        specfun.build_rho_table(u_max=math.inf)


def test_build_too_large_is_resource_error():
    # 5.1e17 grid points, 4 EB: beyond any address space, so the
    # allocation fails at once without touching memory.
    with pytest.raises(ResourceError):
        specfun.build_rho_table(u_max=1e15)


def test_table_is_exactly_one_up_to_u_equals_one(rho_table):
    m = rho_table.points_per_unit
    assert np.all(rho_table.log_rho[: m + 1] == 0.0)


def test_table_strictly_decreasing_past_one(rho_table):
    m = rho_table.points_per_unit
    assert np.all(np.diff(rho_table.log_rho[m:]) < 0)


def test_rho_at_two():
    # rho(2) = 1 - log 2 analytically.
    table = specfun.default_rho_table()
    assert specfun.rho(table, 2.0) == pytest.approx(1.0 - math.log(2.0), abs=1e-10)


def test_table_matches_taylor_oracle(rho_table):
    for u, want in ORACLE_LOG_RHO.items():
        got = specfun.log_rho(rho_table, u)
        assert abs(got - want) <= LOG_RHO_TOL[u], f"u={u}"
    # The headline requirement: rho(10) to 1e-6 relative.
    rel = abs(math.exp(specfun.log_rho(rho_table, 10.0) - ORACLE_LOG_RHO[10.0]) - 1.0)
    assert rel <= 1e-6


def test_delay_integral_residual(rho_table):
    # u * rho(u) = integral of rho over [u-1, u]; check with Simpson on
    # the table's own grid at integer u (kinks land on panel edges).
    h = rho_table.step
    n = rho_table.points_per_unit
    vals = np.exp(rho_table.log_rho)
    for u0 in (7.0, 33.0):
        i0 = int(round((u0 - 1.0) / h))
        seg = vals[i0 : i0 + n + 1]
        quad = (h / 3.0) * (
            seg[0] + seg[-1] + 4.0 * seg[1:-1:2].sum() + 2.0 * seg[2:-1:2].sum()
        )
        lhs = u0 * specfun.rho(rho_table, u0)
        assert lhs == pytest.approx(quad, rel=1e-12)


def test_interpolation_continuous_at_knots(rho_table):
    for k in (2.0, 5.0, 17.0):
        left = specfun.log_rho(rho_table, k - 1e-12)
        right = specfun.log_rho(rho_table, k + 1e-12)
        assert abs(left - right) < 1e-9


@given(st.floats(min_value=0.0, max_value=64.0))
def test_rho_positive_everywhere(u):
    table = specfun.default_rho_table()
    assert specfun.rho(table, u) > 0.0


def test_log_rho_array_matches_scalar(rho_table):
    u = np.array([0.0, 0.5, 1.0, 1.7, 2.0, 31.4159, 64.0])
    vec = specfun.log_rho(rho_table, u)
    assert vec.shape == u.shape
    for ui, vi in zip(u, vec):
        assert specfun.log_rho(rho_table, float(ui)) == vi


def test_log_rho_range_errors(rho_table):
    with pytest.raises(RangeError):
        specfun.log_rho(rho_table, -0.1)
    with pytest.raises(RangeError):
        specfun.log_rho(rho_table, 64.0001)
    with pytest.raises(RangeError):
        specfun.rho_prime(rho_table, -0.1)
    with pytest.raises(RangeError):
        specfun.rho_prime(rho_table, np.array([2.0, 64.0001]))
    # Values inside the snap slack are clipped, not rejected.
    assert specfun.rho(rho_table, -1e-12) == 1.0
    assert specfun.rho_prime(rho_table, -1e-12) == 0.0
    assert specfun.rho_prime(rho_table, 64.0 + 1e-9) < 0.0


# ----------------------------------------------------------------------
# rho_prime
# ----------------------------------------------------------------------

def test_rho_prime_matches_finite_difference(rho_table):
    h = 1e-5
    for u0 in (2.3, 5.7, 9.1):
        fd = (specfun.rho(rho_table, u0 + h) - specfun.rho(rho_table, u0 - h)) / (2 * h)
        assert specfun.rho_prime(rho_table, u0) == pytest.approx(fd, rel=1e-8)


def test_rho_prime_flat_below_one(rho_table):
    assert specfun.rho_prime(rho_table, 0.5) == 0.0
    # Just past 1, rho'(u) = -1/u since rho(u-1) = 1 there.
    assert specfun.rho_prime(rho_table, 1.5) == pytest.approx(-1.0 / 1.5, rel=1e-12)


# ----------------------------------------------------------------------
# rho_hat (Laplace transform)
# ----------------------------------------------------------------------

def test_rho_hat_at_zero_is_exp_gamma():
    got = specfun.rho_hat(0.0)
    assert got.imag == 0.0
    assert got.real == pytest.approx(math.exp(EULER_GAMMA), rel=1e-8)


def test_rho_hat_matches_table_quadrature(rho_table):
    # Truncated Laplace transform of the tabulated rho; the tail beyond
    # u_max=64 is below 1e-130 and invisible at these tolerances.
    for s in (0.0, 1.0, 2.0, 1.0 + 1.0j):
        quad = _table_laplace(rho_table, s)
        got = specfun.rho_hat(s)
        assert abs(got - quad) <= 1e-8 * abs(quad), f"s={s}"


@given(
    st.floats(min_value=-2.0, max_value=15.0),
    st.floats(min_value=0.01, max_value=15.0),
)
def test_rho_hat_conjugate_reflection(re, im):
    s = complex(re, im)
    assert specfun.rho_hat(s.conjugate()) == specfun.rho_hat(s).conjugate()


# ----------------------------------------------------------------------
# k_factor
# ----------------------------------------------------------------------

def test_k_factor_at_zero_is_one():
    assert specfun.k_factor(0.0) == 1.0 + 0.0j


def test_k_factor_decreasing_on_real_axis():
    values = [specfun.k_factor(t).real for t in (-0.75, -0.5, -0.25, 0.0, 0.25, 1.0)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[3] == 1.0


def test_k_factor_pole():
    with pytest.raises(PoleError):
        specfun.k_factor(-1.0)


def test_k_factor_residue_at_pole():
    # (t+1) * K(t) -> 1/2 as t -> -1.
    for eps in (1e-6, 1e-8):
        val = eps * specfun.k_factor(-1.0 + eps)
        assert abs(val - 0.5) <= eps


def test_k_factor_blowup_ratio_near_pole():
    ratio = specfun.k_factor(-0.99).real / specfun.k_factor(-0.9).real
    assert ratio > 9.0


def test_k_factor_conjugate_symmetry():
    for t in (0.3 + 0.2j, -0.5 + 1.0j, 2.0 - 3.0j):
        assert specfun.k_factor(t.conjugate()) == specfun.k_factor(t).conjugate()


# ----------------------------------------------------------------------
# saddle
# ----------------------------------------------------------------------

def test_saddle_basic_fields(rho_table):
    data = specfun.saddle(100.0, 10.0, rho_table)
    assert data.u == pytest.approx(2.0, rel=1e-15)
    assert data.xi == pytest.approx(oracles.xi_bisection(2.0), rel=1e-12)
    assert data.beta == pytest.approx(1.0 - data.xi / math.log(10.0), rel=1e-15)


def test_saddle_degenerate_at_u_equals_one(rho_table):
    data = specfun.saddle(50.0, 50.0, rho_table)
    assert data.u == 1.0
    assert data.xi == 0.0
    assert data.beta == 1.0


@given(st.floats(min_value=2.0, max_value=30.0), st.floats(min_value=1.0, max_value=8.0))
def test_saddle_beta_below_one_for_u_above_one(log_y, u):
    y = math.exp(log_y)
    x = y**u
    data = specfun.saddle(x, y, specfun.default_rho_table())
    assert data.beta <= 1.0
    if u > 1.01:
        assert data.beta < 1.0


def test_saddle_rejects_bad_arguments(rho_table):
    with pytest.raises(DomainError):
        specfun.saddle(10.0, 100.0, rho_table)
    with pytest.raises(DomainError):
        specfun.saddle(10.0, 1.5, rho_table)


def test_default_table_is_cached():
    assert specfun.default_rho_table() is specfun.default_rho_table()
