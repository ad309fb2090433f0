"""Tests for smoothnum.debruijn: the two lambda_y routes, Lambda(x,y),
the Mellin factor, saddle asymptotics, and Buchstab consistency.

The two lambda_y evaluations (atom sum vs integration by parts) are
algorithmically independent, so their agreement is itself the oracle for
most of this module.
"""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from smoothnum import debruijn, gfactor, primes, specfun
from smoothnum.errors import DomainError, ResourceError, SingularityError


# ----------------------------------------------------------------------
# lambda_atom_sum / lambda_ibp basics
# ----------------------------------------------------------------------

def test_lambda_at_u_equals_one(rho_table):
    # lambda_y(1) = floor(y)/y for non-integer y.
    want = math.floor(100.5) / 100.5
    atom = debruijn.lambda_atom_sum(1.0, 100.5, rho_table)
    ibp = debruijn.lambda_ibp(1.0, 100.5, rho_table)
    assert atom.value == pytest.approx(want, rel=1e-12)
    assert ibp.value == pytest.approx(want, rel=1e-12)
    assert atom.method == "atom_sum"
    assert ibp.method == "integration_by_parts"


def test_lambda_below_one_is_floor_ratio(rho_table):
    # rho = 1 on the whole support, so the integral telescopes.
    u, y = 0.7, 37.3
    want = math.floor(y**u) / y**u
    assert debruijn.lambda_atom_sum(u, y, rho_table).value == pytest.approx(want, rel=1e-12)
    assert debruijn.lambda_ibp(u, y, rho_table).value == pytest.approx(want, rel=1e-12)


def test_cross_method_fixed_points(rho_table):
    for u, y in ((2.0, 100.0), (1.5, 1000.0), (2.25, 100.0)):
        atom = debruijn.lambda_atom_sum(u, y, rho_table)
        ibp = debruijn.lambda_ibp(u, y, rho_table)
        assert atom.value == pytest.approx(ibp.value, rel=1e-6)
        assert atom.value > 0


@given(
    st.floats(min_value=math.log(3.0), max_value=math.log(1000.0)),
    st.floats(min_value=1.0, max_value=6.0),
)
def test_cross_method_agreement(log_y, u_raw):
    y = math.exp(log_y)
    u = min(u_raw, math.log(1e6) / log_y)
    table = specfun.default_rho_table()
    atom = debruijn.lambda_atom_sum(u, y, table)
    ibp = debruijn.lambda_ibp(u, y, table)
    tol = max(1e-6, atom.est_error + ibp.est_error)
    assert abs(atom.value - ibp.value) <= tol * atom.value
    assert atom.value > 0


def test_atom_sum_resource_error(rho_table):
    with pytest.raises(ResourceError):
        debruijn.lambda_atom_sum(4.0, 100.0, rho_table)  # y^u = 1e8


def test_lambda_domain_errors(rho_table):
    with pytest.raises(DomainError):
        debruijn.lambda_atom_sum(1.0, 1.5, rho_table)
    with pytest.raises(DomainError):
        debruijn.lambda_ibp(-0.5, 100.0, rho_table)


def test_ibp_est_error_semantics(rho_table, monkeypatch):
    # All unit pieces (y^(u-1) <= _EM_START): est_error = 0, the
    # endpoint atom being exact.
    full = debruijn.lambda_ibp(2.0, 100.0, rho_table)
    assert full.est_error == 0.0
    # Euler-Maclaurin tail beyond _EM_START: est_error bounds the dropped
    # remainder, hence the gap to the explicit unit-piece sum.
    tail = debruijn.lambda_ibp(3.0, 200.0, rho_table, _t_hi=4e4)
    assert 0.0 < tail.est_error < 1e-12 * tail.value
    monkeypatch.setattr(debruijn, "_EM_START", 10**5)
    explicit = debruijn.lambda_ibp(3.0, 200.0, rho_table, _t_hi=4e4)
    assert explicit.est_error == 0.0
    assert abs(tail.value - explicit.value) <= tail.est_error


def test_lambda_ratio_to_rho_bound(rho_table):
    # |lambda_y(u)/rho(u) - 1| <= 5 log(u+1)/log y.
    for y in (1e3, 1e4):
        for u in (2.0, 4.0, 7.0, 10.0):
            lam = debruijn.lambda_ibp(u, y, rho_table).value
            ratio = abs(lam / specfun.rho(rho_table, u) - 1.0)
            assert ratio <= 5.0 * math.log(u + 1.0) / math.log(y), f"u={u} y={y}"


# ----------------------------------------------------------------------
# the Euler-Maclaurin tail of lambda_ibp
# ----------------------------------------------------------------------

# (x, y): y^(u-1) = x/y from 10^6 to 10^7, so that the explicit reference
# stays at most 10^7 unit pieces.  [_EM_START, x/y] lies inside one rho
# branch at (1e10, 1e4), crosses one kink at (1e9, 1e2) and (1e10, 1e3),
# two at (3e8, 50) and (1e8, 30), and three at (2e7, 10).
TAIL_POINTS = [(1e9, 1e2), (1e10, 1e3), (1e10, 1e4), (3e8, 50.0), (1e8, 30.0), (2e7, 10.0)]


@pytest.mark.parametrize("x, y", TAIL_POINTS)
def test_em_tail_matches_unit_pieces(rho_table, monkeypatch, x, y):
    u = math.log(x) / math.log(y)
    v_start = u - math.log(debruijn._EM_START) / math.log(y)
    assert v_start > 1.0
    tail = debruijn.lambda_ibp(u, y, rho_table, _t_hi=x / y, _pow_u=x).value
    monkeypatch.setattr(debruijn, "_EM_START", 2 * x / y)
    explicit = debruijn.lambda_ibp(u, y, rho_table, _t_hi=x / y, _pow_u=x).value
    assert tail == pytest.approx(explicit, rel=1e-13)


@pytest.mark.parametrize("x, y", TAIL_POINTS + [(1e15, 1e2), (1e30, 1e3), (1e30, 1e10)])
def test_em_split_point_is_immaterial(rho_table, monkeypatch, x, y):
    at_default = debruijn.lambda_xy(x, y, rho_table)
    for n0 in (debruijn._EM_START // 4, debruijn._EM_START * 4):
        with monkeypatch.context() as m:
            m.setattr(debruijn, "_EM_START", n0)
            assert debruijn.lambda_xy(x, y, rho_table) == pytest.approx(at_default, rel=1e-14)


def test_lambda_cost_flat_in_x(rho_table, monkeypatch):
    # Counted in rho' evaluations: the unit pieces stop at _EM_START, and
    # the tail costs a few panels per unit of u.
    evaluated = []
    rho_prime = specfun.rho_prime

    def counting(table, u):
        evaluated.append(np.size(u))
        return rho_prime(table, u)

    monkeypatch.setattr(specfun, "rho_prime", counting)
    counts = {}
    for x in (1e7, 1e9, 1e30):
        evaluated.clear()
        debruijn.lambda_xy(x, 1e3, rho_table)
        counts[x] = sum(evaluated)
    assert 0 < counts[1e9] <= 2 * counts[1e7]
    assert counts[1e30] <= 2 * counts[1e9]


def test_lambda_xy_far_beyond_unit_pieces(rho_table):
    lam = debruijn.lambda_xy(1e30, 1e10, rho_table)
    assert math.isfinite(lam) and lam > 0


# ----------------------------------------------------------------------
# lambda_xy
# ----------------------------------------------------------------------

def test_lambda_xy_diagonal_is_floor(rho_table):
    for x in (100.5, 1000.5, 54321.7):
        assert debruijn.lambda_xy(x, x, rho_table) == pytest.approx(math.floor(x), rel=1e-12)


def test_lambda_xy_magnitude(rho_table):
    lam = debruijn.lambda_xy(1e6, 1e3, rho_table)
    scale = 1e6 * specfun.rho(rho_table, 2.0)
    assert 0.5 * scale < lam < 2.0 * scale


def test_lambda_xy_method_consistency_at_crossover(rho_table):
    # x = 10^6.5, so the IBP route sums unit pieces up to _EM_START and
    # takes the Euler-Maclaurin tail beyond; both routes must agree.
    x, y = 1e4 * math.sqrt(10.0), 100.0
    u = math.log(x) / math.log(y)
    atom = debruijn.lambda_atom_sum(u, y, rho_table, _t_max=x)
    ibp = debruijn.lambda_ibp(u, y, rho_table, _t_hi=x / y, _pow_u=x)
    assert atom.value == pytest.approx(ibp.value, rel=1e-6)
    assert debruijn.lambda_xy(x, y, rho_table) == pytest.approx(x * atom.value, rel=1e-9)


def test_lambda_xy_domain_error(rho_table):
    with pytest.raises(DomainError):
        debruijn.lambda_xy(10.0, 100.0, rho_table)


_NON_FINITE_CHILD = """
import sys
from smoothnum import cli, debruijn, specfun
from smoothnum.errors import DomainError

table = specfun.build_rho_table(u_max=4.0, step=1.0 / 64.0)
try:
    {call}
except DomainError:
    sys.exit(cli.EXIT_CODES[DomainError])
"""


@pytest.mark.parametrize("call", [
    "debruijn.lambda_xy(float('inf'), 100.0, table)",
    "debruijn.lambda_xy(float('nan'), 100.0, table)",
    "debruijn.lambda_ibp(float('nan'), 100.0, table)",
    "debruijn.lambda_atom_sum(2.0, float('inf'), table)",
    "specfun.saddle(float('nan'), 100.0, table)",
    "specfun.saddle(float('inf'), 100.0, table)",
    "specfun.big_i(complex(float('-inf'), 0.0))",
])
def test_non_finite_input_is_domain_error(call):
    # In a child under a timeout, so that a hang in the kink search of
    # lambda_xy or in big_i's quadrature fails the test instead of
    # stalling the suite.
    src = Path(debruijn.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _NON_FINITE_CHILD.format(call=call)],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)), timeout=10,
    )
    assert proc.returncode == 5, proc.stderr


# ----------------------------------------------------------------------
# f_transform
# ----------------------------------------------------------------------

def test_f_transform_at_one(rho_table):
    for y in (10.0, 1000.0):
        got = debruijn.f_transform(1.0, y)
        want = specfun.EULER_GAMMA + math.log(math.log(y))
        assert got.real == pytest.approx(want, rel=1e-14)
        assert got.imag == 0.0


def test_f_transform_conjugate_symmetry():
    for s in (0.8 + 2.0j, 1.5 - 3.0j):
        assert debruijn.f_transform(s.conjugate(), 100.0) == debruijn.f_transform(s, 100.0).conjugate()


def test_f_transform_errors():
    with pytest.raises(DomainError):
        debruijn.f_transform(-0.5, 100.0)
    with pytest.raises(DomainError):
        debruijn.f_transform(1.0, 1.5)
    with pytest.raises(SingularityError):
        debruijn.f_transform(complex(0.5, 14.134725141734694), 100.0)


def test_f_transform_is_reciprocal_of_g(pt100k):
    # G(s,y) = zeta(s,y)/F(s,y), so exp(log F - log zeta_y) * G = 1.
    for beta, y in ((0.75, 1000.0), (0.6, 10000.0)):
        log_f = debruijn.f_transform(beta, y)
        log_zeta_y = primes.partial_zeta(pt100k, beta, y)
        g = gfactor.g_value(beta, y, pt100k).g_direct
        product = complex(np.exp(log_f - log_zeta_y)) * g
        assert abs(product - 1.0) <= 1e-9


# ----------------------------------------------------------------------
# lambda_asymptotic
# ----------------------------------------------------------------------

def test_lambda_asymptotic_degenerate(rho_table):
    x = 1000.5
    la = debruijn.lambda_asymptotic(x, x, rho_table)
    assert la == pytest.approx(x, rel=1e-12)  # K(0) = 1, rho(1) = 1
    assert abs(debruijn.lambda_xy(x, x, rho_table) / la - 1.0) <= 1.0 / x


def test_lambda_asymptotic_accuracy(rho_table):
    x = 1e8
    y = x ** (1.0 / 3.0)
    la = debruijn.lambda_asymptotic(x, y, rho_table)
    assert abs(debruijn.lambda_xy(x, y, rho_table) / la - 1.0) <= 10.0 / (
        math.log(x) * math.log(y)
    )


@pytest.mark.parametrize(
    "x, deviation",
    [(1e20, 5.819602610013241e-3), (1e25, 4.674628795307445e-3), (1e30, 3.8893711044285517e-3)],
)
def test_lambda_asymptotic_far_deviation_pinned(rho_table, x, deviation):
    # Lambda / (x rho(3) K(-xi(3)/log y)) - 1 at u = 3: criterion 05's
    # signed deviation, as BENCH_lambda.json's far_points record it.
    y = x ** (1.0 / 3.0)
    got = debruijn.lambda_xy(x, y, rho_table) / debruijn.lambda_asymptotic(x, y, rho_table)
    assert got - 1.0 == pytest.approx(deviation, abs=1e-14)


# ----------------------------------------------------------------------
# Buchstab consistency
# ----------------------------------------------------------------------

def test_buchstab_residual_zero_at_z_equals_y(rho_table):
    assert debruijn.buchstab_residual_lambda(1e6, 1e2, 1e2, rho_table) == 0.0


def test_buchstab_residual_small(rho_table):
    resid = debruijn.buchstab_residual_lambda(1e6, 1e2, 1e3, rho_table, n_panels=64)
    lam = debruijn.lambda_xy(1e6, 1e2, rho_table)
    assert abs(resid) / lam <= 1e-4


def test_buchstab_residual_first_order_convergence(rho_table):
    # Composite-panel quadrature on a kinked integrand: the residual
    # should drop by roughly half per doubling (measured factors
    # 0.39, 0.58, 0.35 for 8->16->32->64).
    resids = [
        abs(debruijn.buchstab_residual_lambda(1e6, 1e2, 1e3, rho_table, n_panels=n))
        for n in (8, 16, 32, 64)
    ]
    for coarse, fine in zip(resids, resids[1:]):
        assert fine / coarse <= 0.8
    assert resids[-1] / resids[0] <= 0.25


def test_buchstab_domain_error(rho_table):
    with pytest.raises(DomainError):
        debruijn.buchstab_residual_lambda(1e6, 1e3, 1e2, rho_table)


# ----------------------------------------------------------------------
# the Laplace-transform identity
# ----------------------------------------------------------------------

def test_lambda_laplace_transform_identity(rho_table):
    # integral of exp(-s u) lambda_y(u) du equals rho_hat(s) K(s/log y).
    # [0, 1] is integrated exactly piecewise (lambda = floor(t)/t there);
    # [1, 12] by Simpson per unit window; the remaining tail is below
    # 1e-9.
    y = 100.0
    log_y = math.log(y)

    def laplace_lambda(s):
        c = s / log_y
        pieces = 0.0
        for n in range(1, int(y)):
            a, b = n, min(n + 1, y)
            pieces += n * (b ** (-1 - c) - a ** (-1 - c)) / (-1 - c)
        total = pieces / log_y
        h = 1.0 / 16
        for k in range(1, 12):
            us = k + np.arange(17) * h
            vals = np.array(
                [math.exp(-s * u) * debruijn.lambda_ibp(float(u), y, rho_table).value for u in us]
            )
            total += (h / 3) * (vals[0] + vals[-1] + 4 * vals[1:-1:2].sum() + 2 * vals[2:-1:2].sum())
        return total

    for s in (0.5, 1.0):
        left = laplace_lambda(s)
        right = (specfun.rho_hat(s) * specfun.k_factor(s / log_y)).real
        assert abs(left - right) <= 1e-4 * abs(right), f"s={s}"
