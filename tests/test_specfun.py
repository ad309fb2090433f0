"""Tests for smoothnum.specfun: xi, big_i, the rho table, rho_hat, k_factor.

Expected values marked "frozen" were computed by the independent
implementations in tests/oracles.py (series/bisection routes that share
no code with the package) and pasted here as literals.
"""

import cmath
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

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

# |table - oracle| tolerance on the log scale.  The default table's
# error against the oracle, measured: 9.2e-13 at u = 3, 6.0e-11 at 10,
# 3.6e-10 at 20, 1.6e-9 at 40 and 4.0e-9 at 63.5 (4.1e-9 at 64).
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


@pytest.mark.parametrize("u", [math.nan, math.inf, -math.inf])
def test_xi_non_finite_is_domain_error(u):
    with pytest.raises(DomainError):
        specfun.xi(u)
    with pytest.raises(DomainError):
        specfun.xi(np.array([2.0, u]))


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


def _same_outcome(call, *args):
    """float.hex of call(*args), or its error's type and message."""
    try:
        return float.hex(np.asarray(call(*args)).item())
    except (DomainError, RangeError) as exc:
        return type(exc).__name__, str(exc)


# Where Newton's residual fails the contract, next to the double root at
# u = 1, so xi bisects.
XI_BISECTED = 1.0000000009491545


def test_xi_scalar_route_matches_array_bit_for_bit():
    # An array entry is xi at that float, whatever its neighbours: a
    # joint Newton loop that keeps stepping converged entries moves 508
    # of these 22,005, 506 by 1 ulp and 2 near u = 1 + 2e-7 by 1.6e-10.
    rng = np.random.default_rng(1)
    u = np.concatenate([
        rng.uniform(1.0, 1e6, 20_000),
        rng.uniform(1.0, 1.0 + 1e-6, 2_000),
        [1.0, XI_BISECTED, 1.0 + 1e-13, 3.0, 64.0],
    ])
    want = {v: float.hex(specfun.xi(v)) for v in u.tolist()}
    for arr in (u, u[::-1], rng.permutation(u), u[:22_000].reshape(40, 550)):
        got = specfun.xi(arr)
        assert got.shape == arr.shape and got.dtype == np.float64
        hexes = [float.hex(g) for g in got.ravel().tolist()]
        assert hexes == [want[v] for v in arr.ravel().tolist()]
    for n in (1, 2, 3, 64, 10**6):
        assert float.hex(specfun.xi(n)) == float.hex(specfun.xi(float(n)))
        assert float.hex(specfun.xi(np.array(n))) == float.hex(specfun.xi(float(n)))
    assert specfun.xi(1.0 - 1e-13) == 0.0
    for bad in (math.nan, math.inf, -math.inf, 0.999, 1.0 - 2e-12, 0, -5, 1e308):
        got = _same_outcome(specfun.xi, bad)
        assert got[0] == ("RangeError" if bad == 1e308 else "DomainError")
        assert got == _same_outcome(specfun.xi, np.array([2.0, bad, 64.0]))


def test_xi_past_exp_range_is_range_error():
    # x0 = log(1 + u log(1 + u)) is the largest Newton iterate; past
    # u = 2.5e305 it is inf and e^xi leaves float range.
    u = 2.5e305
    x = specfun.xi(u)
    assert abs(math.expm1(x) - u * x) <= 1e-12 * (1.0 + u * x)
    # An int past float range overflows before it is a float.
    for v in (2.6e305, sys.float_info.max, 10**400, [3, 10**400]):
        with pytest.raises(RangeError, match="overflows"):
            specfun.xi(v)


# ----------------------------------------------------------------------
# big_i
# ----------------------------------------------------------------------

def test_big_i_zero_is_zero():
    assert specfun.big_i(0.0) == 0.0


# Relative tolerance of big_i against the series.  The largest error
# measured over ~17000 points with |s| <= 50 was 5.1e-14, near Re s = 5
# and large |Im s|, where rounding s*t at each node is amplified by the
# cancellation among e^(st) oscillations.
BIG_I_REL = 1e-13


@given(
    st.floats(min_value=-50.0, max_value=50.0),
    st.floats(min_value=-50.0, max_value=50.0),
)
def test_big_i_matches_series_oracle(re, im):
    s = complex(re, im)
    assume(abs(s) <= 50.0)
    got = specfun.big_i(s)
    want = oracles.big_i_series(s)
    assert abs(got - want) <= BIG_I_REL * max(1.0, abs(want))


@pytest.mark.parametrize("s", [200j, 1000j, -200j, 30.0 + 200j])
def test_big_i_oscillatory_matches_series_oracle(s):
    # e^(st) turns |Im s|/(2 pi) times over [0, 1]: 160 turns at 1000i,
    # spread over 63 panels.
    want = oracles.big_i_series(s)
    assert abs(specfun.big_i(s) - want) <= BIG_I_REL * abs(want)


def test_big_i_subnormal_argument_is_finite():
    # s*t rounds to 0 at some nodes, where the Taylor branch avoids 0/0.
    for s in (5e-324, -5e-324, complex(0.0, 5e-324), 1e-310):
        got = specfun.big_i(s)
        assert got == pytest.approx(complex(s), rel=1e-15, abs=1e-323)


_OVERFLOW_CHILD = """
import time
from smoothnum import specfun
from smoothnum.errors import RangeError
for call in (lambda: specfun.big_i(720.0), lambda: specfun.rho_hat(-720.0)):
    start = time.perf_counter()
    try:
        call()
    except RangeError:
        print(time.perf_counter() - start)
"""


def test_big_i_overflow_is_range_error_without_hanging():
    # In a child under a timeout: e^s leaves float range past Re s = 709,
    # and the domain check must refuse before any integrand is evaluated.
    src = Path(specfun.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", _OVERFLOW_CHILD],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)), timeout=10,
    )
    assert proc.returncode == 0, proc.stderr
    elapsed = [float(line) for line in proc.stdout.split()]
    assert len(elapsed) == 2
    assert max(elapsed) < 1.0


def test_big_i_huge_modulus_is_range_error():
    # The panel count grows with |s|; past 2^22 it is refused, not run.
    with pytest.raises(RangeError):
        specfun.big_i(complex(0.0, 1e300))
    with pytest.raises(RangeError):
        specfun.big_i(-1e7)


@given(
    st.floats(min_value=-50.0, max_value=50.0),
    st.floats(min_value=0.01, max_value=50.0),
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


def _coarse_table():
    return specfun.build_rho_table(u_max=8.0, step=1.0 / 64.0)


@pytest.mark.parametrize("grid", ["default", "coarse"])
def test_table_matches_stepwise_solve(rho_table, grid):
    # The block solve does the stepwise recurrence's arithmetic in
    # another order; the default grid differs by 5.7e-14 at most.
    table = rho_table if grid == "default" else _coarse_table()
    want = oracles.rho_table_stepwise(table.u_max, table.step)
    assert table.log_rho.shape == want.shape
    assert np.max(np.abs(table.log_rho - want)) <= 1e-12


@pytest.mark.parametrize("grid", ["default", "coarse"])
def test_table_seed_is_exact(rho_table, grid):
    table = rho_table if grid == "default" else _coarse_table()
    m, h = table.points_per_unit, table.step
    assert np.all(table.log_rho[: m + 1] == 0.0)
    seed = [math.log1p(-math.log(n * h)) for n in range(m + 1, 2 * m + 1)]
    assert table.log_rho[m + 1 : 2 * m + 1].tolist() == seed


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


@pytest.mark.parametrize("fn", [specfun.rho, specfun.log_rho, specfun.rho_prime])
def test_rho_nan_is_domain_error(rho_table, fn):
    nan_error = r"^rho is not defined at NaN$"
    range_error = r"^rho table covers \[0, 64\]; got values outside it$"
    with pytest.raises(DomainError, match=nan_error):
        fn(rho_table, math.nan)
    with pytest.raises(DomainError, match=nan_error):
        fn(rho_table, np.array([2.0, math.nan]))
    # NaN wins over an out-of-range entry beside it.
    with pytest.raises(DomainError, match=nan_error):
        fn(rho_table, np.array([math.nan, 100.0]))
    # An infinite u is outside the table, as before.
    with pytest.raises(RangeError, match=range_error):
        fn(rho_table, math.inf)
    for bad in ([2.0, math.inf], [math.inf], [-math.inf]):
        with pytest.raises(RangeError, match=range_error):
            fn(rho_table, np.array(bad))


@pytest.mark.parametrize("fn", [specfun.log_rho, specfun.rho, specfun.rho_prime])
def test_rho_empty_input_is_empty(rho_table, fn):
    empty = fn(rho_table, np.array([]))
    assert isinstance(empty, np.ndarray) and empty.shape == (0,)


def _log_rho_gathered(table, u) -> np.ndarray:
    """log rho by clipping to [0, u_max], zero at or below 1 and the
    (N, 6) kernel oracle gathered over the points above 1."""
    flat = np.clip(np.asarray(u, dtype=np.float64).ravel(), 0.0, table.u_max)
    out = np.zeros_like(flat)
    inner = flat > 1.0
    out[inner] = oracles.interp_log_rho_cardinal(table, flat[inner])
    return out.reshape(np.shape(u))


def _rho_prime_gathered(table, u) -> np.ndarray:
    flat = np.asarray(u, dtype=np.float64).ravel()
    out = np.zeros_like(flat)
    inner = flat > 1.0
    um = flat[inner]
    out[inner] = -np.exp(_log_rho_gathered(table, um - 1.0)) / um
    return out.reshape(np.shape(u))


def _scalar_points(table) -> list:
    m = table.points_per_unit
    slack = 1e-9 * table.u_max
    blocks = [np.arange(k * m, (k + 1) * m + 1) / m for k in (1, 31, 63)]
    ints = np.arange(1.0, table.u_max + 1.0)
    edges = [np.nextafter(ints, -math.inf), ints, np.nextafter(ints, math.inf)]
    return np.concatenate([
        *blocks, *edges,
        [0.0, 0.25, 0.5, 1.0, -slack, -1e-12, table.u_max, table.u_max + slack],
    ]).tolist()


def test_log_rho_scalar_route_matches_array_bit_for_bit(rho_table):
    points = _scalar_points(rho_table)
    for v in points:
        want = specfun.log_rho(rho_table, np.array([v]))
        assert float.hex(specfun.log_rho(rho_table, v)) == float.hex(float(want[0])), v
        assert float.hex(specfun.rho(rho_table, v)) == float.hex(math.exp(want[0])), v
    assert specfun.log_rho(rho_table, 2) == specfun.log_rho(rho_table, np.array([2.0]))[0]
    slack = 1e-9 * rho_table.u_max
    bad = [
        math.nan, math.inf, -math.inf, 100.0,
        np.nextafter(-slack, -math.inf), np.nextafter(rho_table.u_max + slack, math.inf),
    ]
    for v in bad:
        for fn in (specfun.log_rho, specfun.rho):
            got = _same_outcome(fn, rho_table, v)
            assert got[0] in ("DomainError", "RangeError"), v
            assert got == _same_outcome(fn, rho_table, np.array([v])), v


def test_rho_array_routes_keep_shape_and_input(rho_table):
    rng = np.random.default_rng(7)
    base = rng.uniform(0.0, 64.0, (6, 8))
    base[0, :4] = [0.0, 1.0, 64.0, 1e-9 * 64.0 + 64.0]
    base.setflags(write=False)  # an in-place write would raise
    kept = base.copy()
    # Mixed about u = 1 (clipped and gathered), all above 1, all above 2.
    inner = base[1:, 2:] * 0.9
    edge = np.array([1.5, 64.0, 64.0 + 1e-9 * 64.0])  # clipped, all above 1
    inputs = [np.array(2.5), base, base[:, ::3], base.T, inner + 1.0, inner + 2.5, edge]
    for fn, ref in ((specfun.log_rho, _log_rho_gathered), (specfun.rho_prime, _rho_prime_gathered)):
        for u in inputs:
            got = fn(rho_table, u)
            want = ref(rho_table, u)
            if u.ndim == 0:
                assert isinstance(got, float) and float.hex(got) == float.hex(float(want))
                continue
            assert got.shape == u.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    got = specfun.rho(rho_table, base)
    assert np.array_equal(got.view(np.uint64), np.exp(_log_rho_gathered(rho_table, base)).view(np.uint64))
    assert np.array_equal(base, kept)


def _kernel_grid(table) -> np.ndarray:
    """u in (1, u_max]: a dense grid, every table point of the first and
    last unit blocks, each integer 2..63 and its neighbouring floats,
    u_max itself and 10^5 seeded random points."""
    m = table.points_per_unit
    points = np.arange(table.log_rho.size) * table.step
    ints = np.arange(2.0, table.u_max)
    rng = np.random.default_rng(20261019)
    return np.concatenate([
        np.linspace(1.0, table.u_max, 200_001)[1:],
        points[m + 1 : 2 * m + 1],
        points[-m - 1 :],
        np.nextafter(ints, -math.inf), ints, np.nextafter(ints, math.inf),
        [table.u_max],
        table.u_max - rng.random(100_000) * (table.u_max - 1.0),
    ])


def test_interp_kernel_matches_cardinal_oracle_bit_for_bit(rho_table):
    # The 1-D kernel must round exactly as the (N, 6) form that Lambda's
    # pinned values and the CSVs were recorded with.
    u = _kernel_grid(rho_table)
    got = specfun._interp_log_rho(rho_table, u)
    want = oracles.interp_log_rho_cardinal(rho_table, u)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


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


def test_rho_hat_near_float_range_edge_matches_series():
    # Re(gamma + I(8)) = 438.3, well inside float range.
    got = specfun.rho_hat(-8.0)
    assert got.imag == 0.0
    assert got.real == pytest.approx(2.246e190, rel=1e-3)
    want = EULER_GAMMA + oracles.big_i_series(8.0).real
    assert math.log(got.real) == pytest.approx(want, rel=BIG_I_REL)


@pytest.mark.parametrize("s", [-9.0, -20.0, -700.0])
def test_rho_hat_overflow_is_range_error(s):
    # The modulus e^Re(gamma + I(-s)) passes the float maximum near s = -8.5633.
    with pytest.raises(RangeError, match="overflows a float"):
        specfun.rho_hat(s)


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
