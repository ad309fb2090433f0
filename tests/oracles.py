"""Independent reference implementations used to freeze expected values.

Every routine here deliberately takes a different algorithmic route from
the package code it checks, so agreement is evidence rather than
tautology:

* Dickman rho      -- exact Taylor-coefficient propagation of the delay
                      ODE, one series per unit interval (the package
                      advances the equivalent integral form implicitly
                      on a fine grid);
* the rho table    -- the package's own discretization solved one grid
                      point at a time (the package solves a unit block
                      at a time);
* rho interpolation -- the same quintic Lagrange arithmetic on (N, 6)
                      scratch arrays, summed by numpy's row reduce (the
                      package keeps six 1-D terms and adds them in
                      turn); the two must agree bit for bit;
* I(s)             -- the entire Taylor series (the package integrates);
* xi(u)            -- pure bisection (the package runs Newton);
* smooth counts    -- greatest-prime-factor sieve enumeration (the
                      package folds lists and walks a product tree);
* Chebyshev psi    -- log of an exact integer lcm (the package sums
                      logs over prime powers);
* log zeta(s, y)   -- sum of -log(1 - p^-s) in 40-digit mpmath over
                      the primes of the gpf sieve (the package takes
                      each term's closed form in float64);
* Buchstab residuals -- the exception: identities evaluated with the
                      package's own psi_exact and lambda_xy, not
                      independent routes.  They check that the counts
                      and Lambda satisfy Buchstab's functional equation,
                      which no single value can show.

The slow ones are run once and their outputs frozen into the tests; the
cheap ones are called live.
"""

import math
from fractions import Fraction

import numpy as np

from smoothnum.debruijn import lambda_xy
from smoothnum.errors import DomainError
from smoothnum.primes import PrimeTable
from smoothnum.quadrature import gauss_legendre
from smoothnum.smoothcount import psi_exact
from smoothnum.specfun import RhoTable


# ----------------------------------------------------------------------
# Dickman rho by exact Taylor-coefficient propagation of the delay ODE
# ----------------------------------------------------------------------
#
# Direct forward time-stepping of t rho'(t) = -rho(t-1) is useless here:
# perturbation e(u) of log rho grows like exp(integral of xi), about 7e8
# by u = 10, so any one-step scheme melts down around u ~ 8.  Instead
# propagate the Taylor series of rho on [k, k+1] about the midpoint
# k + 1/2.  Matching powers of x in (k + 1/2 + x) rho' = -rho(t-1) turns
# the ODE into an exact coefficient recurrence
#
#     c_{n+1} = -(b_n + n c_n) / ((k + 1/2) (n + 1)),
#
# with b the coefficients one interval back (same x since t - 1 =
# (k-1) + 1/2 + x) and c_0 = rho(k) read off the previous series at
# x = 1/2.  Coefficient ratios tend to 1/(k+1/2), so on |x| <= 1/2 the
# truncation error at degree 80 is below 1e-25 and the whole procedure
# is numerically benign out to u_max = 64.

def dickman_log_rho(u_target: float, pad_dps: int = 30) -> float:
    """log rho(u_target) for 0 <= u_target <= 64, ~1e-13 absolute.

    The working precision scales with depth: an absolute error injected
    near u = k decays only algebraically under the delay ODE while rho
    itself collapses superexponentially, so reaching u with relative
    accuracy requires carrying ~log10(1/rho(u)) ~ 2.1*u guard digits the
    whole way.  Each interval's series is truncated where its own terms
    (decay ratio 1/(2k+1) on |x| <= 1/2) drop below working precision.
    """
    import mpmath as mp

    if u_target < 0:
        raise ValueError("rho undefined for negative arguments")
    if u_target <= 1.0:
        return 0.0
    dps = pad_dps + int(math.ceil(2.2 * u_target))
    degree = int(math.ceil(dps * math.log(10) / math.log(3))) + 10
    with mp.workdps(dps):
        half = mp.mpf("0.5")
        b = [mp.mpf(1)] + [mp.mpf(0)] * degree  # rho = 1 on [0, 1]
        k = 1
        while True:
            # c_1.. follow from the ODE recurrence (c_0 drops out at
            # n = 0); c_0 then comes from continuity at the left edge
            # x = -1/2 with the previous series' right-edge value rho(k).
            c = [mp.mpf(0)] * (degree + 1)
            for n in range(degree):
                c[n + 1] = -(b[n] + n * c[n]) / ((k + half) * (n + 1))
            rho_k = mp.polyval(b[::-1], half)
            c[0] = rho_k - (mp.polyval(c[::-1], -half) - c[0])
            if u_target < k + 1 or k + 1 > 64:
                break
            b, k = c, k + 1
        x = mp.mpf(min(u_target, 64.0)) - k - half
        return float(mp.log(mp.polyval(c[::-1], x)))


def dickman_rho_series(u_target: float, pad_dps: int = 30) -> float:
    if u_target <= 1.0:
        return 1.0
    return math.exp(dickman_log_rho(u_target, pad_dps))


# ----------------------------------------------------------------------
# The rho table's discretization, solved one grid point at a time
# ----------------------------------------------------------------------
#
# specfun.build_rho_table solves each unit block of its discretized
# integral equation as a lower-triangular system, a few dozen rows per
# dense solve.  This is the same discretization (the same piece
# weights, the same h^2/12 trapezoid repairs, the same exact seed on
# [1, 2]), with each window's rule assembled on its own, advanced by
# forward substitution: one grid point and one dot product at a time,
# each window rescaled by its own first value.  Only the order of the
# floating-point operations differs, so the two tables agree to
# rounding.

def _window_rule(residue: int, m: int, h: float):
    """Weights over the m+1 grid points of one window [u-1, u], split at
    its interior kink, and its single-interval pieces as (local_a,
    local_b): these need the h^2/12 endpoint repair."""
    from smoothnum import specfun

    pieces = [(0, m)] if residue == 0 else [(0, m - residue), (m - residue, m)]
    weights = np.zeros(m + 1)
    needs_correction = []
    for a, b in pieces:
        weights[a : b + 1] += specfun._piece_weights(b - a, h)
        if b - a == 1:
            needs_correction.append((a, b))
    return weights, needs_correction


def rho_table_stepwise(u_max: float, step: float) -> np.ndarray:
    """log rho on the grid j*step, j = 0..ceil(u_max)/step, point by point."""
    m = int(round(1.0 / step))
    h = step
    n_last = int(math.ceil(u_max - 1e-9)) * m
    log_rho = np.zeros(n_last + 1)
    for n in range(m + 1, min(2 * m, n_last) + 1):
        log_rho[n] = math.log1p(-math.log(n * h))

    rules = {}
    for n in range(2 * m + 1, n_last + 1):
        r = n % m
        if r not in rules:
            rules[r] = _window_rule(r, m, h)
        weights, corrections = rules[r]
        base = log_rho[n - m]
        vals = np.exp(log_rho[n - m : n] - base)
        known = float(np.dot(weights[:m], vals))
        for ja, jb in corrections:
            ua = (n - m + ja) * h
            ub = (n - m + jb) * h
            ra = math.exp(log_rho[n - 2 * m + ja] - base)
            rb = math.exp(log_rho[n - 2 * m + jb] - base)
            known += h * h / 12.0 * (rb / ub - ra / ua)
        log_rho[n] = base + math.log(known / (n * h - weights[m]))
    return log_rho


# ----------------------------------------------------------------------
# The rho interpolation kernel in (N, 6) form
# ----------------------------------------------------------------------
#
# specfun._interp_log_rho forms the six Lagrange terms one at a time, as
# 1-D arrays (numpy scalars at a single float), and adds them left to
# right.  This is the same arithmetic laid out as (N, 6) prefix, suffix
# and cardinal arrays, filled a column at a time and summed along each
# row by numpy.  Its outputs are the reference bits that Lambda, the
# frozen values and the CSVs were recorded with.

def interp_log_rho_cardinal(table, u: np.ndarray) -> np.ndarray:
    """Quintic Lagrange interpolation of table.log_rho at u in (1, u_max]."""
    from smoothnum import specfun

    m = table.points_per_unit
    t = u * m
    block = np.minimum(np.floor(u).astype(np.int64), int(table.u_max) - 1)
    lo = block * m
    j0 = np.clip(np.floor(t).astype(np.int64) - 2, lo, lo + m - 5)

    idx = j0[:, None] + np.arange(6)
    d = t[:, None] - idx
    prefix = np.ones_like(d)
    suffix = np.ones_like(d)
    for i in range(1, 6):
        prefix[:, i] = prefix[:, i - 1] * d[:, i - 1]
        suffix[:, 5 - i] = suffix[:, 6 - i] * d[:, 6 - i]
    cardinal = prefix * suffix / specfun._LAGRANGE_DENOM
    return np.sum(cardinal * table.log_rho[idx], axis=1)


# ----------------------------------------------------------------------
# I(s) as its Taylor series: sum_{n>=1} s^n / (n * n!)
# ----------------------------------------------------------------------

def big_i_series(s: complex) -> complex:
    """Entire series for I(s), summed in mpmath working precision.

    The peak term is ~e^|s| before cancellation, so float64 summation
    loses ~|s|/ln 10 digits; padding the precision by that much keeps
    the result good to ~25 digits for any |s| the tests draw.
    """
    import mpmath as mp

    s = complex(s)
    with mp.workdps(int(30 + 0.45 * abs(s))):
        z = mp.mpc(s)
        total = mp.mpc(0)
        term = mp.mpc(1)
        for n in range(1, 40 + int(4 * abs(s))):
            term *= z / n
            total += term / n
            if abs(term) <= mp.mpf(10) ** (-mp.mp.dps - 5) * max(1.0, abs(total)):
                break
        return complex(total)


# ----------------------------------------------------------------------
# xi(u) by plain bisection on e^x - 1 - u x
# ----------------------------------------------------------------------

def xi_bisection(u: float) -> float:
    if u <= 1.0:
        return 0.0
    lo, hi = 1e-300, 2.0 * math.log(u + 2.0)
    assert math.exp(hi) - 1.0 - u * hi > 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if math.exp(mid) - 1.0 - u * mid < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ----------------------------------------------------------------------
# Smooth numbers by greatest-prime-factor sieve
# ----------------------------------------------------------------------

def gpf_sieve(limit: int) -> np.ndarray:
    """gpf[n] = greatest prime factor of n (gpf[1] = 1), for n <= limit."""
    gpf = np.arange(limit + 1, dtype=np.int64)
    gpf[1] = 1
    for p in range(2, limit + 1):
        if gpf[p] == p:  # p prime: stamp it over all multiples
            gpf[2 * p :: p] = p
    return gpf


def smooth_values(limit: int, y: int, gpf: np.ndarray | None = None) -> np.ndarray:
    """Sorted array of all y-smooth integers in [1, limit]."""
    if gpf is None:
        gpf = gpf_sieve(limit)
    return np.nonzero(gpf[: limit + 1] <= y)[0][1:]  # drop index 0


def psi_brute(x: int, y: int, gpf: np.ndarray | None = None) -> int:
    if x < 1:
        return 0
    if gpf is None:
        gpf = gpf_sieve(x)
    return int(np.count_nonzero(gpf[1 : x + 1] <= y))


# ----------------------------------------------------------------------
# Chebyshev psi as log lcm(1..n), exact integer arithmetic
# ----------------------------------------------------------------------

def chebyshev_psi_lcm(y: int) -> float:
    acc = 1
    for n in range(2, y + 1):
        acc = math.lcm(acc, n)
    return math.log(acc)


# ----------------------------------------------------------------------
# Truncated Euler product log zeta(s, y) in extended precision
# ----------------------------------------------------------------------

def log_euler_product(s: complex, y: float, dps: int = 40) -> complex:
    """sum_{p <= y} -log(1 - p^-s), principal branch, at dps digits."""
    import mpmath as mp

    gpf = gpf_sieve(int(y))
    ps = np.nonzero(gpf == np.arange(gpf.size))[0][2:]  # drop 0 and 1
    with mp.workdps(dps):
        z = mp.mpc(complex(s))
        return complex(mp.fsum(-mp.log(1 - mp.power(int(p), -z)) for p in ps))


def g_euler_product(s: float, y: float) -> float:
    """G(s, y) = zeta(s, y) / F(s, y) at real s > 0, s != 1, with
    F = exp(gamma + I((1 - s) log y)) zeta(s)(s - 1) log y: the Euler
    product from log_euler_product, I from big_i_series and zeta from
    mpmath."""
    import mpmath as mp

    log_y = math.log(y)
    with mp.workdps(40):
        log_f = (
            mp.euler
            + mp.mpf(big_i_series((1.0 - s) * log_y).real)
            + mp.log(mp.zeta(s) * (mp.mpf(s) - 1))
            + mp.log(log_y)
        )
        return float(mp.exp(mp.mpf(log_euler_product(s, y).real) - log_f))


# ----------------------------------------------------------------------
# Multiplicative alpha weights via explicit per-prime exponentials
# ----------------------------------------------------------------------

def _exp_poly(max_k: int, degree: int) -> list:
    """Taylor coefficients of exp(sum_{k<=max_k} t^k/k) through t^degree."""
    out = [Fraction(1)] + [Fraction(0)] * degree
    for n in range(1, degree + 1):
        acc = Fraction(0)
        for k in range(1, min(n, max_k) + 1):
            acc += out[n - k]  # k * (t^k/k)' contributes coefficient 1
        out[n] = acc / n
    return out


def alpha_rational(n: int, y: int) -> Fraction:
    """Coefficient of n^-s in prod_p exp(sum_{k: p^k<=y} p^{-ks}/k)."""
    result = Fraction(1)
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            max_k = 0
            q = p
            while q <= y:
                max_k += 1
                q *= p
            result *= _exp_poly(max_k, e)[e]
        p += 1
    if m > 1:
        result *= Fraction(1 if m <= y else 0)
    return result


# ----------------------------------------------------------------------
# Buchstab identities, evaluated with the package's own routes
# ----------------------------------------------------------------------

def buchstab_residual_psi(x: int, y: int, z: int, pt: PrimeTable) -> int:
    """Psi(x,y) - [Psi(x,z) - sum_{y < p <= z} Psi(x/p, p)]; exactly 0."""
    x, y, z = int(x), int(y), int(z)
    if not (2 <= y <= z <= x):
        raise DomainError("buchstab residual requires 2 <= y <= z <= x")
    lo = int(np.searchsorted(pt.primes, y, side="right"))
    hi = int(np.searchsorted(pt.primes, z, side="right"))
    branch = sum(psi_exact(x // int(p), int(p), pt) for p in pt.primes[lo:hi])
    return psi_exact(x, y, pt) - psi_exact(x, z, pt) + branch


def buchstab_residual_lambda(
    x: float, y: float, z: float, table: RhoTable, n_panels: int = 64
) -> float:
    """Lambda(x,y) - [Lambda(x,z) - integral_y^z Lambda(x/t,t) dt/log t].

    Mathematically zero; what comes back is quadrature error.  The
    integrand jumps each time x/t crosses an integer, so composite
    Gauss panels (in log t) converge first order in n_panels -- the
    residual roughly halves when n_panels doubles.  Where x/t < t (z >
    sqrt(x)), every n <= x/t is t-smooth and Lambda(x/t, t) = floor(x/t).
    """
    if not (2 <= y <= z <= x):
        raise DomainError("buchstab residual requires 2 <= y <= z <= x")
    if z == y:
        return 0.0

    def lam(s, t):
        return math.floor(s) if s < t else lambda_xy(s, t, table)

    xg, wg = gauss_legendre(6)
    va, vb = math.log(y), math.log(z)
    edges = np.linspace(va, vb, n_panels + 1)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        v = a + (b - a) * xg
        vals = [lam(x / math.exp(vi), math.exp(vi)) * math.exp(vi) / vi for vi in v]
        total += (b - a) * float(np.dot(wg, vals))
    return lambda_xy(x, y, table) - lambda_xy(x, z, table) + total
