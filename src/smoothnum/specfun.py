"""Core special functions for smooth-number asymptotics.

* ``xi(u)``          -- the positive root of e^xi = 1 + u*xi.
* ``big_i(s)``       -- the entire function integral_0^s (e^v - 1)/v dv.
* ``RhoTable``       -- tabulated log of the Dickman function rho.
* ``rho_hat(s)``     -- exp(gamma + big_i(-s)), the Laplace transform of rho.
* ``k_factor(t)``    -- t*zeta(t+1)/(t+1), continuous through t = 0.
* ``saddle(x, y)``   -- u, xi, the saddle point beta, and the decay rate r.

The Dickman function satisfies u*rho'(u) = -rho(u-1); we advance the
equivalent integral form rho(u) = (1/u) * integral_{u-1}^{u} rho(t) dt
on a uniform grid.  rho has a kink at every positive integer (the k-th
derivative jumps at u = k), so every quadrature window is split at the
interior integer and each smooth piece gets its own Newton-Cotes rule.
Values are stored as log(rho) so tables can extend to u of several
hundred without underflow.
"""

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, PoleError, RangeError, ResourceError
from .quadrature import adaptive_complex
from .zetazeros import zeta_times_s_minus_1

# Euler-Mascheroni constant, 17 significant digits.
EULER_GAMMA = 0.57721566490153286


# ----------------------------------------------------------------------
# xi: the saddle point equation e^xi = 1 + u*xi
# ----------------------------------------------------------------------

def xi(u):
    """Unique nonnegative root of e^xi = 1 + u*xi, for u >= 1.

    Accepts a scalar or ndarray.  Newton iteration from x0 =
    log(1 + u*log(1+u)); x0 always exceeds log(u), where e^x - 1 - u*x
    is increasing and convex, so the iteration converges globally.  A
    bisection sweep mops up any stragglers.  Near u = 1 the root is a
    near-double root and the last few digits are limited by cancellation
    in e^x - 1 - u*x; absolute accuracy there is ~1e-8, which the
    residual contract |e^xi - 1 - u*xi| <= 1e-12*(1 + u*xi) tolerates.
    """
    arr = np.asarray(u, dtype=np.float64)
    scalar = arr.ndim == 0
    v = np.atleast_1d(arr).astype(np.float64).copy()
    if np.any(v < 1.0 - 1e-12):
        raise DomainError("xi(u) requires u >= 1")
    v = np.maximum(v, 1.0)

    x = np.log1p(v * np.log1p(v))
    for _ in range(90):
        ex = np.exp(x)
        f = ex - 1.0 - v * x
        fp = ex - v
        step = np.where(fp > 0, f / np.where(fp > 0, fp, 1.0), 0.0)
        x -= step
        if np.all(np.abs(step) <= 1e-15 * (1.0 + np.abs(x))):
            break

    resid = np.abs(np.exp(x) - 1.0 - v * x)
    bad = resid > 1e-12 * (1.0 + v * np.abs(x))
    if np.any(bad):
        vb = v[bad]
        lo = np.full(vb.shape, 1e-300)
        hi = 2.0 * np.log(vb + 2.0)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            fm = np.exp(mid) - 1.0 - vb * mid
            lo = np.where(fm < 0, mid, lo)
            hi = np.where(fm < 0, hi, mid)
        x[bad] = 0.5 * (lo + hi)

    x[v == 1.0] = 0.0
    if scalar:
        return float(x[0])
    return x.reshape(arr.shape)


# ----------------------------------------------------------------------
# big_i: I(s) = integral over [0, s] of (e^v - 1)/v dv
# ----------------------------------------------------------------------

def big_i(s) -> complex:
    """Entire function integral_0^s (e^v - 1)/v dv along the straight path.

    Parametrized as v = s*t over t in [0, 1]; the removable singularity
    at v = 0 is evaluated by Taylor series for |v| < 1e-3.  Relative
    accuracy is ~1e-12 for |s| <= 50, comfortably inside the 1e-10
    contract, and conjugating s conjugates the result exactly.  A
    non-finite s is a DomainError.
    """
    s = complex(s)
    if not cmath.isfinite(s):
        raise DomainError(f"big_i requires a finite argument, got {s}")
    if s == 0:
        return complex(0.0, 0.0)

    def integrand(t: np.ndarray) -> np.ndarray:
        v = s * t
        small = np.abs(v) < 1e-3
        series = 1.0 + v * (0.5 + v * (1 / 6 + v * (1 / 24 + v / 120)))
        ratio = np.where(small, series, (np.exp(v) - 1.0) / np.where(small, 1.0, v))
        return s * ratio

    return adaptive_complex(integrand)


def rho_hat(s) -> complex:
    """exp(gamma + big_i(-s)): the Laplace transform of the Dickman function."""
    return cmath.exp(EULER_GAMMA + big_i(-complex(s)))


def k_factor(t) -> complex:
    """t * zeta(t+1) / (t+1), with the limit value 1 at t = 0.

    Computed as w(t+1)/(t+1) where w(s) = zeta(s)(s-1) is entire, which
    makes the t = 0 value exact.  The only pole is t = -1, where
    eps * k_factor(-1 + eps) -> zeta(0)*(-1) = 1/2.
    """
    t = complex(t)
    if abs(t + 1.0) < 1e-12:
        raise PoleError("k_factor has its pole at t = -1")
    return zeta_times_s_minus_1(t + 1.0) / (t + 1.0)


# ----------------------------------------------------------------------
# The Dickman table
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RhoTable:
    """log(rho) sampled on the uniform grid u = j*step, j = 0..u_max/step.

    Immutable after construction (the array is marked read-only), hence
    safe to share across threads.
    """

    step: float
    u_max: float
    log_rho: np.ndarray

    @property
    def points_per_unit(self) -> int:
        return int(round(1.0 / self.step))


def _piece_weights(n_intervals: int, h: float) -> np.ndarray:
    """Closed Newton-Cotes composite weights on n_intervals of width h.

    Even counts: composite Simpson.  Odd counts >= 3: Simpson plus a
    3/8 block on the last three intervals.  A single interval gets the
    bare trapezoid; its O(h^2) defect is repaired by the caller with an
    Euler-Maclaurin endpoint-derivative correction.
    """
    if n_intervals == 1:
        return np.array([0.5 * h, 0.5 * h])
    w = np.zeros(n_intervals + 1)
    simpson_part = n_intervals if n_intervals % 2 == 0 else n_intervals - 3
    if simpson_part:
        w[0] += h / 3
        w[simpson_part] += h / 3
        w[1:simpson_part:2] += 4 * h / 3
        w[2:simpson_part:2] += 2 * h / 3
    if simpson_part != n_intervals:
        w[-4:] += np.array([1.0, 3.0, 3.0, 1.0]) * (3 * h / 8)
    return w


def _window_rule(residue: int, m: int, h: float):
    """Quadrature for one unit window [u-1, u], split at the interior kink.

    Returns (weights over the m+1 window grid points, list of
    single-interval pieces as (local_a, local_b) needing the
    Euler-Maclaurin h^2/12 endpoint correction).
    """
    pieces = [(0, m)] if residue == 0 else [(0, m - residue), (m - residue, m)]
    weights = np.zeros(m + 1)
    needs_correction = []
    for a, b in pieces:
        weights[a : b + 1] += _piece_weights(b - a, h)
        if b - a == 1:
            needs_correction.append((a, b))
    return weights, needs_correction


def build_rho_table(u_max: float = 64.0, step: float = 1.0 / 512.0) -> RhoTable:
    """Tabulate log(rho) on [0, ceil(u_max)] with the given grid step.

    [0, 1] and [1, 2] are seeded exactly (rho = 1 and rho = 1 - log u);
    beyond 2 the integral form rho(u)*u = integral_{u-1}^{u} rho is
    solved implicitly one grid point at a time.  Each unit window is
    rescaled by its largest value, so entries stay near 1 regardless of
    how far rho has decayed.
    """
    if not (step > 0 and step <= 1.0 / 64.0):
        raise DomainError("step must lie in (0, 1/64]")
    m = int(round(1.0 / step))
    if abs(m * step - 1.0) > 1e-9:
        raise DomainError("1/step must be an integer so grid points hit the kinks")
    if not 1 <= u_max < math.inf:
        raise DomainError(f"u_max must be finite and at least 1, got {u_max}")
    units = int(math.ceil(u_max - 1e-9))
    n_last = units * m

    h = step
    try:
        log_rho = np.zeros(n_last + 1)
    except MemoryError as exc:
        raise ResourceError(
            f"rho table on [0, {units}] at step {step:g} does not fit in memory"
        ) from exc
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
            # Trapezoid repair on [a, b]: + h^2/12 * (rho(b-1)/b - rho(a-1)/a),
            # from f'(t) = -rho(t-1)/t.  rho' is continuous at integers >= 2,
            # so the table value is the correct one-sided derivative.
            ua = (n - m + ja) * h
            ub = (n - m + jb) * h
            ra = math.exp(log_rho[n - 2 * m + ja] - base)
            rb = math.exp(log_rho[n - 2 * m + jb] - base)
            known += h * h / 12.0 * (rb / ub - ra / ua)
        u_n = n * h
        log_rho[n] = base + math.log(known / (u_n - weights[m]))

    log_rho.setflags(write=False)
    return RhoTable(step=h, u_max=float(units), log_rho=log_rho)


_LAGRANGE_DENOM = np.array([-120.0, 24.0, -12.0, 12.0, -24.0, 120.0])


def _interp_log_rho(table: RhoTable, u: np.ndarray) -> np.ndarray:
    """Quintic Lagrange on the log-rho grid; u must lie in (1, u_max].

    Stencils are clamped inside the unit block containing u so they
    never straddle a kink.
    """
    m = table.points_per_unit
    n_last = table.log_rho.size - 1
    t = u * m  # position in grid units
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
    cardinal = prefix * suffix / _LAGRANGE_DENOM
    return np.sum(cardinal * table.log_rho[idx], axis=1)


def _check_range(table: RhoTable, flat: np.ndarray) -> None:
    """Reject arguments outside [0, u_max], up to a rounding slack."""
    slack = 1e-9 * max(1.0, table.u_max)
    if np.any(flat < -slack) or np.any(flat > table.u_max + slack):
        raise RangeError(
            f"rho table covers [0, {table.u_max:g}]; got values outside it"
        )


def _eval_log_rho(table: RhoTable, u):
    arr = np.asarray(u, dtype=np.float64)
    scalar = arr.ndim == 0
    flat = np.atleast_1d(arr).ravel().astype(np.float64)
    _check_range(table, flat)
    clipped = np.clip(flat, 0.0, table.u_max)
    out = np.zeros_like(clipped)
    inner = clipped > 1.0
    if np.any(inner):
        out[inner] = _interp_log_rho(table, clipped[inner])
    if scalar:
        return float(out[0])
    return out.reshape(arr.shape)


def log_rho(table: RhoTable, u):
    """log rho(u), interpolated from the table; exactly 0 for u <= 1."""
    return _eval_log_rho(table, u)


def rho(table: RhoTable, u):
    """Dickman rho(u), positive everywhere on [0, u_max]."""
    value = _eval_log_rho(table, u)
    if isinstance(value, float):
        return math.exp(value)
    return np.exp(value)


def rho_prime(table: RhoTable, u):
    """rho'(u) = -rho(u-1)/u for u > 1; rho is constant below 1."""
    arr = np.asarray(u, dtype=np.float64)
    scalar = arr.ndim == 0
    flat = np.atleast_1d(arr).ravel().astype(np.float64)
    _check_range(table, flat)
    out = np.zeros_like(flat)
    mask = flat > 1.0
    if np.any(mask):
        um = flat[mask]
        out[mask] = -np.exp(_eval_log_rho(table, um - 1.0)) / um
    if scalar:
        return float(out[0])
    return out.reshape(arr.shape)


# ----------------------------------------------------------------------
# Saddle point data
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SaddleData:
    """u = log x/log y, the root xi(u), beta = 1 - xi/log y, and the
    local decay rate r = -rho'(u)/rho(u) (zero for u <= 1)."""

    u: float
    xi: float
    beta: float
    r: float


def saddle(x: float, y: float, table: RhoTable) -> SaddleData:
    """Saddle data for the pair (x, y) with x >= y >= 2, both finite."""
    if not (math.isfinite(x) and math.isfinite(y)):
        raise DomainError(f"saddle requires finite x and y, got x={x}, y={y}")
    if y < 2 or x < y:
        raise DomainError("saddle requires x >= y >= 2")
    log_y = math.log(y)
    u = math.log(x) / log_y
    xi_u = xi(u)
    beta = 1.0 - xi_u / log_y
    if u <= 1.0:
        r = 0.0
    else:
        r = math.exp(_eval_log_rho(table, u - 1.0) - _eval_log_rho(table, u)) / u
    return SaddleData(u=u, xi=xi_u, beta=beta, r=r)


@lru_cache(maxsize=1)
def default_rho_table() -> RhoTable:
    """The table at build_rho_table's default grid, built once and shared
    by callers that do not manage their own."""
    return build_rho_table()
