"""Core special functions for smooth-number asymptotics.

* ``xi(u)``          -- the positive root of e^xi = 1 + u*xi.
* ``big_i(s)``       -- integral_0^s (e^v - 1)/v dv, on fixed Gauss panels.
* ``RhoTable``       -- tabulated log of the Dickman function rho.
* ``rho_hat(s)``     -- exp(gamma + big_i(-s)), the Laplace transform of rho.
* ``k_factor(t)``    -- t*zeta(t+1)/(t+1), continuous through t = 0.
* ``saddle(x, y)``   -- u, xi and the saddle point beta.

The Dickman function satisfies u*rho'(u) = -rho(u-1); the table solves
the equivalent integral form rho(u) = (1/u) * integral_{u-1}^{u} rho(t) dt
on a uniform grid.  rho has a kink at every positive integer (the k-th
derivative jumps at u = k), so every quadrature window is split at the
interior integer and each smooth piece gets its own Newton-Cotes rule.
The grid values of one unit block [k, k+1] then solve a lower-triangular
linear system whose right-hand side comes from the block before; the
blocks are solved in turn, a few dozen rows per dense solve.  Values are
stored as log(rho) so tables can extend to u of several hundred without
underflow.

Values between grid points come from one quintic interpolation kernel
whose operation order is a contract that pinned values depend on (see
_interp_log_rho).  It takes an array or a single float: log_rho at a
float calls it once, on numpy scalars, with no array built around the
point.  xi has one solver, on Python floats, and an array maps over it
entry by entry.
"""

import cmath
import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, PoleError, RangeError, ResourceError
from .quadrature import panel_sum
from .zetazeros import zeta_times_s_minus_1

# Euler-Mascheroni constant, 17 significant digits.
EULER_GAMMA = 0.57721566490153286

_BIG_I_SPAN = 16.0  # |s| per big_i panel
_BIG_I_NODES = 24
_BIG_I_BLOCK = 1 << 12  # big_i panels per panel_sum call, bounding memory
_BIG_I_MAX_ABS = 2.0**22
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


# ----------------------------------------------------------------------
# xi: the saddle point equation e^xi = 1 + u*xi
# ----------------------------------------------------------------------

def xi(u):
    """Unique nonnegative root of e^xi = 1 + u*xi, for u >= 1.

    Accepts a scalar or ndarray.  There is one solver, _xi_scalar, and an
    array maps entry by entry over it, so each entry equals xi at that
    float and never depends on its neighbours.  A non-finite u or
    u < 1 - 1e-12 is a DomainError; a u whose root leaves exp's float
    range (above about 2.5e305), or a positive int past float range, is
    a RangeError.
    """
    try:
        arr = np.asarray(u, dtype=np.float64)
    except OverflowError:  # an int past float range: entries converted one by one
        arr = np.asarray(u, dtype=object)
    entry = _xi_scalar if arr.dtype == np.float64 else _xi_entry
    if arr.ndim == 0:
        return entry(arr.item())
    out = np.array([entry(v) for v in arr.ravel().tolist()], dtype=np.float64)
    return out.reshape(arr.shape)


def _xi_entry(v) -> float:
    """xi at an entry of an array that holds an int past float range; the
    sign of such an int is read before it is converted."""
    try:
        v = float(v)
    except OverflowError:
        if v < 0:
            raise DomainError("xi(u) requires a finite u >= 1") from None
        raise RangeError("xi(u): u overflows a float") from None
    return _xi_scalar(v)


def _xi_scalar(v: float) -> float:
    """xi at one float.

    Newton iteration from x0 = log(1 + u*log(1+u)); x0 always exceeds
    log(u), where e^x - 1 - u*x is increasing and convex, so the
    iterates fall monotonically to the root.  Near u = 1 the root is a
    near-double root and the last few digits are limited by cancellation
    in e^x - 1 - u*x; absolute accuracy there is ~1e-8, which the
    residual contract |e^xi - 1 - u*xi| <= 1e-12*(1 + u*xi) tolerates.
    Where Newton misses that contract (near u = 1 + 1e-9) bisection
    takes over.  exp and log1p are numpy's, which differ from the math
    module's in the last bit on a few percent of arguments.
    """
    if not math.isfinite(v) or v < 1.0 - 1e-12:
        raise DomainError("xi(u) requires a finite u >= 1")
    v = max(v, 1.0)
    x = float(np.log1p(v * float(np.log1p(v))))
    if x > _LOG_FLOAT_MAX:
        raise RangeError(f"xi({v:g}): e^xi overflows a float")
    for _ in range(90):
        ex = float(np.exp(x))
        f = ex - 1.0 - v * x
        fp = ex - v
        step = f / fp if fp > 0 else 0.0
        x -= step
        if abs(step) <= 1e-15 * (1.0 + abs(x)):
            break
    if abs(float(np.exp(x)) - 1.0 - v * x) > 1e-12 * (1.0 + v * abs(x)):
        lo, hi = 1e-300, 2.0 * float(np.log(v + 2.0))
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if float(np.exp(mid)) - 1.0 - v * mid < 0 else (lo, mid)
        x = 0.5 * (lo + hi)
    return 0.0 if v == 1.0 else x


# ----------------------------------------------------------------------
# big_i: I(s) = integral over [0, s] of (e^v - 1)/v dv
# ----------------------------------------------------------------------

def big_i(s) -> complex:
    """integral_0^s (e^v - 1)/v dv along the straight path: s times the
    integral of expm1(st)/(st) over t in [0, 1] on ceil(|s|/16) equal
    panels of 24 Gauss-Legendre nodes (1 + st/2 + (st)^2/6 below |st| =
    1e-6, so a subnormal s cannot divide by 0).  Worst measured error
    relative to max(1, |I(s)|): 5.1e-14 over ~17000 points with |s| <= 50,
    at 5.4 + 44.9i, where e^(st) oscillates.  Conjugation is exact, and
    real s gives a real value.  A non-finite s is a DomainError; Re s >
    709 (e^s overflows) and |s| > 2^22 (past f_transform's arguments on
    zeta's strip for y up to 10^18) are RangeErrors."""
    s = complex(s)
    if not cmath.isfinite(s):
        raise DomainError(f"big_i requires a finite argument, got {s}")
    if s.real > 709.0 or abs(s) > _BIG_I_MAX_ABS:
        raise RangeError(f"big_i requires Re s <= 709 and |s| <= 2^22, got {s}")

    def integrand(t: np.ndarray) -> np.ndarray:
        v = s * t
        small = np.abs(v) < 1e-6
        series = 1.0 + v * (0.5 + v / 6.0)
        return np.where(small, series, np.expm1(v) / np.where(small, 1.0, v))

    n_panels = max(1, math.ceil(abs(s) / _BIG_I_SPAN))
    width = 1.0 / n_panels
    total = complex(0.0, 0.0)
    for lo in range(0, n_panels, _BIG_I_BLOCK):
        a = np.arange(lo, min(lo + _BIG_I_BLOCK, n_panels)) * width
        total += complex(panel_sum(integrand, a, np.full(a.size, width), _BIG_I_NODES))
    return s * total


def rho_hat(s) -> complex:
    """exp(gamma + big_i(-s)): the Laplace transform of the Dickman function.

    A RangeError where its modulus, e to the real part of the exponent,
    leaves float range: on the real axis, for s below -8.5633.
    """
    w = EULER_GAMMA + big_i(-complex(s))
    if w.real > _LOG_FLOAT_MAX:
        raise RangeError(f"rho_hat({s}) overflows a float")
    return cmath.exp(w)


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


# Rows per dense solve in build_rho_table.  Default table, fastest of 15
# interleaved builds on a 2-vCPU Xeon with one BLAS thread: 24 rows
# 45 ms, 32 45 ms, 48 39 ms, 64 37 ms, 80 42 ms, 96 46 ms, 128 63 ms,
# 256 160 ms, 512 (one solve per unit block) 420 ms.  Solving one grid
# point at a time took 0.25-0.30 s.
_SOLVE_ROWS = 64


def _block_rules(m: int, h: float):
    """Quadrature rules for the m unit windows [u-1, u] of one block.

    Row i is grid point km + 1 + i of block k, whose window has the
    interior kink k at local index m - r, r = (i + 1) % m (none when
    r = 0).  The window is split there and each piece gets
    _piece_weights.  Returns W, row i holding the m + 1 weights over the
    window's grid points, and the single-interval pieces that need the
    Euler-Maclaurin h^2/12 endpoint repair, as (row, local_a, local_b).
    """
    W = np.zeros((m, m + 1))
    for n in range(1, m):
        piece = _piece_weights(n, h)
        W[m - n - 1, : n + 1] += piece  # r = m - n: kink at local n
        W[n - 1, m - n :] += piece  # r = n: kink at local m - n
    W[m - 1] += _piece_weights(m, h)  # r = 0: no interior kink
    # The two single-interval pieces, both from n = 1 above.
    corrections = [(m - 2, 0, 1), (0, m - 1, m)]
    return W, corrections


def build_rho_table(u_max: float = 64.0, step: float = 1.0 / 512.0) -> RhoTable:
    """Tabulate log(rho) on [0, ceil(u_max)] with the given grid step.

    [0, 1] and [1, 2] are seeded exactly (rho = 1 and rho = 1 - log u).
    Beyond 2, grid point n, at u_n = n*step, satisfies the discretized
    integral form rho_n * u_n = sum_j W[i, j] rho_{n-m+j} (+ the h^2/12
    repairs), with m = 1/step and W, i from _block_rules.  The m unknowns
    of the unit block [k, k+1] are solved together.  The window of grid
    point km + 1 + i reaches back over block k - 1, which is known, and
    forward over km + 1 .. km + i, which is not, so the block is a
    lower-triangular system: diagonal u_n - W[i, m], strictly-lower part
    -W[i, m - (i - i')], the same in every block.  Values are scaled by
    rho(k), so they stay moderate however far rho has decayed.  The
    system is swept in sub-blocks of _SOLVE_ROWS rows; each takes its
    right-hand side from one einsum over the values already known and
    is one small dense solve.  Up to rounding this is the same table as
    solving one grid point at a time.
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

    W, corrections = _block_rules(m, h)
    # One system matrix per sub-block [s, e) of rows: its strictly-lower
    # part is fixed, its diagonal is refilled with u_n - w_m per block.
    sub_blocks = []
    for s in range(0, m, _SOLVE_ROWS):
        e = min(s + _SOLVE_ROWS, m)
        rows = np.arange(s, e)
        lag = rows[:, None] - rows[None, :]
        system = np.where(lag > 0, -W[rows[:, None], m - np.maximum(lag, 1)], 0.0)
        sub_blocks.append((s, e, system))
    offsets = np.arange(1, m + 1)
    # vals[j] is rho at grid point km - m + j over rho(km).  The unknowns,
    # j > m, are zero until solved, so each einsum sums known values only.
    vals = np.zeros(2 * m + 1)
    windows = np.lib.stride_tricks.sliding_window_view(vals, m)
    for k in range(2, units):
        km = k * m
        base = log_rho[km]
        vals[: m + 1] = np.exp(log_rho[km - m : km + 1] - base)
        vals[m + 1 :] = 0.0
        diag = (km + offsets) * h - W[:, m]
        repair = np.zeros(m)
        for i, ja, jb in corrections:
            # Trapezoid repair on [a, b]: + h^2/12 * (rho(b-1)/b - rho(a-1)/a),
            # from f'(t) = -rho(t-1)/t.  rho' is continuous at integers >= 2,
            # so the table value is the correct one-sided derivative.
            n = km + 1 + i
            ua = (n - m + ja) * h
            ub = (n - m + jb) * h
            ra = math.exp(log_rho[n - 2 * m + ja] - base)
            rb = math.exp(log_rho[n - 2 * m + jb] - base)
            repair[i] = h * h / 12.0 * (rb / ub - ra / ua)
        for s, e, system in sub_blocks:
            rhs = np.einsum("ij,ij->i", W[s:e, :m], windows[1 + s : 1 + e])
            np.fill_diagonal(system, diag[s:e])
            vals[m + 1 + s : m + 1 + e] = np.linalg.solve(system, rhs + repair[s:e])
        log_rho[km + 1 : km + m + 1] = base + np.log(vals[m + 1 :])

    log_rho.setflags(write=False)
    return RhoTable(step=h, u_max=float(units), log_rho=log_rho)


_LAGRANGE_DENOM = np.array([-120.0, 24.0, -12.0, 12.0, -24.0, 120.0])


def _interp_log_rho(table: RhoTable, u):
    """Quintic Lagrange on the log-rho grid; u, a float64 array or one
    float, must lie in (1, u_max].

    Stencils are clamped inside the unit block containing u so they
    never straddle a kink.  With d_i = t - (j0 + i), t = u/step and j0
    the stencil's first grid point, term i is

        (prefix_i * suffix_i) / _LAGRANGE_DENOM[i] * log_rho[j0 + i],

    prefix_i = d_0 d_1 ... d_(i-1) and suffix_i = d_5 d_4 ... d_(i+1),
    each multiplied in that order, and the six terms are added strictly
    left to right, ((((t0 + t1) + t2) + t3) + t4) + t5.  This order is a
    contract: every Lambda, rho and CSV byte that tests pin depends on
    it, so another one that rounds differently (a pairwise sum, say)
    moves them.  tests/oracles.py keeps the same operations in (N, 6)
    form as the check.  An array's terms are scaled and summed in place;
    one float runs the same operations on numpy float64 scalars, which
    round as the array entries do, and gives a numpy float64.
    """
    m = table.points_per_unit
    t = u * m  # position in grid units
    # Grid indices as floats, exact: the first point of u's unit block
    # and the stencil start, clamped inside it.
    lo = np.minimum(np.floor(u), table.u_max - 1.0) * m
    j0 = np.minimum(np.maximum(np.floor(t) - 2.0, lo), lo + (m - 5))
    # j0 >= m and 0 <= t - j0 <= 5, so t - (j0 + i) is exact (Sterbenz)
    # and equals d_0 - i, which is then exact too.
    d0 = t - j0
    d = [d0 - float(i) for i in range(6)]
    j0 = j0.astype(np.intp)
    # The empty products prefix_0 = suffix_5 = 1 are never multiplied in.
    prefix, suffix = [None, d[0]], [d[5], None]
    for i in range(1, 5):
        prefix.append(prefix[i] * d[i])
        suffix.insert(0, suffix[0] * d[5 - i])
    cardinal = [suffix[0], *(prefix[i] * suffix[i] for i in range(1, 5)), prefix[5]]
    for i, term in enumerate(cardinal):  # fresh arrays, so scaled in place
        term /= _LAGRANGE_DENOM[i]
        term *= table.log_rho[i:][j0]  # log_rho[j0 + i]
        cardinal[i] = term  # a scalar was rebound, not scaled in place
    total = cardinal[0]
    for term in cardinal[1:]:
        total += term
    return total


def _check_range(table: RhoTable, low: float, high: float) -> None:
    """Reject NaN (DomainError) and arguments outside [0, u_max], up to a
    rounding slack (RangeError), given the arguments' min and max; NaN,
    which both propagate, is looked for only once a bound fails."""
    slack = 1e-9 * max(1.0, table.u_max)
    if low >= -slack and high <= table.u_max + slack:
        return
    if math.isnan(low):
        raise DomainError("rho is not defined at NaN")
    raise RangeError(
        f"rho table covers [0, {table.u_max:g}]; got values outside it"
    )


def _checked_flat(table: RhoTable, u) -> tuple:
    """(u as float64 array, its 1-D view or copy, min, max), range-checked.
    The input is never copied when it is a contiguous float64 array, and
    never written."""
    arr = np.asarray(u, dtype=np.float64)
    flat = arr.ravel()
    if flat.size == 0:
        return arr, flat, math.inf, -math.inf
    low, high = float(flat.min()), float(flat.max())
    _check_range(table, low, high)
    return arr, flat, low, high


def _log_rho_flat(table: RhoTable, flat: np.ndarray, inside: bool) -> np.ndarray:
    """log rho at a range-checked 1-D array, as a fresh array.  inside
    says every point lies in (1, u_max], where the kernel takes the
    array whole; otherwise points are clipped to [0, u_max] and those
    above 1 gathered for it."""
    if inside:
        return _interp_log_rho(table, flat)
    clipped = np.clip(flat, 0.0, table.u_max)
    out = np.zeros_like(clipped)
    inner = clipped > 1.0
    if np.any(inner):
        out[inner] = _interp_log_rho(table, clipped[inner])
    return out


def log_rho(table: RhoTable, u):
    """log rho(u), interpolated from the table; exactly 0 for u <= 1.
    A float or int skips the array set-up: it is range-checked as a
    float and, above 1, passed to _interp_log_rho alone, bit for bit the
    array route."""
    if isinstance(u, (float, int)):
        u = float(u)
        _check_range(table, u, u)
        u = min(u, table.u_max)
        return float(_interp_log_rho(table, u)) if u > 1.0 else 0.0
    arr, flat, low, high = _checked_flat(table, u)
    out = _log_rho_flat(table, flat, low > 1.0 and high <= table.u_max)
    if arr.ndim == 0:
        return float(out[0])
    return out.reshape(arr.shape)


def rho(table: RhoTable, u):
    """Dickman rho(u), positive everywhere on [0, u_max]."""
    value = log_rho(table, u)
    if isinstance(value, float):
        return math.exp(value)
    return np.exp(value, out=value)


def rho_prime(table: RhoTable, u):
    """rho'(u) = -rho(u-1)/u for u > 1; rho is constant below 1."""
    arr, flat, low, high = _checked_flat(table, u)
    if low > 1.0:
        # u - 1 lies in (0, u_max); the kernel takes it whole above 1.
        out = _log_rho_flat(table, flat - 1.0, low - 1.0 > 1.0)
        np.exp(out, out=out)
        np.negative(out, out=out)
        out /= flat
    else:
        out = np.zeros_like(flat)
        mask = flat > 1.0
        if np.any(mask):
            um = flat[mask]
            out[mask] = -np.exp(_log_rho_flat(table, um - 1.0, False)) / um
    if arr.ndim == 0:
        return float(out[0])
    return out.reshape(arr.shape)


# ----------------------------------------------------------------------
# Saddle point data
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class SaddleData:
    """u = log x/log y, the root xi(u) and beta = 1 - xi/log y."""

    u: float
    xi: float
    beta: float


def saddle(x: float, y: float, table: RhoTable | None = None) -> SaddleData:
    """Saddle data for the pair (x, y) with x >= y >= 2, both finite.

    The table is ignored, as u, xi and beta need only x and y; perfbench passes one.
    """
    if not (math.isfinite(x) and math.isfinite(y)):
        raise DomainError(f"saddle requires finite x and y, got x={x}, y={y}")
    if y < 2 or x < y:
        raise DomainError("saddle requires x >= y >= 2")
    log_y = math.log(y)
    u = math.log(x) / log_y
    xi_u = xi(u)
    beta = 1.0 - xi_u / log_y
    return SaddleData(u=u, xi=xi_u, beta=beta)


@lru_cache(maxsize=1)
def default_rho_table() -> RhoTable:
    """The table at build_rho_table's default grid, built once and shared
    by callers that do not manage their own."""
    return build_rho_table()
