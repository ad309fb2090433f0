"""The continuous analogue Lambda(x, y) of the smooth-counting function.

lambda_y(u) is the Stieltjes integral of rho(u - log t/log y) against
d(floor(t)/t).  Two independent evaluations are provided:

* ``lambda_atom_sum`` -- the measure split into unit atoms at integers
  plus the density -floor(t)/t^2 dt;
* ``lambda_ibp``      -- integration by parts, leaving rho(u) plus an
  integral against the sawtooth {t}/t^2 and the exact endpoint atom
  -{y^u} y^{-u} coming from the unit jump of rho at 0.

Both integrals are split at the integers, where the integrands kink, so
each piece is a smooth product handled by short Gauss rules.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .errors import ResourceError
from .limits import env_limit
from .quadrature import gauss_legendre
from . import specfun
from .specfun import EULER_GAMMA, RhoTable, big_i, k_factor, saddle
from .zetazeros import log_zeta_times_s_minus_1

AUTO_ATOM_CUTOFF = 10**6  # lambda_xy switches methods above this y^u
IBP_PIECE_CUTOFF = 10**6  # truncation point N* of the sawtooth integral

_CHUNK = 1 << 17


@dataclass(frozen=True)
class LambdaResult:
    value: float
    method: str  # "atom_sum" or "integration_by_parts"
    est_error: float


@dataclass(frozen=True)
class LambdaAsymptotic:
    """Lambda(x,y) next to its two saddle approximations x rho(u) K(.)."""

    lambda_value: float
    r_based: float  # x rho(u) K(-r(u)/log y)
    xi_based: float  # x rho(u) K(-xi(u)/log y)
    ratio_r: float
    ratio_xi: float


def _snap_floor(t: float) -> int:
    """floor(t), treating values within 1e-9 relative of an integer as
    that integer (right-continuity at integer y^u; powers computed in
    floats can land a few ulps under the true integer)."""
    nearest = round(t)
    if abs(t - nearest) <= 1e-9 * max(1.0, abs(t)):
        return int(nearest)
    return math.floor(t)


def _integrate_pieces(f, t_hi: float, n_gl: int = 7, kinks=()) -> float:
    """Integral of f(t, floor(t)) over [1, t_hi], split at the integers.

    f must be vectorized over (t values, matching floors).  Pieces below
    t = 16 are subdivided ~16/n ways so the 1/t^2-type curvature near 1
    cannot dominate; beyond that one 7-point Gauss rule per unit piece
    leaves relative errors near 1e-14.  ``kinks`` lists interior points
    where f loses smoothness (for these integrands, t = y^(u-k) where
    the rho argument crosses an integer); the unit piece containing each
    kink is split there so no Gauss rule straddles it.
    """
    if t_hi <= 1.0:
        return 0.0
    xg, wg = gauss_legendre(n_gl)
    totals = []
    n_full = math.floor(t_hi)

    # Unit pieces needing explicit edges: the first 15, the final partial
    # piece, and any piece containing a kink.
    special: dict = {}
    for n in range(1, min(16, n_full + 1)):
        special[n] = []
    if t_hi > n_full:
        special.setdefault(n_full, [])
    for kink in kinks:
        if 1.0 < kink < t_hi:
            n = math.floor(kink)
            a, b = float(n), min(n + 1.0, t_hi)
            margin = 1e-12 * max(1.0, b)
            if a + margin < kink < b - margin:
                special.setdefault(n, []).append(float(kink))

    a_list, b_list, n_list = [], [], []
    for n, cuts in special.items():
        a, b = float(n), min(n + 1.0, t_hi)
        if b <= a:
            continue
        base = np.linspace(a, b, (math.ceil(16 / n) if n < 16 else 1) + 1)
        edges = np.unique(np.concatenate([base, np.asarray(cuts)]))
        a_list.extend(edges[:-1])
        b_list.extend(edges[1:])
        n_list.extend([n] * (len(edges) - 1))
    if a_list:
        a = np.asarray(a_list)
        length = np.asarray(b_list) - a
        t = a[:, None] + length[:, None] * xg
        vals = f(t.ravel(), np.repeat(np.asarray(n_list, dtype=np.float64), n_gl))
        totals.append(float(np.sum((vals.reshape(t.shape) @ wg) * length)))

    special_ns = np.fromiter(special.keys(), dtype=np.int64)
    for lo in range(16, n_full, _CHUNK):
        hi = min(lo + _CHUNK, n_full)
        nn = np.arange(lo, hi, dtype=np.int64)
        nn = nn[~np.isin(nn, special_ns)].astype(np.float64)
        if not nn.size:
            continue
        t = nn[:, None] + xg
        vals = f(t.ravel(), np.repeat(nn, n_gl))
        totals.append(float(np.sum(vals.reshape(t.shape) @ wg)))
    return math.fsum(totals)


def _rho_arg_kinks(u: float, y: float, t_hi: float, k_start: int) -> list:
    """t = y^(u-k) values inside (1, t_hi): where rho's argument is an
    integer and the integrand kinks."""
    out = []
    k = k_start
    while True:
        t_star = math.exp((u - k) * math.log(y))
        if t_star <= 1.0 + 1e-12:
            break
        if t_star < t_hi * (1.0 - 1e-15):
            out.append(t_star)
        k += 1
    return out


def _validate(u: float, y: float) -> float:
    if y < 2:
        raise DomainError("lambda_y requires y >= 2")
    if u < 0:
        raise DomainError("lambda_y(u) requires u >= 0")
    return math.log(y)


def lambda_atom_sum(u: float, y: float, table: RhoTable, *, _t_max=None) -> LambdaResult:
    """lambda_y(u) via sum over integer atoms minus the density integral.

    sum_{n <= y^u} rho(u - log n/log y)/n
      - integral_1^{y^u} floor(t)/t^2 * rho(u - log t/log y) dt.
    Exact up to quadrature rounding; no truncation, so est_error = 0.
    """
    log_y = _validate(u, y)
    t_max = float(y**u if _t_max is None else _t_max)
    cutoff = env_limit("SMOOTHNUM_MAX_LAMBDA_T")
    if t_max > cutoff:
        raise ResourceError(
            f"atom sum needs y^u <= {cutoff:g}; got {t_max:g} (use the ibp route)"
        )
    n_top = _snap_floor(t_max)

    sums = []
    for lo in range(1, n_top + 1, _CHUNK):
        hi = min(lo + _CHUNK, n_top + 1)
        n = np.arange(lo, hi, dtype=np.float64)
        sums.append(float(np.sum(specfun.rho(table, u - np.log(n) / log_y) / n)))
    atom_part = math.fsum(sums)

    def density(t, floor_t):
        return floor_t / (t * t) * specfun.rho(table, u - np.log(t) / log_y)

    integral = _integrate_pieces(density, t_max, kinks=_rho_arg_kinks(u, y, t_max, 1))
    return LambdaResult(value=atom_part - integral, method="atom_sum", est_error=0.0)


def lambda_ibp(
    u: float, y: float, table: RhoTable, *, _t_hi=None, _pow_u=None
) -> LambdaResult:
    """lambda_y(u) after integration by parts:

    rho(u) + (1/log y) * integral_1^{y^(u-1)} (-rho'(u - log t/log y)) {t}/t^2 dt
           - {y^u} * y^(-u).

    The last term is the atom contributed by the unit jump of rho at 0
    (t = y^u); it is kept exactly, which makes the route agree with the
    atom sum to quadrature accuracy and reproduces lambda_y(1) =
    floor(y)/y.  The sawtooth integral is truncated at
    N* = min(y^(u-1), 1e6); the dropped tail is below
    sup|rho'| / (N* log y) with sup|rho'| <= 1, reported in est_error.
    """
    log_y = _validate(u, y)
    t_hi_exact = float(y ** (u - 1.0) if _t_hi is None else _t_hi) if u > 1 else 0.0
    t_hi = min(t_hi_exact, IBP_PIECE_CUTOFF)

    def sawtooth(t, floor_t):
        args = u - np.log(t) / log_y
        return -specfun.rho_prime(table, args) * (t - floor_t) / (t * t)

    integral = (
        _integrate_pieces(sawtooth, t_hi, kinks=_rho_arg_kinks(u, y, t_hi, 2)) / log_y
    )

    # Endpoint atom {y^u} y^-u; underflows to rounding noise once y^u
    # has no representable fractional part.
    u_log_y = u * log_y
    if u_log_y > 37:
        boundary = 0.0
    else:
        t_pow = float(y**u if _pow_u is None else _pow_u)
        boundary = (t_pow - _snap_floor(t_pow)) / t_pow

    est = 0.0 if t_hi_exact <= IBP_PIECE_CUTOFF else 1.0 / (t_hi * log_y)
    value = specfun.rho(table, u) + integral - boundary
    return LambdaResult(value=value, method="integration_by_parts", est_error=est)


def lambda_xy(x: float, y: float, table: RhoTable) -> float:
    """Lambda(x, y) = x * lambda_y(log x / log y), for x >= y >= 2.

    Uses the atom sum when y^u = x stays below 1e6 and the
    integration-by-parts form beyond; both see x exactly rather than
    the float round trip exp(u log y).  A route that runs out of memory
    raises ResourceError.
    """
    if y < 2 or x < y:
        raise DomainError("lambda_xy requires x >= y >= 2")
    u = math.log(x) / math.log(y)
    route = "atom_sum" if x <= AUTO_ATOM_CUTOFF else "integration_by_parts"
    try:
        if route == "atom_sum":
            res = lambda_atom_sum(u, y, table, _t_max=x)
        else:
            res = lambda_ibp(u, y, table, _t_hi=x / y, _pow_u=x)
    except MemoryError as exc:
        raise ResourceError(
            f"lambda_xy({x}, {y}) ran out of memory in the {route} route"
        ) from exc
    return x * res.value


def f_transform(s, y: float) -> complex:
    """log F(s, y) = gamma + I((1-s) log y) + log(zeta(s)(s-1)) + log log y.

    F is the Mellin-side factor rho_hat((s-1) log y) * zeta(s)(s-1) log y;
    working in log form keeps it finite near s = 1 (where zeta(s)(s-1)
    passes through 1) and composable with log zeta(s, y).
    """
    s = complex(s)
    if s.real <= 0:
        raise DomainError("f_transform requires Re s > 0")
    if y < 2:
        raise DomainError("f_transform requires y >= 2")
    log_y = math.log(y)
    return (
        EULER_GAMMA
        + big_i((1.0 - s) * log_y)
        + log_zeta_times_s_minus_1(s)
        + math.log(log_y)
    )


def lambda_asymptotic(x: float, y: float, table: RhoTable) -> LambdaAsymptotic:
    """Lambda(x,y) against its saddle forms x rho(u) K(-r/log y) and
    x rho(u) K(-xi/log y)."""
    sd = saddle(x, y, table)
    log_y = math.log(y)
    scale = math.exp(math.log(x) + specfun.log_rho(table, sd.u))
    r_based = scale * k_factor(-sd.r / log_y).real
    xi_based = scale * k_factor(-sd.xi / log_y).real
    lam = lambda_xy(x, y, table)
    return LambdaAsymptotic(
        lambda_value=lam,
        r_based=r_based,
        xi_based=xi_based,
        ratio_r=lam / r_based,
        ratio_xi=lam / xi_based,
    )


def buchstab_residual_lambda(
    x: float, y: float, z: float, table: RhoTable, n_panels: int = 64
) -> float:
    """Lambda(x,y) - [Lambda(x,z) - integral_y^z Lambda(x/t,t) dt/log t].

    Mathematically zero; what comes back is quadrature error.  The
    integrand jumps each time x/t crosses an integer, so composite
    Gauss panels (in log t) converge first order in n_panels -- the
    residual roughly halves when n_panels doubles.
    """
    if not (2 <= y <= z <= x):
        raise DomainError("buchstab residual requires 2 <= y <= z <= x")
    if z == y:
        return 0.0
    xg, wg = gauss_legendre(6)
    va, vb = math.log(y), math.log(z)
    edges = np.linspace(va, vb, n_panels + 1)
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        v = a + (b - a) * xg
        vals = [lambda_xy(x / math.exp(vi), math.exp(vi), table) * math.exp(vi) / vi
                for vi in v]
        total += (b - a) * float(np.dot(wg, vals))
    return lambda_xy(x, y, table) - lambda_xy(x, z, table) + total
