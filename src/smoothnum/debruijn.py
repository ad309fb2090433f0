"""The continuous analogue Lambda(x, y) of the smooth-counting function.

lambda_y(u) is the Stieltjes integral of rho(u - log t/log y) against
d(floor(t)/t).  lambda_xy is the one production route; two evaluations
of lambda_y(u) stand behind it:

* ``lambda_ibp``      -- integration by parts, leaving rho(u) plus an
  integral against the sawtooth {t}/t^2 and the exact endpoint atom
  -{y^u} y^{-u} coming from the unit jump of rho at 0.  ``lambda_xy``
  always takes this route; its cost does not grow with x.
* ``lambda_atom_sum`` -- the measure split into unit atoms at integers
  plus the density -floor(t)/t^2 dt.  Its cost is linear in y^u, so it
  is refused above y^u = _ATOM_T_MAX and serves only as the cross-check
  of the other route; no production route calls it.

Both integrals run over one sorted list of piece edges: the integers,
where floor(t) jumps, the points t = y^(u-k), where rho's argument
crosses an integer, and finer cuts below t = 16.  Each piece is then a
smooth product under one 7-point Gauss rule.  The sawtooth integral
takes these pieces only up to t = _EM_START; beyond it, Euler-Maclaurin
leaves Gauss panels in u - log t/log y between the kinks t = y^(u-k).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, RangeError, ResourceError
from .quadrature import panel_sum
from . import specfun
from .specfun import EULER_GAMMA, RhoTable, big_i, k_factor, saddle
from .zetazeros import log_zeta_times_s_minus_1

_CHUNK = 1 << 17
_EM_START = 1024  # unit pieces of the sawtooth integral below, Euler-Maclaurin above
_PANELS_PER_UNIT = 2  # Gauss panels per unit of v in the Euler-Maclaurin tail
_PANEL_NODES = 20
_PIECE_NODES = 7  # Gauss nodes per unit piece of the sawtooth integral
_ATOM_T_MAX = 10**7  # the largest y^u the atom sum takes: its cost is linear in y^u
# ~16/n cuts inside unit n below t = 16, shared by every integral.
_FINE_CUTS = np.concatenate(
    [np.linspace(n, n + 1.0, math.ceil(16 / n) + 1)[1:-1] for n in range(1, 16)]
)


@dataclass(frozen=True)
class LambdaResult:
    value: float
    method: str  # "atom_sum" or "integration_by_parts"
    est_error: float


def _snap_floor(t: float) -> int:
    """floor(t), treating values within 1e-9 relative of an integer as
    that integer (right-continuity at integer y^u; powers computed in
    floats can land a few ulps under the true integer)."""
    nearest = round(t)
    if abs(t - nearest) <= 1e-9 * max(1.0, abs(t)):
        return int(nearest)
    return math.floor(t)


def _integrate_pieces(f, t_hi: float, kinks) -> float:
    """Integral of f(t, floor(t)) over [1, t_hi].

    f takes a (pieces, nodes) array of t and a (pieces, 1) array of
    floor(t), which broadcasts across the nodes.  The edges of
    the pieces form one sorted list: the integers, the fixed cuts
    _FINE_CUTS below t = 16 (so the 1/t^2-type curvature near 1 cannot
    dominate), the ``kinks`` inside (1, t_hi) and t_hi.  ``kinks`` are
    the points where f loses smoothness (for these integrands t =
    y^(u-k), where the rho argument crosses an integer), so no piece
    straddles one.  Every piece gets one 7-point Gauss rule, which
    leaves relative errors near 1e-14, with floor(t) taken at its left
    edge; a piece of zero width adds exactly 0.  The list is built and
    summed _CHUNK units at a time.
    """
    if t_hi <= 1.0:
        return 0.0
    cuts = np.sort(np.concatenate([_FINE_CUTS, np.asarray(kinks, dtype=np.float64)]))
    cuts = cuts[(1.0 < cuts) & (cuts < t_hi)]
    totals = []
    for lo in range(1, math.ceil(t_hi), _CHUNK):
        hi = min(lo + _CHUNK, t_hi)
        inner = cuts[(lo < cuts) & (cuts < hi)]
        edges = np.concatenate([np.arange(lo, hi, dtype=np.float64), inner, [hi]])
        edges.sort()
        a, width = edges[:-1], np.diff(edges)
        floors = np.floor(a)[:, None]
        totals.append(float(panel_sum(lambda t: f(t, floors), a, width, _PIECE_NODES)))
    return math.fsum(totals)


def _rho_arg_kinks(u: float, log_y: float, k_start: int) -> list:
    """t = y^(u-k) for k_start <= k < u: where rho's argument is an
    integer and the integrand kinks."""
    return [math.exp((u - k) * log_y) for k in range(k_start, math.ceil(u))]


def _validate(u: float, y: float) -> float:
    if not (math.isfinite(u) and math.isfinite(y)):
        raise DomainError(f"lambda_y requires finite u and y, got u={u}, y={y}")
    if y < 2:
        raise DomainError("lambda_y requires y >= 2")
    if u < 0:
        raise DomainError("lambda_y(u) requires u >= 0")
    return math.log(y)


def lambda_atom_sum(u: float, y: float, table: RhoTable) -> LambdaResult:
    """lambda_y(u) via sum over integer atoms minus the density integral.

    sum_{n <= y^u} rho(u - log n/log y)/n
      - integral_1^{y^u} floor(t)/t^2 * rho(u - log t/log y) dt.
    Exact up to quadrature rounding; no truncation, so est_error = 0.
    The cross-check of lambda_ibp; y^u above _ATOM_T_MAX is a
    ResourceError.
    """
    log_y = _validate(u, y)
    # Log space first: y^u leaves float range long before u or y does.
    # The unit margin leaves y^u near the cutoff to the exact test.
    far = u * log_y > math.log(_ATOM_T_MAX) + 1.0
    t_max = math.inf if far else float(y**u)
    if t_max > _ATOM_T_MAX:
        raise ResourceError(
            f"atom sum needs y^u <= {_ATOM_T_MAX:g}; got e^{u * log_y:.6g} (use the ibp route)"
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

    integral = _integrate_pieces(density, t_max, _rho_arg_kinks(u, log_y, 1))
    return LambdaResult(value=atom_part - integral, method="atom_sum", est_error=0.0)


def _rho_derivatives(table: RhoTable, v: np.ndarray, branch: np.ndarray) -> tuple:
    """rho', rho'' and rho''' at v on the branch v in [branch, branch + 1].

    Built from table values of rho through v rho'(v) = -rho(v-1) and its
    derivatives rho' + v rho'' = -rho'(v-1), 2 rho'' + v rho''' =
    -rho''(v-1).  The branch decides which side of an integer v is
    meant, so the kinks at integer v are one-sided without nudging v.
    """
    shift = np.arange(3)
    w = v[:, None] - shift
    live = branch[:, None] - shift >= 1  # rho is constant on [0, 1]
    safe_w = np.where(live, w, 1.0)
    d1 = np.where(live, -specfun.rho(table, np.maximum(w - 1.0, 0.0)) / safe_w, 0.0)
    d2 = np.where(live[:, :2], -(d1[:, :2] + d1[:, 1:]) / safe_w[:, :2], 0.0)
    d3 = -(2.0 * d2[:, 0] + d2[:, 1]) / v
    return d1[:, 0], d2[:, 0], d3


def _sawtooth_tail(u: float, log_y: float, t_hi: float, table: RhoTable) -> tuple:
    """(integral, error bound) of f(t){t} over [_EM_START, t_hi], where
    f(t) = -rho'(v)/t^2, v = u - log t/log y and t_hi = y^(u-1) (v = 1).

    Between consecutive kinks t = y^(u-k) f is smooth, and with periodic
    Bernoulli functions B~k,

        integral f{t} = 1/2 integral f + [f B~2/2 - f' B~3/6 + f'' B~4/24]
                        - integral f''' B~4/24.

    The plain integral is taken as Gauss panels in v, where it reads
    log y * integral -rho'(v) exp(-(u - v) log y) dv.  The last term is
    dropped.  With |B~4| <= 1/30 and |f'''| bounded through the delay
    equation by rho(v-1), ..., rho(v-4), it is bounded panel by panel;
    the sum of those bounds is returned beside the integral.
    """
    v_start = u - math.log(_EM_START) / log_y
    if v_start <= 1.0:
        return 0.0, 0.0
    # Segments [k, min(k + 1, v_start)] for k = 1 .. ceil(v_start) - 1;
    # f' and f'' jump across their integer ends.
    lo = np.arange(1.0, math.ceil(v_start))
    hi = np.minimum(lo + 1.0, v_start)

    # 1/2 integral f, as panels [a, a + width] in v.
    n_panels = np.ceil((hi - lo) * _PANELS_PER_UNIT).astype(np.int64)
    first = np.repeat(np.cumsum(n_panels) - n_panels, n_panels)
    width = np.repeat((hi - lo) / n_panels, n_panels)
    a = np.repeat(lo, n_panels) + (np.arange(first.size) - first) * width
    plain = panel_sum(
        lambda v: -specfun.rho_prime(table, v) * np.exp(-(u - v) * log_y), a, width, _PANEL_NODES
    )
    half_plain = 0.5 * log_y * float(plain)

    # Endpoint terms F(t(lo)) - F(t(hi)), each on its segment's branch;
    # t is exact at both ends of the range and shared at interior kinks.
    ends_v = np.concatenate([lo, hi])
    ends_t = np.exp((u - ends_v) * log_y)
    ends_t[0] = t_hi
    ends_t[-1] = float(_EM_START)
    d1, d2, d3 = _rho_derivatives(table, ends_v, np.concatenate([lo, lo]))
    g0, g1, g2 = -d1, -d2, -d3  # f = g(v)/t^2 with g = -rho'
    inv_t = 1.0 / ends_t  # its powers underflow quietly; those of t overflow
    f0 = g0 * inv_t**2
    f1 = -(g1 / log_y + 2.0 * g0) * inv_t**3
    f2 = (g2 / log_y**2 + 5.0 * g1 / log_y + 6.0 * g0) * inv_t**4
    s = ends_t - np.floor(ends_t)
    b2 = s * s - s + 1.0 / 6.0
    b3 = s * (s - 0.5) * (s - 1.0)
    b4 = s * s * (s - 1.0) ** 2 - 1.0 / 30.0
    big_f = f0 * b2 / 2.0 - f1 * b3 / 6.0 + f2 * b4 / 24.0
    endpoint = float(np.sum(big_f[: lo.size]) - np.sum(big_f[lo.size :]))

    # |f'''| <= t^-5 (24 rho(v-1) + 52 rho(v-2)/L + 54 rho(v-3)/L^2
    # + 24 rho(v-4)/L^3), each rho largest at the panel's low-v end.
    shift = np.arange(1.0, 5.0)
    coef = np.array([24.0, 52.0, 54.0, 24.0]) / log_y ** (shift - 1.0)
    h3 = np.sum(specfun.rho(table, np.maximum(a[:, None] - shift, 0.0)) * coef, axis=1)
    t4 = np.exp(-4.0 * (u - a - width) * log_y) - np.exp(-4.0 * (u - a) * log_y)
    bound = float(np.sum(h3 * t4)) / (4.0 * 720.0)
    return half_plain + endpoint, bound


def lambda_ibp(
    u: float, y: float, table: RhoTable, *, _t_hi=None, _pow_u=None
) -> LambdaResult:
    """lambda_y(u) after integration by parts:

    rho(u) + (1/log y) * integral_1^{y^(u-1)} (-rho'(u - log t/log y)) {t}/t^2 dt
           - {y^u} * y^(-u).

    The last term is the atom contributed by the unit jump of rho at 0
    (t = y^u); it is kept exactly, which makes the route agree with the
    atom sum to quadrature accuracy and reproduces lambda_y(1) =
    floor(y)/y.  The sawtooth integral is summed over unit pieces up to
    t = _EM_START and by Euler-Maclaurin beyond (_sawtooth_tail), so the
    cost grows with u but not with y^u.  est_error bounds the dropped
    Euler-Maclaurin remainder (0 when y^(u-1) <= _EM_START); quadrature
    rounding is not counted.  y^(u-1) past float range is a RangeError.
    """
    log_y = _validate(u, y)
    try:
        t_hi = float(y ** (u - 1.0) if _t_hi is None else _t_hi) if u > 1 else 0.0
    except OverflowError:
        raise RangeError(f"lambda_y({u:g}) at y = {y:g}: y^(u-1) overflows a float") from None
    t_split = min(t_hi, _EM_START)

    def sawtooth(t, floor_t):
        args = u - np.log(t) / log_y
        return -specfun.rho_prime(table, args) * (t - floor_t) / (t * t)

    integral = _integrate_pieces(sawtooth, t_split, _rho_arg_kinks(u, log_y, 2))
    tail, est = 0.0, 0.0
    if t_hi > t_split:
        tail, est = _sawtooth_tail(u, log_y, t_hi, table)
    integral = (integral + tail) / log_y

    # Endpoint atom {y^u} y^-u; underflows to rounding noise once y^u
    # has no representable fractional part.
    u_log_y = u * log_y
    if u_log_y > 37:
        boundary = 0.0
    else:
        t_pow = float(y**u if _pow_u is None else _pow_u)
        boundary = (t_pow - _snap_floor(t_pow)) / t_pow

    value = specfun.rho(table, u) + integral - boundary
    return LambdaResult(value=value, method="integration_by_parts", est_error=est / log_y)


def lambda_xy(x: float, y: float, table: RhoTable) -> float:
    """Lambda(x, y) = x * lambda_y(log x / log y), for x >= y >= 2.

    Always the integration-by-parts route, handed x exactly rather than
    the float round trip exp(u log y); its cost does not grow with x.
    Running out of memory raises ResourceError.
    """
    if y < 2 or x < y:
        raise DomainError("lambda_xy requires x >= y >= 2")
    u = math.log(x) / math.log(y)
    try:
        res = lambda_ibp(u, y, table, _t_hi=x / y, _pow_u=x)
    except MemoryError as exc:
        raise ResourceError(f"lambda_xy({x}, {y}) ran out of memory") from exc
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
    log_w = log_zeta_times_s_minus_1(s)  # checks zeta's domain before big_i runs
    log_y = math.log(y)
    return EULER_GAMMA + big_i((1.0 - s) * log_y) + log_w + math.log(log_y)


def lambda_asymptotic(x: float, y: float, table: RhoTable) -> float:
    """The first-order saddle form x rho(u) K(-xi(u)/log y) of Lambda(x, y)
    (Saias 1989), for x >= y >= 2."""
    sd = saddle(x, y)
    scale = math.exp(math.log(x) + specfun.log_rho(table, sd.u))
    return scale * k_factor(-sd.xi / math.log(y)).real

