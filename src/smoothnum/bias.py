"""Bias experiment along the curve where the saddle abscissa is pinned.

Fixing beta0 in (1/2, 1) and letting x grow with y along

    log x = (y^(1-beta0) - 1) / (1 - beta0)

keeps beta(x(y), y) = beta0 for every y.  Along that curve the relative
excess (Psi - Lambda)/Lambda, rescaled by y^(beta0-1/2) log y, stays
bounded and oscillates around the positive constant 1/(2 beta0 - 1)
coming from the squares of primes; the zero ordinates supply the
oscillation.  This module computes the empirical curve, the zero-sum
model for it, and Monte Carlo logarithmic densities under independent
uniform phases (the linear-independence heuristic).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import gfactor
from .debruijn import lambda_xy
from .errors import DomainError, RangeError
from .primes import PrimeTable
from .smoothcount import psi_exact
from .specfun import RhoTable, saddle
from .zetazeros import ZeroList, _pair_terms

__all__ = [
    "BiasConfig",
    "DensityEstimate",
    "BiasPoint",
    "x_of_y",
    "compute_point",
    "model_rhs",
    "li_density",
    "empirical_log_density",
    "sign_agreement",
]

_CHUNK_SAMPLES = 4096


@dataclass(frozen=True)
class BiasConfig:
    """Parameters of a density run: curve exponent, zero-height cutoff,
    RNG seed and sample count."""

    beta0: float
    T: float
    seed: int
    n_samples: int

    def __post_init__(self):
        if not 0.5 < self.beta0 < 1.0:
            raise DomainError(f"beta0 must lie in (1/2, 1), got {self.beta0!r}")
        if self.n_samples < 1000:
            raise RangeError(f"need n_samples >= 1000, got {self.n_samples}")


@dataclass(frozen=True)
class DensityEstimate:
    """A fraction-of-samples estimate with its binomial standard error."""

    density: float
    stderr: float
    n_samples: int
    seed: int


@dataclass(frozen=True)
class BiasPoint:
    """Everything measured at one y on the pinned-saddle curve."""

    y: float
    log_x: float
    x: float
    u: float
    beta: float
    psi: int
    lam: float
    g: float
    ratio_uncorrected: float
    ratio_corrected: float
    deviation: float
    model: float


def x_of_y(y: float, beta0: float) -> float:
    """log x on the pinned-saddle curve: (y^(1-beta0) - 1)/(1 - beta0).

    By construction saddle(x(y), y).beta == beta0 exactly: with
    xi = (1-beta0) log y and u = log x/log y one has 1 + u*xi =
    y^(1-beta0) = e^xi.
    """
    return (y ** (1.0 - beta0) - 1.0) / (1.0 - beta0)


def compute_point(
    y: float,
    beta0: float,
    pt: PrimeTable,
    table: RhoTable,
    zeros: ZeroList | None = None,
    big_t: float | None = None,
) -> BiasPoint:
    """Exact count, de Bruijn value, correction factor and deviation at
    one grid point; the exact-count envelope bounds how far up the curve
    this can go (ResourceError beyond it)."""
    log_x = x_of_y(y, beta0)
    x = math.exp(log_x)
    sd = saddle(x, y, table)
    psi = psi_exact(x, y, pt)
    lam = lambda_xy(x, y, table)
    g = gfactor.g_direct(sd.beta, y, pt).real
    scale = y ** (beta0 - 0.5) * math.log(y)
    deviation = (psi - lam) / lam * scale
    model = (
        model_rhs(y, beta0, big_t, zeros)
        if zeros is not None and big_t is not None
        else math.nan
    )
    return BiasPoint(
        y=float(y),
        log_x=log_x,
        x=x,
        u=sd.u,
        beta=sd.beta,
        psi=psi,
        lam=lam,
        g=g,
        ratio_uncorrected=psi / lam,
        ratio_corrected=psi / (lam * g),
        deviation=deviation,
        model=model,
    )


def model_rhs(y: float, beta0: float, big_t: float, zeros: ZeroList) -> float:
    """Zero-sum model for the normalized deviation:

        1/(2 beta0 - 1) - sum_{0 < gamma <= T} 2 Re( e^(i gamma log y)
                                                     / (1/2 - beta0 + i gamma) )

    Conjugate pairing is done symbolically, so the result is real by
    construction, not by cancellation.
    """
    g = zeros.up_to(big_t)
    const = 1.0 / (2.0 * beta0 - 1.0)
    if g.size == 0:
        return const
    terms = _pair_terms(g, math.log(y), 0.5 - beta0)
    return const - 2.0 * math.fsum(terms.tolist())


def _phase_matrix(seed: int, j0: int, count: int, m: int) -> np.ndarray:
    """Uniform [0, 2pi) phases for samples j0 .. j0+count-1, m per sample.

    Sample j owns counter blocks [j*bps, (j+1)*bps) of a Philox stream
    keyed by the seed (4 words per block, bps = ceil(m/4)), so the values
    drawn for a given j never depend on chunking or evaluation order.
    """
    bps = max(1, -(-m // 4))
    bit_gen = np.random.Philox(
        key=np.array([seed & 0xFFFFFFFFFFFFFFFF, 0], dtype=np.uint64),
        counter=np.array([j0 * bps, 0, 0, 0], dtype=np.uint64),
    )
    raw = bit_gen.random_raw(count * bps * 4)
    uniform = (raw >> np.uint64(11)) * (2.0 ** -53)
    return 2.0 * math.pi * uniform.reshape(count, bps * 4)[:, :m]


def li_density(
    cfg: BiasConfig, zeros: ZeroList, calibration: bool = False
) -> DensityEstimate:
    """Monte Carlo logarithmic density of the positivity event under
    independent uniform phases theta_gamma:

        X = 1/(2 beta0 - 1)
            - sum_{0 < gamma <= T} 2 Re( e^(i theta) / (1/2 - beta0 + i gamma) )

    density = P(X > 0) estimated over cfg.n_samples draws; the stream is
    counter-based per sample, so results are bit-identical for a fixed
    (seed, n, T, beta0) regardless of chunking or thread count.

    With calibration=True the weights switch to the pi-vs-Li race
    (2 Re(e^(i theta)/rho), constant term 1), whose known density
    ~0.999997 pins down the machinery against an external value.

    Each term is 2 Re(e^(i theta)/(a + i gamma)) = R cos(theta - phi)
    with R = 2/|a + i gamma|; a uniform theta absorbs the weight's
    argument phi, so the sampler draws R cos(theta) directly and never
    needs the sine half.
    """
    g = zeros.up_to(cfg.T)
    if calibration:
        const, a = 1.0, 0.5
    else:
        const, a = 1.0 / (2.0 * cfg.beta0 - 1.0), 0.5 - cfg.beta0
    m = int(g.size)
    n = cfg.n_samples
    if m == 0:
        d = 1.0 if const > 0 else 0.0
        return DensityEstimate(density=d, stderr=0.0, n_samples=n, seed=cfg.seed)
    w_mod = 2.0 / np.sqrt(a * a + g * g)
    positives = 0
    for j0 in range(0, n, _CHUNK_SAMPLES):
        count = min(_CHUNK_SAMPLES, n - j0)
        theta = _phase_matrix(cfg.seed, j0, count, m)
        osc = np.cos(theta) @ w_mod
        positives += int(np.count_nonzero(const - osc > 0.0))
    d = positives / n
    return DensityEstimate(
        density=d,
        stderr=math.sqrt(d * (1.0 - d) / n),
        n_samples=n,
        seed=cfg.seed,
    )


def _log_weights(ys: np.ndarray) -> np.ndarray:
    """Trapezoid weights in log y (the logarithmic-density measure)."""
    ly = np.log(ys)
    w = np.empty_like(ly)
    w[1:-1] = 0.5 * (ly[2:] - ly[:-2])
    w[0] = 0.5 * (ly[1] - ly[0])
    w[-1] = 0.5 * (ly[-1] - ly[-2])
    return w


def empirical_log_density(
    y_grid,
    beta0: float,
    pt: PrimeTable,
    table: RhoTable,
) -> DensityEstimate:
    """Log-weighted fraction of grid points where the exact count beats
    the plain de Bruijn value (Psi > Lambda), i.e. the discretized
    logarithmic density of the positivity set along the curve."""
    ys = np.sort(np.asarray([float(v) for v in y_grid], dtype=np.float64))
    points = [compute_point(y, beta0, pt, table) for y in ys]
    indicator = np.array([1.0 if p.psi > p.lam else 0.0 for p in points])
    if ys.size == 1:
        d = float(indicator[0])
    else:
        w = _log_weights(ys)
        d = float(np.dot(w, indicator) / np.sum(w))
    n = int(ys.size)
    return DensityEstimate(
        density=d,
        stderr=math.sqrt(max(d * (1.0 - d), 0.0) / n),
        n_samples=n,
        seed=0,
    )


def sign_agreement(
    y_grid,
    beta0: float,
    big_t: float,
    zeros: ZeroList,
    pt: PrimeTable,
    table: RhoTable,
) -> float:
    """Fraction of grid points where the measured deviation and the
    zero-sum model have the same sign."""
    ys = sorted(float(v) for v in y_grid)
    agree = 0
    for y in ys:
        p = compute_point(y, beta0, pt, table, zeros=zeros, big_t=big_t)
        if (p.deviation > 0) == (p.model > 0):
            agree += 1
    return agree / len(ys)
