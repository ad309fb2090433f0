"""Bias experiment along the curve where the saddle abscissa is pinned.

Fixing beta0 in (1/2, 1) and letting x grow with y along

    log x = (y^(1-beta0) - 1) / (1 - beta0)

keeps beta(x(y), y) = beta0 for every y.  Along that curve the relative
excess (Psi - Lambda)/Lambda, rescaled by y^(beta0-1/2) log y, stays
bounded and oscillates around the positive constant 1/(2 beta0 - 1)
coming from the squares of primes; the zero ordinates supply the
oscillation.  This module computes the empirical curve, the zero-sum
model for it (model_rhs, and psiover_rhs, the same sum as a prediction
of Psi/Lambda to set beside G(beta, y)), and Monte Carlo logarithmic
densities under independent uniform phases (the linear-independence
heuristic).  The densities also admit beta0 = 1, where the model is the
classical pi-vs-Li race.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import gfactor
from .debruijn import lambda_xy
from .errors import DomainError, RangeError, ResourceError
from .primes import PrimeTable
from .smoothcount import psi_exact
from .specfun import RhoTable, saddle
from .zetazeros import ZeroList, zero_sum

__all__ = [
    "BiasConfig",
    "DensityEstimate",
    "BiasPoint",
    "x_of_y",
    "compute_point",
    "model_rhs",
    "psiover_rhs",
    "li_density",
]

def _whole(value, name: str) -> int:
    """int(value), or DomainError where value is a float that is not a
    whole number (a fraction, NaN or an infinity)."""
    if isinstance(value, float) and not value.is_integer():
        raise DomainError(f"{name} must be a whole number, got {value}")
    return int(value)


@dataclass(frozen=True)
class BiasConfig:
    """Parameters of a density run: exponent beta0 in (1/2, 1] (1 is the
    pi-vs-Li race), zero-height cutoff, RNG seed and sample count; the
    seed and the count are stored as ints."""

    beta0: float
    T: float
    seed: int
    n_samples: int

    def __post_init__(self):
        if not 0.5 < self.beta0 <= 1.0:
            raise DomainError(f"beta0 must lie in (1/2, 1], got {self.beta0!r}")
        object.__setattr__(self, "n_samples", _whole(self.n_samples, "n_samples"))
        object.__setattr__(self, "seed", _whole(self.seed, "seed"))
        if self.n_samples < 1000:
            raise RangeError(f"need n_samples >= 1000, got {self.n_samples}")
        if not 0 <= self.seed < 2**64:
            raise RangeError(f"seed must lie in [0, 2^64), got {self.seed}")


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
    y^(1-beta0) = e^xi.  The curve needs 0 < beta0 < 1 and a finite
    y > 0 (DomainError).
    """
    if not 0.0 < beta0 < 1.0:
        raise DomainError(f"the curve x(y) needs beta0 in (0, 1), got {beta0!r}")
    if not 0.0 < y < math.inf:
        raise DomainError(f"the curve x(y) needs a finite y > 0, got {y!r}")
    return (y ** (1.0 - beta0) - 1.0) / (1.0 - beta0)


def compute_point(
    y: float,
    beta0: float,
    pt: PrimeTable,
    table: RhoTable,
    zeros: ZeroList | None = None,
    big_t: float | None = None,
    psi: int | None = None,
) -> BiasPoint:
    """Exact count, de Bruijn value, correction factor and deviation at
    one grid point; the exact-count envelope bounds how far up the curve
    this can go (ResourceError beyond it, as when x overflows a float).
    psi is the point's exact count if the caller has it (psi_many's), and
    psi_exact's otherwise.
    The model is NaN without zeros and a cutoff.  The deviation's scale
    y^(beta0 - 1/2) log y and the model are derived for beta0 > 1/2, so
    both are NaN for beta0 <= 1/2."""
    log_x = x_of_y(y, beta0)
    try:
        x = math.exp(log_x)
    except OverflowError:
        raise ResourceError(f"x(y) = exp({log_x:g}) overflows a float") from None
    sd = saddle(x, y)
    if psi is None:
        psi = psi_exact(x, y, pt)
    lam = lambda_xy(x, y, table)
    g = gfactor.g_direct(sd.beta, y, pt).real
    deviation = model = math.nan
    if beta0 > 0.5:
        deviation = (psi - lam) / lam * (y ** (beta0 - 0.5) * math.log(y))
        if zeros is not None and big_t is not None:
            model = model_rhs(y, beta0, big_t, zeros)
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

        1/(2 beta0 - 1) - y^(-1/2) sum_{|gamma| <= T} y^rho / (rho - beta0)

    The zero sum is zetazeros.zero_sum at s0 = beta0, real by
    construction with its pair terms exactly rounded; each pair adds
    2 Re(e^(i gamma log y) / (1/2 - beta0 + i gamma)) here.  beta0 must
    lie in (1/2, 1) (DomainError): the curve x(y) needs beta0 < 1.
    """
    if not 0.5 < beta0 < 1.0:
        raise DomainError(f"beta0 must lie in (1/2, 1), got {beta0!r}")
    return 1.0 / (2.0 * beta0 - 1.0) - zero_sum(zeros, y, beta0, big_t) / math.sqrt(y)


def psiover_rhs(y: float, beta: float, big_t: float, zeros: ZeroList) -> float:
    """Zero-sum prediction for the corrected ratio Psi/Lambda at saddle
    abscissa beta, model_rhs rescaled:

        1 + y^(1/2 - beta)/log y * model_rhs(y, beta)
          = 1 + y^(-beta)/log y * ( -sum_{|Im rho| <= T} y^rho/(rho - beta)
                                    + y^(1/2)/(2 beta - 1) )

    The 1/(2 beta - 1) term degenerates as beta -> 1/2, so beta must
    stay clear of the critical line (beta >= 0.55), and model_rhs needs
    beta < 1 (DomainError).
    """
    if beta < 0.55:
        raise DomainError(
            f"saddle abscissa {beta:.6f} is below 0.55, where the 1/(2 beta - 1) term "
            "is not controlled"
        )
    model = model_rhs(y, beta, big_t, zeros)  # checks beta and y before y^(1/2 - beta)
    return 1.0 + y ** (0.5 - beta) * model / math.log(y)


def _worker_count(n_blocks: int) -> int:
    """Threads for li_density: one per CPU the process may run on, and no
    more than there are blocks."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, n_blocks)


def _block_buffer(rows: int, width: int) -> np.ndarray:
    """One worker's phase buffer."""
    return np.empty((rows, width))


def _stream(seed: int, j0: int, width: int) -> np.random.Generator:
    """The phase stream of samples j0, j0+1, ... at `width` phases each.

    Sample j owns counter blocks [j*bps, (j+1)*bps) of a Philox stream
    keyed by the seed (4 words per block, bps = width // 4).  The counter
    is a 256-bit integer, so a first block at or past 2^64 carries into
    the second counter word, where the sequential stream would be.
    """
    bit_gen = np.random.Philox(
        key=np.array([seed, 0], dtype=np.uint64), counter=j0 * (width // 4)
    )
    return np.random.Generator(bit_gen)


def _phases(stream: np.random.Generator, buf: np.ndarray) -> np.ndarray:
    """Fill buf with the phases of the stream's next len(buf) samples and
    return it.  A phase is 2pi (word >> 11) 2^-53; consecutive fills
    read the same words as one fill of all their rows would.
    """
    stream.random(out=buf)
    np.multiply(buf, 2.0 * math.pi, out=buf)
    return buf


def _exact_sums(theta: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_g w[g] cos(theta_jg) per row of theta, in float64; the first
    len(w) columns count and theta is overwritten.  Every step is
    elementwise or a numpy row reduction over one sample's terms, so a
    sample's sum never depends on which rows share the block, on
    evaluation order or on a BLAS library.
    """
    np.cos(theta, out=theta)
    terms = theta[:, : w.size]
    np.multiply(terms, w, out=terms)
    return np.add.reduce(terms, axis=1)


# Samples per block, the sampler's unit of work: a block's float64 phases
# (512 KiB at 1000 ordinates) and its float32 terms (256 KiB) stay in
# cache between the fill, the cos, the product and the sum.
_SCREEN_ROWS = 64
# Error bound, in units of 2^-24, that the margin assumes for numpy's
# float32 cos on [0, float32(2pi)]; measured at most 1.21 there
# (scripts/bench_density.py, every float32).
_COS32_ULPS = 4


def _screen_sums(theta: np.ndarray, w32: np.ndarray) -> np.ndarray:
    """float64 row sums of float32(w) * cos(float32(theta)), using numpy's
    SIMD float32 cos; theta is left as it is."""
    terms = theta[:, : w32.size].astype(np.float32)
    np.cos(terms, out=terms)
    np.multiply(terms, w32, out=terms)
    return np.add.reduce(terms, axis=1, dtype=np.float64)


def _screen_margin(w: np.ndarray, w32: np.ndarray) -> float:
    """A bound on |_screen_sums - _exact_sums| for any phases in [0, 2pi).

    Per term, against the real w cos(theta):
    - the screen is off by |w - w32| from the weight, 2^-22 from rounding
      theta < 8 to float32, _COS32_ULPS 2^-24 from the float32 cos and
      2^-24 from the float32 product (2^-23 is charged);
    - the exact route is off by 2^-53 from the float64 cos and 2^-53
      from the product.
    Each float64 sum of m terms adds at most (m - 1) 2^-53 sum(w).  The
    slack in the charged constants covers w32 exceeding w in the last
    bits and the rounding of the margin itself.
    """
    total = float(np.sum(w))
    return (
        float(np.sum(np.abs(w - w32)))
        + total * (2.0**-22 + _COS32_ULPS * 2.0**-24 + 2.0**-23)
        + (w.size + 2) * 2.0**-52 * total
    )


def _count_below(
    theta: np.ndarray, w: np.ndarray, w32: np.ndarray, const: float, margin: float
) -> int:
    """How many rows of theta have _exact_sums(row, w) < const.

    The rows are screened in float32; a row whose screen sum lies more
    than margin from const has the sign of its exact sum, and only the
    others are summed exactly, from a copy, so theta is left as it is.
    """
    approx = _screen_sums(theta, w32)
    near = np.abs(approx - const) <= margin
    count = int(np.count_nonzero(approx[~near] < const))
    if near.any():
        count += int(np.count_nonzero(_exact_sums(theta[near], w) < const))
    return count


def li_density(cfg: BiasConfig, zeros: ZeroList) -> DensityEstimate:
    """Monte Carlo logarithmic density of the positivity event under
    independent uniform phases theta_gamma:

        X = 1/(2 beta0 - 1)
            - sum_{0 < gamma <= T} 2 Re( e^(i theta) / (1/2 - beta0 + i gamma) )

    density = P(X > 0) estimated over cfg.n_samples draws.  A sample is
    positive when its float64 sum from _exact_sums is below the constant.
    The stream is counter-based per sample and that sum comes from
    elementwise numpy steps and a row reduction, so the result for a
    fixed (seed, n, T, beta0) is bit-identical by construction, whatever
    the block size or the number of threads.

    The sign is decided in two stages.  A float32 screen (_screen_sums,
    numpy's SIMD cos) decides every sample whose screen sum lies more
    than _screen_margin from the constant; that margin bounds the
    distance between the two sums, so such a sample has the sign of its
    float64 sum.  The few others are summed in float64 by _exact_sums,
    so the count is the same as summing every sample in float64.

    At beta0 = 1 this is the pi-vs-Li race (constant 1, weights 2/|rho|),
    whose known density ~0.999997 pins down the machinery against an
    external value.

    Each term is 2 Re(e^(i theta)/(a + i gamma)) = R cos(theta - phi)
    with R = 2/|a + i gamma|; a uniform theta absorbs the weight's
    argument phi, so the sampler draws R cos(theta) directly and never
    needs the sine half.

    The samples are split into one contiguous range per CPU in the
    process's affinity set, each run on a thread of its own.  A thread
    opens one Philox stream at its first sample and fills, screens and
    counts _SCREEN_ROWS samples at a time in one small buffer, so it
    holds about _SCREEN_ROWS x 12 bytes per ordinate whatever the sample
    count.  Running out of memory raises ResourceError.
    """
    g = zeros.up_to(cfg.T)
    const, a = 1.0 / (2.0 * cfg.beta0 - 1.0), 0.5 - cfg.beta0
    m = int(g.size)
    n = cfg.n_samples
    if m == 0:  # X = const >= 1
        return DensityEstimate(density=1.0, stderr=0.0, n_samples=n, seed=cfg.seed)
    width = 4 * -(-m // 4)
    workers = _worker_count(-(-n // _SCREEN_ROWS))

    # Set when the caller stops waiting (an error, Ctrl-C), so that the
    # pool's shutdown does not wait for the remaining blocks.
    stop = threading.Event()

    def count_positives(k: int) -> int:
        first, end = k * n // workers, (k + 1) * n // workers
        stream = _stream(cfg.seed, first, width)
        buf = _block_buffer(min(_SCREEN_ROWS, end - first), width)
        positives = 0
        for j0 in range(first, end, len(buf)):
            if stop.is_set():
                break
            theta = _phases(stream, buf[: end - j0])
            positives += _count_below(theta, w_mod, w32, const, margin)
        return positives

    try:
        w_mod = 2.0 / np.sqrt(a * a + g * g)
        w32 = w_mod.astype(np.float32)
        margin = _screen_margin(w_mod, w32)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            try:
                positives = sum(pool.map(count_positives, range(workers)))
            finally:
                stop.set()
    except MemoryError as exc:
        raise ResourceError(
            f"li_density ran out of memory ({n} samples x {m} ordinates)"
        ) from exc
    d = positives / n
    return DensityEstimate(
        density=d,
        stderr=math.sqrt(d * (1.0 - d) / n),
        n_samples=n,
        seed=cfg.seed,
    )
