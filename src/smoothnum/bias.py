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
    "li_density",
]

# Phase-buffer bytes per worker thread.  A chunk is as many samples as
# fit, so li_density holds workers x this for any number of ordinates.
_CHUNK_BYTES = 8 << 20


def _check_beta0(beta0: float) -> None:
    """The zero-sum model's 1/(2 beta0 - 1) is derived for beta0 in (1/2, 1)."""
    if not 0.5 < beta0 < 1.0:
        raise DomainError(f"beta0 must lie in (1/2, 1), got {beta0!r}")


@dataclass(frozen=True)
class BiasConfig:
    """Parameters of a density run: curve exponent, zero-height cutoff,
    RNG seed and sample count."""

    beta0: float
    T: float
    seed: int
    n_samples: int

    def __post_init__(self):
        _check_beta0(self.beta0)
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
    y^(1-beta0) = e^xi.  The curve needs 0 < beta0 < 1 (DomainError).
    """
    if not 0.0 < beta0 < 1.0:
        raise DomainError(f"the curve x(y) needs beta0 in (0, 1), got {beta0!r}")
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
    this can go (ResourceError beyond it, as when x overflows a float).
    The model is NaN without zeros and a cutoff, and for beta0 <= 1/2,
    outside its range."""
    log_x = x_of_y(y, beta0)
    try:
        x = math.exp(log_x)
    except OverflowError:
        raise ResourceError(f"x(y) = exp({log_x:g}) overflows a float") from None
    sd = saddle(x, y, table)
    psi = psi_exact(x, y, pt)
    lam = lambda_xy(x, y, table)
    g = gfactor.g_direct(sd.beta, y, pt).real
    scale = y ** (beta0 - 0.5) * math.log(y)
    deviation = (psi - lam) / lam * scale
    model = (
        model_rhs(y, beta0, big_t, zeros)
        if zeros is not None and big_t is not None and beta0 > 0.5
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

        1/(2 beta0 - 1) - y^(-1/2) sum_{|gamma| <= T} y^rho / (rho - beta0)

    The zero sum is zetazeros.zero_sum at s0 = beta0, real by
    construction with its pair terms exactly rounded; each pair adds
    2 Re(e^(i gamma log y) / (1/2 - beta0 + i gamma)) here.  beta0 must
    lie in (1/2, 1) (DomainError).
    """
    _check_beta0(beta0)
    return 1.0 / (2.0 * beta0 - 1.0) - zero_sum(zeros, y, beta0, big_t) / math.sqrt(y)


def _worker_count(n_chunks: int) -> int:
    """Threads for li_density: one per CPU the process may run on, and no
    more than there are chunks."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    return min(cpus, n_chunks)


def _chunk_buffer(rows: int, width: int) -> np.ndarray:
    """One worker's phase buffer."""
    return np.empty((rows, width))


def _chunk_sums(seed: int, j0: int, w: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """sum_g w[g] cos(theta_jg) for samples j = j0 .. j0+len(buf)-1.

    Sample j owns counter blocks [j*bps, (j+1)*bps) of a Philox stream
    keyed by the seed (4 words per block, bps = ceil(m/4)); its phases
    are 2pi (word >> 11) 2^-53 for the first m = len(w) words.  buf has
    shape (count, 4*bps) and is overwritten.  Every step is elementwise
    or a numpy row reduction over one sample's m terms, so a sample's sum
    never depends on chunking, evaluation order or a BLAS library.
    """
    m, bps = w.size, buf.shape[1] // 4
    bit_gen = np.random.Philox(
        key=np.array([seed, 0], dtype=np.uint64),
        counter=np.array([j0 * bps, 0, 0, 0], dtype=np.uint64),
    )
    np.random.Generator(bit_gen).random(out=buf)
    np.multiply(buf, 2.0 * math.pi, out=buf)
    np.cos(buf, out=buf)
    terms = buf[:, :m]
    np.multiply(terms, w, out=terms)
    return np.add.reduce(terms, axis=1)


def li_density(
    cfg: BiasConfig, zeros: ZeroList, calibration: bool = False
) -> DensityEstimate:
    """Monte Carlo logarithmic density of the positivity event under
    independent uniform phases theta_gamma:

        X = 1/(2 beta0 - 1)
            - sum_{0 < gamma <= T} 2 Re( e^(i theta) / (1/2 - beta0 + i gamma) )

    density = P(X > 0) estimated over cfg.n_samples draws.  The stream is
    counter-based per sample and each sample's sum comes from
    elementwise numpy steps and a row reduction (_chunk_sums), so the
    result for a fixed (seed, n, T, beta0) is bit-identical by
    construction, whatever the chunk size or the number of threads.

    With calibration=True the weights switch to the pi-vs-Li race
    (2 Re(e^(i theta)/rho), constant term 1), whose known density
    ~0.999997 pins down the machinery against an external value.

    Each term is 2 Re(e^(i theta)/(a + i gamma)) = R cos(theta - phi)
    with R = 2/|a + i gamma|; a uniform theta absorbs the weight's
    argument phi, so the sampler draws R cos(theta) directly and never
    needs the sine half.

    Chunks run on one thread per CPU in the process's affinity set, each
    with one _CHUNK_BYTES buffer and an integer count of positives.
    Running out of memory raises ResourceError.
    """
    g = zeros.up_to(cfg.T)
    if calibration:
        const, a = 1.0, 0.5
    else:
        const, a = 1.0 / (2.0 * cfg.beta0 - 1.0), 0.5 - cfg.beta0
    m = int(g.size)
    n = cfg.n_samples
    if m == 0:  # X = const > 0: 1 under calibration, 1/(2 beta0 - 1) > 1 otherwise
        return DensityEstimate(density=1.0, stderr=0.0, n_samples=n, seed=cfg.seed)
    width = 4 * -(-m // 4)
    rows = min(n, max(1, _CHUNK_BYTES // (8 * width)))
    starts = range(0, n, rows)
    workers = _worker_count(len(starts))

    # Set when the caller stops waiting (an error, Ctrl-C), so that the
    # pool's shutdown does not wait for the remaining chunks.
    stop = threading.Event()

    def count_positives(k: int) -> int:
        buf = _chunk_buffer(rows, width)
        positives = 0
        for j0 in starts[k::workers]:
            if stop.is_set():
                break
            sums = _chunk_sums(cfg.seed, j0, w_mod, buf[: min(rows, n - j0)])
            positives += int(np.count_nonzero(sums < const))
        return positives

    try:
        w_mod = 2.0 / np.sqrt(a * a + g * g)
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
