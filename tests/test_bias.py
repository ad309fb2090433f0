"""Tests for smoothnum.bias: the pinned-saddle curve, the normalized
deviation, the zero-sum model, and Monte Carlo logarithmic densities.
"""

import hashlib
import math

import numpy as np
import pytest

from smoothnum import bias, gfactor, specfun
from smoothnum.errors import DomainError, RangeError, ResourceError
from smoothnum.zetazeros import ZeroList


# ----------------------------------------------------------------------
# x_of_y and the pinned saddle
# ----------------------------------------------------------------------

def test_x_of_y_arithmetic():
    # (10^4)^(1-0.75) = 10, so log x = (10-1)/0.25 = 36 exactly.
    assert bias.x_of_y(1e4, 0.75) == 36.0
    assert bias.x_of_y(1.0, 0.75) == 0.0


@pytest.mark.parametrize("beta0", [-1.0, 0.0, 1.0, 1.5])
def test_x_of_y_needs_beta0_in_open_unit_interval(beta0):
    with pytest.raises(DomainError):
        bias.x_of_y(1e4, beta0)


def test_saddle_pinned_on_curve(rho_table):
    # The curve is built so that beta(x(y), y) = beta0 identically.
    for y, beta0 in ((1e4, 0.75), (500.0, 0.7), (2718.28, 0.8)):
        x = math.exp(bias.x_of_y(y, beta0))
        got = specfun.saddle(x, y, rho_table).beta
        assert got == pytest.approx(beta0, abs=1e-10)


# ----------------------------------------------------------------------
# normalized_deviation / compute_point
# ----------------------------------------------------------------------

def test_normalized_deviation_frozen_value(pt100k, rho_table):
    # Regression pin at y=800, beta0=0.75 (exact Psi = 1203943 there).
    dev = bias.compute_point(800.0, 0.75, pt100k, rho_table).deviation
    assert dev == pytest.approx(0.8894134582878971, rel=1e-12)


def test_compute_point_internal_consistency(pt100k, rho_table):
    p = bias.compute_point(800.0, 0.75, pt100k, rho_table)
    scale = 800.0 ** (0.75 - 0.5) * math.log(800.0)
    assert p.deviation == pytest.approx((p.ratio_uncorrected - 1.0) * scale, rel=1e-12)
    assert p.ratio_corrected == pytest.approx(p.ratio_uncorrected / p.g, rel=1e-12)
    assert p.x == pytest.approx(math.exp(p.log_x), rel=1e-15)
    assert p.psi == int(p.psi)
    assert math.isnan(p.model)  # no zero table passed


def test_compute_point_model_field(pt100k, rho_table, zeros10k):
    p = bias.compute_point(800.0, 0.75, pt100k, rho_table, zeros=zeros10k, big_t=1000.0)
    assert p.model == bias.model_rhs(800.0, 0.75, 1000.0, zeros10k)


def test_compute_point_model_is_nan_outside_its_range(pt100k, rho_table, zeros10k):
    # 1/(2 beta0 - 1) is derived for beta0 > 1/2; at 1/2 it divides by 0.
    p = bias.compute_point(100.0, 0.5, pt100k, rho_table, zeros=zeros10k, big_t=100.0)
    assert math.isnan(p.model)
    assert p.beta == pytest.approx(0.5, abs=1e-10)


def test_compute_point_x_overflow_is_resource_error(pt100k, rho_table):
    # log x = (10^4.5 - 1)/0.9 is about 3.5e4, past the largest float.
    with pytest.raises(ResourceError):
        bias.compute_point(1e5, 0.1, pt100k, rho_table)


# ----------------------------------------------------------------------
# model_rhs
# ----------------------------------------------------------------------

def test_model_rhs_empty_sum(zeros10k):
    # T below the first ordinate leaves only 1/(2 beta0 - 1).
    assert bias.model_rhs(100.0, 0.75, 10.0, zeros10k) == 2.0
    assert bias.model_rhs(100.0, 0.6, 10.0, zeros10k) == pytest.approx(5.0, rel=1e-15)


def test_model_rhs_is_float(zeros10k):
    val = bias.model_rhs(1234.5, 0.75, 5000.0, zeros10k)
    assert isinstance(val, float)
    assert math.isfinite(val)
    assert val == 2.0937421198648614  # frozen bit for bit


def test_model_rhs_oscillation_averages_out(zeros10k):
    # The zero-sum part oscillates in log y; its average over a long
    # log-uniform grid is two orders below the constant term 2.
    ys = np.exp(np.linspace(math.log(2.0), math.log(1e6), 2000))
    vals = np.array([bias.model_rhs(float(y), 0.75, 1000.0, zeros10k) for y in ys])
    assert abs(np.mean(vals - 2.0)) <= 0.02


def test_model_rhs_matches_psiover_route(rho_table, zeros10k):
    # (psiover_rhs - 1) * y^(beta0 - 1/2) * log y telescopes to exactly
    # the model_rhs formula when beta = beta0 on the curve.
    y, beta0 = 1e4, 0.75
    x = math.exp(bias.x_of_y(y, beta0))
    pv = gfactor.psiover_rhs(x, y, 1000.0, zeros10k, rho_table)
    scaled = (pv - 1.0) * y ** (beta0 - 0.5) * math.log(y)
    assert abs(scaled - bias.model_rhs(y, beta0, 1000.0, zeros10k)) <= 1e-9


@pytest.mark.parametrize("beta0", [0.25, 0.5, 1.0])
def test_model_rhs_needs_beta0_above_half(zeros10k, beta0):
    with pytest.raises(DomainError):
        bias.model_rhs(100.0, beta0, 100.0, zeros10k)


def test_model_rhs_range_error(zeros10k):
    with pytest.raises(RangeError):
        bias.model_rhs(100.0, 0.75, 2e4, zeros10k)


# ----------------------------------------------------------------------
# BiasConfig / DensityEstimate plumbing
# ----------------------------------------------------------------------

def test_bias_config_validation():
    with pytest.raises(DomainError):
        bias.BiasConfig(beta0=0.5, T=100.0, seed=1, n_samples=10**4)
    with pytest.raises(DomainError):
        bias.BiasConfig(beta0=1.0, T=100.0, seed=1, n_samples=10**4)
    with pytest.raises(RangeError):
        bias.BiasConfig(beta0=0.75, T=100.0, seed=1, n_samples=999)
    # Philox takes a 64-bit key, so seeds outside [0, 2^64) would alias.
    for seed in (-1, 2**64):
        with pytest.raises(RangeError):
            bias.BiasConfig(beta0=0.75, T=100.0, seed=seed, n_samples=10**4)


def _sums(seed, j0, count, w):
    return bias._chunk_sums(seed, j0, w, np.empty((count, 4 * -(-w.size // 4))))


def test_phase_matrix_counter_based_chunking():
    # Sample j's phases are 2pi (word >> 11) 2^-53 over its own Philox
    # counter blocks, so they do not depend on which chunk produced them.
    # A unit weight picks one phase's cosine out of the sum.
    m = 7
    philox = np.random.Philox(key=np.array([9, 0], dtype=np.uint64))
    words = philox.random_raw(12 * 8).reshape(12, 8)[:, :m]
    theta = 2.0 * math.pi * ((words >> np.uint64(11)) * 2.0**-53)
    for k in range(m):
        w = np.zeros(m)
        w[k] = 1.0
        whole = _sums(9, 0, 12, w)
        assert np.array_equal(whole[5:], _sums(9, 5, 7, w))
        np.testing.assert_allclose(whole, np.cos(theta[:, k]), rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("m", [1000, 997])
def test_chunk_sums_bit_equal_across_splits(zeros10k, m):
    # A sample's sum is the same float however the samples are chunked;
    # a BLAS matvec does not promise that (it blocks by chunk size).
    g = zeros10k.gammas[:m]
    w = 2.0 / np.sqrt(0.25 + g * g)
    j0, count = 123, 1000
    whole = _sums(42, j0, count, w)
    for split in (1, 3, 7, 333):
        parts = [
            _sums(42, j, min(split, j0 + count - j), w)
            for j in range(j0, j0 + count, split)
        ]
        assert np.array_equal(np.concatenate(parts), whole), split


def test_chunk_sums_golden_hash(zeros10k):
    # One chunk of the calibration sampler (seed 16, first 1000 ordinates).
    # The sums involve Philox, numpy's cos and numpy's add.reduce only.
    g = zeros10k.gammas[:1000]
    sums = _sums(16, 0, 64, 2.0 / np.sqrt(0.25 + g * g))
    digest = hashlib.sha256(sums.tobytes()).hexdigest()
    assert digest == "222421bcaa82168dd38d79b8bbd15c27c52d44b91141810ee75b660e60817085", (
        "per-sample Monte Carlo sums moved: numpy's cos or add.reduce now "
        "rounds differently here (or the Philox layout changed); the pinned "
        "densities of criteria 08/09 and perfbench may move with them"
    )


def test_li_density_no_zeros_is_one(zeros10k):
    cfg = bias.BiasConfig(beta0=0.75, T=10.0, seed=5, n_samples=10**4)
    est = bias.li_density(cfg, zeros10k)
    assert est.density == 1.0
    assert est.stderr == 0.0
    assert est.n_samples == 10**4
    assert est.seed == 5


def test_li_density_deterministic_and_chunk_independent(zeros10k, monkeypatch):
    g100 = float(zeros10k.gammas[99])
    cfg = bias.BiasConfig(beta0=0.75, T=g100, seed=3, n_samples=10**4)
    first = bias.li_density(cfg, zeros10k)
    second = bias.li_density(cfg, zeros10k)
    assert first == second
    monkeypatch.setattr(bias, "_CHUNK_BYTES", 977 * 8 * 100)  # 977 samples
    rechunked = bias.li_density(cfg, zeros10k)
    assert rechunked == first


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_li_density_worker_count_independent(monkeypatch, workers):
    # 250 near-equal weights put the density near 0.75, so every sample's
    # sign counts.  The reference is one chunk on one thread.
    zeros = ZeroList(gammas=np.linspace(5.0, 10.0, 250), height=10.0)
    cfg = bias.BiasConfig(beta0=0.75, T=10.0, seed=8, n_samples=10**4)
    reference = bias.li_density(cfg, zeros)
    assert 0.6 < reference.density < 0.9
    monkeypatch.setattr(bias, "_worker_count", lambda n_chunks: workers)
    monkeypatch.setattr(bias, "_CHUNK_BYTES", 331 * 8 * 252 + 5)  # 331 samples
    assert bias.li_density(cfg, zeros) == reference


def test_li_density_memory_error_is_resource_error(zeros10k, monkeypatch):
    def no_memory(rows, width):
        raise MemoryError

    monkeypatch.setattr(bias, "_chunk_buffer", no_memory)
    cfg = bias.BiasConfig(beta0=0.75, T=float(zeros10k.gammas[99]), seed=3, n_samples=10**4)
    with pytest.raises(ResourceError):
        bias.li_density(cfg, zeros10k)


def test_li_density_monotone_in_beta0(zeros10k):
    # Larger beta0 shrinks the constant term but shrinks the oscillation
    # weights too; the density must not decrease (ties allowed -- at this
    # T every draw is positive for all three exponents).
    g100 = float(zeros10k.gammas[99])
    densities = []
    for beta0 in (0.6, 0.75, 0.9):
        cfg = bias.BiasConfig(beta0=beta0, T=g100, seed=11, n_samples=10**6)
        densities.append(bias.li_density(cfg, zeros10k).density)
    assert densities[2] >= densities[0]
    assert densities[1] >= densities[0]


def test_li_density_sanity_window(zeros10k):
    g100 = float(zeros10k.gammas[99])
    for beta0, calibration in ((0.75, False), (0.75, True), (0.6, False)):
        cfg = bias.BiasConfig(beta0=beta0, T=g100, seed=2, n_samples=10**4)
        est = bias.li_density(cfg, zeros10k, calibration=calibration)
        assert est.density - 3.0 * est.stderr >= -0.01
        assert est.density + 3.0 * est.stderr <= 1.01


def test_li_density_calibration_smoke(zeros10k):
    # Small calibration run; the full pinned-seed run with 1000
    # ordinates and n=1e6 lives in the acceptance suite.
    g100 = float(zeros10k.gammas[99])
    cfg = bias.BiasConfig(beta0=0.75, T=g100, seed=16, n_samples=10**5)
    est = bias.li_density(cfg, zeros10k, calibration=True)
    assert est.density >= 0.999


def test_li_density_range_error(zeros10k):
    cfg = bias.BiasConfig(beta0=0.75, T=2e4, seed=1, n_samples=10**4)
    with pytest.raises(RangeError):
        bias.li_density(cfg, zeros10k)


# ----------------------------------------------------------------------
# empirical density along the curve
# ----------------------------------------------------------------------

def test_empirical_density_and_model_agreement(pt100k, rho_table, zeros10k):
    # Desk-scale slice of the positivity experiment: the exact count
    # stays above the de Bruijn value on this stretch of the curve, and
    # the zero-sum model gets every sign right (measured 1.0).
    grid = np.exp(np.linspace(math.log(1000.0), math.log(2000.0), 5))
    points = [
        bias.compute_point(y, 0.75, pt100k, rho_table, zeros=zeros10k, big_t=1000.0)
        for y in grid
    ]
    assert np.mean([p.psi > p.lam for p in points]) > 0.5
    assert np.mean([(p.deviation > 0) == (p.model > 0) for p in points]) >= 0.6
