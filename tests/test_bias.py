"""Tests for smoothnum.bias: the pinned-saddle curve, the normalized
deviation, the zero-sum model and its prediction of Psi/Lambda, and
Monte Carlo logarithmic densities.
"""

import dataclasses
import hashlib
import math

import numpy as np
import pytest

from smoothnum import bias, gfactor, smoothcount, specfun
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


def test_compute_point_deviation_is_nan_below_one_half(pt100k, rho_table, zeros10k):
    # The deviation's scale y^(beta0 - 1/2) log y is derived for beta0 >
    # 1/2, like the model; the ratios stay defined.
    p = bias.compute_point(100.0, 0.45, pt100k, rho_table, zeros=zeros10k, big_t=100.0)
    assert math.isnan(p.deviation)
    assert math.isnan(p.model)
    assert p.psi == 3488196
    assert math.isfinite(p.ratio_corrected)


def test_compute_point_takes_its_count_from_the_caller(pt100k, rho_table, zeros10k, monkeypatch):
    # With psi given, compute_point builds the same point from it and
    # never counts on its own.
    want = bias.compute_point(800.0, 0.75, pt100k, rho_table, zeros=zeros10k, big_t=1000.0)
    x = math.exp(bias.x_of_y(800.0, 0.75))
    [psi] = smoothcount.psi_many([(x, 800.0)], pt100k)

    def refuse(*args):
        raise AssertionError("psi_exact called")

    monkeypatch.setattr(bias, "psi_exact", refuse)
    got = bias.compute_point(
        800.0, 0.75, pt100k, rho_table, zeros=zeros10k, big_t=1000.0, psi=psi
    )
    assert dataclasses.astuple(got) == dataclasses.astuple(want)
    assert got.psi == psi


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
    beta = specfun.saddle(x, y, rho_table).beta
    pv = bias.psiover_rhs(y, beta, 1000.0, zeros10k)
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
# psiover_rhs
# ----------------------------------------------------------------------

def test_psiover_rhs_empty_zero_sum(rho_table, zeros10k):
    y = 1e4
    x = y**1.8
    beta = specfun.saddle(x, y, rho_table).beta
    got = bias.psiover_rhs(y, beta, 10.0, zeros10k)
    want = 1.0 + y ** (-beta) * math.sqrt(y) / ((2.0 * beta - 1.0) * math.log(y))
    assert got == want
    assert isinstance(got, float)


def test_psiover_rhs_agrees_with_g(pt100k, rho_table, zeros10k):
    # Both forms approximate the same correction; the corollary's error
    # envelope 3 y^(1/2-beta)/log y comfortably covers the gap.
    y = 1e4
    for u, frozen in ((1.8, 1.0046571418662664), (2.5, 1.009279958141757)):
        x = y**u
        beta = specfun.saddle(x, y, rho_table).beta
        rhs = bias.psiover_rhs(y, beta, 1e4, zeros10k)
        g = gfactor.g_value(beta, y, pt100k).g_direct.real
        assert abs(rhs - g) <= 3.0 * y ** (0.5 - beta) / math.log(y), f"u={u}"
        assert rhs == frozen  # bit for bit


def test_psiover_rhs_rejects_beta_near_half(rho_table, zeros10k):
    # (1e8, 100) has saddle abscissa 0.4926 < 0.55.
    beta = specfun.saddle(1e8, 100.0, rho_table).beta
    with pytest.raises(DomainError):
        bias.psiover_rhs(100.0, beta, 1e4, zeros10k)


# ----------------------------------------------------------------------
# BiasConfig / DensityEstimate plumbing
# ----------------------------------------------------------------------

def test_bias_config_validation():
    with pytest.raises(DomainError):
        bias.BiasConfig(beta0=0.5, T=100.0, seed=1, n_samples=10**4)
    for beta0 in (1.0 + 2**-52, float("nan")):
        with pytest.raises(DomainError):
            bias.BiasConfig(beta0=beta0, T=100.0, seed=1, n_samples=10**4)
    # beta0 = 1 is the pi-vs-Li race, which the densities admit.
    assert bias.BiasConfig(beta0=1.0, T=100.0, seed=1, n_samples=10**4).beta0 == 1.0
    with pytest.raises(RangeError):
        bias.BiasConfig(beta0=0.75, T=100.0, seed=1, n_samples=999)
    # Philox takes a 64-bit key, so seeds outside [0, 2^64) would alias.
    for seed in (-1, 2**64):
        with pytest.raises(RangeError):
            bias.BiasConfig(beta0=0.75, T=100.0, seed=seed, n_samples=10**4)
    # The seed and the count are whole numbers, stored as ints.
    for seed, n in ((1, 1500.5), (1, math.inf), (1, math.nan), (1.5, 10**4), (math.inf, 10**4)):
        with pytest.raises(DomainError):
            bias.BiasConfig(beta0=0.75, T=100.0, seed=seed, n_samples=n)
    cfg = bias.BiasConfig(beta0=0.75, T=100.0, seed=3.0, n_samples=1e4)
    assert (cfg.seed, cfg.n_samples) == (3, 10**4)
    assert type(cfg.seed) is int and type(cfg.n_samples) is int


def _sums(seed, j0, count, w):
    width = 4 * -(-w.size // 4)
    theta = bias._phases(bias._stream(seed, j0, width), np.empty((count, width)))
    return bias._exact_sums(theta, w)


def test_phase_matrix_counter_based_chunking():
    # Sample j's phases are 2pi (word >> 11) 2^-53 over its own Philox
    # counter blocks, so they do not depend on which block produced them.
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
    # A sample's sum is the same float however the samples are split into
    # blocks; a BLAS matvec does not promise that (it blocks by row count).
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
    # One block of the calibration sampler (seed 16, first 1000 ordinates).
    # The sums involve Philox, numpy's cos and numpy's add.reduce only.
    g = zeros10k.gammas[:1000]
    sums = _sums(16, 0, 64, 2.0 / np.sqrt(0.25 + g * g))
    digest = hashlib.sha256(sums.tobytes()).hexdigest()
    assert digest == "222421bcaa82168dd38d79b8bbd15c27c52d44b91141810ee75b660e60817085", (
        "per-sample Monte Carlo sums moved: numpy's cos or add.reduce now "
        "rounds differently here (or the Philox layout changed); the pinned "
        "densities of criteria 08/09 and perfbench may move with them"
    )


def test_phases_counter_carries_into_second_word():
    # Past 2^64 blocks the first counter word wraps and the carry goes to
    # the second word, as in one sequential Philox stream.
    seed, w = 5, np.ones(8)  # bps = 2
    j0 = 2**63 + 3  # first block 2^64 + 6
    philox = np.random.Philox(
        key=np.array([seed, 0], dtype=np.uint64),
        counter=np.array([6, 1, 0, 0], dtype=np.uint64),
    )
    want = np.random.Generator(philox).random((3, 8)) * (2.0 * math.pi)
    assert np.array_equal(bias._phases(bias._stream(seed, j0, 8), np.empty((3, 8))), want)
    # The fill that straddles 2^64 blocks continues into the one past it.
    straddle = bias._phases(bias._stream(seed, 2**63 - 1, 8), np.empty((5, 8)))
    fresh = bias._phases(bias._stream(seed, 2**63 + 3, 8), np.empty((1, 8)))
    assert np.array_equal(straddle[4:], fresh)
    assert np.array_equal(_sums(seed, j0, 3, w), np.cos(want).sum(axis=1))


@pytest.mark.parametrize("j0", [0, 2**63 - 5])
def test_stream_fills_continue_one_another(j0):
    # A worker fills block after block from one stream; those fills must
    # read the words that one large fill would, and a fresh stream opened
    # at a later sample must start where the running one has got to.  At
    # j0 = 2^63 - 5 with bps 2 the fills cross counter block 2^64.
    stream = bias._stream(11, j0, 8)
    parts = [bias._phases(stream, np.empty((rows, 8))) for rows in (3, 1, 7, 2)]
    whole = bias._phases(bias._stream(11, j0, 8), np.empty((13, 8)))
    assert np.array_equal(np.concatenate(parts), whole)
    later = bias._phases(bias._stream(11, j0 + 4, 8), np.empty((9, 8)))
    assert np.array_equal(whole[4:], later)


def _perfbench_check_zeros():
    # perfbench's synthetic check set: density near 0.86 at seed 7.
    return ZeroList(gammas=np.linspace(20.0, 30.0, 1000), height=30.0)


def _near_three_quarters_zeros():
    return ZeroList(gammas=np.linspace(5.0, 10.0, 250), height=10.0)


@pytest.mark.parametrize("m", [1000, 997])
def test_exact_fallback_rows_match_chunk_sums(zeros10k, m):
    # The fallback sums any subset of a block's rows through the same
    # steps as a sum of the whole block, so each row's sum is the same float.
    g = zeros10k.gammas[:m]
    w = 2.0 / np.sqrt(0.25 + g * g)
    width = 4 * -(-m // 4)
    theta = bias._phases(bias._stream(3, 77, width), np.empty((200, width)))
    whole = _sums(3, 77, 200, w)
    rng = np.random.default_rng(0)
    masks = [rng.random(200) < p for p in (0.01, 0.3, 0.9)]
    masks += [np.arange(200) == 0, np.arange(200) == 199, np.ones(200, bool)]
    for mask in masks:
        assert np.array_equal(bias._exact_sums(theta[mask], w), whole[mask])


def _count_fallback_rows(monkeypatch):
    rows = []
    exact_sums = bias._exact_sums

    def counting(theta, w):
        rows.append(len(theta))
        return exact_sums(theta, w)

    monkeypatch.setattr(bias, "_exact_sums", counting)
    return rows


@pytest.mark.parametrize(
    "zeros, seed, n, frozen",
    [
        (_near_three_quarters_zeros(), 8, 10**4, None),
        (_perfbench_check_zeros(), 7, 20_000, 0.86245),
    ],
    ids=["250-near-0.75", "perfbench-check"],
)
def test_screen_density_equals_exact_route(monkeypatch, zeros, seed, n, frozen):
    cfg = bias.BiasConfig(beta0=0.75, T=zeros.height, seed=seed, n_samples=n)
    default = bias.li_density(cfg, zeros)
    if frozen is not None:
        assert default.density == frozen

    rows = _count_fallback_rows(monkeypatch)
    monkeypatch.setattr(bias, "_screen_margin", lambda w, w32: math.inf)
    assert bias.li_density(cfg, zeros) == default
    assert sum(rows) == n  # every row summed exactly

    rows.clear()
    monkeypatch.setattr(bias, "_screen_margin", lambda w, w32: 0.5)
    assert bias.li_density(cfg, zeros) == default
    assert 0 < sum(rows) < n  # both the screen and the fallback decided rows


def test_float32_cos_error_within_margin_assumption():
    # Every 256th float32 in [0, float32(2pi)], which covers any phase
    # 2pi u rounded to float32.
    top = np.array([2.0 * math.pi], dtype=np.float32).view(np.uint32)[0]
    x = np.arange(0, top + 1, 256, dtype=np.uint32).view(np.float32)
    err = np.max(np.abs(np.cos(x).astype(np.float64) - np.cos(x.astype(np.float64))))
    ulps = err / 2.0**-24
    assert ulps < bias._COS32_ULPS, f"float32 cos error {ulps:.3f} x 2^-24"


@pytest.mark.parametrize("case", ["calibration", "li-0.75", "250-near-0.75", "perfbench-check"])
def test_screen_margin_bounds_screen_error(zeros10k, case):
    g, a = {
        "calibration": (zeros10k.gammas[:1000], 0.5),
        "li-0.75": (zeros10k.gammas[:1000], -0.25),
        "250-near-0.75": (_near_three_quarters_zeros().gammas, -0.25),
        "perfbench-check": (_perfbench_check_zeros().gammas, -0.25),
    }[case]
    w = 2.0 / np.sqrt(a * a + g * g)
    w32 = w.astype(np.float32)
    margin = bias._screen_margin(w, w32)
    width = 4 * -(-g.size // 4)
    worst = 0.0
    for j0 in (0, 10**5, 10**9):
        theta = bias._phases(bias._stream(21, j0, width), np.empty((256, width)))
        approx = bias._screen_sums(theta, w32)
        worst = max(worst, float(np.max(np.abs(approx - bias._exact_sums(theta, w)))))
    assert worst <= margin, f"screen error / margin = {worst / margin:.3g}"


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
    for rows in (7, 977):
        monkeypatch.setattr(bias, "_SCREEN_ROWS", rows)
        assert bias.li_density(cfg, zeros10k) == first, rows


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_li_density_worker_count_independent(monkeypatch, workers):
    # 250 near-equal weights put the density near 0.75, so every sample's
    # sign counts.
    zeros = ZeroList(gammas=np.linspace(5.0, 10.0, 250), height=10.0)
    cfg = bias.BiasConfig(beta0=0.75, T=10.0, seed=8, n_samples=10**4)
    reference = bias.li_density(cfg, zeros)
    assert 0.6 < reference.density < 0.9
    monkeypatch.setattr(bias, "_worker_count", lambda n_blocks: workers)
    monkeypatch.setattr(bias, "_SCREEN_ROWS", 331)
    assert bias.li_density(cfg, zeros) == reference


def test_li_density_memory_error_is_resource_error(zeros10k, monkeypatch):
    def no_memory(rows, width):
        raise MemoryError

    monkeypatch.setattr(bias, "_block_buffer", no_memory)
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
    for beta0 in (0.75, 1.0, 0.6):
        cfg = bias.BiasConfig(beta0=beta0, T=g100, seed=2, n_samples=10**4)
        est = bias.li_density(cfg, zeros10k)
        assert est.density - 3.0 * est.stderr >= -0.01
        assert est.density + 3.0 * est.stderr <= 1.01


def test_li_density_calibration_smoke(zeros10k):
    # Small calibration run; the full pinned-seed run with 1000
    # ordinates and n=1e6 lives in the acceptance suite.
    g100 = float(zeros10k.gammas[99])
    cfg = bias.BiasConfig(beta0=1.0, T=g100, seed=16, n_samples=10**5)
    est = bias.li_density(cfg, zeros10k)
    assert est.density >= 0.999


@pytest.mark.parametrize("seed, frozen", [(1, 0.55545), (2, 0.5579), (16, 0.5606)])
def test_li_density_at_beta0_one_is_the_pi_li_race(seed, frozen):
    # At beta0 = 1 the constant is 1 and the weights are 2/sqrt(1/4 +
    # gamma^2): the pi-vs-Li race.  300 small ordinates keep the density
    # near 1/2, so every sample's sign counts; the pins are the densities
    # of that race's own weights.
    zeros = ZeroList(gammas=np.linspace(2.0, 6.0, 300), height=6.0)
    est = bias.li_density(bias.BiasConfig(1.0, 6.0, seed, 20_000), zeros)
    assert est.density == frozen


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
