"""Acceptance suite: one test per shipping criterion.

Each test prints a single ``criterion NN: PASS/FAIL`` line carrying the
measured quantity (visible with ``pytest -s`` and in failure reports)
and then asserts the stated tolerance and runtime budget.  Nothing here
is tuned to pass: criterion 05's monotone clause is asserted as stated
even though the measured sequence violates it (see the comment there).
"""

import csv
import math
import time

import numpy as np
import pytest

import oracles
from smoothnum import bias, debruijn, gfactor, primes, smoothcount, specfun, zetazeros
from smoothnum.cli import CSV_COLUMNS, main
from smoothnum.errors import ResourceError


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_01_special_function_suite(rho_table):
    start = time.time()
    rng = np.random.default_rng(1)
    us = rng.uniform(1.0, 400.0, 1_000_000)
    xs = specfun.xi(us)
    residual = np.abs(np.exp(xs) - (1.0 + us * xs))
    xi_ok = bool(np.all(residual <= 1e-12 * (1.0 + us * xs)))

    rho2_err = abs(specfun.rho(rho_table, 2.0) - (1.0 - math.log(2.0)))
    oracle10 = oracles.dickman_log_rho(10.0)
    log10_rel = abs(specfun.log_rho(rho_table, 10.0) - oracle10) / abs(oracle10)
    hat0_err = abs(specfun.rho_hat(0.0) - math.exp(np.euler_gamma))
    elapsed = time.time() - start

    ok = xi_ok and rho2_err <= 1e-10 and log10_rel <= 1e-6 and hat0_err <= 1e-8 and elapsed < 60
    _report(1, ok, f"xi_all_within_bound={xi_ok} rho2_err={rho2_err:.2e} "
                   f"log_rho10_rel={log10_rel:.2e} rho_hat0_err={hat0_err:.2e} "
                   f"elapsed={elapsed:.1f}s")
    assert xi_ok
    assert rho2_err <= 1e-10
    assert log10_rel <= 1e-6
    assert hat0_err <= 1e-8
    assert elapsed < 60


def test_criterion_02_exact_count_suite(pt100k, gpf100k):
    start = time.time()
    # The step function Psi(.,y) only moves at smooth integers, so
    # checking each jump point and the sample just before it verifies
    # every x <= 1e5 with ~2 calls per smooth value.
    mismatches = 0
    for y in (2, 3, 5, 7, 11, 31):
        pt = primes.sieve(max(2, y))
        count = 1  # n = 1 (the leading entry of the oracle) is smooth for every y
        for s in (int(v) for v in oracles.smooth_values(100_000, y, gpf100k)[1:]):
            if smoothcount.psi_exact(s - 1, y, pt) != count:
                mismatches += 1
            count += 1
            if smoothcount.psi_exact(s, y, pt) != count:
                mismatches += 1
        if smoothcount.psi_exact(100_000, y, pt) != count:
            mismatches += 1

    rng = np.random.default_rng(20260813)
    nonzero = 0
    for _ in range(100):
        x = int(np.exp(rng.uniform(math.log(100.0), math.log(1e8))))
        y = int(rng.uniform(2.0, 50.0))
        z = int(rng.uniform(y, 200.0))
        x = max(x, z)
        if oracles.buchstab_residual_psi(x, y, z, pt100k) != 0:
            nonzero += 1
    elapsed = time.time() - start

    ok = mismatches == 0 and nonzero == 0 and elapsed < 120
    _report(2, ok, f"step_mismatches={mismatches} buchstab_nonzero={nonzero}/100 "
                   f"elapsed={elapsed:.1f}s")
    assert mismatches == 0
    assert nonzero == 0
    assert elapsed < 120


def test_criterion_03_lambda_cross_method(rho_table):
    start = time.time()
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(50):
        log_x = rng.uniform(math.log(10.0), math.log(1e6))
        u = float(rng.uniform(1.0, min(6.0, log_x / math.log(2.0))))
        y = max(2.0, float(np.exp(log_x / u)))
        atom = debruijn.lambda_atom_sum(u, y, rho_table)
        ibp = debruijn.lambda_ibp(u, y, rho_table)
        worst = max(worst, abs(atom.value - ibp.value) / abs(ibp.value))
    elapsed = time.time() - start

    ok = worst <= 1e-6 and elapsed < 120
    _report(3, ok, f"worst_rel={worst:.2e} over 50 points, elapsed={elapsed:.1f}s")
    assert worst <= 1e-6
    assert elapsed < 120


def test_criterion_04_g_route_identity():
    start = time.time()
    worst = 0.0
    for y in (1e3, 1e4, 1e5):
        pt = primes.sieve(int(y))
        for beta in (0.55, 0.65, 0.75, 0.85, 0.95):
            for t in (0.0, 0.1, -0.1):
                b = gfactor.g_value(complex(beta, t), y, pt)
                worst = max(worst, abs(b.g_factored / b.g_direct - 1.0))
    elapsed = time.time() - start

    ok = worst <= 1e-8 and elapsed < 60
    _report(4, ok, f"worst_route_gap={worst:.2e} on 45-point grid, elapsed={elapsed:.1f}s")
    assert worst <= 1e-8
    assert elapsed < 60


def test_criterion_05_asymptotic_ratio_trend(rho_table):
    deviations = []
    for x in (1e6, 1e7, 1e8):
        y = x ** (1.0 / 3.0)
        lam = debruijn.lambda_xy(x, y, rho_table)
        k = specfun.k_factor(-float(specfun.xi(3.0)) / math.log(y)).real
        reference = x * specfun.rho(rho_table, 3.0) * k
        deviations.append(abs(lam / reference - 1.0))

    decreasing = deviations[0] > deviations[1] > deviations[2]
    final_ok = deviations[-1] <= 0.05
    ok = decreasing and final_ok
    _report(5, ok, "deviations=" + ", ".join(f"{d:.3e}" for d in deviations)
            + f", decreasing={decreasing}, final<=0.05={final_ok}")
    # Measured deviations are ~3.0e-4, 7.1e-3, 9.3e-3: the x=1e6 point
    # happens to sit where the next-order term changes sign, so the
    # sequence is not decreasing on this range.  The assertion is kept
    # strict rather than tuned to pass; see notes on shipped deviations.
    assert final_ok
    assert decreasing


def test_criterion_06_explicit_formula_residual(pt100k, zeros10k):
    start = time.time()
    psi_val = primes.chebyshev_psi(pt100k, 10_000.0).psi
    zsum = zetazeros.zero_sum(zeros10k, 10_000.0, 0.0, 10_000.0)
    residual = abs(psi_val - 10_000.0 + zsum.real)
    elapsed = time.time() - start

    ok = residual <= 100.0 and elapsed < 60
    _report(6, ok, f"|psi(1e4) - 1e4 + sum|={residual:.4f} (cap 100), elapsed={elapsed:.1f}s")
    assert residual <= 100.0
    assert elapsed < 60


def test_criterion_07_correction_beats_plain_ratio(rho_table):
    start = time.time()
    pt = primes.sieve(5000)
    grid = [500.0 * 10.0 ** (i / 7.0) for i in range(8)]
    uncorrected, corrected, signs = [], [], []
    skipped = 0
    for beta0 in (0.7, 0.8):
        for y in grid:
            try:
                p = bias.compute_point(y, beta0, pt, rho_table)
            except ResourceError:
                skipped += 1
                continue
            uncorrected.append(abs(p.ratio_uncorrected - 1.0))
            corrected.append(abs(p.ratio_corrected - 1.0))
            signs.append((p.psi - p.lam > 0) == (p.g - 1.0 > 0))
    med_un = float(np.median(uncorrected))
    med_co = float(np.median(corrected))
    agreement = sum(signs) / len(signs)
    elapsed = time.time() - start

    ok = med_co <= med_un and agreement >= 0.7 and elapsed < 1800
    _report(7, ok, f"median_corrected={med_co:.3e} <= median_uncorrected={med_un:.3e}, "
                   f"sign_match={agreement:.2f} on {len(signs)} feasible points "
                   f"({skipped} skipped), elapsed={elapsed:.0f}s")
    assert len(signs) >= 10
    assert med_co <= med_un
    assert agreement >= 0.7
    assert elapsed < 1800


def test_criterion_08_pi_li_calibration(zeros10k):
    start = time.time()
    big_t = float(zeros10k.gammas[999]) * (1 + 1e-12)  # first 1000 ordinates
    cfg = bias.BiasConfig(beta0=1.0, T=big_t, seed=16, n_samples=10**6)
    est = bias.li_density(cfg, zeros10k)
    elapsed = time.time() - start

    ok = 0.9998 <= est.density < 1.0 and elapsed < 60
    _report(8, ok, f"calibration_density={est.density!r} (target band [0.9998, 1)), "
                   f"elapsed={elapsed:.0f}s")
    assert 0.9998 <= est.density < 1.0
    assert est.density == 0.999999  # pinned seed makes the value exact
    assert elapsed < 60


def test_criterion_09_positive_bias_density(zeros10k):
    start = time.time()
    big_t = float(zeros10k.gammas[999]) * (1 + 1e-12)
    cfg = bias.BiasConfig(beta0=0.75, T=big_t, seed=42, n_samples=10**6)
    est = bias.li_density(cfg, zeros10k)
    elapsed = time.time() - start

    ok = est.density > 0.5 + 5.0 * est.stderr and elapsed < 60
    _report(9, ok, f"density={est.density!r} stderr={est.stderr:.2e} "
                   f"(need > 0.5 + 5*stderr), elapsed={elapsed:.0f}s")
    assert est.density > 0.5 + 5.0 * est.stderr
    # Determinism under the fixed seed: the frozen value reproduces.
    assert est.density == 1.0
    assert est.stderr == 0.0
    assert elapsed < 60


def test_criterion_10_cli_determinism(tmp_path):
    args = ["verify-theorem1", "--y-min", "500", "--y-max", "700",
            "--n-points", "2", "--beta0", "0.8"]
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    identical = out_a.read_bytes() == out_b.read_bytes()

    with open(out_a, newline="") as handle:
        rows = list(csv.reader(handle))
    header_ok = rows[0] == CSV_COLUMNS
    roundtrip = all(
        format(float(cell), ".17g") == cell for row in rows[1:] for cell in row
    )
    ok = identical and header_ok and roundtrip
    _report(10, ok, f"byte_identical={identical} roundtrip_exact={roundtrip} "
                    f"rows={len(rows) - 1}")
    assert identical
    assert header_ok
    assert roundtrip
