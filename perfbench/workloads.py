"""The three benchmark workloads: their inputs, one timed pass each, and
the checks on their outputs.

A workload object is built after set-up from the workload seed and the
shared set-up objects.  ``run_pass(turn)`` performs one fixed set of
operations, calling ``turn(k)`` before its k-th call into the package,
and returns their outputs; ``check(outputs)`` takes the
outputs of every pass of a run and returns, per pass, how many of the
pass's ``ops_per_pass`` operations failed (raised, were wrong, or went
missing).  Checks call only public names of the package.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import random

import numpy as np

from smoothnum import bias, cli, debruijn, gfactor, specfun, zetazeros

ZEROS_PATH = "fixtures/zeros1e4.txt"


def _no_turn(k: int) -> None:
    pass

# ----------------------------------------------------------------------
# theorem-grid: the README's verify-theorem1 grid, with the zero-sum
# model column switched on.  The seed is ignored.
# ----------------------------------------------------------------------

GRID_ARGS = [
    "verify-theorem1", "--y-min", "500", "--y-max", "5000", "--n-points", "8",
    "--beta0", "0.7,0.8", "--skip-infeasible", "--T", "1000",
]

GRID_COLUMNS = [
    "x", "y", "u", "beta", "psi_exact", "lambda", "g_beta",
    "ratio_uncorrected", "ratio_corrected", "model_rhs", "normalized_deviation",
]

# (y rounded to 3 decimals, beta0) -> exact count, in CSV order.  The four
# beta0 = 0.7 points above y = 1341 have x > 10^12 and are skipped by the
# documented envelope; they are not operations.
GRID_PSI = {
    (500.0, 0.8): 81635,
    (500.0, 0.7): 5663861,
    (694.748, 0.8): 233049,
    (694.748, 0.7): 34949525,
    (965.349, 0.8): 706627,
    (965.349, 0.7): 253856738,
    (1341.348, 0.8): 2348652,
    (1341.348, 0.7): 2336757732,
    (1863.797, 0.8): 8334801,
    (2589.737, 0.8): 32381569,
    (3598.428, 0.8): 138483054,
    (5000.0, 0.8): 649333043,
}
# The two smallest counts are also confirmed by brute force each run.
GRID_BRUTE_KEYS = [(500.0, 0.8), (694.748, 0.8)]


def _run_cli(argv: list) -> tuple:
    """Exit code and standard output of one CLI command, run in-process."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def _row_key(row: dict) -> tuple:
    return (round(float(row["y"]), 3), round(float(row["beta"]), 2))


def brute_psi(x: int, y: int) -> int:
    """Count n <= x with no prime factor above y by dividing every
    n <= x by each prime power p^k <= x (p <= y) that divides it."""
    flags = np.ones(y + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(y) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    rest = np.arange(x + 1, dtype=np.int64)
    for p in np.flatnonzero(flags).tolist():
        pk = p
        while pk <= x:
            rest[::pk] //= p
            pk *= p
    return int(np.count_nonzero(rest[1:] == 1))


class TheoremGrid:
    ops_per_pass = len(GRID_PSI)

    def __init__(self, root: str):
        self.argv = GRID_ARGS + ["--zeros", f"{root}/{ZEROS_PATH}"]

    def run_pass(self, turn=_no_turn):
        turn(0)
        return _run_cli(self.argv)

    def _failures(self, code: int, text: str) -> int:
        if code != 0:
            return self.ops_per_pass
        table = list(csv.reader(io.StringIO(text)))
        if not table or table[0] != GRID_COLUMNS:
            return self.ops_per_pass
        body = table[1:]
        if any(format(float(cell), ".17g") != cell for row in body for cell in row):
            return self.ops_per_pass
        rows = [dict(zip(GRID_COLUMNS, row)) for row in body]
        keys = [_row_key(r) for r in rows]
        if keys != [k for k in GRID_PSI if k in keys]:
            return self.ops_per_pass  # rows out of order or repeated
        by_key = dict(zip(keys, rows))
        failed = sum(1 for k in keys if k not in GRID_PSI)  # rows beyond the 12
        for key, want in GRID_PSI.items():
            row = by_key.get(key)
            if row is None or float(row["psi_exact"]) != want:
                failed += 1
            elif key in GRID_BRUTE_KEYS:
                if brute_psi(int(float(row["x"])), int(float(row["y"]))) != want:
                    failed += 1
        return min(failed, self.ops_per_pass)

    def _rerun_bytes(self, text: str) -> str:
        """Rerun the grid with psi_exact answered from the first pass.

        Everything but the exact count is recomputed; the counts
        themselves are pinned to GRID_PSI and brute force, so equal
        bytes mean two runs of the same code give the same CSV.
        """
        known = {}
        for row in csv.DictReader(io.StringIO(text)):
            known[(float(row["x"]), float(row["y"]))] = int(float(row["psi_exact"]))
        original = bias.psi_exact

        def recorded(x, y, pt):
            if (x, y) in known:
                return known[(x, y)]
            return original(x, y, pt)

        bias.psi_exact = recorded
        try:
            return self.run_pass()
        finally:
            bias.psi_exact = original

    def check(self, outputs: list) -> list:
        code, text = outputs[0]
        first = self._failures(code, text)
        if first < self.ops_per_pass and self._rerun_bytes(text) != (code, text):
            first = self.ops_per_pass
        return [first] + [
            first if out == outputs[0] else self.ops_per_pass for out in outputs[1:]
        ]


# ----------------------------------------------------------------------
# prediction-sweep: corrected predictions Lambda * G across both Lambda
# routes, the route switch and the IBP piece cap; no exact counting.
# ----------------------------------------------------------------------

SWEEP_Y = (1e2, 1e3, 1e4)
SWEEP_X = (1e6, 1e7, 1e9, 1e11, 1e13, 1e15)
ATOM_T_LIMIT = 1e7  # the atom route's default SMOOTHNUM_MAX_LAMBDA_T

# Lambda(x, y) at the nominal points (seed 0) and the error estimate of
# the route that produced it: (value, est_error on lambda_y(u)).
SWEEP_LAMBDA = {
    (1e6, 1e2): (64169.85867309144, 0.0),
    (1e7, 1e2): (225792.35590713314, 0.0),
    (1e9, 1e2): (2110996.183674278, 2.171472409516259e-07),
    (1e11, 1e2): (14607962.581561832, 2.171472409516259e-07),
    (1e13, 1e2): (79346801.36123517, 2.171472409516259e-07),
    (1e15, 1e2): (352052320.6317333, 2.171472409516259e-07),
    (1e6, 1e3): (340466.04850781924, 0.0),
    (1e7, 1e3): (1993451.6295858312, 0.0),
    (1e9, 1e3): (57367262.37166294, 0.0),
    (1e11, 1e3): (1341734229.9981768, 1.4476482730108394e-07),
    (1e13, 1e3): (26560349703.904472, 1.4476482730108394e-07),
    (1e15, 1e3): (457671551189.3545, 1.4476482730108394e-07),
    (1e6, 1e4): (627614.749888819, 0.0),
    (1e7, 1e4): (4687605.010522252, 0.0),
    (1e9, 1e4): (221493705.8402837, 0.0),
    (1e11, 1e4): (9021643697.654463, 1.0857362047581295e-07),
    (1e13, 1e4): (321944990703.09485, 1.0857362047581295e-07),
    (1e15, 1e4): (10380770660448.688, 1.0857362047581295e-07),
}


def sweep_points(seed: int) -> list:
    """(nominal x, y, jittered x) for every sweep point.

    Seed 0 keeps the nominal x.  Other seeds scale each x down by less
    than 1%, which keeps every point on the same side of the atom/IBP
    switch (x <= 10^6) and of the piece cap (x/y <= 10^6), both of which
    the nominal points meet with equality at most.
    """
    rng = random.Random(seed)
    points = []
    for y in SWEEP_Y:
        for x in SWEEP_X:
            scale = 1.0 if seed == 0 else 1.0 - 0.01 * rng.random()
            points.append((x, y, x * scale))
    return points


def _both_routes(x: float, y: float, table) -> tuple:
    """lambda_y(u) by the atom sum and by IBP at u = log x / log y, with
    u nudged down where rounding would put y^u past the atom envelope."""
    u = math.log(x) / math.log(y)
    while y**u > ATOM_T_LIMIT:
        u = math.nextafter(u, 0.0)
    return (
        debruijn.lambda_atom_sum(u, y, table).value,
        debruijn.lambda_ibp(u, y, table).value,
    )


class PredictionSweep:
    def __init__(self, seed: int, table, pt):
        self.seed = seed
        self.points = sweep_points(seed)
        self.ops_per_pass = len(self.points)
        self.table = table
        self.pt = pt

    def run_pass(self, turn=_no_turn):
        out = []
        for k, (_, y, x) in enumerate(self.points):
            turn(k)
            try:
                out.append(gfactor.corrected_prediction(x, y, self.pt, self.table))
            except Exception as exc:  # an operation that raises is a failure
                out.append(repr(exc))
        return out

    def _point_ok(self, nominal: float, y: float, x: float, pred) -> bool:
        if not isinstance(pred, float) or not math.isfinite(pred) or pred <= 0:
            return False
        br = gfactor.g_value(specfun.saddle(x, y, self.table).beta, y, self.pt)
        if abs(br.g_factored - br.g_direct) > 1e-8 * abs(br.g_direct):
            return False
        lam = pred / br.g_direct.real
        if x <= ATOM_T_LIMIT:
            atom, ibp = _both_routes(x, y, self.table)
            if abs(atom - ibp) > 1e-6 * abs(ibp) or abs(x * ibp - lam) > 1e-6 * lam:
                return False
        if self.seed == 0:
            # Each frozen value and the current one both claim to lie
            # within their route's est_error of the true lambda_y(u).
            want, est = SWEEP_LAMBDA[(nominal, y)]
            if abs(lam - want) > x * est + 1e-12 * abs(want):
                return False
        return True

    def check(self, outputs: list) -> list:
        first = outputs[0]
        ok = [self._point_ok(n, y, x, p) for (n, y, x), p in zip(self.points, first)]
        failures = [sum(not good for good in ok)]
        for out in outputs[1:]:
            failures.append(
                sum(not good or a != b for good, a, b in zip(ok, out, first))
            )
        return failures


# ----------------------------------------------------------------------
# mc-density: the README's Monte Carlo pair at 1000 ordinates each.
# ----------------------------------------------------------------------

MC_SAMPLES = 20_000  # per call; a sample is one operation
# Sampler seeds at workload seed 0 (the README's) and the densities they
# give at MC_SAMPLES: (li-density, calibrate-pi-li).
MC_SEEDS = (42, 16)
MC_FROZEN = (1.0, 1.0)


# The README configurations read exactly 1 at MC_SAMPLES, so they cannot
# tell a wrong sampler from a right one.  Once per run, outside the timed
# phase, li_density also runs on 1000 synthetic ordinates of near-equal
# weight, where the density is near 0.86 and depends on every ordinate
# and every phase.  Its result must equal the frozen value and agree with
# an estimate drawn here from numpy's default generator.
CHECK_GAMMAS = np.linspace(20.0, 30.0, 1000)
CHECK_BETA0 = 0.75
CHECK_SEED = 7
CHECK_FROZEN = 0.86245


def _reference_density(n: int) -> tuple:
    """P(X > 0) for X = c - sum R_g cos(theta_g), the model li_density
    samples, estimated with numpy's default generator: (density, stderr)."""
    a = 0.5 - CHECK_BETA0
    weights = 2.0 / np.sqrt(a * a + CHECK_GAMMAS * CHECK_GAMMAS)
    const = 1.0 / (2.0 * CHECK_BETA0 - 1.0)
    rng = np.random.default_rng(CHECK_SEED)
    positives = 0
    for j0 in range(0, n, 2000):
        theta = rng.uniform(0.0, 2.0 * math.pi, (min(2000, n - j0), CHECK_GAMMAS.size))
        positives += int(np.count_nonzero(const - np.cos(theta) @ weights > 0.0))
    d = positives / n
    return d, math.sqrt(d * (1.0 - d) / n)


def sampler_ok() -> bool:
    zeros = zetazeros.ZeroList(gammas=CHECK_GAMMAS, height=float(CHECK_GAMMAS[-1]))
    cfg = bias.BiasConfig(
        beta0=CHECK_BETA0, T=zeros.height, seed=CHECK_SEED, n_samples=MC_SAMPLES
    )
    try:
        est = bias.li_density(cfg, zeros)
    except Exception:  # a sampler that raises is wrong too
        return False
    ref, ref_err = _reference_density(MC_SAMPLES)
    return (
        est.density == CHECK_FROZEN
        and abs(est.density - ref) <= 5.0 * math.hypot(est.stderr, ref_err)
    )


def _parse_density(text: str) -> dict:
    fields = dict(line.split(" = ", 1) for line in text.strip().splitlines())
    return {
        "density": float(fields["density"]),
        "stderr": float(fields["stderr"]),
        "n_samples": int(fields["n_samples"]),
    }


class McDensity:
    ops_per_pass = 2 * MC_SAMPLES

    def __init__(self, seed: int, root: str):
        self.seed = seed
        zeros = ["--zeros", f"{root}/{ZEROS_PATH}", "--n-samples", str(MC_SAMPLES)]
        li_seed, cal_seed = (s + seed for s in MC_SEEDS)
        self.argvs = [
            ["li-density", "--beta0", "0.75", "--T", "1419.5", "--seed", str(li_seed)]
            + zeros,
            ["calibrate-pi-li", "--ordinates", "1000", "--seed", str(cal_seed)] + zeros,
        ]

    def run_pass(self, turn=_no_turn):
        out = []
        for k, argv in enumerate(self.argvs):
            turn(k)
            out.append(_run_cli(argv))
        return out

    def _call_ok(self, index: int, code: int, text: str) -> bool:
        if code != 0:
            return False
        try:
            est = _parse_density(text)
        except (KeyError, ValueError):
            return False
        if est["n_samples"] != MC_SAMPLES:
            return False
        d = est["density"]
        if index == 0:
            ok = d > 0.5 + 5.0 * est["stderr"]  # criterion 09's band
        else:
            # Criterion 08's band [0.9998, 1).  Its open upper end holds
            # only for the pinned 10^6-sample run: the pi-vs-Li density is
            # 0.99999973, so at MC_SAMPLES nearly every seed sees no
            # negative sample and reads exactly 1.
            ok = 0.9998 <= d <= 1.0
        if self.seed == 0:
            ok = ok and d == MC_FROZEN[index]
        return ok

    def check(self, outputs: list) -> list:
        if not sampler_ok():
            return [self.ops_per_pass] * len(outputs)
        first = outputs[0]
        ok = [self._call_ok(i, code, text) for i, (code, text) in enumerate(first)]
        failures = []
        for out in outputs:
            bad = sum(not good or a != b for good, a, b in zip(ok, out, first))
            failures.append(bad * MC_SAMPLES)
        return failures


def make(name: str, seed: int, root: str, table, pt):
    if name == "theorem-grid":
        return TheoremGrid(root)
    if name == "prediction-sweep":
        return PredictionSweep(seed, table, pt)
    if name == "mc-density":
        return McDensity(seed, root)
    raise ValueError(f"unknown workload {name!r}")
