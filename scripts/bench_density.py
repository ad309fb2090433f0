"""Time the Monte Carlo density sampler (bias.li_density) at one or more
revisions.

Each revision runs in child processes of its own: "." is this checkout's
src/, anything else is a git revision whose src/ is extracted first.
Per revision and per README configuration (li-density at beta0 0.75 and
calibrate-pi-li, the first 1000 ordinates each) the report holds:

- layers: for one full chunk, the best of REPEATS wall times, after a
  warm-up call, of the Philox fill (phases) and of _chunk_sums; their
  difference is the exact float64 route over every row (cos, product
  and row sum).  Where the revision has the float32 screen, also the
  screen's time and its exact fallback's mean time per chunk;
- run: one in-process li_density call at SAMPLES samples, with its
  density, its tracemalloc peak and how many rows it summed in float64
  (every row at a revision without the screen);
- cli: the median wall time of CLI_REPEATS runs of the README command at
  SAMPLES samples, each in a new interpreter, and the density it
  printed.

Once per report, since it depends on numpy alone: the largest
|cos(float32 x) - cos(x)| over every float32 x in [0, float32(2pi)], in
units of 2^-24, the error the screen's margin charges _COS32_ULPS of.

--tiny runs each timing once at 10^4 samples and skips the cos sweep.

    python scripts/bench_density.py --rev 7653250 --rev . --out BENCH_density.json
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_lambda import ROOT, _machine, _src_of

REPEATS = 5
CLI_REPEATS = 3
SAMPLES = 10**6
TINY_SAMPLES = 10**4
ZEROS = str(ROOT / "fixtures" / "zeros1e4.txt")
# name -> (README command, beta0, seed, calibration)
CONFIGS = {
    "li-density": (
        ["li-density", "--beta0", "0.75", "--zeros", ZEROS, "--T", "1419.5", "--seed", "42"],
        0.75, 42, False,
    ),
    "calibrate-pi-li": (
        ["calibrate-pi-li", "--zeros", ZEROS, "--ordinates", "1000", "--seed", "16"],
        0.75, 16, True,
    ),
}


def _child(repeats: int, samples: int) -> dict:
    import threading
    import tracemalloc

    import numpy as np

    from smoothnum import bias, zetazeros

    zeros = zetazeros.load_zeros(ZEROS, height=10010.0)
    big_t = zeros.leading_height(1000)
    screened = hasattr(bias, "_count_below")

    def fill(seed, j0, buf):
        """The revision's Philox fill, or the same steps where _chunk_sums
        still does them inline."""
        if screened:
            return bias._phases(seed, j0, buf)
        bit_gen = np.random.Philox(
            key=np.array([seed, 0], dtype=np.uint64),
            counter=np.array([j0 * (buf.shape[1] // 4), 0, 0, 0], dtype=np.uint64),
        )
        np.random.Generator(bit_gen).random(out=buf)
        np.multiply(buf, 2.0 * math.pi, out=buf)
        return buf

    def best(call, *args):
        """The fastest of REPEATS timed calls, after one warm-up call."""
        call(*args)
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            call(*args)
            times.append(time.perf_counter() - start)
        return min(times)

    exact_rows, exact_s = [], []
    lock = threading.Lock()

    def counting(theta, w):
        start = time.perf_counter()
        sums = exact_sums(theta, w)
        with lock:
            exact_rows.append(len(theta))
            exact_s.append(time.perf_counter() - start)
        return sums

    if screened:
        exact_sums = bias._exact_sums
        bias._exact_sums = counting

    report = {"numpy": np.__version__, "screen": screened, "configs": {}}
    for name, (_, beta0, seed, calibration) in CONFIGS.items():
        a = 0.5 if calibration else 0.5 - beta0
        const = 1.0 if calibration else 1.0 / (2.0 * beta0 - 1.0)
        g = zeros.up_to(big_t)
        w = 2.0 / np.sqrt(a * a + g * g)
        width = 4 * -(-g.size // 4)
        buf = np.empty((bias._CHUNK_BYTES // (8 * width), width))
        layers = {"rows": len(buf), "ordinates": int(g.size)}
        layers["fill_s"] = best(fill, seed, 0, buf)
        layers["chunk_sums_s"] = best(bias._chunk_sums, seed, 0, w, buf)
        layers["exact_s"] = layers["chunk_sums_s"] - layers["fill_s"]
        if screened:
            theta = fill(seed, 0, buf)
            w32 = w.astype(np.float32)
            margin = bias._screen_margin(w, w32)
            exact_s.clear()
            count_s = best(bias._count_below, theta, w, w32, const, margin)
            layers["fallback_s"] = sum(exact_s) / (repeats + 1)
            layers["screen_s"] = count_s - layers["fallback_s"]
            layers["margin"] = margin
        cfg = bias.BiasConfig(beta0=beta0, T=big_t, seed=seed, n_samples=samples)
        exact_rows.clear()
        tracemalloc.start()
        start = time.perf_counter()
        est = bias.li_density(cfg, zeros, calibration=calibration)
        run_s = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        report["configs"][name] = {
            "layers": layers,
            "run": {
                "n_samples": samples,
                "wall_s": run_s,
                "density": est.density,
                "tracemalloc_peak_mib": peak / 2**20,
                "exact_rows": sum(exact_rows) if screened else samples,
            },
        }
    return report


def _cli(args: list, env: dict) -> tuple:
    """(wall seconds, printed density) of one CLI run in a new interpreter."""
    start = time.perf_counter()
    run = subprocess.run(
        [sys.executable, "-m", "smoothnum.cli", *args],
        capture_output=True, text=True, env=env, check=True, timeout=600,
    )
    fields = dict(line.split(" = ", 1) for line in run.stdout.strip().splitlines())
    return time.perf_counter() - start, float(fields["density"])


def _cos32_error_ulps() -> float:
    """max |cos(float32 x) - cos(x)| / 2^-24 over every float32 x in
    [0, float32(2pi)], a block of 2^20 at a time."""
    import numpy as np

    top = int(np.array([2.0 * math.pi], dtype=np.float32).view(np.uint32)[0])
    worst = 0.0
    for lo in range(0, top + 1, 1 << 20):
        x = np.arange(lo, min(lo + (1 << 20), top + 1), dtype=np.uint32).view(np.float32)
        err = np.abs(np.cos(x).astype(np.float64) - np.cos(x.astype(np.float64)))
        worst = max(worst, float(err.max()))
    return worst / 2.0**-24


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--rev", action="append", default=None,
                        help='revision to time, repeatable; "." is the working tree')
    parser.add_argument("--out", default="BENCH_density.json")
    parser.add_argument("--tiny", action="store_true",
                        help="one run per timing at 10^4 samples and no cos sweep, for a smoke run")
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.child:
        spec = json.loads(args.child)
        json.dump(_child(spec["repeats"], spec["samples"]), sys.stdout)
        return 0

    repeats = 1 if args.tiny else REPEATS
    cli_repeats = 1 if args.tiny else CLI_REPEATS
    samples = TINY_SAMPLES if args.tiny else SAMPLES

    runs = []
    with tempfile.TemporaryDirectory() as scratch:
        for rev in args.rev or ["."]:
            src, commit = _src_of(rev, Path(scratch))
            env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
            spec = json.dumps({"repeats": repeats, "samples": samples})
            child = subprocess.run(
                [sys.executable, __file__, "--child", spec],
                capture_output=True, text=True, env=env, check=True, timeout=3600,
            )
            run = dict(json.loads(child.stdout), rev=rev, commit=commit)
            for name, (argv, *_) in CONFIGS.items():
                argv = [*argv, "--n-samples", str(samples)]
                timed = [_cli(argv, env) for _ in range(cli_repeats)]
                run["configs"][name]["cli"] = {
                    "cmd": "smoothnum " + " ".join(argv).replace(ZEROS, "fixtures/zeros1e4.txt"),
                    "median_s": statistics.median(t for t, _ in timed),
                    "density": timed[0][1],
                }
            runs.append(run)

    first = runs[0]
    for run in runs:
        run["vs_rev"] = first["rev"]
        run["densities_identical_vs_rev"] = all(
            run["configs"][name][part]["density"] == first["configs"][name][part]["density"]
            for name in CONFIGS for part in ("run", "cli")
        )

    report = {
        "topic": "Monte Carlo density sampler: Philox fill, float32 screen, exact fallback",
        "command": "python scripts/bench_density.py " + " ".join(sys.argv[1:]),
        "machine": _machine(),
        "blas_threads": 1,
        "cos32_max_error_ulps": None if args.tiny else _cos32_error_ulps(),
        "runs": runs,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
        handle.write("\n")
    for run in runs:
        for name, cfg in run["configs"].items():
            layers = cfg["layers"]
            screen = (
                f", screen {layers['screen_s'] * 1e3:.1f} ms" if "screen_s" in layers else ""
            )
            print(
                f"{run['rev']} {name}: fill {layers['fill_s'] * 1e3:.1f} ms, "
                f"exact {layers['exact_s'] * 1e3:.1f} ms{screen} per chunk; "
                f"{cfg['run']['exact_rows']} exact rows, "
                f"peak {cfg['run']['tracemalloc_peak_mib']:.1f} MiB, "
                f"CLI {cfg['cli']['median_s']:.2f} s, density {cfg['cli']['density']!r}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
