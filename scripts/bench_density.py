"""Time the Monte Carlo density sampler (bias.li_density) at one or more
revisions.

Each revision runs in child processes of its own: "." is this checkout's
src/, anything else is a git revision whose src/ is extracted first.
Per revision and per README configuration (li-density at beta0 0.75 and
calibrate-pi-li, the model at beta0 = 1, the first 1000 ordinates each)
the report holds:

- layers: for BLOCKS blocks of the revision's bias._SCREEN_ROWS rows
  (1024 samples at 64 rows), the best of REPEATS wall times, after a
  warm-up call, of the Philox fill (the bench's own numpy stream, block
  after block into one buffer, so the same numpy work at every
  revision), of the exact float64 route over every row (_exact_sums on
  a copy of each block, the copy included) and of the float32 screen
  (_count_below, less its exact fallback, whose mean time is reported
  apart);
- run: one in-process li_density call at SAMPLES samples, with its
  density, its tracemalloc peak and how many rows it summed in float64;
  it is not timed: one call per revision cannot tell two revisions
  apart on a shared host (seven calls of the same code at 10^6 samples
  took 5.96-7.56 s on a 2-vCPU Xeon);
- cli: the median wall time of CLI_REPEATS runs of the README command at
  SAMPLES samples, each in a new interpreter, and the density it
  printed.  This median is the bench's end-to-end time.

Once per report, since it depends on numpy alone: the largest
|cos(float32 x) - cos(x)| over every float32 x in [0, float32(2pi)], in
units of 2^-24, the error the screen's margin charges _COS32_ULPS of.

--tiny runs each timing once at 10^4 samples and skips the cos sweep.

    python scripts/bench_density.py --rev 589d2ae --rev . --out BENCH_density.json
"""

import math
import statistics
import sys

import _bench

REPEATS = 5
CLI_REPEATS = 3
SAMPLES = 10**6
TINY_SAMPLES = 10**4
BLOCKS = 16
# name -> (README command, beta0, seed); the pi-vs-Li race is beta0 = 1
CONFIGS = {
    "li-density": (_bench.LI_DENSITY, 0.75, 42),
    "calibrate-pi-li": (_bench.CALIBRATE_PI_LI, 1.0, 16),
}


def _child(spec: dict) -> dict:
    import threading
    import time
    import tracemalloc

    import numpy as np

    from smoothnum import bias, zetazeros
    from smoothnum.errors import DomainError

    repeats, samples = spec["repeats"], spec["samples"]
    zeros = zetazeros.load_zeros(_bench.ZEROS, height=10010.0)
    big_t = zeros.leading_height(1000)

    def fill(seed, out):
        """Fill out's blocks in turn from one Philox stream, as a worker does."""
        stream = np.random.Generator(np.random.Philox(key=np.array([seed, 0], dtype=np.uint64)))
        for block in out:
            stream.random(out=block)
            np.multiply(block, 2.0 * math.pi, out=block)

    def exact(blocks, w, buf):
        for block in blocks:
            np.copyto(buf, block)
            exact_sums(buf, w)

    def best(call, *args):
        return min(_bench.timed(call, *args, repeats=repeats)[1])

    exact_rows, exact_s = [], []
    lock = threading.Lock()

    def counting(theta, w):
        start = time.perf_counter()
        sums = exact_sums(theta, w)
        with lock:
            exact_rows.append(len(theta))
            exact_s.append(time.perf_counter() - start)
        return sums

    exact_sums = bias._exact_sums
    bias._exact_sums = counting

    report = {"numpy": np.__version__, "configs": {}}
    for name, (_, beta0, seed) in CONFIGS.items():
        a, const = 0.5 - beta0, 1.0 / (2.0 * beta0 - 1.0)
        g = zeros.up_to(big_t)
        w = 2.0 / np.sqrt(a * a + g * g)
        w32 = w.astype(np.float32)
        margin = bias._screen_margin(w, w32)
        width = 4 * -(-g.size // 4)
        blocks = np.empty((BLOCKS, bias._SCREEN_ROWS, width))
        buf = np.empty(blocks.shape[1:])
        layers = {"rows": BLOCKS * len(buf), "ordinates": int(g.size)}
        layers["fill_s"] = best(fill, seed, [buf] * BLOCKS)
        fill(seed, blocks)
        layers["exact_s"] = best(exact, blocks, w, buf)
        exact_s.clear()
        count_s = best(lambda: sum(bias._count_below(b, w, w32, const, margin) for b in blocks))
        layers["fallback_s"] = sum(exact_s) / (repeats + 1)
        layers["screen_s"] = count_s - layers["fallback_s"]
        layers["margin"] = margin
        try:
            cfg = bias.BiasConfig(beta0=beta0, T=big_t, seed=seed, n_samples=samples)
            race = {}
        except DomainError:
            # A revision whose BiasConfig stops short of beta0 = 1 runs the
            # race as li_density's calibration flag, at a stand-in beta0.
            cfg = bias.BiasConfig(beta0=0.75, T=big_t, seed=seed, n_samples=samples)
            race = {"calibration": True}
        exact_rows.clear()
        tracemalloc.start()
        est = bias.li_density(cfg, zeros, **race)
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        report["configs"][name] = {
            "layers": layers,
            "run": {
                "n_samples": samples,
                "density": est.density,
                "tracemalloc_peak_mib": peak / 2**20,
                "exact_rows": sum(exact_rows),
            },
        }
    return report


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


def _revision(args, i, env, scratch) -> dict:
    samples = TINY_SAMPLES if args.tiny else SAMPLES
    run = _bench.child({"repeats": 1 if args.tiny else REPEATS, "samples": samples}, env)
    for name, (argv, *_) in CONFIGS.items():
        argv = [*argv, "--n-samples", str(samples)]
        timed = [_bench.cli(argv, env) for _ in range(1 if args.tiny else CLI_REPEATS)]
        run["configs"][name]["cli"] = {
            "cmd": "smoothnum " + " ".join(argv).replace(_bench.ZEROS, "fixtures/zeros1e4.txt"),
            "median_s": statistics.median(t for t, _ in timed),
            "density": float(dict(
                line.split(" = ", 1) for line in timed[0][1].strip().splitlines()
            )["density"]),
        }
    return run


def _finish(args, runs) -> dict:
    first = runs[0]
    for run in runs:
        run["vs_rev"] = first["rev"]
        run["densities_identical_vs_rev"] = all(
            run["configs"][name][part]["density"] == first["configs"][name][part]["density"]
            for name in CONFIGS for part in ("run", "cli")
        )
    return {"cos32_max_error_ulps": None if args.tiny else _cos32_error_ulps()}


def _line(run) -> str:
    lines = []
    for name, cfg in run["configs"].items():
        layers = cfg["layers"]
        lines.append(
            f"{run['rev']} {name}: fill {layers['fill_s'] * 1e3:.1f} ms, "
            f"exact {layers['exact_s'] * 1e3:.1f} ms, "
            f"screen {layers['screen_s'] * 1e3:.1f} ms per {layers['rows']} samples; "
            f"{cfg['run']['exact_rows']} exact rows, "
            f"peak {cfg['run']['tracemalloc_peak_mib']:.1f} MiB, "
            f"CLI {cfg['cli']['median_s']:.2f} s, density {cfg['cli']['density']!r}"
        )
    return "\n".join(lines)


if __name__ == "__main__":
    sys.exit(_bench.main(
        __doc__, "Monte Carlo density sampler: Philox fill, float32 screen, exact fallback",
        "BENCH_density.json", _child, _revision, _line,
        tiny="one run per timing at 10^4 samples and no cos sweep, for a smoke run",
        finish=_finish,
    ))
