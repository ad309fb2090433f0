"""smoothnum benchmark: run workloads, check their outputs, print metrics.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from
src/.  Each workload runs in its own child process under an address-space
cap, with BLAS and OpenMP pinned to one thread.  The timed phase repeats
whole passes of the workload for up to --seconds (at least one pass;
the default is run_seconds of BENCHMARK.json).  Set-up (interpreter
start, imports, Dickman table, sieve, zero table) is timed separately,
in SETUP_SAMPLES fresh processes.

With --trace 0 the metrics are the end-to-end ones (wall_s, ops_per_s,
setup_s, peak_rss_mb); with --trace 1 they are the per-layer numbers of
a traced run.  Every metric is printed by name with its unit, and the
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The exit code is 0 only if every output
check passed.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
WORKLOADS = ("theorem-grid", "prediction-sweep", "mc-density")
SETUP_SAMPLES = 7  # per --trace 0 run: 3 before the workload process, its own, 3 after
# Address-space cap of each child, well below the 7 GiB of the 8 GB
# machine the baseline was taken on; the grid peaks near 2.1 GB RSS.
MEM_MIB = 4096
DEADLINE_S = 170.0  # whole command, per workload


def _unit(name: str) -> str:
    if name == "ops_per_s":
        return "1/s"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    return "count"


def _child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _spawn(extra: list, timeout: float):
    """Run child.py; return (its JSON result or None, its start time)."""
    argv = [sys.executable, str(HERE / "child.py"), "--mem-mib", str(MEM_MIB), *extra]
    started = time.monotonic()
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: child timed out: {' '.join(extra)}", file=sys.stderr)
        return None, started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: child exited {proc.returncode}: {' '.join(extra)}", file=sys.stderr)
        return None, started
    return json.loads(lines[-1]), started


def _setup_times(common: list, first: int, count: int, deadline: float):
    """Set-up times of `count` set-up-only processes, numbered from `first`
    for the CPU each starts on, or None on failure."""
    times = []
    for index in range(first, first + count):
        res, started = _spawn(common + ["--setup-only", "--start-cpu", str(index)],
                              deadline - time.monotonic())
        if res is None:
            return None
        times.append(res["setup_done"] - started)
    return times


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{name}-seed{seed}-trace{trace}"
    extra = ["--trace", str(trace)]
    if trace:
        extra += ["--spans-out", str(OUT_DIR / f"spans-{tag}.jsonl")]
    # Set-up is sampled before and after the timed phase, so that one
    # slow stretch of the machine does not set the whole median.
    setup_runs = 0 if trace else SETUP_SAMPLES // 2
    before = _setup_times(common, 0, setup_runs, deadline)
    res, started = _spawn(common + extra + ["--start-cpu", str(setup_runs)],
                          deadline - time.monotonic())
    after = _setup_times(common, setup_runs + 1, setup_runs, deadline)
    if before is None or res is None or after is None:
        return {"ok": False}
    setups = before + [res["setup_done"] - started] + after

    passes = len(res["pass_s"])
    attempted = res["ops_per_pass"] * passes
    failed = sum(res["failed"])
    if trace:
        metrics = res["layers"]
    else:
        # Totals over the whole timed phase, not the median pass: on a
        # shared host pass times are bimodal, and a median of a few passes
        # jumps between the modes.
        timed = sum(res["pass_s"])
        metrics = {
            "wall_s": timed / passes,
            "ops_per_s": (attempted - failed) / timed,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
        }
    summary = {
        "ok": True, "attempted": attempted, "failed": failed, "passes": passes,
        "metrics": metrics, "pass_s": res["pass_s"], "setup_s": setups,
        "provenance": res["provenance"],
    }
    with open(OUT_DIR / f"result-{tag}.json", "w", encoding="utf-8") as handle:
        json.dump(summary, handle, indent=1)
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed phase per workload (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    needed = [ROOT / "src" / "smoothnum" / "__init__.py", ROOT / "fixtures" / "zeros1e4.txt",
              ROOT / "BENCHMARK.json"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"perfbench: not a smoothnum checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    if args.seconds is None:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
            args.seconds = float(json.load(handle)["run_seconds"])

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in names:
        res = run_workload(name, args.seed, args.seconds, args.trace)
        print(f"{name}  seed={args.seed}  trace={args.trace}")
        if not res["ok"]:
            print("  no result: the workload process failed")
            correct, attempted, failed = False, attempted + 1, failed + 1
            continue
        for key, value in res["metrics"].items():
            print(f"  {key:<36} {value:.6g} {_unit(key)}")
        frac = res["failed"] / res["attempted"]
        print(f"  {'fail_frac':<36} {frac:.6g} ({res['failed']} of "
              f"{res['attempted']} operations in {res['passes']} passes)")
        print(f"  provenance {json.dumps(res['provenance'], sort_keys=True)}")
        correct = correct and res["failed"] == 0
        attempted += res["attempted"]
        failed += res["failed"]
        prefix = "" if len(names) == 1 else f"{name}."
        for key, value in res["metrics"].items():
            metrics[prefix + key] = {"value": value, "unit": _unit(key)}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
