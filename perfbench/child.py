"""One workload run in its own process, started by run.py.

The process caps its address space first, so that a run which outgrows
it fails its operations with MemoryError instead of being killed.  It
then imports the package, sets up (Dickman table, sieve, zero table),
runs whole passes of the workload until the requested seconds have
passed, checks every output, and prints one JSON line for run.py.
With --setup-only it stops after set-up.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ZEROS_PATH = ROOT / "fixtures" / "zeros1e4.txt"
SIEVE_LIMIT = 10**4


def _last_ordinate(path: Path) -> float:
    with open(path, "rb") as handle:
        return float(handle.read().split()[-1])


def setup() -> tuple:
    """Import the package and build what every workload starts from.

    Returns the set-up objects and the time each step took.
    """
    t0 = time.perf_counter()
    import smoothnum.cli  # noqa: F401  (imports every layer)
    from smoothnum import primes, specfun, zetazeros

    t1 = time.perf_counter()
    table = specfun.default_rho_table()  # cached: the CLI reuses this table
    t2 = time.perf_counter()
    pt = primes.sieve(SIEVE_LIMIT)
    t3 = time.perf_counter()
    # Parsed and validated once here; the CLI commands load their own copy.
    zetazeros.load_zeros(ZEROS_PATH, height=_last_ordinate(ZEROS_PATH))
    t4 = time.perf_counter()
    steps = {
        "import.s": t1 - t0,
        "specfun.build_rho_table.s": t2 - t1,
        "primes.sieve.s": t3 - t2,
        "zetazeros.load_zeros.s": t4 - t3,
    }
    return (table, pt), steps


def start_on(index: int) -> None:
    """Move to the index-th CPU of this process's set, keeping the whole set.

    On a shared host each CPU has its own slow and fast stretches, and a
    single-threaded process stays on the CPU it runs on.  Set-up samples
    and calls that start on the CPUs in turn sample all of them, while
    every CPU stays available to the program, as in a user's run.
    """
    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {sorted(cpus)[index % len(cpus)]})
    os.sched_setaffinity(0, cpus)


def timed_passes(workload, seconds: float, tracer=None) -> tuple:
    """Run whole passes while the next one, as long as the median pass so
    far, still ends within `seconds`; always run at least one."""
    times, outputs = [], []
    start = time.perf_counter()
    while not times or time.perf_counter() - start + statistics.median(times) <= seconds:
        done = len(times)
        if tracer is not None:
            tracer.run_id = done
        t = time.perf_counter()
        # Calls take turns on the CPUs, so that a single long pass samples
        # all of them too.
        outputs.append(workload.run_pass(lambda k: start_on(done + k)))
        times.append(time.perf_counter() - t)
    return times, outputs


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--mem-mib", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--start-cpu", type=int, default=0)
    parser.add_argument("--spans-out", default=None)
    args = parser.parse_args()

    start_on(args.start_cpu)
    cap = args.mem_mib << 20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    (table, pt), steps = setup()
    setup_done = time.monotonic()
    if args.setup_only:
        print(json.dumps({"setup_done": setup_done}))
        return 0

    import provenance
    import spans
    import workloads

    workload = workloads.make(args.workload, args.seed, str(ROOT), table, pt)
    result = {"setup_done": setup_done, "ops_per_pass": workload.ops_per_pass}
    if args.trace:
        tracer = spans.Tracer()
        with tracer:
            times, outputs = timed_passes(workload, args.seconds, tracer)
        layers = spans.layer_metrics(tracer.spans, len(times), sum(times))
        layers["trace.wall_s"] = sum(times) / len(times)
        result["layers"] = {**steps, **layers}
        if args.spans_out:
            tracer.write(args.spans_out)
    else:
        times, outputs = timed_passes(workload, args.seconds)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["pass_s"] = times
    result["failed"] = workload.check(outputs)
    result["provenance"] = provenance.collect(ROOT, table, ZEROS_PATH, args.mem_mib)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
