"""The driver shared by the scripts/bench_<topic>.py benches.

A bench times the package at one or more revisions (--rev, repeatable;
"." is this checkout's src/, anything else is a git revision whose src/
is extracted first) and writes one JSON report (--out).  Per revision
the bench's own code runs the script again as a child (--child, a JSON
spec in, a JSON dict out) with that revision's src/ on PYTHONPATH and
one BLAS thread, so every child's timings and peak RSS are its own.
The README command lines that the benches run are defined here too.
"""

import argparse
import io
import json
import os
import platform
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ZEROS = str(ROOT / "fixtures" / "zeros1e4.txt")

# README commands, as argv after `smoothnum`.
LAMBDA = ["lambda", "--x", "1e10", "--y", "100"]
BIAS_SCAN = [
    "bias-scan", "--beta0", "0.75", "--y-min", "1000", "--y-max", "3800",
    "--n-points", "12", "--zeros", ZEROS, "--T", "1000",
]
LI_DENSITY = ["li-density", "--beta0", "0.75", "--zeros", ZEROS, "--T", "1419.5", "--seed", "42"]
CALIBRATE_PI_LI = ["calibrate-pi-li", "--zeros", ZEROS, "--ordinates", "1000", "--seed", "16"]


def theorem1(tiny: bool) -> list:
    """The README verify-theorem1 grid, or two cheap points of it."""
    if tiny:
        return [
            "verify-theorem1", "--y-min", "500", "--y-max", "694.748", "--n-points", "2",
            "--beta0", "0.8",
        ]
    return [
        "verify-theorem1", "--y-min", "500", "--y-max", "5000", "--n-points", "8",
        "--beta0", "0.7,0.8", "--skip-infeasible",
    ]


def timed(call, *args, repeats: int) -> tuple:
    """(value of the last call, wall times of `repeats` calls made after
    one untimed warm-up call)."""
    call(*args)
    value, times = None, []
    for _ in range(repeats):
        start = time.perf_counter()
        value = call(*args)
        times.append(time.perf_counter() - start)
    return value, times


def cli(argv: list, env: dict) -> tuple:
    """(wall seconds, stdout) of one CLI run in a new interpreter."""
    start = time.perf_counter()
    run = subprocess.run(
        [sys.executable, "-m", "smoothnum.cli", *argv],
        capture_output=True, text=True, env=env, check=True, timeout=600,
    )
    return time.perf_counter() - start, run.stdout


def child(spec, env: dict) -> dict:
    """What this script's child returns for spec under env."""
    run = subprocess.run(
        [sys.executable, sys.argv[0], "--child", json.dumps(spec)],
        capture_output=True, text=True, env=env, check=True, timeout=3600,
    )
    return json.loads(run.stdout)


def _src_of(rev: str, scratch: Path) -> tuple:
    """(src directory, commit) for a revision; "." is the working tree."""
    def git(*args):
        return subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, check=True, timeout=120
        ).stdout

    if rev == ".":
        try:
            commit = git("rev-parse", "HEAD").decode().strip() + " + working tree"
        except (OSError, subprocess.SubprocessError):
            commit = "unknown"
        return ROOT / "src", commit
    commit = git("rev-parse", rev).decode().strip()
    with tarfile.open(fileobj=io.BytesIO(git("archive", commit, "src"))) as tar:
        tar.extractall(scratch / commit)
    return scratch / commit / "src", commit


def _machine() -> dict:
    def field(path, key):
        try:
            with open(path, encoding="utf-8") as handle:
                for line in handle:
                    if line.startswith(key):
                        return line.split(":", 1)[1].strip()
        except OSError:
            pass
        return "unknown"

    return {
        "cpu_model": field("/proc/cpuinfo", "model name"),
        "nproc": os.cpu_count(),
        "mem_total": field("/proc/meminfo", "MemTotal"),
        "os": platform.platform(),
        "python": platform.python_version(),
    }


def main(doc: str, topic: str, out: str, child_of, revision, line, tiny=None, finish=None) -> int:
    """Run a bench from its command line.

    child_of(spec) is the child's work.  revision(args, i, env, scratch)
    gives the run entry of the i-th --rev (args.rev is the list of
    revisions) beside its rev and commit; scratch is a directory shared
    by every revision.  finish(args, runs), if given, may complete the
    runs and gives the report keys that go before them.  line(run) is
    the run's summary.  tiny is the help of --tiny, if the bench has it.
    """
    parser = argparse.ArgumentParser(
        description=doc, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--rev", action="append", default=None,
                        help='revision to time, repeatable; "." is the working tree')
    parser.add_argument("--out", default=out)
    if tiny:
        parser.add_argument("--tiny", action="store_true", help=tiny)
    parser.add_argument("--child", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.child:
        json.dump(child_of(json.loads(args.child)), sys.stdout)
        return 0

    # The parent reads perfbench's grids and this checkout's package.
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    args.rev = args.rev or ["."]
    runs = []
    with tempfile.TemporaryDirectory() as scratch:
        for i, rev in enumerate(args.rev):
            src, commit = _src_of(rev, Path(scratch))
            env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
            runs.append({"rev": rev, "commit": commit, **revision(args, i, env, Path(scratch))})

    report = {
        "topic": topic,
        "command": f"python scripts/{Path(sys.argv[0]).name} " + " ".join(sys.argv[1:]),
        "machine": _machine(),
        "blas_threads": 1,
        **(finish(args, runs) if finish else {}),
        "runs": runs,
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1)
        handle.write("\n")
    for run in runs:
        print(line(run))
    return 0
