"""Smoke tests of the experiment scripts under scripts/, each run in a
subprocess on tiny inputs, so a script left calling a removed API fails
here rather than in a long study run."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import ZEROS_PATH

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args", [
    ("density_run.py", ["--ordinates", "10", "--n-samples", "1000", "--beta0-list", "0.75",
                        "--zeros", str(ZEROS_PATH)]),
    ("theorem_grid.py", ["--y-min", "50", "--y-max", "60", "--n-points", "2"]),
    ("bias_scan.py", ["--y-min", "50", "--y-max", "60", "--n-points", "2", "--T", "100",
                      "--zeros", str(ZEROS_PATH)]),
    ("make_zero_fixture.py", ["--help"]),
    ("bench_lambda.py", ["--rev", "."]),
])
def test_script_runs(tmp_path, script, args):
    if script in ("theorem_grid.py", "bias_scan.py"):
        args = args + ["--outdir", str(tmp_path)]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300,
    )
    assert run.returncode == 0, run.stderr
