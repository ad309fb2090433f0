"""Smoke tests of the helper scripts under scripts/ (the zero-table
generator and the Lambda, psi_exact, rho-table and density benches),
each run in a subprocess on tiny inputs, so a script left calling a
removed API fails here rather than in a long run.  The experiments
themselves run through the CLI and are tested in test_cli.py."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


# script -> its arguments
_RUNS = {
    "make_zero_fixture.py": ["--help"],
    "bench_lambda.py": ["--rev", "."],
    "bench_psi.py": ["--rev", ".", "--tiny"],
    "bench_rho.py": ["--rev", ".", "--tiny"],
    "bench_density.py": ["--rev", ".", "--tiny"],
}


@pytest.mark.parametrize("script", list(_RUNS))
def test_script_runs(tmp_path, script):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *_RUNS[script]],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=300,
    )
    assert run.returncode == 0, run.stderr
