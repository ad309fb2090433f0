"""Smoke tests of the helper scripts under scripts/ (the zero-table
generator and the Lambda, psi_exact, rho-table and density benches),
each run in a subprocess on tiny inputs, so a script left calling a
removed API fails here rather than in a long run.  A bench's report
must keep the top-level keys of its committed BENCH_<topic>.json, and
one bench runs against a git revision, the path that extracts an old
src/.  The experiments themselves run through the CLI and are tested in
test_cli.py."""

import json
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


def _run(script: str, args: list, cwd: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *args],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=300,
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """script -> (its smoke run, the directory it ran in), each run once."""
    done = {}

    def run(script):
        if script not in done:
            cwd = tmp_path_factory.mktemp(Path(script).stem)
            done[script] = (_run(script, _RUNS[script], cwd), cwd)
        return done[script]

    return run


@pytest.mark.parametrize("script", list(_RUNS))
def test_script_runs(smoke, script):
    run, cwd = smoke(script)
    assert run.returncode == 0, run.stderr
    if script == "bench_psi.py":
        report = json.loads((cwd / "BENCH_psi.json").read_text(encoding="utf-8"))
        (entry,) = report["runs"]
        assert all(p["fold_peak_mb"] > 0 for p in entry["grid"]["points"])


@pytest.mark.parametrize("topic", ["lambda", "psi", "rho", "density"])
def test_bench_report_keys_match_committed(smoke, topic):
    run, cwd = smoke(f"bench_{topic}.py")
    assert run.returncode == 0, run.stderr
    name = f"BENCH_{topic}.json"
    got = json.loads((cwd / name).read_text(encoding="utf-8"))
    want = json.loads((ROOT / name).read_text(encoding="utf-8"))
    assert list(got) == list(want)


def test_bench_runs_against_git_revision(tmp_path):
    try:
        head = subprocess.run(
            ["git", "rev-parse", "--verify", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=60,
        )
    except OSError:
        pytest.skip("git is not installed")
    if head.returncode:
        pytest.skip("not a git checkout")
    run = _run("bench_psi.py", ["--rev", "HEAD", "--tiny"], tmp_path)
    assert run.returncode == 0, run.stderr
    report = json.loads((tmp_path / "BENCH_psi.json").read_text(encoding="utf-8"))
    (entry,) = report["runs"]
    assert entry["rev"] == "HEAD" and entry["commit"] == head.stdout.strip()
    assert [p["count"] for p in entry["grid"]["points"]]
