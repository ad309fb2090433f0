"""Smoke tests of the helper scripts under scripts/ (the zero-table
generator and the Lambda, psi_exact, rho-table and density benches),
each run in a subprocess on tiny inputs, so a script left calling a
removed API fails here rather than in a long run.  A bench's report
must keep the top-level keys of its committed BENCH_<topic>.json.  The
psi, density and Lambda benches also run against a git revision, the
path that extracts an old src/; the density bench must report the same
densities, and the Lambda bench the same Lambda bits, at HEAD as in the
working tree.  The experiments themselves run through the CLI and are
tested in test_cli.py."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _head():
    """The commit HEAD names, or None without git or outside a checkout."""
    try:
        head = subprocess.run(
            ["git", "rev-parse", "--verify", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=60,
        )
    except OSError:
        return None
    return None if head.returncode else head.stdout.strip()


_HEAD = _head()
# revisions the density and Lambda benches compare: HEAD, where there is
# one, then the tree
_VS_HEAD = ["HEAD", "."] if _HEAD else ["."]
_VS_HEAD_ARGS = [arg for rev in _VS_HEAD for arg in ("--rev", rev)]
# script -> its arguments
_RUNS = {
    "make_zero_fixture.py": ["--help"],
    "bench_lambda.py": _VS_HEAD_ARGS,
    "bench_psi.py": ["--rev", ".", "--tiny"],
    "bench_rho.py": ["--rev", ".", "--tiny"],
    "bench_density.py": [*_VS_HEAD_ARGS, "--tiny"],
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
        # V and the rows are read from the table the walk itself built.
        assert all(p["V"] >= 1 and p["table_rows"] >= 1 for p in entry["grid"]["points"] if p["p0"])
        # Every leaf column is charged on one of the two paths.
        assert all(
            p["wide_columns"] + p["narrow_columns"] > 0 and p["narrow_leaves"] >= p["narrow_columns"]
            for p in entry["grid"]["points"] if p["p0"]
        )
    if script == "bench_density.py":
        # The bench's own code times every revision, and the working tree
        # must sample exactly as the last commit does.
        report = json.loads((cwd / "BENCH_density.json").read_text(encoding="utf-8"))
        assert [run["rev"] for run in report["runs"]] == _VS_HEAD
        assert all(run["densities_identical_vs_rev"] for run in report["runs"])
    if script == "bench_lambda.py":
        # Lambda at every point keeps the bits of the last commit.
        report = json.loads((cwd / "BENCH_lambda.json").read_text(encoding="utf-8"))
        assert [run["rev"] for run in report["runs"]] == _VS_HEAD
        assert all(run["lambda_identical_vs_rev"] for run in report["runs"])
        assert all(p["rho_points"] > 0 for run in report["runs"] for p in run["points"])


@pytest.mark.parametrize("topic", ["lambda", "psi", "rho", "density"])
def test_bench_report_keys_match_committed(smoke, topic):
    run, cwd = smoke(f"bench_{topic}.py")
    assert run.returncode == 0, run.stderr
    name = f"BENCH_{topic}.json"
    got = json.loads((cwd / name).read_text(encoding="utf-8"))
    want = json.loads((ROOT / name).read_text(encoding="utf-8"))
    assert list(got) == list(want)


def test_bench_runs_against_git_revision(tmp_path):
    if _HEAD is None:
        pytest.skip("git is not installed or this is not a git checkout")
    run = _run("bench_psi.py", ["--rev", "HEAD", "--tiny"], tmp_path)
    assert run.returncode == 0, run.stderr
    report = json.loads((tmp_path / "BENCH_psi.json").read_text(encoding="utf-8"))
    (entry,) = report["runs"]
    assert entry["rev"] == "HEAD" and entry["commit"] == _HEAD
    assert [p["count"] for p in entry["grid"]["points"]]
