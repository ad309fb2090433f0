"""What a result was measured on: code, machine, libraries, inputs, limits."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
from pathlib import Path

import numpy as np

from smoothnum import limits


def _git_commit(root: Path) -> str:
    """The checked-out commit, or "unknown" outside a git checkout."""
    if not (root / ".git").exists():
        return "unknown"  # do not report the commit of an enclosing repository
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
            check=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def _proc_field(path: str, key: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _blas() -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        return "unknown"


def collect(root: Path, table, zeros_path: Path, mem_mib: int) -> dict:
    return {
        "commit": _git_commit(root),
        "nproc": len(os.sched_getaffinity(0)),
        "mem_total": _proc_field("/proc/meminfo", "MemTotal"),
        "cpu_model": _proc_field("/proc/cpuinfo", "model name"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": {
            var: os.environ.get(var)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "zeros_sha256": hashlib.sha256(zeros_path.read_bytes()).hexdigest(),
        "rho_step": table.step,
        "rho_u_max": table.u_max,
        "limits": {name: limits.env_limit(name) for name in limits.DEFAULTS},
        "address_space_cap_mib": mem_mib,
    }
