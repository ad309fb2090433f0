"""Tests for the package surface: every exported name resolves, each
module imports only the layers below it, and only the package's own
errors escape it."""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import smoothnum
from smoothnum import bias, debruijn, gfactor, primes, specfun
from smoothnum.errors import SmoothnumError

LAYERS = ("zetazeros", "specfun", "primes", "debruijn", "smoothcount", "gfactor", "bias")
# Every module of the package, bottom up: each may import only those
# before it.
MODULE_ORDER = ("errors", "limits", "quadrature", *LAYERS, "cli")


@pytest.mark.parametrize("module", ["smoothnum"] + [f"smoothnum.{m}" for m in LAYERS])
def test_exported_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def test_psiover_rhs_is_reexported_from_bias():
    assert smoothnum.psiover_rhs is bias.psiover_rhs


def test_modules_import_only_lower_layers():
    src = Path(smoothnum.__file__).parent
    assert sorted(p.stem for p in src.glob("*.py")) == sorted(("__init__", *MODULE_ORDER))
    for rank, name in enumerate(MODULE_ORDER):
        for node in ast.walk(ast.parse((src / f"{name}.py").read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                # "from .m import x" names m; "from . import m, n" names m and n.
                targets = [node.module] if node.module else [a.name for a in node.names]
                for target in targets:
                    assert target in MODULE_ORDER[:rank], f"{name} imports {target}"


# Any float, and floats where u, y and s are usually met, so that both
# the edges of the float range and the working range are drawn.
_FLOATS = st.one_of(st.floats(), st.floats(-2.0, 1e3), st.floats(1.0, 1e10))
_PT = primes.sieve(100)


@settings(max_examples=300)
@given(a=_FLOATS, b=_FLOATS)
def test_only_smoothnum_errors_escape(rho_table, a, b):
    # Every admitted input ends in a value or a mapped SmoothnumError:
    # never a bare OverflowError, ZeroDivisionError or numpy
    # RuntimeWarning (an error under this suite's warning filter).  The
    # atom sum's envelope is lowered so that no draw counts 10^7 atoms.
    calls = (
        lambda: specfun.xi(a),
        lambda: specfun.xi(np.array([a, b])),
        lambda: specfun.saddle(a, b, rho_table),
        lambda: debruijn.lambda_ibp(a, b, rho_table),
        lambda: debruijn.lambda_atom_sum(a, b, rho_table),
        lambda: gfactor.g_direct(a, b, _PT),
        lambda: gfactor.g_value(a, b, _PT),
        lambda: primes.log_g2(_PT, a, b),
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("SMOOTHNUM_MAX_LAMBDA_T", "10000")
        for call in calls:
            try:
                call()
            except SmoothnumError:
                pass
