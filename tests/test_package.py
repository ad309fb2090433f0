"""Tests for the package surface: every exported name resolves."""

import importlib

import pytest

import smoothnum
from smoothnum import bias

LAYERS = ("specfun", "primes", "zetazeros", "debruijn", "smoothcount", "gfactor", "bias")


@pytest.mark.parametrize("module", ["smoothnum"] + [f"smoothnum.{m}" for m in LAYERS])
def test_exported_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def test_psiover_rhs_is_reexported_from_bias():
    assert smoothnum.psiover_rhs is bias.psiover_rhs
