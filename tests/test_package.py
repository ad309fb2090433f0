"""Tests for the package surface: every exported name resolves, the
names and command lines that perfbench reads and README's limit table
match the code, each module imports only the layers below it, every
parameter is read, and only the package's own errors escape it."""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import smoothnum
from smoothnum import bias, cli, debruijn, gfactor, limits, primes, smoothcount, specfun, zetazeros
from smoothnum.errors import DomainError, SmoothnumError

ROOT = Path(__file__).resolve().parent.parent

LAYERS = ("zetazeros", "specfun", "primes", "debruijn", "smoothcount", "gfactor", "bias")
# Every module of the package, bottom up: each may import only those
# before it.
MODULE_ORDER = ("errors", "limits", "quadrature", *LAYERS, "cli")


@pytest.mark.parametrize("module", ["smoothnum"] + [f"smoothnum.{m}" for m in LAYERS])
def test_exported_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def test_top_level_binds_only_layer_modules():
    names = [n for n in vars(smoothnum) if not n.startswith("_")]
    assert all(type(getattr(smoothnum, n)) is type(smoothnum) for n in names), names


def test_names_perfbench_reads_resolve():
    # perfbench imports layer modules with "from smoothnum import m" and
    # reads m.name off them; a name that goes away breaks the benchmark.
    reads = set()
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = {
            alias.asname or alias.name: alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "smoothnum" and not node.level
            for alias in node.names
        }
        reads |= {
            (modules[node.value.id], node.attr)
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
        }
    assert ("bias", "psi_exact") in reads  # the parse finds what perfbench reads
    missing = [
        f"{module}.{name}"
        for module, name in sorted(reads)
        if not hasattr(importlib.import_module(f"smoothnum.{module}"), name)
    ]
    assert missing == []


def test_perfbench_command_lines_parse():
    # perfbench runs these command lines through cli.main; an option that
    # goes away, or changes its type, breaks the benchmark.
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    argvs = [workloads.TheoremGrid(str(ROOT)).argv, *workloads.McDensity(0, str(ROOT)).argvs]
    assert [argv[0] for argv in argvs] == ["verify-theorem1", "li-density", "calibrate-pi-li"]
    for argv in argvs:
        assert cli._parse_args(argv).command == argv[0]


def test_readme_limit_table_matches_defaults():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Resource envelopes\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(SMOOTHNUM_\w+)` \| 10\^(\d+) \|", section, flags=re.M)
    assert len(rows) == len(re.findall(r"^\| `", section, flags=re.M))
    assert {name: 10 ** int(k) for name, k in rows} == limits.DEFAULTS


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


# (module, function, parameter) that may go unread.  saddle's table
# leaves once perfbench's check stops passing it (ROADMAP item 6).
UNREAD_ALLOWED = {("specfun", "saddle", "table")}


def test_every_parameter_is_read():
    src = Path(smoothnum.__file__).parent
    unread = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            a = node.args
            args = (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
            params = [arg.arg for arg in args if arg]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {
                n.id
                for stmt in body
                for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            name = getattr(node, "name", "<lambda>")
            unread |= {(path.stem, name, p) for p in params if p not in read}
    assert unread == UNREAD_ALLOWED


# Any float, and floats where u, y and s are usually met, so that both
# the edges of the float range and the working range are drawn.
_FLOATS = st.one_of(st.floats(), st.floats(-2.0, 1e3), st.floats(1.0, 1e10))
_PT = primes.sieve(100)
_ZEROS = zetazeros.ZeroList(gammas=np.array([14.134725141734694, 21.022039638771555]), height=25.0)


@settings(max_examples=300)
@given(a=_FLOATS, b=_FLOATS)
def test_only_smoothnum_errors_escape(rho_table, a, b):
    # Every admitted input ends in a value or a mapped SmoothnumError:
    # never a bare OverflowError, ZeroDivisionError or numpy
    # RuntimeWarning (an error under this suite's warning filter).  The
    # envelopes are lowered so that no draw sums 10^7 atoms, sieves to
    # 10^9 or counts to 10^12.
    calls = (
        lambda: specfun.xi(a),
        lambda: specfun.xi(np.array([a, b])),
        lambda: specfun.saddle(a, b, rho_table),
        lambda: debruijn.lambda_ibp(a, b, rho_table),
        lambda: debruijn.lambda_atom_sum(a, b, rho_table),
        lambda: gfactor.g_direct(a, b, _PT),
        lambda: gfactor.g_value(a, b, _PT),
        lambda: primes.log_g2(_PT, a, b),
        lambda: primes.sieve(a),
        lambda: smoothcount.psi_exact(a, b, _PT),
        lambda: smoothcount.psi_many([(a, b)], _PT),
        lambda: smoothcount.alpha_summatory(a, b, _PT),
        lambda: zetazeros.zero_sum(_ZEROS, a, b, 25.0),
        lambda: zetazeros.zero_sum(_ZEROS, 100.0, 0.75, a),
        lambda: _ZEROS.leading_height(a),
        lambda: bias.model_rhs(a, b, 25.0, _ZEROS),
        lambda: bias.psiover_rhs(a, b, 25.0, _ZEROS),
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(debruijn, "_ATOM_T_MAX", 10_000)
        mp.setenv("SMOOTHNUM_MAX_SIEVE", "10000")
        mp.setenv("SMOOTHNUM_MAX_PSI_X", "1000000")
        mp.setattr(smoothcount, "_ALPHA_X_MAX", 10_000)
        for call in calls:
            try:
                call()
            except SmoothnumError:
                pass


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_arguments_are_domain_errors(bad):
    calls = (
        lambda: primes.sieve(bad),
        lambda: smoothcount.psi_exact(bad, 5, _PT),
        lambda: smoothcount.psi_exact(100, bad, _PT),
        lambda: smoothcount.alpha_summatory(bad, 5, _PT),
        lambda: smoothcount.alpha_values(100, bad, _PT),
        lambda: zetazeros.zero_sum(_ZEROS, bad, 0.75, 25.0),
        lambda: zetazeros.zero_sum(_ZEROS, 100.0, bad, 25.0),
        lambda: bias.model_rhs(bad, 0.75, 25.0, _ZEROS),
        lambda: bias.psiover_rhs(bad, 0.75, 25.0, _ZEROS),
        lambda: bias.x_of_y(bad, 0.75),
        lambda: bias.x_of_y(-1.0, 0.75),
        lambda: _ZEROS.leading_height(bad),
        lambda: _ZEROS.leading_height(1.5),
    )
    for call in calls:
        with pytest.raises(DomainError):
            call()
    # psi_many passes over the point and leaves its error to psi_exact.
    assert smoothcount.psi_many([(bad, 5), (100, 5)], _PT) == [None, 34]
