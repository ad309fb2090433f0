"""End-to-end tests of the command-line front end.

Everything runs in-process through main(argv) except subprocess smoke
tests of the installed console script and of `python -m smoothnum.cli`,
and one command run in a child under a timeout, so that a hang fails
instead of stalling the suite.
"""

import csv
import json
import math
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import oracles
from conftest import ZEROS_PATH
from smoothnum import bias, debruijn, gfactor, primes, specfun
from smoothnum.cli import CSV_COLUMNS, EXIT_CODES, main
from smoothnum.errors import (
    DomainError,
    ParseError,
    PoleError,
    RangeError,
    ResourceError,
    SingularityError,
)

ZEROS = str(ZEROS_PATH)


def _cells(path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == CSV_COLUMNS
    return rows[1:]


# ----------------------------------------------------------------------
# single-value subcommands
# ----------------------------------------------------------------------

def test_psi_prints_exact_count(capsys):
    assert main(["psi", "--x", "10", "--y", "3"]) == 0
    assert capsys.readouterr().out == "7\n"
    assert main(["psi", "--x", "100", "--y", "2"]) == 0
    assert capsys.readouterr().out == "7\n"


@pytest.mark.parametrize("x, y, want, limit", [
    ("10", "9e8", "10", 10),  # y far past the envelope, but y >= x
    ("2e6", "3e6", "2000000", 10**5),  # both past SMOOTHNUM_MAX_PSI_Y
])
def test_psi_with_y_at_least_x_is_x_without_a_large_sieve(capsys, monkeypatch, x, y, want, limit):
    # Psi(x, y) = x for y >= x: no prime table is read, so none past
    # min(x, y, SMOOTHNUM_MAX_PSI_Y) is built.
    limits = []
    sieve = primes.sieve

    def recorded(n):
        limits.append(n)
        return sieve(n)

    monkeypatch.setattr(primes, "sieve", recorded)
    assert main(["psi", "--x", x, "--y", y]) == 0
    assert capsys.readouterr().out == want + "\n"
    assert limits == [limit]


@pytest.mark.parametrize("argv", [
    ["g", "--s", "0.8", "--y", "100.5"],
    ["verify-psiover", "--x", "1e6", "--y", "100.5", "--zeros", ZEROS],
    ["verify-theorem1", "--y-min", "50", "--y-max", "60.5", "--n-points", "2", "--beta0", "0.7"],
])
def test_fractional_y_is_inside_the_sieved_range(capsys, argv):
    # y = 100.5 needs the primes up to 100 only; the sieve must still
    # reach y itself, or the y <= limit check refuses the command.
    assert main(argv) == 0
    assert capsys.readouterr().err == ""


def test_lambda_matches_library(capsys):
    assert main(["lambda", "--x", "1000", "--y", "100"]) == 0
    out = capsys.readouterr().out
    expected = debruijn.lambda_xy(1000.0, 100.0, specfun.default_rho_table())
    assert out == format(expected, ".17g") + "\n"


def test_lambda_far_x_is_quiet(capsys):
    # x/y = 1e90: the powers of t in the sawtooth tail's endpoint terms
    # must underflow to 0, not overflow with a numpy warning on stderr.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["lambda", "--x", "1e100", "--y", "1e10"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert 0.0 < float(captured.out) < 1e100


def test_g_breakdown(capsys):
    assert main(["g", "--s", "0.8", "--y", "1000", "--breakdown"]) == 0
    lines = capsys.readouterr().out.splitlines()
    fields = dict(line.split(" = ") for line in lines)
    assert list(fields) == ["log_g1", "log_g2", "g_factored", "g_direct"]
    factored = float(fields["g_factored"])
    direct = float(fields["g_direct"])
    assert abs(factored / direct - 1.0) <= 1e-8
    assert main(["g", "--s", "0.8", "--y", "1000"]) == 0
    assert capsys.readouterr().out == fields["g_direct"] + "\n"


def test_g_breakdown_near_zero_is_domain_error(capsys):
    # log_g2's k-series would need more passes than its cap at Re s =
    # 10^-4, so it refuses before summing.  g without --breakdown does not
    # sum that series (test_g_near_zero_s_is_finite).  At 1e-17, 2^-s
    # rounds to 1 and the tail bound never falls; there log_g2's
    # DomainError comes before G's overflow, which g alone reports.
    for s, shown in (("1e-4", "0.0001"), ("1e-17", "1e-17")):
        assert main(["g", "--s", s, "--y", "100", "--breakdown"]) == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "smoothnum: DomainError: log_g2 needs more than 100000 terms"
            f" at Re s = {shown}, y = 100\n"
        )
    assert main(["g", "--s", "1e-17", "--y", "100"]) == 3


def test_g_near_zero_s_is_finite(capsys):
    # Each Euler factor's log is taken in closed form, so s close to 0
    # (p^-s close to 1) needs no series to converge.
    assert main(["g", "--s", "1e-4", "--y", "100"]) == 0
    assert math.isfinite(float(capsys.readouterr().out))


@pytest.mark.parametrize("s", ["1e-7", "1e-9"])
def test_g_close_to_zero_matches_euler_product(capsys, s):
    # 1 - p^-s is taken from expm1, so no digit is lost as p^-s -> 1.
    # The log1p form printed 9.593e149 at 1e-7 (1.6% high) and inf with
    # a RuntimeWarning at 1e-9.
    assert main(["g", "--s", s, "--y", "100"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    want = oracles.g_euler_product(float(s), 100.0)
    assert float(captured.out) == pytest.approx(want, rel=1e-10)


def test_g_overflow_is_range_error(capsys):
    # log zeta(s, 100) grows like 25 log(1/s): G leaves float range.  At
    # y = 10^5 it already does at s = 0.05; with --breakdown both G fields
    # map the overflow alike, found by g_direct before the k-series are
    # summed, which take about 15 s at 1e-3.
    for argv in (
        ["--s", "1e-300", "--y", "100"],
        ["--s", "0.05", "--y", "100000"],
        ["--s", "0.05", "--y", "100000", "--breakdown"],
        ["--s", "1e-3", "--y", "100000"],
        ["--s", "1e-3", "--y", "100000", "--breakdown"],
    ):
        assert main(["g", *argv]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("smoothnum: RangeError:")
        assert captured.err.count("\n") == 1
        if argv[1] == "1e-3":
            assert captured.err == "smoothnum: RangeError: G(0.001, 100000) overflows a float\n"


def test_verify_psiover_reports_small_gap(capsys):
    x = format(math.exp(36.0), ".17g")  # saddle exponent 0.75 at y = 1e4
    rc = main(["verify-psiover", "--x", x, "--y", "10000", "--zeros", ZEROS])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    fields = dict(line.split(" = ") for line in lines)
    assert list(fields) == ["psiover_rhs", "g_beta", "abs_diff"]
    assert float(fields["abs_diff"]) <= 0.05
    assert float(fields["abs_diff"]) == pytest.approx(
        abs(float(fields["psiover_rhs"]) - float(fields["g_beta"])), abs=1e-17
    )


def test_verify_psiover_builds_no_rho_table(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("verify-psiover built a rho table")

    monkeypatch.setattr(specfun, "default_rho_table", refuse)
    monkeypatch.setattr(specfun, "build_rho_table", refuse)
    rc = main(["verify-psiover", "--x", "1e12", "--y", "1e4", "--zeros", ZEROS])
    assert rc == 0
    assert capsys.readouterr().out == (
        "psiover_rhs = 1.0135294339373335\n"
        "g_beta = 1.0117240807505277\n"
        "abs_diff = 0.0018053531868058581\n"
    )


def test_verify_psiover_at_u_one_is_domain_error(capsys):
    # x = y puts the saddle at beta = 1, outside the zero-sum model's
    # (1/2, 1).
    rc = main(["verify-psiover", "--x", "1000", "--y", "1000", "--zeros", ZEROS])
    assert rc == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("smoothnum: DomainError: beta0 must lie in (1/2, 1)")


# ----------------------------------------------------------------------
# error taxonomy -> exit codes
# ----------------------------------------------------------------------

def test_exit_code_table():
    assert EXIT_CODES[ParseError] == 2
    assert EXIT_CODES[RangeError] == 3
    assert EXIT_CODES[ResourceError] == 4
    assert EXIT_CODES[DomainError] == 5
    assert EXIT_CODES[PoleError] == 6
    assert EXIT_CODES[SingularityError] == 7


def test_resource_error_exit_and_message(capsys):
    rc = main(["psi", "--x", "2e12", "--y", "31"])
    assert rc == 4
    err = capsys.readouterr().err
    assert err.startswith("smoothnum: ResourceError:")
    assert err.count("\n") == 1
    # A grid that fails at its third point, after two counted from one
    # shared fold, prints no rows and the failing point's error alone.
    rc = main(["verify-theorem1", "--y-min", "500", "--y-max", "2000",
               "--n-points", "3", "--beta0", "0.7"])
    assert rc == 4
    assert capsys.readouterr() == ("", (
        "smoothnum: ResourceError: psi_exact envelope is x <= 1e+12, y <= 100000;"
        " got (5121280483256, 2000)\n"
    ))


def test_domain_error_exit(capsys):
    assert main(["g", "--s", "-0.2", "--y", "1000"]) == 5
    assert capsys.readouterr().err.startswith("smoothnum: DomainError:")


def test_range_error_exit(capsys):
    rc = main(
        ["li-density", "--beta0", "0.75", "--n-samples", "1000",
         "--zeros", ZEROS, "--T", "20000"]
    )
    assert rc == 3
    assert capsys.readouterr().err.startswith("smoothnum: RangeError:")


def test_parse_error_when_zeros_missing(capsys):
    rc = main(["verify-psiover", "--x", "1e6", "--y", "100"])
    assert rc == 2
    assert "--zeros" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--T", "1000"], ["--zeros-height", "1000"]])
@pytest.mark.parametrize("command", ["verify-theorem1", "bias-scan"])
def test_zero_table_flags_without_zeros_are_parse_errors(capsys, command, flags):
    # Without a table the model column would be NaN and the flag ignored.
    rc = main([command, "--beta0", "0.75", "--y-min", "500", "--y-max", "600",
               "--n-points", "1", *flags])
    assert rc == 2
    assert capsys.readouterr().err.startswith("smoothnum: ParseError:")


def test_empty_zero_table_with_height_is_parse_error(tmp_path, capsys):
    # About 9.4 ordinates lie below 50, so an empty table is not complete
    # there; the count check applies to an empty table too.
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    rc = main(["li-density", "--beta0", "0.75", "--n-samples", "1000",
               "--zeros", str(empty), "--zeros-height", "50"])
    assert rc == 2
    assert "ordinates below 50" in capsys.readouterr().err


def test_parse_error_is_line_numbered(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("14.134725141734695\nbanana\n16.0\n")
    rc = main(["li-density", "--beta0", "0.75", "--n-samples", "1000",
               "--zeros", str(bad)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("smoothnum: ParseError:")
    assert "line 2" in err
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    rc = main(["li-density", "--beta0", "0.75", "--n-samples", "1000",
               "--zeros", str(empty)])
    assert rc == 2


@pytest.mark.parametrize("height", [[], ["--zeros-height", "100"]])
@pytest.mark.parametrize("command", [
    ["li-density", "--beta0", "0.75", "--n-samples", "1000"],
    ["verify-psiover", "--x", "1e8", "--y", "1000"],
])
def test_unreadable_zero_table_is_parse_error(tmp_path, capsys, command, height):
    for path in (tmp_path / "missing.txt", tmp_path):
        rc = main(command + ["--zeros", str(path)] + height)
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("smoothnum: ParseError: cannot read zero table:")


# ----------------------------------------------------------------------
# grid commands, CSV contract
# ----------------------------------------------------------------------

def test_verify_theorem1_empty_grid_header_only(capsys):
    rc = main(["verify-theorem1", "--y-min", "500", "--y-max", "2000",
               "--n-points", "0", "--beta0", "0.7"])
    assert rc == 0
    assert capsys.readouterr().out == ",".join(CSV_COLUMNS) + "\n"


def test_verify_theorem1_rows_sorted_and_roundtrip(tmp_path):
    out = tmp_path / "t1.csv"
    rc = main(["verify-theorem1", "--y-min", "500", "--y-max", "500",
               "--n-points", "1", "--beta0", "0.7,0.8", "--out", str(out)])
    assert rc == 0
    rows = _cells(out)
    assert len(rows) == 2
    xs = [float(r[0]) for r in rows]
    assert xs == sorted(xs)  # same y, so sorted by x
    assert [round(float(r[3]), 6) for r in rows] == [0.8, 0.7]
    for row in rows:
        for cell in row:
            # 17 significant digits round-trip bit-exactly both ways
            assert format(float(cell), ".17g") == cell
        assert float(row[4]) == int(float(row[4]))  # psi_exact is a count
        assert math.isnan(float(row[9]))  # no zero table -> model is nan


def test_grid_endpoint_stays_inside_sieve(tmp_path):
    # An irrational grid ratio must not push the last y past the sieve
    # built from y_max (500 * (sqrt 2)^2 rounds to 1000 + 1 ulp).
    out = tmp_path / "edge.csv"
    rc = main(["verify-theorem1", "--y-min", "500", "--y-max", "1000",
               "--n-points", "3", "--beta0", "0.8", "--out", str(out)])
    assert rc == 0
    rows = _cells(out)
    assert len(rows) == 3
    assert float(rows[-1][1]) == 1000.0


def test_verify_theorem1_infeasible_point(tmp_path, capsys):
    args = ["verify-theorem1", "--y-min", "500", "--y-max", "2000",
            "--n-points", "2", "--beta0", "0.7", "--out", str(tmp_path / "a.csv")]
    assert main(args) == 4  # x(2000) ~ 5e12 exceeds the psi envelope
    capsys.readouterr()
    out = tmp_path / "b.csv"
    rc = main(args[:-1] + [str(out), "--skip-infeasible"])
    assert rc == 0
    rows = _cells(out)
    assert len(rows) == 1
    assert float(rows[0][1]) == 500.0


@pytest.mark.parametrize("y_max", ["1e9", "1e20"])
def test_grid_sieves_no_further_than_the_psi_envelope(tmp_path, capsys, monkeypatch, y_max):
    # A grid past the exact-count envelope sieves only up to it, so a y_max
    # past the sieve's own limit still prints its feasible rows.
    limits = []
    sieve = primes.sieve

    def recorded(limit):
        limits.append(limit)
        return sieve(limit)

    monkeypatch.setattr(primes, "sieve", recorded)
    args = ["bias-scan", "--beta0", "0.75", "--y-min", "500", "--y-max", y_max,
            "--n-points", "2"]
    out = tmp_path / "scan.csv"
    assert main(args + ["--skip-infeasible", "--out", str(out)]) == 0
    assert limits == [10**5 + 1]
    [row] = _cells(out)
    assert float(row[1]) == 500.0 and float(row[4]) == 563697
    # Without --skip-infeasible the point past the envelope is refused by
    # psi_exact, or before it when x(y) overflows a float.
    assert main(args) == 4
    err = capsys.readouterr().err
    assert err.startswith("smoothnum: ResourceError: ")
    assert "sieve limit" not in err
    # Points past the envelope in y raise psi_exact's own refusal.
    argv = ["verify-theorem1", "--beta0", "0.99", "--y-min", "2e5", "--y-max", "2e5",
            "--n-points", "1"]
    assert main(argv) == 4
    assert capsys.readouterr().err == (
        "smoothnum: ResourceError: psi_exact envelope is x <= 1e+12, y <= 100000; "
        "got (434638, 200000)\n"
    )


def test_bias_scan_byte_identical_and_exact(tmp_path, zeros10k):
    args = ["bias-scan", "--beta0", "0.75", "--y-min", "1000", "--y-max", "2000",
            "--n-points", "2", "--zeros", ZEROS, "--T", "1000"]
    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    rows = _cells(out_a)
    assert [float(r[1]) for r in rows] == [1000.0, 2000.0]
    for row in rows:
        for cell in row:
            assert format(float(cell), ".17g") == cell
    # The y=1000 row reproduces the library values bit-exactly.
    point = bias.compute_point(
        1000.0, 0.75, primes.sieve(2000), specfun.default_rho_table(),
        zeros=zeros10k, big_t=1000.0,
    )
    row = dict(zip(CSV_COLUMNS, (float(c) for c in rows[0])))
    assert row["x"] == point.x
    assert row["psi_exact"] == float(point.psi)
    assert row["lambda"] == point.lam
    assert row["g_beta"] == point.g
    assert row["normalized_deviation"] == point.deviation
    assert row["model_rhs"] == point.model


def test_bias_scan_plot_emission(tmp_path):
    prefix = tmp_path / "scan"
    rc = main(["bias-scan", "--beta0", "0.75", "--y-min", "1000",
               "--y-max", "1414", "--n-points", "2", "--zeros", ZEROS,
               "--T", "1000", "--out", str(tmp_path / "scan.csv"),
               "--plot", str(prefix)])
    assert rc == 0
    dev_dat = tmp_path / "scan_normalized_deviation.dat"
    model_dat = tmp_path / "scan_model_rhs.dat"
    script = tmp_path / "scan_plot.py"
    for path in (dev_dat, model_dat, script):
        assert path.exists()
    pairs = [line.split() for line in dev_dat.read_text().splitlines()]
    assert len(pairs) == 2
    assert all(math.isfinite(float(tok)) for pair in pairs for tok in pair)
    compile(script.read_text(), str(script), "exec")


def test_bias_scan_at_beta0_one_half_leaves_the_model_out(tmp_path):
    # The model's 1/(2 beta0 - 1) has no value at 1/2, and the deviation's
    # scale y^(beta0 - 1/2) log y is derived for beta0 > 1/2: both are nan.
    out = tmp_path / "half.csv"
    rc = main(["bias-scan", "--beta0", "0.5", "--y-min", "100", "--y-max", "200",
               "--n-points", "2", "--zeros", ZEROS, "--T", "100", "--out", str(out)])
    assert rc == 0
    rows = [dict(zip(CSV_COLUMNS, row)) for row in _cells(out)]
    assert len(rows) == 2
    assert all(row["model_rhs"] == "nan" for row in rows)
    assert all(row["normalized_deviation"] == "nan" for row in rows)
    assert all(math.isfinite(float(row["ratio_corrected"])) for row in rows)


@pytest.mark.parametrize("argv", [
    ["verify-theorem1", "--beta0", "1.0", "--y-min", "100", "--y-max", "200",
     "--n-points", "2"],
    ["bias-scan", "--beta0", "-1", "--y-min", "100", "--y-max", "200",
     "--n-points", "2"],
])
def test_grid_beta0_off_the_curve_is_domain_error(capsys, argv):
    assert main(argv) == EXIT_CODES[DomainError]
    assert capsys.readouterr().err.startswith("smoothnum: DomainError:")


def test_grid_point_with_x_past_float_range_is_infeasible(capsys):
    # log x(10^5) at beta0 = 0.1 is about 3.5e4, so x overflows a float.
    argv = ["bias-scan", "--beta0", "0.1", "--y-min", "1e5", "--y-max", "1e5",
            "--n-points", "1"]
    assert main(argv) == EXIT_CODES[ResourceError]
    assert capsys.readouterr().err.startswith("smoothnum: ResourceError:")
    assert main(argv + ["--skip-infeasible"]) == 0
    assert capsys.readouterr().out == ",".join(CSV_COLUMNS) + "\n"


# ----------------------------------------------------------------------
# Monte Carlo commands
# ----------------------------------------------------------------------

def test_li_density_cli_deterministic(capsys):
    args = ["li-density", "--beta0", "0.75", "--seed", "42",
            "--n-samples", "1000", "--zeros", ZEROS, "--T", "240"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first
    fields = dict(line.split(" = ") for line in first.splitlines())
    assert list(fields) == ["density", "stderr", "n_samples", "seed"]
    assert 0.0 <= float(fields["density"]) <= 1.0
    assert fields["n_samples"] == "1000"
    assert fields["seed"] == "42"


def test_subcommand_options_are_not_abbreviated(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["li-density", "--beta0", "0.75", "--zeros", ZEROS, "--T", "240",
              "--n-samp", "1000", "--se", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --n-samp 1000 --se 5" in capsys.readouterr().err


def test_li_density_out_of_memory_exit(monkeypatch, capsys):
    def no_memory(rows, width):
        raise MemoryError

    monkeypatch.setattr(bias, "_block_buffer", no_memory)
    rc = main(["li-density", "--beta0", "0.75", "--n-samples", "1000",
               "--zeros", ZEROS, "--T", "240"])
    assert rc == 4
    assert capsys.readouterr().err.startswith("smoothnum: ResourceError:")


def test_calibrate_cli(capsys):
    rc = main(["calibrate-pi-li", "--ordinates", "100", "--n-samples", "1000",
               "--seed", "16", "--zeros", ZEROS])
    assert rc == 0
    fields = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines())
    assert float(fields["density"]) == 1.0
    rc = main(["calibrate-pi-li", "--ordinates", "20000", "--zeros", ZEROS])
    assert rc == 3


def test_calibrate_is_li_density_at_beta0_one(capsys):
    # T = 1419.5 keeps the first 1000 ordinates, as --ordinates 1000 does.
    common = ["--seed", "16", "--n-samples", "20000", "--zeros", ZEROS]
    assert main(["li-density", "--beta0", "1", "--T", "1419.5"] + common) == 0
    li = capsys.readouterr().out
    assert main(["calibrate-pi-li", "--ordinates", "1000"] + common) == 0
    assert capsys.readouterr().out == li
    assert li.startswith("density = ")


# ----------------------------------------------------------------------
# config file precedence
# ----------------------------------------------------------------------

def test_config_precedence(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 7, "n-samples": 2000}))
    base = ["li-density", "--beta0", "0.75", "--zeros", ZEROS, "--T", "240",
            "--config", str(cfg)]
    assert main(base) == 0
    fields = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines())
    assert fields["seed"] == "7"  # config beats built-in default
    assert fields["n_samples"] == "2000"
    assert main(base + ["--seed", "3"]) == 0
    fields = dict(line.split(" = ") for line in capsys.readouterr().out.splitlines())
    assert fields["seed"] == "3"  # explicit flag beats config
    assert fields["n_samples"] == "2000"


def test_config_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus": 1}))
    rc = main(["psi", "--x", "10", "--y", "3", "--config", str(cfg)])
    assert rc == 2
    assert "not a recognized option" in capsys.readouterr().err


def test_config_invalid_json(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{")
    rc = main(["psi", "--x", "10", "--y", "3", "--config", str(cfg)])
    assert rc == 2
    assert "not valid JSON" in capsys.readouterr().err



@pytest.mark.parametrize("command, config", [
    (["li-density", "--beta0", "0.75", "--zeros", ZEROS, "--T", "240"], {"seed": "x"}),
    (["li-density", "--beta0", "0.75", "--zeros", ZEROS, "--T", "240"], {"n-samples": 2000.5}),
    (["psi", "--x", "10", "--y", "3"], {"command": "lambda"}),
    (["psi", "--x", "10", "--y", "3"], {"x": None}),
    (["verify-theorem1", "--y-min", "500", "--y-max", "500", "--n-points", "0"],
     {"skip-infeasible": "yes"}),
    (["psi", "--x", "10", "--y", "3"], {"y": math.nan}),
])
def test_config_value_is_parsed_like_its_flag(tmp_path, capsys, command, config):
    # A config entry goes through the option's own argparse type, and only
    # options of the chosen subcommand are keys; a bad entry is exit 2.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    assert main(command + ["--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("smoothnum: ParseError:")
    assert err.count("\n") == 1


@pytest.mark.parametrize("top_level", [False, True])
def test_config_boolean_sets_store_true_flag(tmp_path, capsys, top_level):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"skip-infeasible": True}))
    out = tmp_path / "grid.csv"
    args = ["verify-theorem1", "--y-min", "500", "--y-max", "2000", "--n-points", "2",
            "--beta0", "0.7", "--out", str(out)]
    flag = ["--config", str(cfg)]
    assert main(flag + args if top_level else args + flag) == 0
    assert [float(r[1]) for r in _cells(out)] == [500.0]  # y = 2000 skipped
    cfg.write_text(json.dumps({"skip-infeasible": False}))
    assert main(flag + args if top_level else args + flag) == 4


def test_calibrate_has_no_cutoff_flag(capsys):
    # T comes from --ordinates; a --T flag would be silently ignored.
    with pytest.raises(SystemExit) as exc:
        main(["calibrate-pi-li", "--ordinates", "10", "--n-samples", "1000",
              "--zeros", ZEROS, "--T", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --T 5" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["psi", "--x", "nan", "--y", "100"],
    ["psi", "--x", "inf", "--y", "100"],
    ["lambda", "--x", "inf", "--y", "100"],
    ["bias-scan", "--beta0", "inf", "--y-min", "500", "--y-max", "500", "--n-points", "1"],
    ["g", "--s", "0.8", "--y", "inf"],
    ["verify-theorem1", "--y-min", "500", "--y-max", "inf", "--n-points", "1"],
    ["verify-theorem1", "--beta0", "0.7,nan", "--y-min", "500", "--y-max", "500",
     "--n-points", "1"],
    ["li-density", "--beta0", "0.75", "--n-samples", "1000", "--zeros", ZEROS, "--T", "nan"],
    ["verify-psiover", "--x", "1e6", "--y", "100", "--zeros", ZEROS, "--T", "nan"],
    ["calibrate-pi-li", "--n-samples", "1000", "--zeros", ZEROS, "--zeros-height", "nan"],
])
def test_non_finite_float_options_are_parse_errors(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code == 2
    err = capsys.readouterr().err
    assert "nan'" in err or "inf'" in err


@pytest.mark.parametrize("argv", [
    ["calibrate-pi-li", "--ordinates", "0", "--n-samples", "1000", "--zeros", ZEROS],
    ["calibrate-pi-li", "--ordinates", "-3", "--n-samples", "1000", "--zeros", ZEROS],
    ["verify-theorem1", "--y-min", "1", "--y-max", "1", "--n-points", "1"],
    ["verify-theorem1", "--y-min", "50", "--y-max", "40", "--n-points", "1"],
    ["verify-psiover", "--x", "1e6", "--y", "100", "--zeros", ZEROS, "--T", "-5"],
    ["li-density", "--beta0", "0.75", "--n-samples", "1000", "--zeros", ZEROS, "--T", "-5"],
    ["li-density", "--beta0", "0.75", "--n-samples", "1000", "--zeros", ZEROS, "--seed", "-1"],
    ["li-density", "--beta0", "0.75", "--n-samples", "1000", "--zeros", ZEROS,
     "--seed", "18446744073709551616"],
])
def test_out_of_range_counts_are_range_errors(capsys, argv):
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("smoothnum: RangeError:")
    if argv[0] == "verify-theorem1":
        assert "need 2 <= y_min <= y_max" in err



def test_huge_s_is_range_error_without_hanging():
    # In a child under a timeout, so that a hang fails the test instead
    # of stalling it.  s = 1e308 lies outside zeta's strip, which
    # f_transform checks before big_i runs; big_i refuses Re s > 709 on
    # its own (test_specfun).
    src = Path(specfun.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "smoothnum.cli", "g", "--s", "1e308", "--y", "100"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)), timeout=10,
    )
    assert proc.returncode == 3
    assert proc.stderr.startswith("smoothnum: RangeError:")
    assert proc.stderr.count("\n") == 1


def test_dickman_table_flags_are_gone(tmp_path, capsys):
    # The table has one fixed grid (step 1/512 on [0, 64]).
    for flag in (["--u-max", "64"], ["--rho-step", "0.001953125"]):
        with pytest.raises(SystemExit) as exc:
            main(["lambda", "--x", "1e6", "--y", "100", *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"u-max": 64}))
    assert main(["lambda", "--x", "1e6", "--y", "100", "--config", str(cfg)]) == 2
    assert "not a recognized option" in capsys.readouterr().err


# ----------------------------------------------------------------------
# installed entry point
# ----------------------------------------------------------------------

def test_console_script_smoke():
    exe = shutil.which("smoothnum")
    assert exe is not None, "console script 'smoothnum' is not installed"
    proc = subprocess.run(
        [exe, "psi", "--x", "10", "--y", "3"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert proc.stdout == "7\n"


def test_module_entry_point_smoke():
    # `python -m smoothnum.cli` runs the same front end with no installed script.
    src = Path(specfun.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "smoothnum.cli", "psi", "--x", "100", "--y", "5"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=str(src)), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "34\n"
    assert proc.stderr == ""
