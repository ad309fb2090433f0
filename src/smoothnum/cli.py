"""Command-line front end: exact counts, de Bruijn values, correction
factors, grid experiments, and Monte Carlo densities.

Artifacts are deterministic: CSV rows are sorted by (y, x), every number
is serialized with 17 significant digits, and repeated invocations with
the same arguments produce byte-identical output.  Each error class maps
to its own exit code (EXIT_CODES) with a one-line machine-parsable
message on stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys

from . import bias, gfactor, primes, smoothcount, specfun, zetazeros
from .debruijn import lambda_xy
from .errors import (
    DomainError,
    ParseError,
    PoleError,
    RangeError,
    ResourceError,
    SingularityError,
    SmoothnumError,
)
from .limits import env_limit

EXIT_CODES = {
    ParseError: 2,
    RangeError: 3,
    ResourceError: 4,
    DomainError: 5,
    PoleError: 6,
    SingularityError: 7,
}

# CSV column -> BiasPoint field, in column order
_CSV_FIELDS = {
    "x": "x",
    "y": "y",
    "u": "u",
    "beta": "beta",
    "psi_exact": "psi",
    "lambda": "lam",
    "g_beta": "g",
    "ratio_uncorrected": "ratio_uncorrected",
    "ratio_corrected": "ratio_corrected",
    "model_rhs": "model",
    "normalized_deviation": "deviation",
}
CSV_COLUMNS = list(_CSV_FIELDS)


def _finite_float(text: str) -> float:
    """argparse type of every float option: nan and inf are refused."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _fmt(value) -> str:
    return format(float(value), ".17g")


def _load_zeros(args, required: bool = False) -> zetazeros.ZeroList | None:
    """The --zeros table; None when none is given and none is required.
    --T and --zeros-height describe the table, so they need --zeros."""
    if args.zeros is None:
        if required:
            raise ParseError(f"command {args.command!r} needs --zeros PATH")
        if args.zeros_height is not None or getattr(args, "T", None) is not None:
            raise ParseError("--T and --zeros-height need --zeros PATH")
        return None
    return zetazeros.load_zeros(args.zeros, height=args.zeros_height)


def _cutoff(args, zeros: zetazeros.ZeroList | None) -> float | None:
    """The zero-sum cutoff --T, which defaults to the table height."""
    if zeros is None:
        return None
    return zeros.height if args.T is None else args.T


def _open_out(path: str):
    if path == "-":
        return sys.stdout, False
    return open(path, "w", encoding="ascii", newline=""), True


def _write_csv(path: str, rows: list[dict]) -> list[dict]:
    """Write the rows sorted by (y, x) and return them in that order."""
    rows = sorted(rows, key=lambda r: (r["y"], r["x"]))
    handle, owned = _open_out(path)
    try:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in CSV_COLUMNS])
    finally:
        if owned:
            handle.close()
    return rows


def _point_row(point: bias.BiasPoint) -> dict:
    return {column: float(getattr(point, name)) for column, name in _CSV_FIELDS.items()}


def _log_grid(y_min: float, y_max: float, n: int) -> list[float]:
    if n < 0:
        raise RangeError(f"need n_points >= 0, got {n}")
    if n > 0 and not 2.0 <= y_min <= y_max:
        raise RangeError(f"need 2 <= y_min <= y_max, got [{y_min:g}, {y_max:g}]")
    if n <= 1:
        return [y_min] * n
    ratio = (y_max / y_min) ** (1.0 / (n - 1))
    grid = [y_min * ratio**i for i in range(n)]
    grid[-1] = y_max  # rounding must not push the endpoint past the sieve
    return grid


def _emit_plot(prefix: str, rows: list[dict], columns, ylabel: str) -> None:
    """Write a two-column (y, column) .dat file per column plus a small
    matplotlib script."""
    script = [
        "#!/usr/bin/env python3",
        "import matplotlib",
        'matplotlib.use("Agg")',
        "import matplotlib.pyplot as plt",
        "import numpy as np",
        "",
        "fig, ax = plt.subplots(figsize=(7, 4.5))",
    ]
    for name in columns:
        dat = f"{prefix}_{name}.dat"
        with open(dat, "w", encoding="ascii") as handle:
            handle.writelines(f"{_fmt(r['y'])} {_fmt(r[name])}\n" for r in rows)
        script.append(f'data = np.loadtxt("{dat}")')
        script.append(f'ax.plot(data[:, 0], data[:, 1], marker="o", label="{name}")')
    script += [
        'ax.set_xscale("log")',
        'ax.set_xlabel("y")',
        f'ax.set_ylabel("{ylabel}")',
        "ax.legend()",
        "fig.tight_layout()",
        f'fig.savefig("{prefix}.png", dpi=150)',
        f'print("wrote {prefix}.png")',
    ]
    with open(f"{prefix}_plot.py", "w", encoding="ascii") as handle:
        handle.write("\n".join(script) + "\n")


# ----------------------------------------------------------------------
# subcommand handlers
# ----------------------------------------------------------------------

def _cmd_psi(args) -> int:
    # psi_exact needs primes up to y only when y < x, and refuses y past
    # its envelope before reading the table.
    bound = min(args.x, args.y, env_limit("SMOOTHNUM_MAX_PSI_Y"))
    pt = primes.sieve(max(2, int(bound)))
    print(smoothcount.psi_exact(args.x, args.y, pt))
    return 0


def _cmd_lambda(args) -> int:
    print(_fmt(lambda_xy(args.x, args.y, specfun.default_rho_table())))
    return 0


def _cmd_g(args) -> int:
    pt = primes.sieve(max(4, math.ceil(args.y)))
    if args.breakdown:
        breakdown = gfactor.g_value(args.s, args.y, pt)
        print(f"log_g1 = {_fmt(breakdown.log_g1.real)}")
        print(f"log_g2 = {_fmt(breakdown.log_g2.real)}")
        print(f"g_factored = {_fmt(breakdown.g_factored.real)}")
        print(f"g_direct = {_fmt(breakdown.g_direct.real)}")
    else:
        print(_fmt(gfactor.g_direct(args.s, args.y, pt).real))
    return 0


def _grid_rows(args, beta0_list) -> list[dict]:
    table = specfun.default_rho_table()
    zeros = _load_zeros(args)
    big_t = _cutoff(args, zeros)
    ys = _log_grid(args.y_min, args.y_max, args.n_points)
    # psi_exact refuses a y past its envelope before it reads the table,
    # and admits every y < SMOOTHNUM_MAX_PSI_Y + 1, so the sieve stops there.
    y_top = min(args.y_max, env_limit("SMOOTHNUM_MAX_PSI_Y") + 1)
    pt = primes.sieve(max(4, math.ceil(y_top))) if ys else primes.sieve(4)
    grid = [(beta0, y) for beta0 in beta0_list for y in ys]
    counts = smoothcount.psi_many([_grid_xy(y, beta0) for beta0, y in grid], pt)
    rows = []
    for (beta0, y), psi in zip(grid, counts):
        try:
            point = bias.compute_point(
                y, beta0, pt, table, zeros=zeros, big_t=big_t, psi=psi
            )
        except ResourceError:
            if args.skip_infeasible:
                continue
            raise
        rows.append(_point_row(point))
    return rows


def _grid_xy(y, beta0):
    """(x, y) of a grid point as compute_point hands it to psi_exact, where
    x(y) is a float; (0, y), which psi_many passes over, where
    compute_point raises first."""
    try:
        return math.exp(bias.x_of_y(y, beta0)), y
    except (SmoothnumError, OverflowError):
        return 0, y


def _cmd_verify_theorem1(args) -> int:
    try:
        beta0_list = [_finite_float(tok) for tok in args.beta0.split(",") if tok]
    except argparse.ArgumentTypeError:
        raise ParseError(f"--beta0 expects comma-separated floats, got {args.beta0!r}") from None
    if not beta0_list:
        raise ParseError("--beta0 expects at least one value")
    rows = _write_csv(args.out, _grid_rows(args, beta0_list))
    if args.plot:
        columns = ("ratio_uncorrected", "ratio_corrected")
        _emit_plot(args.plot, rows, columns, "Psi over prediction")
    return 0


def _cmd_bias_scan(args) -> int:
    rows = _write_csv(args.out, _grid_rows(args, [args.beta0]))
    if args.plot:
        columns = ["normalized_deviation"]
        if not all(math.isnan(r["model_rhs"]) for r in rows):
            columns.append("model_rhs")
        _emit_plot(args.plot, rows, columns, "normalized deviation")
    return 0


def _cmd_verify_psiover(args) -> int:
    table = specfun.default_rho_table()
    zeros = _load_zeros(args, required=True)
    pt = primes.sieve(max(4, math.ceil(args.y)))
    big_t = _cutoff(args, zeros)
    beta = specfun.saddle(args.x, args.y, table).beta
    rhs = bias.psiover_rhs(args.y, beta, big_t, zeros)
    g = gfactor.g_direct(beta, args.y, pt).real
    print(f"psiover_rhs = {_fmt(rhs)}")
    print(f"g_beta = {_fmt(g)}")
    print(f"abs_diff = {_fmt(abs(rhs - g))}")
    return 0


def _density_report(est: bias.DensityEstimate) -> None:
    print(
        f"density = {_fmt(est.density)}\n"
        f"stderr = {_fmt(est.stderr)}\n"
        f"n_samples = {est.n_samples}\n"
        f"seed = {est.seed}"
    )


def _cmd_li_density(args) -> int:
    zeros = _load_zeros(args, required=True)
    cfg = bias.BiasConfig(
        beta0=args.beta0, T=_cutoff(args, zeros), seed=args.seed, n_samples=args.n_samples
    )
    _density_report(bias.li_density(cfg, zeros))
    return 0


def _cmd_calibrate_pi_li(args) -> int:
    zeros = _load_zeros(args, required=True)
    big_t = zeros.leading_height(args.ordinates)
    cfg = bias.BiasConfig(beta0=0.75, T=big_t, seed=args.seed, n_samples=args.n_samples)
    _density_report(bias.li_density(cfg, zeros, calibration=True))
    return 0


# ----------------------------------------------------------------------
# option and subcommand tables, config precedence
# ----------------------------------------------------------------------

# option name -> add_argument kwargs; the flag is "--" + name
_OPTIONS = {
    "x": dict(type=_finite_float, required=True),
    "y": dict(type=_finite_float, required=True),
    "s": dict(type=_finite_float, required=True),
    "breakdown": dict(action="store_true", help="print all four fields"),
    "beta0": dict(type=_finite_float, required=True),
    "seed": dict(type=int, default=42, help="RNG seed (default: %(default)s)"),
    "n-samples": dict(
        type=int, default=1_000_000, help="Monte Carlo sample count (default: %(default)s)"
    ),
    "ordinates": dict(
        type=int, default=1000, help="number of leading ordinates to use (default: %(default)s)"
    ),
    # SUPPRESS, so that a subcommand does not reset a top-level --config
    "config": dict(
        default=argparse.SUPPRESS,
        help="JSON file of defaults (flags given on the command line win)",
    ),
    "zeros": dict(help="path to a zero-ordinate table"),
    "zeros-height": dict(
        type=_finite_float, help="claimed completeness height (default: last ordinate in file)"
    ),
    "T": dict(type=_finite_float, help="zero-sum cutoff height (default: table height)"),
    "y-min": dict(type=_finite_float, required=True),
    "y-max": dict(type=_finite_float, required=True),
    "n-points": dict(type=int, default=8, help="log-spaced grid size (default: %(default)s)"),
    "out": dict(default="-", help="CSV destination, '-' for stdout (default: %(default)s)"),
    "plot": dict(help="prefix for .dat series and a generated matplotlib script"),
    "skip-infeasible": dict(
        action="store_true",
        help="drop grid points whose exact count exceeds the resource envelope",
    ),
}
_ZEROS = ("zeros", "zeros-height", "T")
_GRID = ("y-min", "y-max", "n-points", "out", "plot", "skip-infeasible")
# verify-theorem1 takes a comma-separated list under the same flag
_BETA0_LIST = (
    "beta0",
    dict(default="0.7,0.8", help="comma-separated saddle exponents (default: %(default)s)"),
)

# subcommand -> (handler, help, options in --help order); an option is a
# name in _OPTIONS or a (name, kwargs) pair of its own
_COMMANDS = {
    "psi": (_cmd_psi, "exact smooth-integer count", ("x", "y", "config")),
    "lambda": (_cmd_lambda, "de Bruijn approximation Lambda(x,y)", ("x", "y", "config")),
    "g": (_cmd_g, "correction factor G(s,y)", ("s", "y", "breakdown", "config")),
    "verify-theorem1": (
        _cmd_verify_theorem1,
        "grid comparison of Psi against Lambda and Lambda*G",
        (_BETA0_LIST, "config", *_ZEROS, *_GRID),
    ),
    "verify-psiover": (
        _cmd_verify_psiover,
        "zero-sum prediction for Psi/Lambda vs G(beta,y)",
        ("x", "y", "config", *_ZEROS),
    ),
    "bias-scan": (
        _cmd_bias_scan,
        "normalized deviation along x(y)",
        ("beta0", "config", *_ZEROS, *_GRID),
    ),
    "li-density": (
        _cmd_li_density,
        "Monte Carlo logarithmic density",
        ("beta0", "seed", "n-samples", "config", *_ZEROS),
    ),
    "calibrate-pi-li": (
        _cmd_calibrate_pi_li,
        "pi-vs-Li density calibration of the sampler",
        ("seed", "n-samples", "ordinates", "config", "zeros", "zeros-height"),
    ),
}


def _options(command: str) -> dict:
    """The options of `command`: name -> add_argument kwargs, in --help order."""
    return dict(
        opt if isinstance(opt, tuple) else (opt, _OPTIONS[opt]) for opt in _COMMANDS[command][2]
    )


def _build_parser(exit_on_error: bool = True) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smoothnum",
        allow_abbrev=False,
        description="Smooth-number counts, de Bruijn approximations, "
        "zeta-zero corrections, and bias experiments.",
        exit_on_error=exit_on_error,
    )
    parser.add_argument("--config", **_OPTIONS["config"])
    subs = parser.add_subparsers(dest="command", required=True)
    for command, (_, text, _) in _COMMANDS.items():
        sub = subs.add_parser(
            command, help=text, allow_abbrev=False, exit_on_error=exit_on_error
        )
        for name, kwargs in _options(command).items():
            sub.add_argument("--" + name, **kwargs)
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """flags > config-file values > built-in defaults.

    Each config entry becomes the flag it names, placed right after the
    subcommand: argparse parses it as it would the flag, and a flag typed
    on the command line comes later and wins.  true stands for the bare
    flag and false for no flag, which is how store_true options are set.
    """
    args = _build_parser().parse_args(argv)
    if getattr(args, "config", None) is None:
        return args
    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            overrides = json.load(handle)
    except OSError as exc:
        raise ParseError(f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"config is not valid JSON: {exc}") from None
    if not isinstance(overrides, dict):
        raise ParseError("config must be a JSON object")
    declared = _options(args.command)
    tokens = []
    for key, value in overrides.items():
        name = key.replace("_", "-")
        if name not in declared:
            raise ParseError(f"config key {key!r} is not a recognized option")
        if not isinstance(value, (str, int, float)):
            raise ParseError(f"config key {key!r} needs a string, number or boolean")
        if value is not False:
            tokens.append(f"--{name}" if value is True else f"--{name}={value}")
    at = 0
    while argv[at] != args.command:  # skip the top-level --config and its path
        at += 2 if argv[at] == "--config" else 1
    argv = argv[: at + 1] + tokens + argv[at + 1 :]
    try:
        return _build_parser(exit_on_error=False).parse_args(argv)
    except argparse.ArgumentError as exc:
        raise ParseError(f"config: {exc}") from None


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = _parse_args(argv)
        return _COMMANDS[args.command][0](args)
    except SmoothnumError as exc:
        print(f"smoothnum: {type(exc).__name__}: {exc}", file=sys.stderr)
        for cls, code in EXIT_CODES.items():
            if isinstance(exc, cls):
                return code
        return 1
    except BrokenPipeError:
        return 0
    except MemoryError:
        print("smoothnum: ResourceError: out of memory", file=sys.stderr)
        return EXIT_CODES[ResourceError]
    except Exception as exc:  # pragma: no cover - catch-all contract
        print(f"smoothnum: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
