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

EXIT_CODES = {
    ParseError: 2,
    RangeError: 3,
    ResourceError: 4,
    DomainError: 5,
    PoleError: 6,
    SingularityError: 7,
}

CSV_COLUMNS = [
    "x",
    "y",
    "u",
    "beta",
    "psi_exact",
    "lambda",
    "g_beta",
    "ratio_uncorrected",
    "ratio_corrected",
    "model_rhs",
    "normalized_deviation",
]

_DEFAULTS = {
    "rho_step": 1.0 / 512.0,
    "u_max": 64.0,
    "zeros_height": None,
    "T": None,
    "seed": 42,
    "n_samples": 1_000_000,
    "ordinates": 1000,
    "n_points": 8,
    "out": "-",
    "plot": None,
}


def _fmt(value) -> str:
    return format(float(value), ".17g")


def _rho_table(args) -> specfun.RhoTable:
    if args.rho_step == _DEFAULTS["rho_step"] and args.u_max == _DEFAULTS["u_max"]:
        return specfun.default_rho_table()
    return specfun.build_rho_table(step=args.rho_step, u_max=args.u_max)


def _load_zeros(args) -> tuple:
    """The --zeros table and the zero-sum cutoff --T, which defaults to
    the table height; (None, None) when no table is given."""
    if args.zeros is None:
        return None, None
    zeros = zetazeros.load_zeros(args.zeros, height=args.zeros_height)
    return zeros, args.T if args.T is not None else zeros.height


def _require_zeros(args) -> tuple:
    if args.zeros is None:
        raise ParseError(f"command {args.command!r} needs --zeros PATH")
    return _load_zeros(args)


def _open_out(path: str):
    if path == "-":
        return sys.stdout, False
    return open(path, "w", encoding="ascii", newline=""), True


def _write_csv(path: str, rows: list[dict]) -> None:
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


def _point_row(point: bias.BiasPoint) -> dict:
    return {
        "x": point.x,
        "y": point.y,
        "u": point.u,
        "beta": point.beta,
        "psi_exact": float(point.psi),
        "lambda": point.lam,
        "g_beta": point.g,
        "ratio_uncorrected": point.ratio_uncorrected,
        "ratio_corrected": point.ratio_corrected,
        "model_rhs": point.model,
        "normalized_deviation": point.deviation,
    }


def _log_grid(y_min: float, y_max: float, n: int) -> list[float]:
    if n < 0:
        raise RangeError(f"need n_points >= 0, got {n}")
    if n == 0:
        return []
    if n == 1:
        return [y_min]
    if not 2.0 <= y_min <= y_max:
        raise RangeError(f"need 2 <= y_min <= y_max, got [{y_min:g}, {y_max:g}]")
    ratio = (y_max / y_min) ** (1.0 / (n - 1))
    grid = [y_min * ratio**i for i in range(n)]
    grid[-1] = y_max  # rounding must not push the endpoint past the sieve
    return grid


def _emit_plot(prefix: str, series: dict[str, list[tuple]], xlabel: str, ylabel: str) -> None:
    """Write two-column .dat files plus a small matplotlib script."""
    names = []
    for name, pairs in series.items():
        dat = f"{prefix}_{name}.dat"
        with open(dat, "w", encoding="ascii") as handle:
            for xv, yv in pairs:
                handle.write(f"{_fmt(xv)} {_fmt(yv)}\n")
        names.append((name, dat))
    script = [
        "#!/usr/bin/env python3",
        "import matplotlib",
        'matplotlib.use("Agg")',
        "import matplotlib.pyplot as plt",
        "import numpy as np",
        "",
        "fig, ax = plt.subplots(figsize=(7, 4.5))",
    ]
    for name, dat in names:
        script.append(f'data = np.loadtxt("{dat}")')
        script.append(
            f'ax.plot(data[:, 0], data[:, 1], marker="o", label="{name}")'
        )
    script.extend(
        [
            'ax.set_xscale("log")',
            f'ax.set_xlabel("{xlabel}")',
            f'ax.set_ylabel("{ylabel}")',
            "ax.legend()",
            "fig.tight_layout()",
            f'fig.savefig("{prefix}.png", dpi=150)',
            f'print("wrote {prefix}.png")',
        ]
    )
    with open(f"{prefix}_plot.py", "w", encoding="ascii") as handle:
        handle.write("\n".join(script) + "\n")


# ----------------------------------------------------------------------
# subcommand handlers
# ----------------------------------------------------------------------

def _cmd_psi(args) -> int:
    pt = primes.sieve(max(2, int(args.y)))
    print(smoothcount.psi_exact(args.x, args.y, pt))
    return 0


def _cmd_lambda(args) -> int:
    table = _rho_table(args)
    print(_fmt(lambda_xy(args.x, args.y, table)))
    return 0


def _cmd_g(args) -> int:
    pt = primes.sieve(max(4, int(args.y)))
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
    table = _rho_table(args)
    zeros, big_t = _load_zeros(args)
    ys = _log_grid(args.y_min, args.y_max, args.n_points)
    pt = primes.sieve(max(4, int(args.y_max))) if ys else primes.sieve(4)
    rows = []
    for beta0 in beta0_list:
        for y in ys:
            try:
                point = bias.compute_point(
                    y, beta0, pt, table, zeros=zeros, big_t=big_t
                )
            except ResourceError:
                if args.skip_infeasible:
                    continue
                raise
            rows.append(_point_row(point))
    return rows


def _cmd_verify_theorem1(args) -> int:
    try:
        beta0_list = [float(tok) for tok in str(args.beta0).split(",") if tok]
    except ValueError:
        raise ParseError(f"--beta0 expects comma-separated floats, got {args.beta0!r}") from None
    if not beta0_list:
        raise ParseError("--beta0 expects at least one value")
    rows = _grid_rows(args, beta0_list)
    _write_csv(args.out, rows)
    if args.plot:
        ordered = sorted(rows, key=lambda r: (r["y"], r["x"]))
        _emit_plot(
            args.plot,
            {
                "ratio_uncorrected": [(r["y"], r["ratio_uncorrected"]) for r in ordered],
                "ratio_corrected": [(r["y"], r["ratio_corrected"]) for r in ordered],
            },
            xlabel="y",
            ylabel="Psi over prediction",
        )
    return 0


def _cmd_bias_scan(args) -> int:
    rows = _grid_rows(args, [args.beta0])
    _write_csv(args.out, rows)
    if args.plot:
        ordered = sorted(rows, key=lambda r: (r["y"], r["x"]))
        series = {
            "normalized_deviation": [
                (r["y"], r["normalized_deviation"]) for r in ordered
            ]
        }
        if not all(math.isnan(r["model_rhs"]) for r in ordered):
            series["model_rhs"] = [(r["y"], r["model_rhs"]) for r in ordered]
        _emit_plot(args.plot, series, xlabel="y", ylabel="normalized deviation")
    return 0


def _cmd_verify_psiover(args) -> int:
    table = _rho_table(args)
    zeros, big_t = _require_zeros(args)
    pt = primes.sieve(max(4, int(args.y)))
    rhs = gfactor.psiover_rhs(args.x, args.y, big_t, zeros, pt, table)
    sd = specfun.saddle(args.x, args.y, table)
    g = gfactor.g_direct(sd.beta, args.y, pt).real
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
    zeros, big_t = _require_zeros(args)
    cfg = bias.BiasConfig(
        beta0=args.beta0, T=big_t, seed=args.seed, n_samples=args.n_samples
    )
    _density_report(bias.li_density(cfg, zeros))
    return 0


def _cmd_calibrate_pi_li(args) -> int:
    zeros, _ = _require_zeros(args)
    if zeros.count < args.ordinates:
        raise RangeError(
            f"zero table holds {zeros.count} ordinates, need {args.ordinates}"
        )
    big_t = float(zeros.gammas[args.ordinates - 1]) * (1 + 1e-12)
    cfg = bias.BiasConfig(
        beta0=0.75, T=big_t, seed=args.seed, n_samples=args.n_samples
    )
    _density_report(bias.li_density(cfg, zeros, calibration=True))
    return 0


_HANDLERS = {
    "psi": _cmd_psi,
    "lambda": _cmd_lambda,
    "g": _cmd_g,
    "verify-theorem1": _cmd_verify_theorem1,
    "verify-psiover": _cmd_verify_psiover,
    "bias-scan": _cmd_bias_scan,
    "li-density": _cmd_li_density,
    "calibrate-pi-li": _cmd_calibrate_pi_li,
}


# ----------------------------------------------------------------------
# parser construction / config precedence
# ----------------------------------------------------------------------

def _add_common(sub, *, xy=False, zeros=False, grid=False, rho=False):
    if xy:
        sub.add_argument("--x", type=float, required=True)
        sub.add_argument("--y", type=float, required=True)
    sub.add_argument(
        "--config",
        default=None,
        help="JSON file of defaults (flags given on the command line win)",
    )
    if rho:
        sub.add_argument(
            "--rho-step",
            type=float,
            default=_DEFAULTS["rho_step"],
            help="grid step of the Dickman table (default: %(default)s)",
        )
        sub.add_argument(
            "--u-max",
            type=float,
            default=_DEFAULTS["u_max"],
            help="upper end of the Dickman table (default: %(default)s)",
        )
    if zeros:
        sub.add_argument("--zeros", default=None, help="path to a zero-ordinate table")
        sub.add_argument(
            "--zeros-height",
            type=float,
            default=_DEFAULTS["zeros_height"],
            help="claimed completeness height (default: last ordinate in file)",
        )
        sub.add_argument(
            "--T",
            type=float,
            default=_DEFAULTS["T"],
            help="zero-sum cutoff height (default: table height)",
        )
    if grid:
        sub.add_argument("--y-min", type=float, required=True)
        sub.add_argument("--y-max", type=float, required=True)
        sub.add_argument(
            "--n-points",
            type=int,
            default=_DEFAULTS["n_points"],
            help="log-spaced grid size (default: %(default)s)",
        )
        sub.add_argument(
            "--out",
            default=_DEFAULTS["out"],
            help="CSV destination, '-' for stdout (default: %(default)s)",
        )
        sub.add_argument(
            "--plot",
            default=_DEFAULTS["plot"],
            help="prefix for .dat series and a generated matplotlib script",
        )
        sub.add_argument(
            "--skip-infeasible",
            action="store_true",
            help="drop grid points whose exact count exceeds the resource envelope",
        )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smoothnum",
        allow_abbrev=False,
        description="Smooth-number counts, de Bruijn approximations, "
        "zeta-zero corrections, and bias experiments.",
    )
    parser.add_argument(
        "--config",
        default=None,
        help="JSON file of defaults (flags given on the command line win)",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("psi", help="exact smooth-integer count")
    _add_common(sub, xy=True)

    sub = subs.add_parser("lambda", help="de Bruijn approximation Lambda(x,y)")
    _add_common(sub, xy=True, rho=True)

    sub = subs.add_parser("g", help="correction factor G(s,y)")
    sub.add_argument("--s", type=float, required=True)
    sub.add_argument("--y", type=float, required=True)
    sub.add_argument("--breakdown", action="store_true", help="print all four fields")
    _add_common(sub)

    sub = subs.add_parser(
        "verify-theorem1",
        help="grid comparison of Psi against Lambda and Lambda*G",
    )
    sub.add_argument(
        "--beta0",
        default="0.7,0.8",
        help="comma-separated saddle exponents (default: %(default)s)",
    )
    _add_common(sub, zeros=True, grid=True, rho=True)

    sub = subs.add_parser(
        "verify-psiover", help="zero-sum prediction for Psi/Lambda vs G(beta,y)"
    )
    _add_common(sub, xy=True, zeros=True, rho=True)

    sub = subs.add_parser("bias-scan", help="normalized deviation along x(y)")
    sub.add_argument("--beta0", type=float, required=True)
    _add_common(sub, zeros=True, grid=True, rho=True)

    sub = subs.add_parser("li-density", help="Monte Carlo logarithmic density")
    sub.add_argument("--beta0", type=float, required=True)
    sub.add_argument("--seed", type=int, default=_DEFAULTS["seed"], help="RNG seed (default: %(default)s)")
    sub.add_argument(
        "--n-samples",
        type=int,
        default=_DEFAULTS["n_samples"],
        help="Monte Carlo sample count (default: %(default)s)",
    )
    _add_common(sub, zeros=True)

    sub = subs.add_parser(
        "calibrate-pi-li", help="pi-vs-Li density calibration of the sampler"
    )
    sub.add_argument("--seed", type=int, default=_DEFAULTS["seed"], help="RNG seed (default: %(default)s)")
    sub.add_argument(
        "--n-samples",
        type=int,
        default=_DEFAULTS["n_samples"],
        help="Monte Carlo sample count (default: %(default)s)",
    )
    sub.add_argument(
        "--ordinates",
        type=int,
        default=_DEFAULTS["ordinates"],
        help="number of leading ordinates to use (default: %(default)s)",
    )
    _add_common(sub, zeros=True)

    return parser


def _apply_config(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """flags > config-file values > built-in defaults.

    A flag counts as "given" when its literal token appears on the
    command line (abbreviations are disabled); every other config key
    simply replaces the parsed default.
    """
    probe = argparse.ArgumentParser(add_help=False, allow_abbrev=False)
    probe.add_argument("--config", default=None)
    pre, _ = probe.parse_known_args(argv)
    args = parser.parse_args(argv)
    if pre.config is None:
        return args
    try:
        with open(pre.config, "r", encoding="utf-8") as handle:
            overrides = json.load(handle)
    except OSError as exc:
        raise ParseError(f"cannot read config: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"config is not valid JSON: {exc}") from None
    if not isinstance(overrides, dict):
        raise ParseError("config must be a JSON object")
    known = set(vars(args))
    for key, value in overrides.items():
        dest = key.replace("-", "_")
        if dest not in known:
            raise ParseError(f"config key {key!r} is not a recognized option")
        flag = "--" + dest.replace("_", "-")
        if any(tok == flag or tok.startswith(flag + "=") for tok in argv):
            continue
        setattr(args, dest, value)
    return args


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        parser = _build_parser()
        args = _apply_config(parser, argv)
        return _HANDLERS[args.command](args)
    except SmoothnumError as exc:
        print(f"smoothnum: {type(exc).__name__}: {exc}", file=sys.stderr)
        for cls, code in EXIT_CODES.items():
            if isinstance(exc, cls):
                return code
        return 1
    except BrokenPipeError:
        return 0
    except Exception as exc:  # pragma: no cover - catch-all contract
        print(f"smoothnum: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
