"""Command-line front end.

Subcommands: `test` a CSV series for stationarity, `simulate` the built-in
models, `bench` named benchmark cells against their published reference
rejection rates, and `surface` to export the distance-process matrix.

Exit codes: 0 on success, 2 on I/O or parse failures, 3 on invalid
configuration.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import sys
import time
import warnings
from dataclasses import replace

import numpy as np

from .harness import ExperimentConfig, run_experiment
from .models import (
    ModelSpec,
    PiecewiseAR1,
    ScaledNoise,
    StationaryAR,
    StationaryMA,
    TvAR1Sqrt,
    TvMA1Lag,
    label,
    simulate,
)
from .sieve import ESTIMATORS, distance_process, run_test

MIN_TEST_LENGTH = 32


class CliDataError(Exception):
    """Unreadable or unparseable input; maps to exit code 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)


# ---------------------------------------------------------------------------
# benchmark registry: published rejection rates at the 5% / 10% levels
# ---------------------------------------------------------------------------

# stationary AR(1), X_t = phi X_{t-1} + Z_t, keyed (T, N) -> {phi: (r5, r10)}
_AR_REFERENCE = {
    (64, 8): {-0.9: (0.021, 0.069), -0.5: (0.025, 0.060), 0.0: (0.035, 0.086), 0.5: (0.050, 0.099), 0.9: (0.044, 0.108)},
    (128, 16): {-0.9: (0.022, 0.063), -0.5: (0.031, 0.077), 0.0: (0.042, 0.081), 0.5: (0.034, 0.092), 0.9: (0.050, 0.099)},
    (128, 8): {-0.9: (0.020, 0.066), -0.5: (0.030, 0.076), 0.0: (0.038, 0.083), 0.5: (0.055, 0.102), 0.9: (0.038, 0.081)},
    (256, 32): {-0.9: (0.028, 0.078), -0.5: (0.040, 0.086), 0.0: (0.051, 0.106), 0.5: (0.053, 0.111), 0.9: (0.051, 0.111)},
    (256, 16): {-0.9: (0.016, 0.063), -0.5: (0.038, 0.089), 0.0: (0.044, 0.085), 0.5: (0.045, 0.080), 0.9: (0.033, 0.085)},
    (256, 8): {-0.9: (0.022, 0.068), -0.5: (0.036, 0.083), 0.0: (0.051, 0.098), 0.5: (0.050, 0.102), 0.9: (0.051, 0.105)},
    (512, 64): {-0.9: (0.020, 0.073), -0.5: (0.054, 0.103), 0.0: (0.052, 0.084), 0.5: (0.042, 0.090), 0.9: (0.039, 0.112)},
    (512, 32): {-0.9: (0.023, 0.070), -0.5: (0.046, 0.083), 0.0: (0.044, 0.090), 0.5: (0.049, 0.092), 0.9: (0.038, 0.080)},
    (512, 16): {-0.9: (0.029, 0.067), -0.5: (0.038, 0.079), 0.0: (0.056, 0.098), 0.5: (0.052, 0.099), 0.9: (0.048, 0.101)},
    (512, 8): {-0.9: (0.025, 0.070), -0.5: (0.050, 0.102), 0.0: (0.047, 0.101), 0.5: (0.051, 0.112), 0.9: (0.054, 0.105)},
}

# stationary MA(1), X_t = Z_t + theta Z_{t-1}
_MA_REFERENCE = {
    (64, 8): {-0.9: (0.024, 0.073), -0.5: (0.027, 0.060), 0.5: (0.045, 0.091), 0.9: (0.045, 0.096)},
    (128, 16): {-0.9: (0.033, 0.071), -0.5: (0.037, 0.085), 0.5: (0.043, 0.087), 0.9: (0.029, 0.076)},
    (128, 8): {-0.9: (0.028, 0.063), -0.5: (0.031, 0.071), 0.5: (0.050, 0.102), 0.9: (0.028, 0.085)},
    (256, 32): {-0.9: (0.047, 0.085), -0.5: (0.033, 0.081), 0.5: (0.040, 0.074), 0.9: (0.042, 0.080)},
    (256, 16): {-0.9: (0.044, 0.095), -0.5: (0.031, 0.080), 0.5: (0.043, 0.083), 0.9: (0.035, 0.076)},
    (256, 8): {-0.9: (0.029, 0.074), -0.5: (0.034, 0.081), 0.5: (0.059, 0.112), 0.9: (0.038, 0.076)},
    (512, 64): {-0.9: (0.038, 0.084), -0.5: (0.041, 0.087), 0.5: (0.052, 0.106), 0.9: (0.041, 0.089)},
    (512, 32): {-0.9: (0.047, 0.091), -0.5: (0.043, 0.073), 0.5: (0.047, 0.094), 0.9: (0.050, 0.100)},
    (512, 16): {-0.9: (0.036, 0.085), -0.5: (0.044, 0.082), 0.5: (0.050, 0.093), 0.9: (0.050, 0.087)},
    (512, 8): {-0.9: (0.051, 0.094), -0.5: (0.040, 0.078), 0.5: (0.070, 0.116), 0.9: (0.037, 0.080)},
}

# locally stationary alternatives, local-periodogram test
_ALT_REFERENCE = {
    (64, 8): {"alt1": (0.286, 0.444), "alt2": (0.186, 0.328), "alt3": (0.168, 0.270), "alt4q1": (0.046, 0.098), "alt4q6": (0.052, 0.104)},
    (128, 16): {"alt1": (0.686, 0.772), "alt2": (0.396, 0.546), "alt3": (0.308, 0.466), "alt4q1": (0.090, 0.154), "alt4q6": (0.072, 0.130)},
    (128, 8): {"alt1": (0.624, 0.758), "alt2": (0.382, 0.578), "alt3": (0.410, 0.548), "alt4q1": (0.082, 0.144), "alt4q6": (0.080, 0.136)},
    (256, 32): {"alt1": (0.958, 0.974), "alt2": (0.672, 0.814), "alt3": (0.742, 0.912), "alt4q1": (0.110, 0.186), "alt4q6": (0.102, 0.166)},
    (256, 16): {"alt1": (0.942, 0.978), "alt2": (0.698, 0.814), "alt3": (0.640, 0.806), "alt4q1": (0.118, 0.202), "alt4q6": (0.098, 0.166)},
    (256, 8): {"alt1": (0.944, 0.970), "alt2": (0.760, 0.868), "alt3": (0.672, 0.808), "alt4q1": (0.118, 0.210), "alt4q6": (0.086, 0.144)},
}

# alternatives, pre-periodogram test (window-free), keyed by T.  The alt3
# entries (0.022 / 0.036 / 0.080 at 5 %) match the odd-lag-blind reading of
# the half-lag indices, round(t +- k/2), not the package's floor reading, so
# `lsts bench --cell T*-pre-alt3` estimates sit well above them.
_PRE_REFERENCE = {
    64: {"alt1": (0.188, 0.340), "alt2": (0.080, 0.202), "alt3": (0.022, 0.056), "alt4q1": (0.024, 0.076), "alt4q6": (0.044, 0.102)},
    128: {"alt1": (0.552, 0.702), "alt2": (0.216, 0.392), "alt3": (0.036, 0.116), "alt4q1": (0.038, 0.086), "alt4q6": (0.052, 0.098)},
    256: {"alt1": (0.938, 0.968), "alt2": (0.580, 0.734), "alt3": (0.080, 0.176), "alt4q1": (0.062, 0.150), "alt4q6": (0.088, 0.132)},
}

# `lsts simulate --model` name -> model from the simulate flags; bench_cells builds here too
MODELS = {
    "ar1": lambda phi=0.0, sigma=1.0, **_: StationaryAR(coeffs=(phi,) if phi != 0.0 else (), sigma=sigma),
    "ma1": lambda theta=0.0, sigma=1.0, **_: StationaryMA(coeffs=(theta,), sigma=sigma),
    "alt1": lambda **_: ScaledNoise(),
    "alt2": lambda **_: TvAR1Sqrt(),
    "alt3": lambda **_: PiecewiseAR1(),
    "alt4": lambda q=1, **_: TvMA1Lag(q=q),
}


def _alt_model(alt: str) -> ModelSpec:
    """Model of a reference column: "alt4q6" is `alt4` at q=6."""
    name, _, q = alt.partition("q")
    return MODELS[name](q=int(q or 1))


def bench_cells() -> dict[str, tuple[ExperimentConfig, dict[float, float]]]:
    """Cell name -> (config at the cell's default runs, published {0.05: r5, 0.10: r10})."""
    cells = {}

    def add(name, model, T, N, estimator, r5, r10, null):
        cfg = ExperimentConfig(model=model, T=T, runs=500 if null else 200, N=N, estimator=estimator)
        cells[name] = cfg, {0.05: r5, 0.10: r10}

    for (T, N), by_phi in _AR_REFERENCE.items():
        for phi, (r5, r10) in by_phi.items():
            add(f"T{T}-N{N}-ar{phi:g}", MODELS["ar1"](phi=phi), T, N, "local", r5, r10, null=True)
    for (T, N), by_theta in _MA_REFERENCE.items():
        for theta, (r5, r10) in by_theta.items():
            add(f"T{T}-N{N}-ma{theta:g}", MODELS["ma1"](theta=theta), T, N, "local", r5, r10, null=True)
    for (T, N), by_alt in _ALT_REFERENCE.items():
        for alt, (r5, r10) in by_alt.items():
            add(f"T{T}-N{N}-{alt}", _alt_model(alt), T, N, "local", r5, r10, null=False)
    for T, by_alt in _PRE_REFERENCE.items():
        for alt, (r5, r10) in by_alt.items():
            add(f"T{T}-pre-{alt}", _alt_model(alt), T, None, "pre", r5, r10, null=False)
    return cells


# ---------------------------------------------------------------------------
# input handling
# ---------------------------------------------------------------------------


def _is_number(token: str) -> bool:
    try:
        value = float(token)
    except ValueError:
        return False
    return np.isfinite(value)


def read_series(path: str, column: str | None = None) -> np.ndarray:
    """Read one column of numbers from a CSV file ('-' for stdin).

    A header row is auto-detected (first token of the selected column not
    numeric).  `column` selects by 0-based index or by header name; default
    is the first column.
    """
    try:  # stdin's bytes where it has them: its text layer may smuggle bad bytes in as surrogates
        if path == "-":
            raw = getattr(sys.stdin, "buffer", None)
            text = sys.stdin.read() if raw is None else raw.read().decode("utf-8")
        else:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
    except UnicodeDecodeError as exc:  # a ValueError, which main would report as bad configuration
        raise CliDataError(f"input is not UTF-8 text: {exc}") from None
    text = text.removeprefix("\ufeff")
    rows = [row for row in csv.reader(io.StringIO(text)) if row and any(tok.strip() for tok in row)]
    if not rows:
        raise CliDataError("input contains no data rows")

    col_index = 0
    header_row = rows[0]
    if column is not None:
        try:
            col_index = int(column)
        except ValueError:
            names = [tok.strip() for tok in header_row]
            if column not in names:
                raise ValueError(f"--column {column!r} not found in header {names}")
            col_index = names.index(column)
    if not 0 <= col_index < len(header_row):
        raise ValueError(f"--column index {col_index} out of range 0..{len(header_row) - 1} (0-based)")

    start = 0
    if not _is_number(rows[0][col_index].strip()):
        start = 1  # header row
    values = []
    for lineno, row in enumerate(rows[start:], start=start + 1):
        token = row[col_index].strip() if col_index < len(row) else ""
        if not _is_number(token):
            raise CliDataError(f"non-numeric value {token!r} at data row {lineno}")
        values.append(float(token))
    if not values:
        raise CliDataError("no numeric data after the header")
    return np.asarray(values)


def _envelope(command: str, seed: int, config: dict, results: dict, seconds: float) -> dict:
    return {
        "command": command,
        "seed": seed,
        "config": config,
        "results": results,
        "timing": {"seconds": seconds},
    }


def _out_stream(args):
    if args.output:
        return open(args.output, "w", encoding="utf-8")
    return contextlib.nullcontext(sys.stdout)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _prepare_test_series(args) -> np.ndarray:
    x = read_series(args.input, args.column)
    if args.diff:
        x = np.diff(x)
    if x.shape[0] < MIN_TEST_LENGTH:
        after = " after differencing" if args.diff else ""
        raise ValueError(f"series too short: {x.shape[0]} observations{after}, need {MIN_TEST_LENGTH}")
    return x


def cmd_test(args) -> int:
    x = _prepare_test_series(args)
    if args.estimator == "local" and args.N is not None and args.N % 2 != 0:
        raise ValueError("--N must be even")
    start = time.perf_counter()
    result = run_test(
        x,
        N=args.N,
        B=args.B,
        alpha=args.alpha,
        p_min=args.p_min,
        p_max=args.p_max,
        seed=args.seed,
        estimator=args.estimator,
    )
    seconds = time.perf_counter() - start
    decision = "reject stationarity" if result.reject else "fail to reject stationarity"
    if args.format == "json":
        payload = _envelope(
            "test",
            args.seed,
            {
                "input": args.input,
                "diff": args.diff,
                "N": result.N,
                "M": result.M,
                "T": result.T,
                "B": result.B,
                "alpha": result.alpha,
                "estimator": result.estimator,
                "order": result.order,
            },
            {
                "statistic": result.statistic,
                "critical_value": result.critical_value,
                "p_value": result.p_value,
                "reject": result.reject,
                "decision": decision,
            },
            seconds,
        )
        print(json.dumps(payload, indent=2))
    else:
        print(f"statistic       {result.statistic:.6f}")
        print(f"critical value  {result.critical_value:.6f}  (alpha={result.alpha:g}, B={result.B})")
        print(f"p-value         {result.p_value:.4f}")
        print(f"decision        {decision}")
        grid = f"N={result.N} M={result.M}" if result.N is not None else "window-free"
        print(f"config          T={result.T} {grid} estimator={result.estimator} AR order={result.order}")
    return 0


def cmd_simulate(args) -> int:
    x = simulate(MODELS[args.model](**vars(args)), args.T, args.seed)
    with _out_stream(args) as stream:
        for value in x:
            stream.write(f"{value:.17g}\n")
    return 0


def cmd_surface(args) -> int:
    x = _prepare_test_series(args)
    process = distance_process(x, args.N)
    with _out_stream(args) as stream:
        process.to_csv(stream)
    return 0


def cmd_bench(args) -> int:
    cells = bench_cells()
    if args.list:
        print(f"{'cell':<22} {'model':<28} {'T':>5} {'N':>4} {'est':<5} {'ref 5%':>7} {'ref 10%':>8}")
        for name in sorted(cells):
            c, ref = cells[name]
            n = "-" if c.N is None else str(c.N)
            print(
                f"{name:<22} {label(c.model):<28} {c.T:>5} {n:>4} {c.estimator:<5} "
                f"{ref[0.05]:>7.3f} {ref[0.10]:>8.3f}"
            )
        return 0
    if args.cell is None:
        raise ValueError("--cell NAME or --list is required")
    if args.cell not in cells:
        raise ValueError(f"unknown cell {args.cell!r} (use --list to enumerate)")
    cfg, reference = cells[args.cell]
    cfg = replace(cfg, runs=args.runs if args.runs is not None else cfg.runs, B=args.B, seed=args.seed)
    report = run_experiment(cfg)
    if args.format == "json":
        d = report.to_dict()
        config = {"cell": args.cell, **{k: d[k] for k in ("model", "T", "N", "B", "runs", "estimator")}}
        results = {
            "reference": {f"{a:g}": v for a, v in reference.items()},
            "rejection_rates": d["rejection_rates"],
            "standard_errors": d["standard_errors"],
        }
        print(json.dumps(_envelope("bench", cfg.seed, config, results, d["wall_time"]), indent=2))
    else:
        print(f"cell {args.cell}: {label(cfg.model)} T={cfg.T} "
              f"N={'-' if cfg.N is None else cfg.N} estimator={cfg.estimator}")
        print(f"runs={cfg.runs} B={cfg.B} seed={cfg.seed}")
        print(f"{'alpha':>6} {'reference':>10} {'estimate':>9} {'se':>7} {'ci95':>18}")
        for a in cfg.alphas:
            r = report.rejection_rates[a]
            s = report.standard_errors[a]
            print(
                f"{a:>6.2f} {reference[a]:>10.3f} {r:>9.3f} {s:>7.3f} "
                f"[{max(0.0, r - 2 * s):>7.3f}, {min(1.0, r + 2 * s):>7.3f}]"
            )
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="lsts", description="Stationarity testing for locally stationary time series")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_test = sub.add_parser("test", help="bootstrap stationarity test on a CSV series")
    p_test.add_argument("input", help="CSV path, or - for stdin")
    p_test.add_argument("--column", default=None, help="column index or header name (default: first)")
    p_test.add_argument("--N", type=int, default=None, help="even window length (default: automatic)")
    p_test.add_argument("--B", type=int, default=200, help="bootstrap replicates")
    p_test.add_argument("--alpha", type=float, default=0.05, help="nominal level")
    p_test.add_argument("--estimator", choices=ESTIMATORS, default="local")
    p_test.add_argument("--p-min", dest="p_min", type=int, default=None, help="smallest AR order")
    p_test.add_argument("--p-max", dest="p_max", type=int, default=None, help="largest AR order")
    p_test.add_argument("--seed", type=int, default=0)
    p_test.add_argument("--diff", action="store_true", help="first-difference the series before testing")
    p_test.add_argument("--format", choices=["text", "json"], default="text")
    p_test.set_defaults(func=cmd_test)

    p_sim = sub.add_parser("simulate", help="simulate a built-in model, one value per line")
    p_sim.add_argument("--model", required=True, choices=list(MODELS))
    p_sim.add_argument("--T", type=int, required=True, help="series length")
    p_sim.add_argument("--phi", type=float, default=0.0, help="AR(1) coefficient (ar1)")
    p_sim.add_argument("--theta", type=float, default=0.0, help="MA(1) coefficient (ma1)")
    p_sim.add_argument("--sigma", type=float, default=1.0, help="innovation scale (ar1/ma1)")
    p_sim.add_argument("--q", type=int, default=1, help="lag of the oscillating MA coefficient (alt4)")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--output", "-o", default=None, help="write to file instead of stdout")
    p_sim.set_defaults(func=cmd_simulate)

    p_bench = sub.add_parser("bench", help="reproduce a published benchmark cell")
    p_bench.add_argument("--cell", default=None, help="cell name, e.g. T128-N16-ar0.5")
    p_bench.add_argument("--list", action="store_true", help="enumerate supported cells")
    p_bench.add_argument("--runs", type=int, default=None, help="override Monte Carlo runs")
    p_bench.add_argument("--B", type=int, default=200, help="bootstrap replicates")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--format", choices=["text", "json"], default="text")
    p_bench.set_defaults(func=cmd_bench)

    p_surf = sub.add_parser("surface", help="export the distance-process matrix as CSV")
    p_surf.add_argument("input", help="CSV path, or - for stdin")
    p_surf.add_argument("--column", default=None, help="column index or header name (default: first)")
    p_surf.add_argument("--N", type=int, default=None, help="even window length (default: automatic)")
    p_surf.add_argument("--diff", action="store_true", help="first-difference the series first")
    p_surf.add_argument("--output", "-o", default=None, help="write to file instead of stdout")
    p_surf.set_defaults(func=cmd_surface)

    return parser


def main(argv=None) -> int:
    default_format = warnings.formatwarning
    warnings.formatwarning = lambda message, *_: f"lsts: warning: {message}\n"
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except ValueError as exc:
        print(f"lsts: error: {exc}", file=sys.stderr)
        return 3
    except CliDataError as exc:
        print(f"lsts: parse error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # downstream consumer (e.g. head) closed the pipe; not an error
        devnull = open(os.devnull, "w")
        os.dup2(devnull.fileno(), sys.stdout.fileno())
        return 0
    except OSError as exc:
        print(f"lsts: i/o error: {exc}", file=sys.stderr)
        return 2
    finally:
        warnings.formatwarning = default_format


if __name__ == "__main__":
    sys.exit(main())
