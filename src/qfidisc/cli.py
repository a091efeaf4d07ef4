"""Command-line front end: parameter sweeps, discontinuity reports, GHZ
scans, and Monte Carlo experiments, emitted as CSV or JSON.

Exit codes: 0 success, 1 usage error, 2 domain error, 3 numerical
failure, 4 expectation-flag mismatch.  CSV output uses a header row,
comma separators, LF line endings, UTF-8, and 17-significant-digit
numbers (round-trip-exact doubles).  Commands are deterministic given
their full flag set; no environment variables are read.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import discontinuity, estimation, models, quantum
from .exceptions import (
    DegenerateModelError,
    DivergenceError,
    DomainError,
    InsufficientReplicatesError,
    InvalidInputError,
    MultiBranchError,
    NotADiscontinuityError,
    NumericalError,
    StepSizeError,
    UnsupportedModelError,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_NUMERICAL = 3
EXIT_EXPECTATION = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2; we use 1
        raise _UsageError(message)


def _fmt(x) -> str:
    if isinstance(x, float):
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        if math.isnan(x):
            return "nan"
        return f"{x:.17g}"
    return str(x)


def _json_cell(x):
    if isinstance(x, float) and not math.isfinite(x):
        return _fmt(x)
    return x


def parse_grid(text: str) -> np.ndarray:
    """Parse 'start:stop:points[:log]' into a grid of at least 2 points."""
    parts = text.split(":")
    if len(parts) not in (3, 4) or (len(parts) == 4 and parts[3] != "log"):
        raise _UsageError(f"bad grid {text!r}; expected start:stop:points[:log]")
    try:
        start, stop, points = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise _UsageError(f"bad grid {text!r}: {exc}") from None
    if points < 2:
        raise _UsageError("grid needs at least 2 points")
    if len(parts) == 4:
        if start <= 0 or stop <= 0:
            raise _UsageError("log grid requires positive endpoints")
        return np.logspace(math.log10(start), math.log10(stop), points)
    return np.linspace(start, stop, points)


def _emit_table(rows: list[dict], columns: list[str], fmt: str, output: str | None) -> None:
    if fmt == "csv":
        lines = [",".join(columns)]
        lines += [",".join(_fmt(row[c]) for c in columns) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps([{c: _json_cell(r[c]) for c in columns} for r in rows], indent=2) + "\n"
    _write(text, output)


def _write(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


def _build_model(args) -> models.ParametricModel:
    return models.make_model(
        args.model, kappa=args.kappa, t=args.time, n_qubits=args.qubits
    )


def cmd_qfi_scan(args) -> int:
    grid = parse_grid(args.grid)
    model = _build_model(args)
    columns = ["theta", "qfi", "bures_metric", "four_g_minus_qfi"]
    rows = []
    failed = False
    for theta in grid:
        theta = float(theta)
        try:
            q = quantum.model_qfi(model, theta)
            g = quantum.bures_metric_fd(model, theta, eps=args.eps)
            rows.append(
                {"theta": theta, "qfi": q, "bures_metric": g, "four_g_minus_qfi": 4.0 * g - q}
            )
        except (DomainError, StepSizeError, DivergenceError, NumericalError) as err:
            failed = True
            marker = f"error({type(err).__name__})"
            rows.append(
                {"theta": theta, "qfi": marker, "bures_metric": marker, "four_g_minus_qfi": marker}
            )
    _emit_table(rows, columns, args.format, args.output)
    return EXIT_DOMAIN if failed else EXIT_OK


def cmd_discontinuity(args) -> int:
    model = _build_model(args)
    report = discontinuity.classify(model, args.theta_bar)
    _write(json.dumps(report.to_json(), indent=2) + "\n", args.output)
    return EXIT_OK


def cmd_ghz_scan(args) -> int:
    columns = [
        "N",
        "t",
        "qfi_continuous",
        "qfi_discontinuous",
        "qfi_continuous_per_t",
        "qfi_discontinuous_per_t",
    ]
    rows = []
    for n in args.qubit_list:
        for t in args.grid:
            t = float(t)
            qc = models.ghz_qfi_continuous(n, args.kappa, t)
            qd = models.ghz_qfi_discontinuous(n, args.kappa, t)
            rows.append(
                {
                    "N": n,
                    "t": t,
                    "qfi_continuous": qc,
                    "qfi_discontinuous": qd,
                    "qfi_continuous_per_t": qc / t if t > 0 else 0.0,
                    "qfi_discontinuous_per_t": qd / t if t > 0 else 0.0,
                }
            )
    _emit_table(rows, columns, args.format, args.output)
    return EXIT_OK


def cmd_mc(args) -> int:
    model = _build_model(args)
    report = estimation.run_cr_experiment(
        model,
        theta_true=args.theta_bar,
        n_samples=args.samples,
        n_replicates=args.replicates,
        seed=args.seed,
    )
    _write(json.dumps(report.to_json(), indent=2) + "\n", args.output)
    if args.expect_violation and not report.violated:
        sys.stderr.write("expected a Cramér-Rao violation but none was detected\n")
        return EXIT_EXPECTATION
    return EXIT_OK


def _add_model_options(sub) -> None:
    """The model selection and output file shared by the model subcommands."""
    sub.add_argument("--model", required=True, choices=models.MODEL_NAMES)
    sub.add_argument("--kappa", type=float, default=1.0)
    sub.add_argument("--time", type=float, default=1.0)
    sub.add_argument("--qubits", type=int, default=1)
    sub.add_argument("--output", default=None)


def build_parser() -> _Parser:
    parser = _Parser(prog="qfidisc", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    scan = subs.add_parser("qfi-scan", help="QFI and Bures metric over a parameter grid")
    _add_model_options(scan)
    scan.add_argument("--grid", required=True)
    scan.add_argument("--format", choices=("csv", "json"), default="csv")
    scan.add_argument("--eps", type=float, default=1e-4, help="fidelity finite-difference step")

    disc = subs.add_parser("discontinuity", help="classify a rank-change point")
    _add_model_options(disc)
    disc.add_argument("--theta-bar", type=float, required=True)

    ghz = subs.add_parser("ghz-scan", help="closed-form GHZ QFIs over a time grid")
    ghz.add_argument("--qubits", required=True, help="comma-separated qubit counts")
    ghz.add_argument("--grid", required=True, help="time grid start:stop:points[:log]")
    ghz.add_argument("--kappa", type=float, default=1.0)
    ghz.add_argument("--format", choices=("csv", "json"), default="csv")
    ghz.add_argument("--output", default=None)

    mc = subs.add_parser("mc", help="Monte Carlo Cramér-Rao experiment")
    _add_model_options(mc)
    mc.add_argument("--theta-bar", type=float, required=True, help="true parameter value")
    mc.add_argument("--samples", type=int, default=100)
    mc.add_argument("--replicates", type=int, default=1000)
    mc.add_argument("--seed", type=int, default=0)
    mc.add_argument("--expect-violation", action="store_true")

    return parser


def _attach_grid_values(argv: list[str]) -> list[str]:
    """Rewrite '--grid VALUE' as '--grid=VALUE'.

    argparse reads a separate value with a leading '-' that is not a plain
    number, such as '-0.4:0.4:2', as an option; attached, it stays a value.
    """
    out = []
    args = iter(argv)
    for arg in args:
        value = next(args, None) if arg == "--grid" else None
        out.append(arg if value is None else f"--grid={value}")
    return out


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(_attach_grid_values(sys.argv[1:] if argv is None else list(argv)))
        if args.command == "qfi-scan":
            return cmd_qfi_scan(args)
        if args.command == "discontinuity":
            return cmd_discontinuity(args)
        if args.command == "ghz-scan":
            try:
                args.qubit_list = [int(x) for x in args.qubits.split(",") if x]
            except ValueError:
                raise _UsageError(f"bad --qubits list {args.qubits!r}") from None
            if not args.qubit_list:
                raise _UsageError("empty --qubits list")
            args.grid = parse_grid(args.grid)
            return cmd_ghz_scan(args)
        if args.command == "mc":
            return cmd_mc(args)
        raise _UsageError(f"unknown command {args.command!r}")  # pragma: no cover
    except (_UsageError, UnsupportedModelError, InsufficientReplicatesError) as err:
        sys.stderr.write(f"usage error: {err}\n")
        return EXIT_USAGE
    except NotADiscontinuityError as err:
        sys.stderr.write(f"not a discontinuity: {err}\n")
        return EXIT_DOMAIN
    except (DomainError, InvalidInputError) as err:
        sys.stderr.write(f"domain error: {err}\n")
        return EXIT_DOMAIN
    except (
        NumericalError,
        StepSizeError,
        DivergenceError,
        MultiBranchError,
        DegenerateModelError,
    ) as err:
        sys.stderr.write(f"numerical failure: {err}\n")
        return EXIT_NUMERICAL


def entrypoint() -> None:  # console-script shim
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
