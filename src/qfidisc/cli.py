"""Command-line front end: parameter sweeps, discontinuity reports, GHZ
scans, and Monte Carlo experiments, emitted as CSV or JSON.

Exit codes: 0 success, 1 usage error, 2 domain error, 3 numerical
failure, 4 expectation-flag mismatch.  CSV output uses a header row,
comma separators, LF line endings, UTF-8, and 17-significant-digit
numbers (round-trip-exact doubles); an --output file holds the text
stdout would get, encoded as UTF-8.  Commands are deterministic given
their full flag set; no environment variables are read.  Each argv is
parsed once, by the parser of the command it names.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import discontinuity, estimation, models, quantum
from .exceptions import (
    DomainError,
    InsufficientReplicatesError,
    InvalidInputError,
    NotADiscontinuityError,
    NumericalError,
    UnsupportedModelError,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_NUMERICAL = 3
EXIT_EXPECTATION = 4


class _UsageError(Exception):
    pass


# Exit code and stderr label of every failure a command reports; an error
# takes the entry of the nearest class in its method resolution order.
_FAILURES = {
    _UsageError: (EXIT_USAGE, "usage error"),
    UnsupportedModelError: (EXIT_USAGE, "usage error"),
    InsufficientReplicatesError: (EXIT_USAGE, "usage error"),
    NotADiscontinuityError: (EXIT_DOMAIN, "not a discontinuity"),
    DomainError: (EXIT_DOMAIN, "domain error"),
    InvalidInputError: (EXIT_DOMAIN, "domain error"),
    NumericalError: (EXIT_NUMERICAL, "numerical failure"),
}


def _failure(err: Exception) -> tuple[int, str]:
    return next(_FAILURES[cls] for cls in type(err).__mro__ if cls in _FAILURES)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits with 2; we use 1
        raise _UsageError(message)


def _fmt(x) -> str:
    """A CSV cell: a float to 17 significant digits ("inf", "-inf" and "nan"
    where it is not finite), anything else as ``str`` gives it."""
    return format(x, ".17g") if isinstance(x, float) else str(x)


# For a non-empty flat dict of JSON scalars, this encoder's output between
# its braces, wrapped in "{\n  " and "\n}", is json.dumps(..., indent=2),
# byte for byte: one field a line, from json's C encoder, which indent
# turns off.
_FIELDS = json.JSONEncoder(separators=(",\n  ", ": "))


def _flat_json(fields: dict) -> str:
    """``json.dumps(fields, indent=2)`` for a non-empty flat dict of scalars."""
    return "{\n  " + _FIELDS.encode(fields)[1:-1] + "\n}"


# For a non-empty list of non-empty flat dicts of JSON scalars, this
# encoder's output with its brackets, and each row's braces, set on lines
# of their own is json.dumps(..., indent=2), byte for byte, all from the C
# encoder: json escapes every newline inside a string, so "},\n    {" is
# only ever the boundary between two rows.
_ROWS = json.JSONEncoder(separators=(",\n    ", ": "))


def _table_json(rows: list[dict]) -> str:
    """``json.dumps(rows, indent=2)`` for a non-empty list of non-empty flat
    dicts of scalars."""
    inner = _ROWS.encode(rows)[2:-2].replace("},\n    {", "\n  },\n  {\n    ")
    return "[\n  {\n    " + inner + "\n  }\n]"


def parse_grid(text: str) -> np.ndarray:
    """Parse 'start:stop:points[:log]' into a grid of 2 to 2**32 points that
    starts at start and ends at stop exactly; more points are refused
    before the grid is allocated (32 GiB of float64 at 2**32)."""
    parts = text.split(":")
    if len(parts) not in (3, 4) or (len(parts) == 4 and parts[3] != "log"):
        raise _UsageError(f"bad grid {text!r}; expected start:stop:points[:log]")
    try:
        start, stop, points = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise _UsageError(f"bad grid {text!r}: {exc}") from None
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise _UsageError(f"bad grid {text!r}: endpoints must be finite")
    if points < 2:
        raise _UsageError("grid needs at least 2 points")
    if points > 2**32:
        raise _UsageError(f"grid of {points} points exceeds 2**32")
    if len(parts) == 4:
        if start <= 0 or stop <= 0:
            raise _UsageError("log grid requires positive endpoints")
        grid = np.logspace(math.log10(start), math.log10(stop), points)
        # 10 ** log10(x) need not round back to x.
        grid[[0, -1]] = start, stop
        return grid
    return np.linspace(start, stop, points)


def _int_at_least(minimum: int):
    """argparse type of an int that must be at least ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    return parse


def _emit_table(rows: list[dict], fmt: str, output: str | None) -> None:
    """A non-empty table, its columns the keys of its rows in order: CSV
    under a header of them, or JSON, each row an object whose non-finite
    floats are text (``discontinuity._json_value``)."""
    if fmt == "csv":
        lines = [",".join(rows[0])]
        lines += [",".join(map(_fmt, row.values())) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        value = discontinuity._json_value
        text = _table_json([{k: value(x) for k, x in row.items()} for row in rows]) + "\n"
    _write(text, output)


def _write(text: str, output: str | None) -> None:
    """``text`` to stdout, or to the file ``output`` as UTF-8 bytes: a binary
    write of the encoded text is the text-mode write with ``newline="\n"``,
    which translates nothing, without the text layer."""
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "wb") as fh:
            fh.write(text.encode("utf-8"))


def _build_model(args) -> models.ParametricModel:
    return models.make_model(
        args.model, kappa=args.kappa, t=args.time, n_qubits=args.qubits
    )


def cmd_qfi_scan(args) -> int:
    grid = [float(theta) for theta in parse_grid(args.grid)]
    model = _build_model(args)
    # Rows outside the domain are marked; the others are read in one call,
    # and any error there ends the command.
    inside = [model.in_domain(theta) for theta in grid]
    points = [theta for theta, ok in zip(grid, inside) if ok]
    results = iter(quantum.qfi_and_metric(model, points) if points else [])
    rows = []
    for theta, ok in zip(grid, inside):
        if ok:
            q, g = next(results)
            four_g_minus_q = 4.0 * g - q
        else:
            q = g = four_g_minus_q = "error(DomainError)"
        rows.append(
            {"theta": theta, "qfi": q, "bures_metric": g, "four_g_minus_qfi": four_g_minus_q}
        )
    _emit_table(rows, args.format, args.output)
    return EXIT_OK if all(inside) else EXIT_DOMAIN


def cmd_discontinuity(args) -> int:
    model = _build_model(args)
    report = discontinuity.classify(model, args.theta_bar)
    _write(_flat_json(report.to_json()) + "\n", args.output)
    return EXIT_OK


def cmd_ghz_scan(args) -> int:
    try:
        qubit_list = [int(x) for x in args.qubits.split(",")]
    except ValueError:  # an empty entry too: int("") raises
        raise _UsageError(f"bad --qubits list {args.qubits!r}") from None
    grid = parse_grid(args.grid)
    rows = []
    for n in qubit_list:
        for t in grid:
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
    _emit_table(rows, args.format, args.output)
    return EXIT_OK


def _mc_json(report: estimation.EstimationReport) -> str:
    """``json.dumps(report.to_json(), indent=2) + "\n"``, byte for byte,
    without json's pure-Python encoder, which ``indent`` selects.  The
    fields before the estimates are laid out by ``_flat_json``.  The
    estimates, the last field, take one value per count, so each distinct
    one, told apart by its bits (0.0 == -0.0 as a float), is written once
    as its ``float.__repr__``: json's text for a finite float, and every
    estimate is finite.  They are laid out one per line by hand."""
    fields = report.to_json()
    bits = report.estimates.view(np.int64).tolist()
    distinct = dict(zip(bits, fields.pop("estimates")))
    text = {b: float.__repr__(x) for b, x in distinct.items()}
    estimates = ",\n    ".join(map(text.__getitem__, bits))
    head = _flat_json(fields)[:-2]  # without its closing "\n}"
    return f'{head},\n  "estimates": [\n    {estimates}\n  ]\n}}\n'


def cmd_mc(args) -> int:
    model = _build_model(args)
    report = estimation.run_cr_experiment(
        model,
        theta_true=args.theta_bar,
        n_samples=args.samples,
        n_replicates=args.replicates,
        seed=args.seed,
    )
    _write(_mc_json(report), args.output)
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
    scan.set_defaults(run=cmd_qfi_scan)

    disc = subs.add_parser("discontinuity", help="classify a rank-change point")
    _add_model_options(disc)
    disc.add_argument("--theta-bar", type=float, required=True)
    disc.set_defaults(run=cmd_discontinuity)

    ghz = subs.add_parser("ghz-scan", help="closed-form GHZ QFIs over a time grid")
    ghz.add_argument("--qubits", required=True, help="comma-separated qubit counts")
    ghz.add_argument("--grid", required=True, help="time grid start:stop:points[:log]")
    ghz.add_argument("--kappa", type=float, default=1.0)
    ghz.add_argument("--format", choices=("csv", "json"), default="csv")
    ghz.add_argument("--output", default=None)
    ghz.set_defaults(run=cmd_ghz_scan)

    mc = subs.add_parser("mc", help="Monte Carlo Cramér-Rao experiment")
    _add_model_options(mc)
    mc.add_argument("--theta-bar", type=float, required=True, help="true parameter value")
    mc.add_argument("--samples", type=_int_at_least(1), default=100)
    mc.add_argument("--replicates", type=int, default=1000)
    mc.add_argument("--seed", type=_int_at_least(0), default=0)
    mc.add_argument("--expect-violation", action="store_true")
    mc.set_defaults(run=cmd_mc)

    # Each command's own parser, by name, for ``main`` to parse with alone.
    parser.commands = subs.choices
    return parser


# parse_args leaves a parser as it was and returns a new namespace, so
# one parser and its command parsers, built on the first call, serve every
# later call.
_parser = functools.cache(build_parser)


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
    """Run one command (``argv``, default ``sys.argv[1:]``); returns its exit code.

    Where argv[0] names a command, that command's parser reads the rest of
    argv in one pass; the top-level parser would only hand the same rest to
    it, with the same options and errors.  The top-level parser reads an
    argv that names no command: an empty one, an unknown command or ``-h``.
    ``main`` may be called repeatedly in one process: the parsers are built
    on the first call and reused, and each call depends only on its argv.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        parser = _parser()
        if argv and argv[0] in parser.commands:
            parser, argv = parser.commands[argv[0]], argv[1:]
        args = parser.parse_args(_attach_grid_values(argv))
        return args.run(args)
    except tuple(_FAILURES) as err:
        code, label = _failure(err)
        sys.stderr.write(f"{label}: {err}\n")
        return code


def entrypoint() -> None:  # console-script shim
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
