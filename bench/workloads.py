"""The benchmark's four workloads: the ops each runs, the gate each op must
pass, and the probes that pin down today's known defects.

A workload is an endless sequence of *cycles*.  One cycle runs the same
list of op kinds.  Every continuous parameter (theta, kappa, t) of every
kind is stratified over blocks of ``BLOCK`` cycles: within a block, the
kind draws it once from each of ``BLOCK`` equal strata, in a seeded random
order.  The mix of kinds, the share of near-critical points and each
kind's spread of cost are therefore the same for every seed; only the
drawn values move.  (Stratifying within a kind, not across the kinds of
one cycle, matters for ``op_ms.p90``: it falls inside the costliest kind's
own spread.  Simulated for ghz-oracle, the quartile spread of p90 over
seeds fell from about 3% to under 1%.)

An op is one ``cli.main(argv)`` call writing to a work file, which the gate
then parses, or one public call where no CLI command exists.  Every gate
compares against a reference that does not depend on the seed.

The parameter boxes keep today's gates passing on every draw; the inputs
that fail today are the probes (see ``probes``), run in every run and
reported with their error class.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from qfidisc import classical, cli, discontinuity, models
from qfidisc.exceptions import (
    DegenerateModelError,
    DivergenceError,
    DomainError,
    InvalidInputError,
    MultiBranchError,
    NumericalError,
    StepSizeError,
)

import references as ref

# Monte Carlo size per mc op.  The CLI seed is held fixed: at a regular
# point an efficient estimator reports a (false) violation for about one
# seed in a hundred, so a seeded MC seed would make that gate flaky.
MC_SAMPLES = 100
MC_REPLICATES = 200
MC_SEED = 1


class OpError(Exception):
    """An op raised, exited non-zero or missed its reference.

    ``error_class`` names the program's exception where one is known, or
    ``GateMiss`` for a wrong number.
    """

    def __init__(self, error_class: str, detail: str):
        super().__init__(f"{error_class}: {detail}")
        self.error_class = error_class
        self.detail = detail


@dataclass(frozen=True)
class Op:
    kind: str
    call: Callable[[], object]
    gate: Callable[[object], None]


@dataclass(frozen=True)
class Probe:
    """An input that fails today because of a known defect.

    Its gate is the one a correct program passes.  The harness reports
    the probe as a known defect while it fails with ``defect`` (and, where
    ``check`` is given, in the check whose message starts with it), as
    fixed once it passes, and as a failed op if it fails any other way.
    """

    op: Op
    defect: str
    fix: str
    check: str = ""


def _close(value: float, reference: float, rel: float, what: str) -> None:
    if not abs(value - reference) <= rel * abs(reference):
        raise OpError(
            "GateMiss", f"{what}: {value!r} vs reference {reference!r} (rel tol {rel:g})"
        )


# What cli.main writes to stderr before the message, for the exceptions
# it turns into an exit code.
_CLI_STDERR = (
    ((DomainError, InvalidInputError), "domain error:"),
    ((NumericalError, StepSizeError, DivergenceError, MultiBranchError, DegenerateModelError),
     "numerical failure:"),
)


def _raised_by(fn: Callable[[], object], stderr: str, rc: int) -> str:
    """Class name of the exception behind a CLI failure (diagnosis only).

    ``fn`` is the equivalent public call.  Its exception names the failure
    only if the CLI's stderr carries the prefix the CLI prints for that
    class; otherwise the failure stays ``exit<rc>``.
    """
    try:
        fn()
    except Exception as err:  # the class is the answer
        for classes, prefix in _CLI_STDERR:
            if isinstance(err, classes) and stderr.startswith(prefix):
                return type(err).__name__
    return f"exit{rc}"


def _cli_op(kind: str, argv: list[str], out: str, check: Callable[[str, int, str], None], explain=None) -> Op:
    """Op that runs ``cli.main(argv)`` into ``out``; ``check(out, rc, stderr)`` gates it.

    ``out`` is removed first, so no op reads an earlier op's output.  On a
    non-zero exit with no finer check, ``explain`` (the equivalent public
    call) names the exception the CLI turned into an exit code.
    """

    def call():
        with contextlib.suppress(FileNotFoundError):
            os.remove(out)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = cli.main([*argv, "--output", out])
        return rc, err.getvalue()

    def gate(result):
        rc, err = result
        if rc == 0 or os.path.exists(out):
            check(out, rc, err)
        if rc != 0:
            cls = _raised_by(explain, err, rc) if explain else f"exit{rc}"
            raise OpError(cls, f"exit {rc}: {err.strip()}")

    return Op(kind, call, gate)


BLOCK = 16


def _strata(rng: np.random.Generator, k: int) -> Iterator[np.ndarray]:
    """Endless rows of k draws in [0, 1), one row per cycle.  Over each block
    of ``BLOCK`` rows, every column takes one draw from each of ``BLOCK``
    equal strata, in random order."""
    while True:
        order = np.argsort(rng.random((BLOCK, k)), axis=0)
        yield from (order + rng.random((BLOCK, k))) / BLOCK


def _log_between(u: np.ndarray, lo: float, hi: float) -> np.ndarray:
    return lo * (hi / lo) ** u


def _between(u: np.ndarray, lo: float, hi: float) -> np.ndarray:
    return lo + (hi - lo) * u


# ---------------------------------------------------------------------------
# ghz-dense: qfi-scan on the dense 2^N path
# ---------------------------------------------------------------------------

# |theta|/kappa and kappa*t boxes where today's fidelity-quotient metric
# meets |4g - Q| <= 1e-3 Q with at least ten-fold margin (scanned for
# N = 4..8 on a kappa x kappa*t x theta grid).  Below |theta| = 0.03 kappa,
# or for small kappa*t, the metric misses: that defect is a probe.
DENSE_QUBITS = (4, 5, 6, 7, 8)
DENSE_THETA = (0.03, 0.499)
DENSE_KAPPA = (0.5, 1.5)
DENSE_KT = (1.0, 2.5)
QFI_REL = 1e-7
METRIC_REL = 1e-3


def _scan_check(n: int, kappa: float, t: float, thetas: tuple[float, float]):
    def check(out, rc, err):
        with open(out, encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            if row["qfi"].startswith("error("):
                raise OpError(row["qfi"][len("error(") : -1], f"theta={row['theta']}")
        if rc != 0:
            return
        if [float(r["theta"]) for r in rows] != list(thetas):
            raise OpError("GateMiss", f"theta column {[r['theta'] for r in rows]} != grid {thetas}")
        # Every Q before any metric, so a 4g miss means Q held on every row.
        for row, theta in zip(rows, thetas):
            _close(float(row["qfi"]), ref.ghz_block_qfi(n, theta, kappa, t), QFI_REL, f"Q(theta={theta})")
        for row, theta in zip(rows, thetas):
            q, g = float(row["qfi"]), float(row["bures_metric"])
            # The metric is continuous: at theta = 0 it follows the limit.
            four_g = ref.ghz_qfi_limit_at_zero(n, kappa, t) if theta == 0.0 else q
            _close(4.0 * g, four_g, METRIC_REL, f"4g(theta={theta})")
            _close(float(row["four_g_minus_qfi"]) + q, 4.0 * g, 1e-12, "four_g_minus_qfi column")

    return check


def _scan_op(n: int, kappa: float, t: float, thetas: tuple[float, float], out: str) -> Op:
    argv = [
        "qfi-scan", "--model", "ghz", "--qubits", str(n),
        "--kappa", repr(kappa), "--time", repr(t),
        # '=' keeps argparse from reading a leading '-0.4:...' as an option.
        f"--grid={thetas[0]!r}:{thetas[1]!r}:2",
    ]
    return _cli_op(f"qfi-scan N={n}", argv, out, _scan_check(n, kappa, t, thetas))


def _ghz_dense(rng, out) -> Iterator[list[Op]]:
    k = len(DENSE_QUBITS)
    kappas, kts, th0s, th1s = (_strata(rng, k) for _ in range(4))
    while True:
        kappa = _log_between(next(kappas), *DENSE_KAPPA)
        kt = _between(next(kts), *DENSE_KT)
        th = [_between(next(s), *DENSE_THETA) * rng.choice((-1.0, 1.0), k) for s in (th0s, th1s)]
        yield [
            _scan_op(n, float(kappa[i]), float(kt[i] / kappa[i]),
                     (float(th[0][i] * kappa[i]), float(th[1][i] * kappa[i])), out)
            for i, n in enumerate(DENSE_QUBITS)
        ]


# ---------------------------------------------------------------------------
# critical-points: every built-in rank-change point
# ---------------------------------------------------------------------------

TRANSVERSE_KAPPA = (0.1, 3.0)
TRANSVERSE_T = (0.3, 3.0)
SCAN_QUBITS = tuple(range(1, 9))
SCAN_KAPPA = (0.5, 2.0)
# t >= 0.3 keeps the block-sum limit reference accurate to ~1e-7.
SCAN_T0 = (0.3, 1.0)
SCAN_SPAN = 2.0
SCAN_POINTS = 4
JUMP_REL = 1e-2
Q0_REL = 1e-8
LIMIT_REL = 1e-6


def _report(out: str) -> dict:
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def _expect_kind(report: dict, kind: str) -> None:
    if report["kind"] != kind:
        raise OpError("GateMiss", f"kind {report['kind']!r}, expected {kind!r}")


def _second_kind_check(out, rc, err):
    if rc == 0:
        report = _report(out)
        _expect_kind(report, "second-kind")
        if report["delta_q_predicted"] != "inf":
            raise OpError("GateMiss", f"second-kind jump {report['delta_q_predicted']!r} is not inf")


def _jump_check(delta_q: float, accel: float | None = None, qfi0: float | None = None):
    def check(out, rc, err):
        if rc != 0:
            return
        report = _report(out)
        _expect_kind(report, "jump")
        _close(report["delta_q_predicted"], delta_q, JUMP_REL, "predicted jump 2a")
        _close(report["delta_q_measured"], delta_q, JUMP_REL, "measured jump")
        if accel is not None:
            _close(report["acceleration"], accel, JUMP_REL, "acceleration a")
        if qfi0 is not None:
            _close(report["qfi_at_bar"], qfi0, Q0_REL, "Q(theta_bar)")

    return check


def _disc_op(kind: str, model: str, theta: float, out: str, check, kappa=1.0, t=1.0, qubits=1) -> Op:
    argv = [
        "discontinuity", "--model", model, f"--theta-bar={theta!r}",
        "--kappa", repr(kappa), "--time", repr(t), "--qubits", str(qubits),
    ]

    def explain():
        built = models.make_model(model, kappa=kappa, t=t, n_qubits=qubits)
        return discontinuity.classify(built, theta)

    return _cli_op(kind, argv, out, check, explain)


def _transverse_disc_op(kappa: float, t: float, out: str) -> Op:
    a = ref.transverse_acceleration(kappa, t)
    check = _jump_check(2.0 * a, a, ref.transverse_qfi_at_zero(kappa, t))
    return _disc_op("discontinuity transverse-qubit 0", "transverse-qubit", 0.0, out, check, kappa, t)


def _ghz_disc_op(n: int, out: str) -> Op:
    jump = models.ghz_qfi_continuous(n, 1.0, 1.0) - models.ghz_qfi_discontinuous(n, 1.0, 1.0)
    return _disc_op(f"discontinuity ghz N={n} 0", "ghz", 0.0, out, _jump_check(jump), qubits=n)


def _ghz_scan_check(n: int, kappa: float, times: np.ndarray):
    def check(out, rc, err):
        if rc != 0:
            return
        with open(out, encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        if [(int(r["N"]), float(r["t"])) for r in rows] != [(n, float(t)) for t in times]:
            raise OpError("GateMiss", "N,t columns do not match the requested grid")
        for row in rows:
            t = float(row["t"])
            qc, qd = float(row["qfi_continuous"]), float(row["qfi_discontinuous"])
            _close(qd, ref.ghz_block_qfi(n, 0.0, kappa, t), Q0_REL, f"Q(0) at t={t}")
            _close(qc, ref.ghz_qfi_limit_at_zero(n, kappa, t), LIMIT_REL, f"lim Q at t={t}")
            _close(float(row["qfi_continuous_per_t"]), qc / t, 1e-15, "qfi_continuous_per_t")
            _close(float(row["qfi_discontinuous_per_t"]), qd / t, 1e-15, "qfi_discontinuous_per_t")

    return check


def _ghz_scan_op(n: int, kappa: float, t0: float, out: str) -> Op:
    t1 = t0 + SCAN_SPAN
    argv = ["ghz-scan", "--qubits", str(n), "--kappa", repr(kappa), f"--grid={t0!r}:{t1!r}:{SCAN_POINTS}"]
    times = np.linspace(t0, t1, SCAN_POINTS)
    return _cli_op(f"ghz-scan N={n}", argv, out, _ghz_scan_check(n, kappa, times))


def _bit_family(p: float) -> classical.Distribution:
    """The coin with bias p on its domain [0, 1]."""
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"p={p} outside [0, 1]")
    return classical.Distribution(("0", "1"), [p, 1.0 - p])


def _classical_op(p: float, outcome: str) -> Op:
    def gate(report):
        if report.kind != "second-kind" or not math.isinf(report.delta_f):
            raise OpError("GateMiss", f"bit p={p}: kind {report.kind!r}, delta_f {report.delta_f!r}")

    # Looked up at call time so the traced run sees its wrapper.
    return Op(
        f"classical_discontinuity bit p={p:g}",
        lambda: classical.classical_discontinuity(_bit_family, p, outcome),
        gate,
    )


def _critical_points(rng, out) -> Iterator[list[Op]]:
    half_pi = math.pi / 2
    fixed = [
        _disc_op("discontinuity classical-bit 0", "classical-bit", 0.0, out, _second_kind_check),
        _disc_op("discontinuity classical-bit 1", "classical-bit", 1.0, out, _second_kind_check),
        _disc_op("discontinuity trig 0", "trig", 0.0, out, _jump_check(4.0)),
        _disc_op("discontinuity trig pi/2", "trig", half_pi, out, _jump_check(4.0)),
        _classical_op(0.0, "0"),
        _classical_op(1.0, "1"),
    ]
    kappas, ts = _strata(rng, 2), _strata(rng, 2)
    scan_kappas, scan_t0s = _strata(rng, len(SCAN_QUBITS)), _strata(rng, len(SCAN_QUBITS))
    while True:
        kappa = _log_between(next(kappas), *TRANSVERSE_KAPPA)
        t = _log_between(next(ts), *TRANSVERSE_T)
        scan_kappa = _log_between(next(scan_kappas), *SCAN_KAPPA)
        scan_t0 = _between(next(scan_t0s), *SCAN_T0)
        yield fixed + [
            _transverse_disc_op(float(kappa[i]), float(t[i]), out) for i in range(2)
        ] + [
            _ghz_scan_op(n, float(scan_kappa[i]), float(scan_t0[i]), out)
            for i, n in enumerate(SCAN_QUBITS)
        ]


# ---------------------------------------------------------------------------
# mc-cr: Monte Carlo Cramer-Rao experiments
# ---------------------------------------------------------------------------

MC_KAPPA = (0.5, 2.0)
# For kappa*t < 1 the bracketed MLE at 0.2 kappa is pinned near 0 and its
# variance falls below the bound: a violation at a regular point that says
# nothing about rank changes.  kappa*t in [1, 2.5] keeps the ratio >= 1.2.
MC_KT = (1.0, 2.5)


def _mc_check(rank_change: bool):
    def check(out, rc, err):
        if rc != 0:
            return
        report = _report(out)
        if len(report["estimates"]) != MC_REPLICATES:
            raise OpError("GateMiss", f"{len(report['estimates'])} estimates, expected {MC_REPLICATES}")
        if rank_change and not (report["sample_variance"] == 0.0 and report["violated"]):
            raise OpError(
                "GateMiss",
                f"rank change: variance {report['sample_variance']!r}, violated {report['violated']}",
            )
        if not rank_change and report["violated"]:
            raise OpError("GateMiss", f"violation reported at a regular point: {report['notes']}")

    return check


def _mc_op(model: str, theta: float, rank_change: bool, out: str, kappa: float = 1.0, t: float = 1.0) -> Op:
    argv = [
        "mc", "--model", model, f"--theta-bar={theta!r}", "--kappa", repr(kappa), "--time", repr(t),
        "--samples", str(MC_SAMPLES), "--replicates", str(MC_REPLICATES), "--seed", str(MC_SEED),
    ]
    label = "0.2kappa" if model == "transverse-qubit" and theta else f"{theta:.4g}"
    return _cli_op(f"mc {model} {label}", argv, out, _mc_check(rank_change))


def _mc_cr(rng, out) -> Iterator[list[Op]]:
    fixed = [
        _mc_op("classical-bit", 0.0, True, out),
        _mc_op("classical-bit", 1.0, True, out),
        _mc_op("trig", 0.0, True, out),
        _mc_op("trig", math.pi / 2, True, out),
        _mc_op("classical-bit", 0.3, False, out),
    ]
    kappas, kts = _strata(rng, 2), _strata(rng, 2)
    while True:
        kappa = _log_between(next(kappas), *MC_KAPPA)
        kt = _between(next(kts), *MC_KT)
        k0, t0 = float(kappa[0]), float(kt[0] / kappa[0])
        k1, t1 = float(kappa[1]), float(kt[1] / kappa[1])
        yield fixed + [
            _mc_op("transverse-qubit", 0.0, True, out, k0, t0),
            _mc_op("transverse-qubit", 0.2 * k1, False, out, k1, t1),
        ]


# ---------------------------------------------------------------------------
# ghz-oracle: the RK4 master-equation integrator
# ---------------------------------------------------------------------------

ORACLE_QUBITS = tuple(range(1, 7))
# kappa <= 1 keeps the default step at dt = 1e-4, so t sets the step count
# (20..60 steps).
ORACLE_KAPPA = (0.5, 1.0)
ORACLE_T = (0.002, 0.006)
ORACLE_THETA = (-0.49, 0.49)
ORACLE_ABS = 1e-6  # acceptance criterion 07's bound


def _oracle_op(n: int, theta: float, kappa: float, t: float) -> Op:
    def gate(rho):
        err = float(np.max(np.abs(rho - models.ghz_state(n, theta, kappa, t))))
        if not err <= ORACLE_ABS:
            raise OpError("GateMiss", f"oracle N={n} differs from ghz_state by {err:.3e}")

    return Op(f"lindblad_integrate N={n}", lambda: models.lindblad_integrate(n, theta, kappa, t), gate)


def _ghz_oracle(rng, out) -> Iterator[list[Op]]:
    k = len(ORACLE_QUBITS)
    kappas, thetas, ts = (_strata(rng, k) for _ in range(3))
    while True:
        kappa = _log_between(next(kappas), *ORACLE_KAPPA)
        theta = _between(next(thetas), *ORACLE_THETA) * kappa
        t = _between(next(ts), *ORACLE_T)
        yield [
            _oracle_op(n, float(theta[i]), float(kappa[i]), float(t[i]))
            for i, n in enumerate(ORACLE_QUBITS)
        ]


_CYCLES = {
    "ghz-dense": _ghz_dense,
    "critical-points": _critical_points,
    "mc-cr": _mc_cr,
    "ghz-oracle": _ghz_oracle,
}
WORKLOADS = tuple(_CYCLES)


def cycles(workload: str, seed: int, out: str) -> Iterator[list[Op]]:
    """Endless cycles of ops for ``workload``, deterministic in ``seed``."""
    return _CYCLES[workload](np.random.default_rng(seed), out)


# The ROADMAP items expected to fix the probed defects.
SCALE_FREE_STEPS = "scale-free finite-difference steps"
BLOCK_SPARSE_GHZ = "the block-sparse GHZ path"


def probes(workload: str, out: str) -> list[Probe]:
    """Fixed inputs that fail today, each with its expected error class."""
    if workload == "ghz-dense":
        found = [
            # 1 - F computes to 0.0 at eps/2 when theta = 0.
            Probe(_scan_op(n, 1.0, 1.0, (0.0, 0.25), out), "StepSizeError", SCALE_FREE_STEPS)
            for n in DENSE_QUBITS
        ]
        # Roundoff-bound fidelity quotient near theta = 0 at small kappa*t.
        found.append(
            Probe(_scan_op(4, 1.5, 1.0 / 1.5, (0.003, 0.3), out), "GateMiss", SCALE_FREE_STEPS, "4g(")
        )
        return found
    if workload == "critical-points":
        return [
            # Absolute 1e-2 side probe outside the +-0.005 domain.
            Probe(_transverse_disc_op(0.01, 1.0, out), "DomainError", SCALE_FREE_STEPS),
            # Every GHZ block loses rank at once.
            Probe(_ghz_disc_op(2, out), "MultiBranchError", BLOCK_SPARSE_GHZ),
            Probe(_ghz_disc_op(4, out), "MultiBranchError", BLOCK_SPARSE_GHZ),
        ]
    return []
