"""Closed-loop driver: one client runs one workload's ops back to back for a
fixed time, gates every output, and prints the metrics BENCHMARK.json names.

With ``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
runs the same ops untraced and then traced, and prints per-layer metrics
and the tracing overhead.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Timings are scaled to reference machine speed (see ``calibration.py``);
the table also prints the raw wall-clock figures under ``wall.``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import calibration
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# A fresh process: import, parser, every model, first eigensolve (LAPACK
# warm-up).  Timed inside the child, so interpreter start-up is excluded;
# the child then times the calibration kernel for the scaling.
SETUP_SCRIPT = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from qfidisc import cli, models, quantum
cli.build_parser()
built = [models.make_model(name, n_qubits=4) for name in models.MODEL_NAMES]
quantum.spectral_decompose(built[-1].state_fn(0.1))
setup = time.perf_counter() - t0
sys.path.insert(0, sys.argv[2])
import statistics, calibration
print(setup, statistics.median(calibration.seconds() for _ in range(5)))
"""
# Fresh processes timed per run; setup_s is their median.
SETUP_RUNS = 5
# Timed ops per pass, at least: ten samples then lie beyond op_ms.p90.
MIN_OPS = 100


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", default=None, help="with --trace 1, write every span to this CSV file")
    return parser.parse_args(argv)


class Tally:
    """Attempted and failed ops, failure details and probe outcomes."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.probe_lines: list[str] = []

    def run(self, op: workloads.Op, call=None) -> tuple[float, workloads.OpError | None]:
        """Time one op (``call`` replaces ``op.call`` when tracing), then gate it."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = (call or op.call)()
        except Exception as err:  # a raising op is a result to count, not a crash
            return time.perf_counter() - t0, workloads.OpError(type(err).__name__, str(err))
        seconds = time.perf_counter() - t0
        try:
            op.gate(result)
        except workloads.OpError as err:
            return seconds, err
        except Exception as err:  # unparseable output
            return seconds, workloads.OpError(f"Gate{type(err).__name__}", str(err))
        return seconds, None

    def fail(self, op: workloads.Op, err: workloads.OpError) -> None:
        self.failures.append(f"{op.kind}: {err}")

    def probe(self, probe: workloads.Probe) -> None:
        _, err = self.run(probe.op)
        if err is None:
            outcome = "fixed: passes its reference gate"
        elif err.error_class == probe.defect and err.detail.startswith(probe.check):
            outcome = f"known defect {err.error_class} (until {probe.fix})"
        else:
            self.fail(probe.op, err)
            outcome = f"FAILED {err}; expected {probe.defect} {probe.check}".rstrip()
        self.probe_lines.append(f"probe {probe.op.kind}: {outcome}")


class Timings:
    """Per-op wall times, pass flags and the calibration kernel run after each op."""

    def __init__(self):
        self.wall: list[float] = []
        self.passed: list[bool] = []
        self.kernel: list[float] = []

    def seconds(self) -> np.ndarray:
        """Op times at reference speed."""
        return np.asarray(self.wall) * calibration.factors(self.kernel)


def run_cycles(tally: Tally, cycles, seconds: float, call_for=None):
    """Run whole cycles until ``seconds`` have passed and ``MIN_OPS`` ops were
    timed, or ``cycles`` ends; returns (cycles run, Timings)."""
    ran, timings = [], Timings()
    start = time.perf_counter()
    for cycle in cycles:
        for op in cycle:
            dt, err = tally.run(op, call_for(op) if call_for else None)
            timings.kernel.append(calibration.seconds())
            timings.wall.append(dt)
            timings.passed.append(err is None)
            if err is not None:
                tally.fail(op, err)
        ran.append(cycle)
        if time.perf_counter() - start >= seconds and len(timings.wall) >= MIN_OPS:
            break
    return ran, timings


def setup_seconds() -> tuple[list[float], list[float]]:
    """Set-up times of fresh processes: (at reference speed, wall)."""
    scaled, wall = [], []
    for _ in range(SETUP_RUNS):
        child = subprocess.run(
            [sys.executable, "-c", SETUP_SCRIPT, str(SRC), str(BENCH)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        setup, kernel = (float(x) for x in child.stdout.split())
        scaled.append(setup * calibration.REF_SECONDS / kernel)
        wall.append(setup)
    return scaled, wall


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def _latency(prefix: str, seconds: np.ndarray, passed: int) -> dict:
    ms = seconds * 1e3
    p50, p90 = (float(x) for x in np.percentile(ms, [50, 90]))
    n = len(ms)
    return {
        f"{prefix}ops_per_s": (passed / float(seconds.sum()), "op/s", n, ""),
        f"{prefix}op_ms.p50": (p50, "ms", n, ""),
        f"{prefix}op_ms.p90": (p90, "ms", n, f"beyond={int((ms > p90).sum())}"),
    }


def end_to_end(tally: Tally, timings: Timings, setup: tuple[list[float], list[float]]) -> dict:
    passed = sum(timings.passed)
    failed = len(tally.failures)
    slowdown = float(np.median(timings.kernel)) / calibration.REF_SECONDS
    return {
        **_latency("", timings.seconds(), passed),
        "ops_failed_frac": (failed / tally.attempted, "1", tally.attempted, f"failed={failed}"),
        "setup_s": (statistics.median(setup[0]), "s", len(setup[0]), ""),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1, ""),
        **_latency("wall.", np.asarray(timings.wall), passed),
        "wall.setup_s": (statistics.median(setup[1]), "s", len(setup[1]), ""),
        "wall.slowdown": (slowdown, "1", len(timings.kernel), "median kernel time / reference"),
    }


def per_layer(tally: Tally, cycles, seconds: float, spans_path: str | None) -> dict:
    """Untraced pass for half the time, then the same ops traced."""
    ran, plain = run_cycles(tally, cycles, seconds / 2.0)
    tracer = tracing.Tracer()
    ids = iter(range(1 << 30))
    with tracer.installed():
        _, traced = run_cycles(
            tally, iter(ran), float("inf"),
            call_for=lambda op: (lambda i=next(ids): tracer.run_op(i, op.call)),
        )
    if spans_path:
        tracer.write(spans_path)
    factors = calibration.factors(traced.kernel)
    metrics = {k: (*v, "") for k, v in tracer.summarize(factors).items()}
    overhead = traced.seconds().sum() / plain.seconds().sum() - 1.0
    metrics["trace.overhead_frac"] = (float(overhead), "1", len(plain.wall), "")
    return metrics


def main(argv) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    work = Path(tempfile.mkdtemp(prefix=".work-", dir=BENCH))
    try:
        out = str(work / "op.out")
        tally = Tally()
        cycles = workloads.cycles(args.workload, args.seed, out)
        run_cycles(tally, [next(cycles)], 0.0)  # warm-up: one cycle, gated, not timed
        if args.trace:
            metrics = per_layer(tally, cycles, args.seconds, args.spans)
        else:
            setup = setup_seconds()
            _, timings = run_cycles(tally, cycles, args.seconds)
            metrics = end_to_end(tally, timings, setup)
        for probe in workloads.probes(args.workload, out):
            tally.probe(probe)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    print(f"why: {why.get(args.workload, '')}")
    print(f"env: {json.dumps(environment())}")
    print(f"{'metric':<48} {'value':>14} {'unit':<6} samples")
    for name, (value, unit, samples, note) in metrics.items():
        print(f"{name:<48} {value:>14.6g} {unit:<6} n={samples} {note}".rstrip())
    for line in tally.probe_lines:
        print(line)
    for line in tally.failures[:20]:
        print(f"FAILED {line}")
    missing = [n for n in names if n not in metrics]
    if missing:
        sys.stderr.write(f"bench: metrics not produced: {missing}\n")
        return 3
    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in names},
    }
    print(json.dumps(result))
    return 0
