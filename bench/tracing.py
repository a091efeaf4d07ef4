"""Per-layer tracing from outside the package.

The traced run replaces public functions of each layer with wrappers at
the place callers look them up (module attributes, including names that
other modules imported with ``from ... import``), plus
``numpy.linalg.eigh``/``eigvalsh``, which only ``quantum`` calls.  Each
wrapper records one span: name, start, end, parent span and op id.
``numpy.trace`` is wrapped as a counter, not a span: ``lindblad_integrate``
calls it once per RK4 step (to renormalize), so its calls while that span
is open are the integrator's steps.  Spans
stay in flat in-memory arrays until the run ends; ``summarize`` then turns
them into per-op layer metrics at reference speed, and ``write`` dumps
them as CSV.
"""

from __future__ import annotations

import contextlib
import time
from array import array

import numpy as np

from qfidisc import classical, cli, discontinuity, estimation, models, numdiff, quantum

OP = "op"
EIG = "linalg.eig"
MLE = "estimation.mle"
GHZ_STATE = "models.ghz_state"
LINDBLAD = "models.lindblad_integrate"


def _eig_work(args, kwargs):
    return int(np.shape(args[0])[-1]) ** 3


# (span name, [(module, attribute), ...]): every place a caller looks it up.
TARGETS = (
    ("cli.main", [(cli, "main")]),
    (GHZ_STATE, [(models, "ghz_state")]),
    ("models.ghz_state_derivative", [(models, "ghz_state_derivative")]),
    ("models.ghz_blocks", [(models, "ghz_blocks")]),
    (LINDBLAD, [(models, "lindblad_integrate")]),
    ("quantum.validate_hermitian", [(quantum, "validate_hermitian")]),
    ("quantum.spectral_decompose", [(quantum, "spectral_decompose")]),
    ("quantum.fidelity", [(quantum, "fidelity")]),
    ("quantum.qfi", [(quantum, "qfi")]),
    ("quantum.model_qfi", [(quantum, "model_qfi")]),
    ("quantum.bures_metric_fd", [(quantum, "bures_metric_fd")]),
    ("quantum.qfi_limit", [(quantum, "qfi_limit")]),
    ("numdiff.richardson_limit", [(numdiff, "richardson_limit"), (quantum, "richardson_limit")]),
    (
        "numdiff.speed_and_acceleration",
        [(numdiff, "speed_and_acceleration"), (discontinuity, "speed_and_acceleration"),
         (classical, "speed_and_acceleration")],
    ),
    ("discontinuity.classify", [(discontinuity, "classify")]),
    ("discontinuity.vanishing_eigenvalue_branch", [(discontinuity, "vanishing_eigenvalue_branch")]),
    ("classical.classical_discontinuity", [(classical, "classical_discontinuity")]),
    # Instances are counted through __post_init__, which every constructor runs.
    ("classical.Distribution", [(classical.Distribution, "__post_init__")]),
    (MLE, [(estimation, "mle")]),
    ("estimation.sample_outcomes", [(estimation, "sample_outcomes")]),
    ("estimation.run_cr_experiment", [(estimation, "run_cr_experiment")]),
    (EIG, [(np.linalg, "eigh"), (np.linalg, "eigvalsh")]),
)

WORK = {EIG: _eig_work}


class Tracer:
    """Records spans while ``active``; wrappers pass straight through otherwise."""

    def __init__(self):
        self.names = [OP] + [name for name, _ in TARGETS]
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.work = array("q")
        self.mle_counts: set[tuple[int, bytes]] = set()
        self.active = False
        self._stack = [-1]
        self._op_id = -1
        self._lindblad = -1  # the open lindblad_integrate span, if any

    def _open(self, name_id: int, work: int) -> int:
        i = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1])
        self.op.append(self._op_id)
        self.work.append(work)
        self.end.append(0)
        self._stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        name_id = self._ids[name]
        work = WORK.get(name)
        is_mle = name == MLE
        is_lindblad = name == LINDBLAD
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if is_mle:
                tracer.mle_counts.add((tracer._op_id, np.asarray(args[1]).tobytes()))
            i = tracer._open(name_id, work(args, kwargs) if work else 0)
            if is_lindblad:
                outer, tracer._lindblad = tracer._lindblad, i
            try:
                return fn(*args, **kwargs)
            finally:
                if is_lindblad:
                    tracer._lindblad = outer
                tracer._close(i)

        return wrapper

    def _count_steps(self, fn):
        """``numpy.trace`` wrapper: one step of the open lindblad_integrate span."""
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.active and tracer._lindblad >= 0:
                tracer.work[tracer._lindblad] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Patch every target for the duration of the block."""
        saved = []
        try:
            for name, places in TARGETS:
                for owner, attr in places:
                    original = getattr(owner, attr)
                    saved.append((owner, attr, original))
                    setattr(owner, attr, self._wrap(name, original))
            saved.append((np, "trace", np.trace))
            np.trace = self._count_steps(np.trace)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def run_op(self, op_id: int, call):
        """Run ``call`` as op ``op_id`` under a root span and return its result."""
        self._op_id = op_id
        self.active = True
        i = self._open(0, 0)
        try:
            return call()
        finally:
            self._close(i)
            self.active = False

    def summarize(self, scale: np.ndarray) -> dict[str, tuple[float, str, int]]:
        """Per-op layer metrics: name -> (value, unit, samples).

        ``scale[op_id]`` converts that op's wall times to reference speed.
        """
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        work = np.frombuffer(self.work, dtype=np.int64).astype(float)
        wall_ns = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        dur = wall_ns * scale[np.frombuffer(self.op, dtype=np.int32)] / 1e6
        children = np.zeros_like(dur)
        nested = parent >= 0
        np.add.at(children, parent[nested], dur[nested])
        self_ms = dur - children
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        incl = np.bincount(name, weights=dur, minlength=k)
        excl = np.bincount(name, weights=self_ms, minlength=k)
        total_work = np.bincount(name, weights=work, minlength=k)
        ids = self._ids
        n_ops = int(calls[0])
        per_op = 1.0 / max(n_ops, 1)

        def ratio(num, den):
            return float(num) / den if den else 0.0

        # ghz_state spans with an mle span among their ancestors.
        mle_id, state_id = ids[MLE], ids[GHZ_STATE]
        cursor = parent[name == state_id]
        state_in_mle = 0
        while cursor.size:
            cursor = cursor[cursor >= 0]
            hit = name[cursor] == mle_id
            state_in_mle += int(hit.sum())
            cursor = parent[cursor[~hit]]
        mle_calls = int(calls[mle_id])

        out: dict[str, tuple[float, str, int]] = {}

        def put(metric, value, unit, samples):
            out[metric] = (float(value), unit, int(samples))

        for name_str in self.names[1:]:
            i = ids[name_str]
            put(f"{name_str}.calls", calls[i] * per_op, "count", n_ops)
            put(f"{name_str}.ms", incl[i] * per_op, "ms", n_ops)
            put(f"{name_str}.self_ms", excl[i] * per_op, "ms", n_ops)
        put(f"{EIG}.n3", total_work[ids[EIG]] * per_op, "count", n_ops)
        put(f"{LINDBLAD}.steps", total_work[ids[LINDBLAD]] * per_op, "count", n_ops)
        put(f"{MLE}.state_calls", ratio(state_in_mle, mle_calls), "count", mle_calls)
        put(f"{MLE}.distinct_ratio", ratio(len(self.mle_counts), mle_calls), "1", mle_calls)
        put("trace.unattributed_frac", ratio(excl[0], incl[0]), "1", n_ops)
        return out

    def write(self, path: str) -> None:
        """Dump every span as CSV: op,name,parent,start_ns,end_ns,work."""
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("op,name,parent,start_ns,end_ns,work\n")
            for row in zip(self.op, self.name, self.parent, self.start, self.end, self.work):
                fh.write(f"{row[0]},{self.names[row[1]]},{row[2]},{row[3]},{row[4]},{row[5]}\n")
