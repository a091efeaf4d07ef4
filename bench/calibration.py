"""Machine-speed calibration for the benchmark's timings.

On the 2-vCPU VM this benchmark was built on, the same code ran up to 2x
slower for stretches of seconds to minutes, with no steal time or load
visible inside the VM; the raw run-to-run spread of the timing metrics
was 10-35%.  A fixed kernel (interpreter loop, small eigensolve, small
array ops) therefore runs next to every timed interval, and the interval
is scaled by ``REF_SECONDS`` over the kernel's time.  That cancels host
slowdowns that hit the program and the kernel alike; it would also cancel
a slowdown the program inflicts on the whole process, such as a busy
background thread.
"""

import time

import numpy as np

# Kernel time on an uncontended core (5th percentile of 64604 back-to-back
# samples, 2-vCPU x86-64 VM, OpenBLAS 0.3.31, one thread).  It only sets
# the scale: scaled times read as milliseconds at that speed.
REF_SECONDS = 3.16e-4

_MATRIX = np.random.default_rng(0).random((32, 32))
_MATRIX += _MATRIX.T
_ARRAY = np.linspace(0.0, 1.0, 256).reshape(16, 16)


def seconds() -> float:
    """Wall time of one run of the calibration kernel."""
    t0 = time.perf_counter()
    total = 0
    for i in range(600):
        total += i * i
    np.linalg.eigh(_MATRIX)
    a = _ARRAY
    for _ in range(20):
        a = np.cos(a @ a.T) + a[::-1]
    return time.perf_counter() - t0


def factors(kernel_seconds) -> np.ndarray:
    """Per-interval factor from wall time to reference speed.

    ``kernel_seconds[i]`` is the kernel run right after interval ``i``;
    each factor uses the median of the five runs around it.
    """
    cal = np.asarray(kernel_seconds, dtype=float)
    near = [np.median(cal[max(0, i - 2) : i + 3]) for i in range(len(cal))]
    return REF_SECONDS / np.asarray(near)
