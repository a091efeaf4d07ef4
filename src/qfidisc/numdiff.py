"""Finite-difference derivative estimates with Richardson extrapolation.

All routines work on pre-evaluated samples so callers control where (and
whether) a model can be evaluated, e.g. one-sided sampling at the edge of
a parameter domain.
"""

from __future__ import annotations

import numpy as np


def richardson_limit(values: np.ndarray) -> np.ndarray:
    """Diagonal extrapolants for samples on a step-halving sequence.

    ``values[k]`` is a quantity evaluated at step ``h * 2**-k`` whose error
    expands in integer powers of the step.  Level ``j`` of the tableau
    removes the ``h**j`` term; the returned diagonal converges to the limit
    when the expansion holds.
    """
    v = np.asarray(values, dtype=float)
    n = len(v)
    level = v
    best = [v[-1]] if n else []
    for j in range(1, n):
        factor = 2.0**j
        level = (factor * level[1:] - level[:-1]) / (factor - 1.0)
        best.append(level[-1])
    return np.array(best)


def central_speed_accel(h: float, values: dict[float, float]) -> tuple[float, float]:
    """First and second derivative at the center of a symmetric sample set.

    ``values`` maps the offsets 0, +/-1/4, +/-1/2 and +/-1 (in units of h)
    to samples.
    Central differences at steps h, h/2, h/4 are combined with two
    Richardson levels (the error series is even in the step).
    """
    d1 = []
    d2 = []
    for scale in (1.0, 0.5, 0.25):
        step = h * scale
        plus, minus, mid = values[scale], values[-scale], values[0.0]
        d1.append((plus - minus) / (2.0 * step))
        d2.append((plus - 2.0 * mid + minus) / step**2)
    speed = _even_richardson(d1)
    accel = _even_richardson(d2)
    return speed, accel


def _even_richardson(seq) -> float:
    # seq sampled at h, h/2, h/4 with error c2 h^2 + c4 h^4 + ...
    r1 = [(4.0 * seq[i + 1] - seq[i]) / 3.0 for i in range(len(seq) - 1)]
    if len(r1) == 1:
        return r1[0]
    return (16.0 * r1[1] - r1[0]) / 15.0


def one_sided_speed_accel(h: float, values: dict[float, float]) -> tuple[float, float]:
    """Derivatives at the center from samples on one side only.

    Fits the cubic through the center and the offsets h/4, h/2, h (sign
    carried by the offsets present in ``values``) and differentiates it.
    Exact for polynomial branches up to degree three.
    """
    offsets = sorted(values)
    xs = np.array(offsets)  # already in units of h
    ys = np.array([values[o] for o in offsets])
    if len(xs) != 4:
        raise ValueError("one-sided stencil needs exactly 4 samples")
    # Vandermonde in the scaled variable keeps the solve well conditioned.
    coeffs = np.linalg.solve(np.vander(xs, 4, increasing=True), ys)
    speed = coeffs[1] / h
    accel = 2.0 * coeffs[2] / h**2
    return speed, accel


def speed_and_acceleration(h: float, values: dict[float, float]) -> tuple[float, float]:
    """Dispatch between the symmetric and one-sided stencils."""
    has_above = any(o > 0 for o in values)
    has_below = any(o < 0 for o in values)
    if has_above and has_below:
        return central_speed_accel(h, values)
    return one_sided_speed_accel(h, values)
