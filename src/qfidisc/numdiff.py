"""Finite-difference derivative estimates on pre-evaluated samples.

The routines take samples, not a function, so callers control where (and
whether) a model can be evaluated, e.g. one-sided sampling at the edge of
a parameter domain.  Derivatives come from one rule: the polynomial
through every sample.
"""

from __future__ import annotations

import numpy as np


def base_step(theta_bar: float) -> float:
    """Default base step h of the branch samples around theta_bar."""
    return 1e-3 * max(1.0, abs(theta_bar))


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


def speed_and_acceleration(h: float, values: dict[float, float]) -> tuple[float, float]:
    """First and second derivative at the center of a sample set.

    ``values`` maps offsets in units of h, 0 among them, to samples.  The
    polynomial through all n samples, of degree n - 1 in the scaled offset
    (which keeps the Vandermonde solve well conditioned), is differentiated
    at 0: c1 / h and 2 c2 / h**2.  On 0, h/4, h/2, h (either side) this is
    the cubic fit, exact to degree 3; on 0, +/-h/4, +/-h/2, +/-h it is
    exact to degree 6, the same linear functional as central differences
    at h, h/2, h/4 with two Richardson levels.
    """
    offsets = sorted(values)
    xs = np.array(offsets)
    ys = np.array([values[o] for o in offsets])
    coeffs = np.linalg.solve(np.vander(xs, len(xs), increasing=True), ys)
    return coeffs[1] / h, 2.0 * coeffs[2] / h**2
