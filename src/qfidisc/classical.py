"""Discrete probability families: classification of Fisher-information
discontinuities at parameter values where an outcome probability vanishes.

The Fisher information of a family p(theta) is the QFI of the diagonal
state diag(p(theta)), so ``quantum.qfi`` (or ``quantum.model_qfi`` on the
``classical-bit`` and ``trig`` models) computes it, with the package's one
support cut.

The classification rule: with q(theta) the probability of the vanishing
outcome, speed v = q'(theta_bar) and acceleration a = q''(theta_bar),

* v = 0 and a = 0  -> the Fisher information is continuous;
* v = 0 and a != 0 -> a jump of size Delta F = 2 a;
* v != 0           -> a discontinuity of the second kind (divergent limit).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .exceptions import DomainError, InvalidInputError, MisidentifiedOutcomeError
from .numdiff import base_step, speed_and_acceleration

# |v| at or above SPEED_TOL is a second kind, and else |a| at or above
# ACCEL_TOL a jump: on this finite-difference path, absolute numbers in
# units of theta, whose noise at the default step h = 1e-3 sits around 1e-8.
from .quantum import ACCEL_TOL, SPEED_TOL, _kind


@dataclass
class Distribution:
    """Finite distribution over labelled outcomes.

    ``probs`` is one-dimensional, one per outcome.  Probabilities are
    clamped at zero from below (floor -1e-12) and must sum to one within
    1e-10; a NaN probability fails that test.
    """

    outcomes: tuple
    probs: np.ndarray

    def __post_init__(self):
        self.outcomes = tuple(self.outcomes)
        probs = np.asarray(self.probs, dtype=float)
        if probs.ndim != 1:
            raise InvalidInputError(f"probs must be one-dimensional, got shape {probs.shape}")
        if len(self.outcomes) != len(probs):
            raise InvalidInputError("outcomes and probs have different lengths")
        if probs.min(initial=0.0) < -1e-12:
            raise InvalidInputError(f"negative probability {probs.min():.3e}")
        probs = np.maximum(probs, 0.0)
        total = float(probs.sum())
        if not abs(total - 1.0) <= 1e-10:
            raise InvalidInputError(f"probabilities sum to {total!r}, not 1")
        self.probs = probs

    def prob_of(self, outcome) -> float:
        try:
            return float(self.probs[self.outcomes.index(outcome)])
        except ValueError:
            raise InvalidInputError(f"unknown outcome {outcome!r}") from None


@dataclass
class ClassicalDiscontinuityReport:
    """Outcome of the vanishing-probability analysis at theta_bar."""

    theta_bar: float
    outcome: object
    speed: float
    acceleration: float
    kind: str  # "continuous" | "jump" | "second-kind"
    delta_f: float  # jump of the Fisher information; inf for second kind
    note: str = ""
    evidence: dict = field(default_factory=dict)


def _sample_branch(value_fn: Callable[[float], float], theta_bar: float, h: float):
    """Evaluate a scalar branch at theta_bar and theta_bar +/- {h, h/2, h/4},
    dropping a side that falls outside the family's domain."""
    samples: dict[float, float] = {0.0: value_fn(theta_bar)}
    available = []
    for sign in (+1.0, -1.0):
        try:
            side_vals = {sign * s: value_fn(theta_bar + sign * s * h) for s in (0.25, 0.5, 1.0)}
        except DomainError:
            continue
        samples.update(side_vals)
        available.append(sign)
    if not available:
        raise DomainError(f"no room around theta_bar={theta_bar} for step h={h}")
    return samples


def classical_discontinuity(
    family: Callable[[float], Distribution],
    theta_bar: float,
    vanishing_outcome,
) -> ClassicalDiscontinuityReport:
    """Classify the Fisher-information behaviour where an outcome vanishes.

    ``family`` maps theta to a Distribution; the probability of
    ``vanishing_outcome`` must go to zero as theta -> theta_bar.  Speed and
    acceleration are the derivatives at theta_bar of the polynomial through
    that probability's samples at theta_bar and theta_bar +/- {h/4, h/2, h}
    (one side only at a domain edge), h = ``numdiff.base_step(theta_bar)``
    (``numdiff.speed_and_acceleration``).
    """
    h = base_step(theta_bar)

    def q(theta: float) -> float:
        return family(theta).prob_of(vanishing_outcome)

    samples = _sample_branch(q, theta_bar, h)
    q_bar = samples[0.0]
    outer = [samples[o] for o in samples if abs(o) == 1.0]
    if q_bar > 1e-8 or q_bar > min(outer) + 1e-12:
        raise MisidentifiedOutcomeError(
            f"prob({vanishing_outcome!r}) = {q_bar:.3e} at theta_bar does not vanish "
            "relative to its neighborhood"
        )
    speed, accel = speed_and_acceleration(h, samples)
    kind = _kind(abs(speed) >= SPEED_TOL, abs(accel) >= ACCEL_TOL)
    note = ""
    evidence: dict = {"h": h, "prob_at_bar": q_bar}
    if kind == "continuous":
        delta_f = 0.0
        note = "probability vanishes to order > 2; no jump at quadratic order"
    elif kind == "jump":
        delta_f = 2.0 * accel
    else:
        delta_f = math.inf
        outer_offset = max((o for o in samples if abs(o) == 1.0), key=abs)
        p_last = samples[outer_offset]
        evidence["divergence_rate"] = speed**2 / p_last if p_last > 0 else math.inf
        evidence["at_theta"] = theta_bar + outer_offset * h
    return ClassicalDiscontinuityReport(
        theta_bar=theta_bar,
        outcome=vanishing_outcome,
        speed=float(speed),
        acceleration=float(accel),
        kind=kind,
        delta_f=delta_f,
        note=note,
        evidence=evidence,
    )
