"""Quantum-side discontinuity analysis at rank-changing parameter values.

Samples the vanishing weight w(theta), the sum of the eigenvalues that
vanish at theta_bar, from the blocks of the model's direct sum: each block
gives its k smallest eigenvalues, k its kernel dimension at theta_bar,
times its multiplicity.  Jumps of eigenvalues that vanish together add, so
the speed v and acceleration a of w, by finite differences, classify the
QFI behaviour: continuous (v = a = 0), a jump of size 2a (v = 0, a != 0),
or a discontinuity of the second kind (v != 0, divergent limit).  The jump
prediction 2a is checked against the directly measured difference between
the one-sided QFI limit and the QFI evaluated exactly at theta_bar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import quantum
from .classical import SPEED_TOL, classify_from_derivatives
from .exceptions import (
    DivergenceError,
    DomainError,
    MultiBranchError,
    NotADiscontinuityError,
    NumericalError,
)
from .numdiff import base_step, speed_and_acceleration

# A sampled vanishing eigenvalue above this fraction of its block's smallest
# non-vanishing eigenvalue at theta_bar cannot be told apart from it.
GAP_FRACTION = 0.5
# Largest relative difference between the predicted and the measured jump.
JUMP_AGREEMENT = 1e-2


def _block_spectra(model, theta: float) -> list:
    blocks = quantum._model_blocks(model, theta, derivative=False)
    return [(mult, quantum._decompose(block)) for mult, block, _ in blocks]


def _rank(spectra: list) -> int:
    return sum(mult * sp.effective_rank for mult, sp in spectra)


def rank_change(model, theta_bar: float, h: float | None = None):
    """Block spectra and effective ranks at theta_bar and theta_bar +/- h.

    ``h`` defaults to ``numdiff.base_step(theta_bar)``, the base step of
    ``vanishing_eigenvalue_branch``.

    Returns (spectra at theta_bar, {side: spectra at theta_bar + side * h},
    rank at theta_bar, highest rank beside) over the sides +/-1 inside the
    domain; spectra list (multiplicity, SpectralData) per block, and ranks
    are weighted by multiplicity.  Raises ``DomainError`` when no side is
    inside, and ``NotADiscontinuityError`` unless the rank rises on every
    side.
    """
    if h is None:
        h = base_step(theta_bar)
    sides = [s for s in (+1.0, -1.0) if model.in_domain(theta_bar + s * h)]
    if not sides:
        raise DomainError(f"no room around theta_bar={theta_bar} in the domain of {model.name}")
    at_bar = _block_spectra(model, theta_bar)
    beside = {s: _block_spectra(model, theta_bar + s * h) for s in sides}
    r0 = _rank(at_bar)
    side_ranks = {s: _rank(spectra) for s, spectra in beside.items()}
    if any(r <= r0 for r in side_ranks.values()):
        raise NotADiscontinuityError(
            f"effective rank {r0} at theta_bar={theta_bar} does not increase "
            f"on the sampled sides (ranks {side_ranks})"
        )
    return at_bar, beside, r0, max(side_ranks.values())


@dataclass(frozen=True)
class BranchSamples:
    """The vanishing weight sampled around theta_bar.

    ``offsets`` are in units of the base step h and include 0; values are
    w(theta_bar + offset * h), the multiplicity-weighted sum of the
    eigenvalues that vanish at theta_bar.
    """

    theta_bar: float
    h: float
    offsets: tuple[float, ...]
    values: tuple[float, ...]
    rank_at_bar: int
    rank_beside: int

    def as_dict(self) -> dict[float, float]:
        return dict(zip(self.offsets, self.values))


def vanishing_eigenvalue_branch(model, theta_bar: float, h: float | None = None) -> BranchSamples:
    """Sample the vanishing weight at theta_bar + {0, +/-1/4, +/-1/2, +/-1} h.

    Only sides inside the domain are sampled, and the rank must rise on
    each (``rank_change``).  Raises ``MultiBranchError`` when a sampled
    vanishing eigenvalue exceeds GAP_FRACTION of its block's smallest
    non-vanishing eigenvalue at theta_bar.
    """
    if h is None:
        h = base_step(theta_bar)
    at_bar, beside, r0, r_beside = rank_change(model, theta_bar, h)
    spectra = {0.0: at_bar}
    for s, outer in beside.items():
        spectra[s] = outer
        for frac in (0.25, 0.5):
            spectra[frac * s] = _block_spectra(model, theta_bar + frac * s * h)

    def weight(offset: float) -> float:
        w = 0.0
        for (mult, bar), (_, sp) in zip(at_bar, spectra[offset]):
            r = bar.effective_rank
            tail = sp.eigenvalues[r:]
            if 0 < r < bar.dim and tail[0] > GAP_FRACTION * bar.eigenvalues[r - 1]:
                raise MultiBranchError(
                    f"vanishing eigenvalue {tail[0]:.3e} at offset {offset} exceeds {GAP_FRACTION} "
                    f"of its block's smallest non-vanishing one at theta_bar={theta_bar}"
                )
            w += mult * float(np.sum(tail))
        return w

    offsets = tuple(sorted(spectra))
    values = tuple(weight(o) for o in offsets)
    return BranchSamples(theta_bar, h, offsets, values, r0, r_beside)


@dataclass
class DiscontinuityReport:
    """Classification of the QFI behaviour at a rank-change point."""

    theta_bar: float
    speed: float
    acceleration: float
    kind: str  # "continuous" | "jump" | "second-kind"
    delta_q_predicted: float
    delta_q_measured: float
    qfi_at_bar: float
    qfi_limit: float
    evidence: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        def enc(x):
            if isinstance(x, list):
                return [enc(v) for v in x]
            if isinstance(x, float) and math.isinf(x):
                return "inf" if x > 0 else "-inf"
            return x

        out = {
            "theta_bar": self.theta_bar,
            "speed": self.speed,
            "acceleration": self.acceleration,
            "kind": self.kind,
            "delta_q_predicted": enc(self.delta_q_predicted),
            "delta_q_measured": enc(self.delta_q_measured),
            "qfi_at_bar": self.qfi_at_bar,
            "qfi_limit": enc(self.qfi_limit),
        }
        out.update({k: enc(v) for k, v in self.evidence.items()})
        return out


def classify(model, theta_bar: float, h: float | None = None) -> DiscontinuityReport:
    """Full discontinuity analysis of a model at theta_bar.

    Raises ``NotADiscontinuityError`` when the rank does not change, and
    ``NumericalError`` when the QFI limit diverges although the vanishing
    weight has no speed, or when the predicted jump 2a and the measured
    one differ by more than JUMP_AGREEMENT relative.
    """
    branch = vanishing_eigenvalue_branch(model, theta_bar, h)
    speed, accel = speed_and_acceleration(branch.h, branch.as_dict())
    qfi_at_bar = quantum.model_qfi(model, theta_bar)

    evidence: dict = {"h": branch.h, "branch_values": list(branch.values)}
    try:
        limit = quantum.qfi_limit(model, theta_bar)
        qfi_lim = limit.value
        evidence["qfi_limit_error"] = limit.error
        diverged = False
    except DivergenceError as err:
        qfi_lim = math.inf
        evidence["qfi_samples"] = list(err.values) if err.values is not None else []
        diverged = True

    kind = classify_from_derivatives(speed, accel)
    if diverged and kind != "second-kind":
        raise NumericalError(
            f"QFI limit at theta_bar={theta_bar} diverges, but the vanishing weight "
            f"has speed {speed:.3e}, below {SPEED_TOL:g}"
        )
    if kind == "second-kind":
        predicted = math.inf
        measured = math.inf if diverged else qfi_lim - qfi_at_bar
    else:
        predicted = 2.0 * accel
        measured = qfi_lim - qfi_at_bar
        if kind == "jump" and abs(predicted - measured) > JUMP_AGREEMENT * abs(measured):
            raise NumericalError(
                f"predicted jump 2a = {predicted:.6g} and measured jump {measured:.6g} "
                f"at theta_bar={theta_bar} differ by more than {JUMP_AGREEMENT:g} relative"
            )
    return DiscontinuityReport(
        theta_bar=theta_bar,
        speed=float(speed),
        acceleration=float(accel),
        kind=kind,
        delta_q_predicted=predicted,
        delta_q_measured=measured,
        qfi_at_bar=qfi_at_bar,
        qfi_limit=qfi_lim,
        evidence=evidence,
    )
