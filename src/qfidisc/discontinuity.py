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


def _branch_offsets(model, theta_bar: float, fractions=(1.0, 0.5, 0.25)):
    """h = ``numdiff.base_step(theta_bar)`` and the offsets, in units of h,
    of the samples around theta_bar: 0 first, then +/- ``fractions`` on
    each side whose full step theta_bar +/- h lies in the domain.  Raises
    ``DomainError`` when neither does."""
    h = base_step(theta_bar)
    sides = [s for s in (+1.0, -1.0) if model.in_domain(theta_bar + s * h)]
    if not sides:
        raise DomainError(f"no room around theta_bar={theta_bar} in the domain of {model.name}")
    return h, [0.0] + [frac * s for s in sides for frac in fractions]


def _points(theta_bar: float, h: float, offsets) -> list:
    return [theta_bar + o * h for o in offsets]


def _ranks(theta_bar: float, offsets, stacks: list) -> tuple[int, int]:
    """Multiplicity-weighted effective ranks at theta_bar and the highest at
    theta_bar +/- h, from a read of the points at ``offsets``; raises
    ``NotADiscontinuityError`` unless the rank rises on every sampled side."""
    ranks = sum((st.ranks * st.multiplicities).sum(axis=-1) for st in stacks).tolist()
    r0 = ranks[offsets.index(0.0)]
    side_ranks = {s: ranks[offsets.index(s)] for s in (+1.0, -1.0) if s in offsets}
    if any(r <= r0 for r in side_ranks.values()):
        raise NotADiscontinuityError(
            f"effective rank {r0} at theta_bar={theta_bar} does not increase "
            f"on the sampled sides (ranks {side_ranks})"
        )
    return r0, max(side_ranks.values())


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


def _branch(theta_bar: float, h: float, offsets: list, stacks: list) -> BranchSamples:
    """The vanishing weight at ``offsets`` from a read of those points,
    sorted by offset.

    A block's vanishing eigenvalues are those past its effective rank r at
    theta_bar; the first of them must stay within GAP_FRACTION of the
    block's eigenvalue r - 1 at theta_bar (when 0 < r < d).
    """
    r0, r_beside = _ranks(theta_bar, offsets, stacks)
    bar = offsets.index(0.0)
    rows = np.argsort(offsets, kind="stable")
    offsets = [offsets[i] for i in rows]
    weights, firsts, limits = [], [], []
    for st in stacks:  # one per block size
        lam, rank = st.eigenvalues, st.ranks[bar]
        d = lam.shape[-1]
        tail = np.where(np.arange(d) >= rank[:, None], lam, 0.0)
        weights.append(st.multiplicities * np.sum(tail, axis=-1))
        j = np.arange(len(rank))
        firsts.append(lam[:, j, np.minimum(rank, d - 1)])
        inner = (0 < rank) & (rank < d)
        limits.append(np.where(inner, GAP_FRACTION * lam[bar, j, rank - 1], np.inf))
    first = np.concatenate(firsts, axis=-1)[rows]
    over = first > np.concatenate(limits, axis=-1)
    if over.any():
        point, block = np.argwhere(over)[0]
        raise MultiBranchError(
            f"vanishing eigenvalue {first[point, block]:.3e} at offset {offsets[point]} exceeds "
            f"{GAP_FRACTION} of its block's smallest non-vanishing one at theta_bar={theta_bar}"
        )
    values = quantum._point_sums(weights)[rows].tolist()
    return BranchSamples(theta_bar, h, tuple(offsets), tuple(values), r0, r_beside)


def vanishing_eigenvalue_branch(model, theta_bar: float) -> BranchSamples:
    """Sample the vanishing weight at theta_bar + {0, +/-1/4, +/-1/2, +/-1} h,
    h = ``numdiff.base_step(theta_bar)``, read in one stack without
    derivatives.

    Only sides inside the domain are sampled, and the rank must rise on
    each.  Raises ``MultiBranchError`` when a sampled vanishing eigenvalue
    exceeds GAP_FRACTION of its block's smallest non-vanishing eigenvalue
    at theta_bar.
    """
    h, offsets = _branch_offsets(model, theta_bar)
    stacks = quantum._model_blocks(model, _points(theta_bar, h, offsets), derivative=False)
    return _branch(theta_bar, h, offsets, stacks)


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


def classify(model, theta_bar: float) -> DiscontinuityReport:
    """Full discontinuity analysis of a model at theta_bar.

    The vanishing weight is sampled at the base step
    ``numdiff.base_step(theta_bar)`` and the QFI limit taken with
    ``quantum.qfi_limit``'s constant step sequence.  Every point, those of
    ``vanishing_eigenvalue_branch``, theta_bar and those of ``qfi_limit``,
    is read in one ``quantum._model_blocks`` call; each number equals the
    one those routines and ``quantum.model_qfi`` give alone.

    Raises ``NotADiscontinuityError`` when the rank does not change, and
    ``NumericalError`` when the QFI limit diverges although the vanishing
    weight has no speed, or when the predicted jump 2a and the measured
    one differ by more than JUMP_AGREEMENT relative.
    """
    h, offsets = _branch_offsets(model, theta_bar)
    try:
        side, limit_thetas = quantum._limit_points(model, theta_bar)
        limit_error = None
    except DomainError as err:  # raised where qfi_limit would raise it
        limit_thetas, limit_error = [], err
    n = len(offsets)
    stacks = quantum._model_blocks(model, _points(theta_bar, h, offsets) + list(limit_thetas))
    branch = _branch(theta_bar, h, offsets, [st.at(slice(0, n)) for st in stacks])
    speed, accel = speed_and_acceleration(branch.h, branch.as_dict())
    read_qfi = [0] + list(range(n, n + len(limit_thetas)))
    qfis = quantum._direct_sum_qfi([st.at(read_qfi) for st in stacks])
    qfi_at_bar = float(qfis[0])
    if limit_error is not None:
        raise limit_error

    evidence: dict = {"h": branch.h, "branch_values": list(branch.values)}
    try:
        limit = quantum._limit_estimate(theta_bar, side, limit_thetas, qfis[1:])
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
