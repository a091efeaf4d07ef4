"""Quantum-side discontinuity analysis at rank-changing parameter values.

``classify`` reads theta_bar alone, with the first two derivatives of the
blocks of the model's direct sum, and takes no step.  By perturbation
theory (``quantum._block_motion``) the vanishing eigenvalues of each block,
its kernel at theta_bar, move with speed v_j and acceleration a_j.  Where
a kernel direction moves at first order the QFI has a discontinuity of the
second kind (divergent limit); else, where one moves at second order, a
jump of size 2a, with a = sum_j m_j a_j; else theta_bar is no
discontinuity.  ``quantum._block_motion`` holds each direction against the
size of its block's own derivatives, so the verdict does not depend on the
scale of theta.  Jumps of eigenvalues that vanish together add.

The predicted jump 2a is checked against a jump measured another way at
the same point: the fidelity F(rho, rho + e rho' + e^2 rho''/2) expanded
over each block's support, whose e^2 coefficient gives 4g and whose e^1
coefficient marks the second kind.  The two sides agree by construction
up to the support cut and sum_j m_j tr A''_j = 0, so the check guards
those, not a finite-difference error.

``vanishing_eigenvalue_branch`` samples the same vanishing weight on a
stencil around theta_bar, as an inspection view.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import quantum
from .exceptions import DomainError, MultiBranchError, NotADiscontinuityError, NumericalError
from .numdiff import base_step

# Not called here since classify takes no step; bench/tracing.py patches
# this name in this module until its targets move to the step-free routines.
from .numdiff import speed_and_acceleration  # noqa: F401

# A sampled vanishing eigenvalue above this fraction of its block's smallest
# non-vanishing eigenvalue at theta_bar cannot be told apart from it.
GAP_FRACTION = 0.5
# Largest relative difference between the predicted and the measured jump.
JUMP_AGREEMENT = 1e-2


def _ranks(theta_bar: float, offsets, st: quantum.BlockStack) -> tuple[int, int]:
    """Multiplicity-weighted effective ranks at theta_bar and the highest at
    theta_bar +/- h, from a read of the points at ``offsets``; raises
    ``NotADiscontinuityError`` unless the rank rises on every sampled side."""
    ranks = quantum._weighted_ranks(st).tolist()
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


def vanishing_eigenvalue_branch(model, theta_bar: float) -> BranchSamples:
    """Sample the vanishing weight at theta_bar + {0, +/-1/4, +/-1/2, +/-1} h,
    h = ``numdiff.base_step(theta_bar)``, read in one stack and sorted by
    offset; the weight reads the eigenvalues alone, not the derivatives.

    Only sides whose full step lies in the domain are sampled (a
    ``DomainError`` where neither does), and the rank must rise on each.
    A block's vanishing eigenvalues are those past its effective rank r at
    theta_bar; raises ``MultiBranchError`` when the first of them exceeds
    GAP_FRACTION of the block's eigenvalue r - 1 at theta_bar (when
    0 < r < d).  ``classify`` does not sample: this is the sampled view of
    the same branch, for inspection.
    """
    h = base_step(theta_bar)
    sides = [s for s in (+1.0, -1.0) if model.in_domain(theta_bar + s * h)]
    if not sides:
        raise DomainError(f"no room around theta_bar={theta_bar} in the domain of {model.name}")
    offsets = [0.0] + [frac * s for s in sides for frac in (1.0, 0.5, 0.25)]
    st = quantum._model_blocks(model, [theta_bar + o * h for o in offsets])
    r0, r_beside = _ranks(theta_bar, offsets, st)
    rows = np.argsort(offsets, kind="stable")
    offsets = [offsets[i] for i in rows]
    lam, rank = st.eigenvalues, st.ranks[0]
    d = lam.shape[-1]
    tail = np.where(st.support[0], 0.0, lam)
    j = np.arange(len(rank))
    first = lam[:, j, np.minimum(rank, d - 1)][rows]
    inner = (0 < rank) & (rank < d)
    over = first > np.where(inner, GAP_FRACTION * lam[0, j, rank - 1], np.inf)
    if over.any():
        point, block = np.argwhere(over)[0]
        raise MultiBranchError(
            f"vanishing eigenvalue {first[point, block]:.3e} at offset {offsets[point]} exceeds "
            f"{GAP_FRACTION} of its block's smallest non-vanishing one at theta_bar={theta_bar}"
        )
    values = quantum._point_sums(st.multiplicities * np.sum(tail, axis=-1))[rows].tolist()
    return BranchSamples(theta_bar, h, tuple(offsets), tuple(values), r0, r_beside)


def _fidelity_terms(support, d_eig: np.ndarray, d2_eig: np.ndarray, quotients) -> tuple:
    """The (P, B) coefficients F1 and F2 of F(A, A + e A' + e^2 A''/2) =
    tr A + e F1 + e^2 F2 + O(e^3) for each block A, from its derivatives in
    its eigenbasis and the QFI's pair quotients |A'_kl|^2 / (lambda_k +
    lambda_l) (``quantum._block_motion``), summed over its support S (the
    fidelity sees A only there):

        F1 = 1/2 sum_S A'_kk,
        F2 = 1/4 sum_S A''_kk - 1/4 sum_{k, l in S} |A'_kl|^2 / (lambda_k + lambda_l).

    Every pair in S lies inside the QFI's mask, since lambda_k and lambda_l
    above SUPPORT_TOL lambda_max sum above twice that, so the quotients
    masked to S are the ones F2 sums, divided once for both.
    """
    pairs = support[..., :, None] & support[..., None, :]
    terms = np.where(pairs, quotients, 0.0)
    first = np.where(support, d_eig.diagonal(axis1=-2, axis2=-1).real, 0.0).sum(axis=-1)
    second = np.where(support, d2_eig.diagonal(axis1=-2, axis2=-1).real, 0.0).sum(axis=-1)
    return 0.5 * first, 0.25 * second - 0.25 * terms.sum(axis=(-2, -1))


@dataclass
class DiscontinuityReport:
    """Classification of the QFI behaviour at a rank-change point."""

    theta_bar: float
    speed: float
    acceleration: float
    kind: str  # "second-kind" or "jump"; where no kernel direction moves, classify raises
    delta_q_predicted: float
    delta_q_measured: float
    qfi_at_bar: float
    qfi_limit: float
    # Effective ranks at theta_bar and just beside it, weighted by multiplicity.
    rank_at_bar: int
    rank_beside: int

    def to_json(self) -> dict:
        def enc(x):
            return ("inf" if x > 0 else "-inf") if math.isinf(x) else x

        return {
            "theta_bar": self.theta_bar,
            "speed": self.speed,
            "acceleration": self.acceleration,
            "kind": self.kind,
            "delta_q_predicted": enc(self.delta_q_predicted),
            "delta_q_measured": enc(self.delta_q_measured),
            "qfi_at_bar": self.qfi_at_bar,
            "qfi_limit": enc(self.qfi_limit),
            "rank_at_bar": self.rank_at_bar,
            "rank_beside": self.rank_beside,
        }


@quantum._overflow_is_numerical
def classify(model, theta_bar: float) -> DiscontinuityReport:
    """Full discontinuity analysis of a model at theta_bar, from one
    ``quantum._model_blocks`` read of theta_bar alone with the first two
    derivatives of its blocks, which ``_classify`` analyses.  ``mc``'s
    rank-change note hands its own read of that point to ``_classify``,
    with the kernel analysis it has already made of it."""
    return _classify(theta_bar, quantum._model_blocks(model, [theta_bar]))


def _classify(theta_bar: float, st: quantum.BlockStack, motion=None) -> DiscontinuityReport:
    """``classify`` on ``st``, a read of theta_bar alone, with ``motion``
    its ``quantum._block_motion``, made here where the caller passes none.

    The kernel side (``motion``): Q, 4g, the speed
    v = sum_j m_j v_j and the acceleration a = sum_j m_j a_j of the
    vanishing eigenvalues, by perturbation theory, and the counts of the
    kernel directions that move.  The kind reads the counts: of the second
    kind where one moves at first order, and else a jump where one moves at
    second order, so 4g is inf exactly at the second kind.  The predicted
    jump is 2a, and the QFI limit is 4g; Q and 4g equal what
    ``quantum.model_qfi`` and ``quantum.bures_metric_fd`` give alone.
    ``rank_beside`` adds the counted directions to the rank at theta_bar.

    The measured side: the fidelity's expansion over each block's support
    (``_fidelity_terms``, from the kernel side's pair quotients), summed as
    F1 and F2 with multiplicities, gives the speed -2 F1 and 4g = -8 F2, so
    the measured jump is -8 F2 - Q, infinite where the kind is second; its
    kind holds -2 F1 and half the jump against the kernel's bounds, summed
    with multiplicities, as Python floats.  The two sides differ only by
    the support cut and sum_j m_j tr A''_j = 0.  The eight per-block terms
    of both sides are summed in one array.

    The ranks are summed in int64, exact past 2**53.  Raises
    ``NotADiscontinuityError`` where no kernel direction moves: at full
    rank before any of the kernel analysis runs, since there is no kernel
    to move.  Raises ``NumericalError`` where the measured side's kind
    differs, or where, at a jump, 2a and the measured jump differ by more
    than JUMP_AGREEMENT relative.
    """
    rank_at_bar = int(quantum._weighted_ranks(st)[0])
    if st.full_rank:
        raise _standing_still(theta_bar, rank_at_bar)
    if motion is None:
        motion = quantum._block_motion(st)
    d_eig, d2_eig, q, speed, accel, quotients, bounds, counts = motion
    kind = quantum._kind(*counts.any(axis=(-2, -1)))
    if kind == "continuous":
        raise _standing_still(theta_bar, rank_at_bar)
    f1, f2 = _fidelity_terms(st.support, d_eig, d2_eig, quotients)
    terms = [q, q + 2.0 * accel, speed, accel, f1, f2, *bounds]
    # Each term summed over the blocks in block order at theta_bar, as
    # quantum._direct_sum_metric sums Q and 4g.
    sums = quantum._point_sums(st.multiplicities * np.array(terms))[:, 0].tolist()
    qfi_at_bar, four_g, speed, accel, f1, f2, *bounds = sums

    qfi_lim = math.inf if kind == "second-kind" else four_g
    measured = -8.0 * f2 - qfi_at_bar
    measured_kind = quantum._kind(abs(2.0 * f1) > bounds[0], abs(measured / 2.0) > bounds[1])
    if measured_kind != kind:
        raise NumericalError(
            f"at theta_bar={theta_bar} the kernel gives a {kind} (v = {speed:.3e}, "
            f"a = {accel:.3e}) and the fidelity a {measured_kind} "
            f"(v = {-2.0 * f1:.3e}, jump {measured:.3e})"
        )
    if kind == "second-kind":
        predicted = measured = math.inf
    else:
        predicted = 2.0 * accel
        if abs(predicted - measured) > JUMP_AGREEMENT * abs(measured):
            raise NumericalError(
                f"predicted jump 2a = {predicted:.6g} and measured jump {measured:.6g} "
                f"at theta_bar={theta_bar} differ by more than {JUMP_AGREEMENT:g} relative"
            )
    return DiscontinuityReport(
        theta_bar=theta_bar,
        speed=speed,
        acceleration=accel,
        kind=kind,
        delta_q_predicted=predicted,
        delta_q_measured=measured,
        qfi_at_bar=qfi_at_bar,
        qfi_limit=qfi_lim,
        rank_at_bar=rank_at_bar,
        rank_beside=rank_at_bar + int(counts.sum(axis=0)[0] @ st.multiplicities),
    )


def _standing_still(theta_bar: float, rank: int) -> NotADiscontinuityError:
    return NotADiscontinuityError(
        f"no kernel direction of the state moves at theta_bar={theta_bar} (effective rank {rank})"
    )
