"""Quantum-side discontinuity analysis at rank-changing parameter values.

Tracks the eigenvalue branch that vanishes at theta_bar, estimates its
speed v and acceleration a by finite differences, and classifies the QFI
behaviour: continuous (v = a = 0), a jump of size 2a (v = 0, a != 0), or
a discontinuity of the second kind (v != 0, divergent limit).  The jump
prediction 2a is checked against the directly measured difference between
the one-sided QFI limit and the QFI evaluated exactly at theta_bar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import quantum
from .classical import classify_from_derivatives
from .exceptions import (
    DivergenceError,
    DomainError,
    MultiBranchError,
    NotADiscontinuityError,
)
from .numdiff import speed_and_acceleration

# Eigenvalue-branch matching threshold between adjacent grid points:
# smooth families have overlap -> 1, accidental crossings stay near 0.
OVERLAP_MIN = 0.5


@dataclass(frozen=True)
class BranchSamples:
    """The vanishing eigenvalue sampled around theta_bar.

    ``offsets`` are in units of the base step h and include 0; values are
    the matched eigenvalue at theta_bar + offset * h.
    """

    theta_bar: float
    h: float
    offsets: tuple[float, ...]
    values: tuple[float, ...]
    rank_at_bar: int
    rank_beside: int

    def as_dict(self) -> dict[float, float]:
        return dict(zip(self.offsets, self.values))


def vanishing_eigenvalue_branch(
    model,
    theta_bar: float,
    h: float | None = None,
    support_tol: float = quantum.SUPPORT_TOL,
) -> BranchSamples:
    """Sample the eigenvalue branch that vanishes at theta_bar.

    The model's effective rank at theta_bar must be strictly smaller than
    at theta_bar +/- h (on every side that lies inside the domain); the
    branch is followed outward from the kernel direction by eigenvector
    overlap between adjacent grid points.
    """
    if h is None:
        h = 1e-3 * max(1.0, abs(theta_bar))
    spect_bar = quantum.spectral_decompose(model.state_fn(theta_bar), support_tol)
    r0 = spect_bar.effective_rank
    dim = spect_bar.dim

    sides = [s for s in (+1.0, -1.0) if model.in_domain(theta_bar + s * h)]
    if not sides:
        raise DomainError(f"no room around theta_bar={theta_bar} in the domain of {model.name}")

    side_ranks = {}
    side_spectra = {}
    for s in sides:
        sp = quantum.spectral_decompose(model.state_fn(theta_bar + s * h), support_tol)
        side_ranks[s] = sp.effective_rank
        side_spectra[s] = sp
    if any(side_ranks[s] <= r0 for s in sides):
        raise NotADiscontinuityError(
            f"effective rank {r0} at theta_bar={theta_bar} does not increase "
            f"on the sampled sides (ranks {side_ranks})"
        )
    deficit = min(side_ranks[s] for s in sides) - r0
    if deficit > 1:
        raise MultiBranchError(
            f"{deficit} eigenvalues vanish simultaneously at theta_bar={theta_bar}; "
            "only a single vanishing branch is supported"
        )

    kernel_dim = dim - r0
    offsets = {0.0: float(spect_bar.eigenvalues[-1])}
    for s in sides:
        if kernel_dim == 1:
            # Walk outward from the kernel direction.
            current = spect_bar.eigenvectors[:, -1]
            walk = [0.25 * s, 0.5 * s, 1.0 * s]
        else:
            # Persistent kernel: seed on the outermost point with the
            # smallest above-tolerance eigenvalue and walk inward.
            sp = side_spectra[s]
            above = np.flatnonzero(sp.eigenvalues > support_tol)
            k = above[-1]
            current = sp.eigenvectors[:, k]
            offsets[1.0 * s] = float(sp.eigenvalues[k])
            walk = [0.5 * s, 0.25 * s]
        for off in walk:
            sp = (
                side_spectra[s]
                if off == 1.0 * s and kernel_dim == 1
                else quantum.spectral_decompose(
                    model.state_fn(theta_bar + off * h), support_tol
                )
            )
            overlaps = np.abs(sp.eigenvectors.conj().T @ current)
            k = int(np.argmax(overlaps))
            if overlaps[k] <= OVERLAP_MIN:
                raise MultiBranchError(
                    f"eigenvector overlap {overlaps[k]:.3f} <= {OVERLAP_MIN} at offset "
                    f"{off}; branch matching is ambiguous"
                )
            current = sp.eigenvectors[:, k]
            offsets[off] = float(sp.eigenvalues[k])

    ordered = tuple(sorted(offsets))
    return BranchSamples(
        theta_bar=theta_bar,
        h=h,
        offsets=ordered,
        values=tuple(offsets[o] for o in ordered),
        rank_at_bar=r0,
        rank_beside=max(side_ranks.values()),
    )


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


def classify(
    model,
    theta_bar: float,
    h: float | None = None,
    support_tol: float = quantum.SUPPORT_TOL,
) -> DiscontinuityReport:
    """Full discontinuity analysis of a model at theta_bar.

    Raises ``NotADiscontinuityError`` when the rank does not change.
    """
    branch = vanishing_eigenvalue_branch(model, theta_bar, h, support_tol)
    speed, accel = speed_and_acceleration(branch.h, branch.as_dict())
    qfi_at_bar = quantum.model_qfi(model, theta_bar, support_tol)

    side = "above" if model.in_domain(theta_bar + 1e-2) else "below"
    evidence: dict = {"h": branch.h, "branch_values": list(branch.values)}
    try:
        limit = quantum.qfi_limit(model, theta_bar, side=side, support_tol=support_tol)
        qfi_lim = limit.value
        evidence["qfi_limit_error"] = limit.error
        diverged = False
    except DivergenceError as err:
        qfi_lim = math.inf
        evidence["qfi_samples"] = list(err.values) if err.values is not None else []
        diverged = True

    kind = classify_from_derivatives(speed, accel)
    if diverged:
        kind = "second-kind"
    if kind == "second-kind":
        predicted = math.inf
        measured = math.inf if diverged else qfi_lim - qfi_at_bar
    else:
        predicted = 2.0 * accel
        measured = qfi_lim - qfi_at_bar
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
