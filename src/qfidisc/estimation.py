"""Monte Carlo estimation experiments against the Cramér-Rao prediction.

Replicated sampling of a model's two-outcome projective measurement
(``ParametricModel.measurement``), with the maximum-likelihood estimate
taken from the observed frequency of the first outcome
(``ParametricModel.estimate``).  The replicate variance is compared with the
fixed-rank bound 1/(M Q); at rank-changing parameter values the bound is
deliberately still reported so its violation is visible.

Randomness: NumPy PCG64 generators seeded through SeedSequence with the
entropy pair (seed, replicate_index), so serial and parallel execution of
the replicates produce identical reports, bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import discontinuity, quantum
from .classical import Distribution
from .exceptions import (
    DivergenceError,
    DomainError,
    InsufficientReplicatesError,
    InvalidInputError,
    NotADiscontinuityError,
    UnsupportedModelError,
)

if TYPE_CHECKING:  # models builds its measurements from this module
    from .models import ParametricModel


@dataclass(frozen=True)
class ProjectiveMeasurement:
    """A complete set of orthogonal projectors with outcome labels."""

    projectors: tuple
    labels: tuple

    def __post_init__(self):
        if len(self.projectors) != len(self.labels):
            raise InvalidInputError("one label per projector required")
        dim = self.projectors[0].shape[0]
        total = np.zeros((dim, dim), dtype=complex)
        for p in self.projectors:
            if np.max(np.abs(p @ p - p)) > 1e-10:
                raise InvalidInputError("projector is not idempotent within 1e-10")
            if np.max(np.abs(p - p.conj().T)) > 1e-10:
                raise InvalidInputError("projector is not Hermitian within 1e-10")
            total += p
        if np.max(np.abs(total - np.eye(dim))) > 1e-10:
            raise InvalidInputError("projectors do not sum to the identity within 1e-10")

    @property
    def dim(self) -> int:
        return self.projectors[0].shape[0]


def computational_basis_measurement(dim: int = 2) -> ProjectiveMeasurement:
    eye = np.eye(dim, dtype=complex)
    projectors = tuple(np.outer(eye[:, k], eye[:, k].conj()) for k in range(dim))
    return ProjectiveMeasurement(projectors, tuple(str(k) for k in range(dim)))


def pauli_x_measurement() -> ProjectiveMeasurement:
    plus = np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0)
    minus = np.array([1.0, -1.0], dtype=complex) / math.sqrt(2.0)
    return ProjectiveMeasurement(
        (np.outer(plus, plus.conj()), np.outer(minus, minus.conj())), ("+", "-")
    )


def born_probabilities(rho: np.ndarray, meas: ProjectiveMeasurement) -> Distribution:
    """Outcome distribution tr(P_x rho), clamped and renormalized."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (meas.dim, meas.dim):
        raise InvalidInputError(f"state dim {rho.shape} does not match measurement dim {meas.dim}")
    probs = np.array([float(np.real(np.trace(p @ rho))) for p in meas.projectors])
    probs = np.clip(probs, 0.0, 1.0)
    return Distribution(meas.labels, probs / probs.sum())


def sample_outcomes(dist: Distribution, n_samples: int, seed) -> np.ndarray:
    """Multinomial outcome counts, deterministic in the seed.

    ``seed`` feeds numpy's SeedSequence (an int, or a sequence such as
    (experiment_seed, replicate_index)); draws use the PCG64 generator.
    """
    if n_samples < 1:
        raise InvalidInputError("n_samples must be >= 1")
    rng = np.random.default_rng(seed)
    return rng.multinomial(n_samples, dist.probs)


def mle(model: ParametricModel, counts) -> float:
    """Maximum-likelihood estimate from counts of the model's measurement.

    A two-outcome likelihood depends on the counts only through the
    frequency k/M of the first outcome, which ``model.estimate`` maps to
    the estimate.
    """
    counts = np.asarray(counts)
    total = int(counts.sum())
    if total < 1:
        raise InvalidInputError("counts are empty")
    if model.estimate is None:
        raise UnsupportedModelError(f"no canonical measurement or estimator for {model.name!r}")
    return float(model.estimate(counts[0] / total))


@dataclass
class EstimationReport:
    """Replicated Monte Carlo estimation summary."""

    model: str
    theta_true: float
    n_samples: int  # per replicate
    n_replicates: int
    seed: int
    estimates: np.ndarray
    sample_variance: float
    cr_bound: float  # inf when the bound is not applicable (zero QFI)
    violated: bool
    notes: str = ""

    @property
    def replicate_mean(self) -> float:
        return float(np.mean(self.estimates))

    def to_json(self) -> dict:
        return {
            "model": self.model,
            "theta_true": self.theta_true,
            "n_samples": self.n_samples,
            "n_replicates": self.n_replicates,
            "seed": self.seed,
            "sample_variance": self.sample_variance,
            "replicate_mean": self.replicate_mean,
            "cr_bound": "inf" if math.isinf(self.cr_bound) else self.cr_bound,
            "violated": self.violated,
            "notes": self.notes,
            "estimates": [float(x) for x in self.estimates],
        }


def _rank_change_note(model: ParametricModel, theta: float) -> str:
    try:
        _, _, r0, r_beside = discontinuity.rank_change(model, theta)
    except (NotADiscontinuityError, DomainError):
        return ""
    note = (
        f"rank changes at theta_true={theta} (effective rank {r0} vs {r_beside} nearby); "
        "the fixed-rank Cramér-Rao bound is not valid here"
    )
    try:
        lim = quantum.qfi_limit(model, theta)
        note += f"; continuous-limit qfi = {lim.value:.6g} (reported, not asserted attainable)"
    except DivergenceError:
        note += "; continuous-limit qfi diverges"
    except DomainError as err:
        note += f"; continuous-limit qfi not computed ({err})"
    return note


def run_cr_experiment(
    model: ParametricModel,
    theta_true: float,
    n_samples: int,
    n_replicates: int,
    seed: int,
) -> EstimationReport:
    """R replicates of M-sample estimation, compared against 1/(M Q).

    Each replicate samples the model's measurement from its own stream;
    the estimate is solved once per distinct count vector, since it
    depends on nothing else.  The violation flag is set when the
    replicate variance falls more than three standard errors of the
    variance below the bound, with Var(s^2) ~ 2 s^4 / (R - 1).
    """
    if n_replicates < 2:
        raise InsufficientReplicatesError(f"need >= 2 replicates, got {n_replicates}")
    if model.measurement is None:
        raise UnsupportedModelError(f"no canonical measurement or estimator for {model.name!r}")
    dist = born_probabilities(model.state_fn(theta_true), model.measurement)

    estimates = np.empty(n_replicates)
    solved: dict[bytes, float] = {}
    for r in range(n_replicates):
        counts = sample_outcomes(dist, n_samples, seed=(seed, r))
        key = counts.tobytes()
        if key not in solved:
            solved[key] = mle(model, counts)
        estimates[r] = solved[key]

    # Shifted two-pass variance: identical replicate estimates must give
    # exactly zero, which the unshifted mean subtraction misses by rounding.
    sample_variance = float(np.var(estimates - estimates[0], ddof=1))
    q = quantum.model_qfi(model, theta_true)
    notes = []
    if q <= 1e-12:
        cr_bound = math.inf
        notes.append(f"QFI = {q:.3g} at theta_true; Cramér-Rao bound not applicable")
    else:
        cr_bound = 1.0 / (n_samples * q)
    rank_note = _rank_change_note(model, theta_true)
    if rank_note:
        notes.append(rank_note)

    std_err = sample_variance * math.sqrt(2.0 / (n_replicates - 1))
    violated = sample_variance < cr_bound - 3.0 * std_err
    return EstimationReport(
        model=model.name,
        theta_true=theta_true,
        n_samples=n_samples,
        n_replicates=n_replicates,
        seed=seed,
        estimates=estimates,
        sample_variance=sample_variance,
        cr_bound=cr_bound,
        violated=bool(violated),
        notes="; ".join(notes),
    )
