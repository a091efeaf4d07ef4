"""Monte Carlo estimation experiments against the Cramér-Rao prediction.

Replicated sampling of a model's two-outcome measurement, given by the
closed-form probability of its first outcome (``ParametricModel.p_first``),
with the maximum-likelihood estimate taken from the observed frequency of
that outcome (``ParametricModel.estimate``).  Neither reads the density
matrix, so the sampling costs the same for every GHZ N.  The replicate
variance is compared with the fixed-rank bound 1/(M Q); at rank-changing
parameter values the bound is deliberately still reported so its
violation is visible.

Randomness: replicate r draws from its own NumPy PCG64 stream, seeded
through SeedSequence with the pair (seed, r); no stream is drawn where the
first outcome has probability exactly 0 or 1, as every stream draws alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import discontinuity, quantum
from .classical import Distribution
from .exceptions import (
    DomainError,
    InsufficientReplicatesError,
    InvalidInputError,
    MultiBranchError,
    NotADiscontinuityError,
    NumericalError,
    UnsupportedModelError,
)
from .models import ParametricModel


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
        raise UnsupportedModelError(f"no two-outcome measurement or estimator for {model.name!r}")
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
    """The rank change at theta and the QFI limit there, as ``classify`` finds them.

    Empty where the rank does not change.  Where ``classify`` cannot
    resolve the point, the effective ranks and the limit are withheld:
    the support cut that makes it fail miscounts both.
    """
    try:
        r0, r_beside = discontinuity.rank_change(model, theta)
    except (NotADiscontinuityError, DomainError):
        return ""
    head = f"rank changes at theta_true={theta}"
    not_valid = "the fixed-rank Cramér-Rao bound is not valid here"
    try:
        report = discontinuity.classify(model, theta)
    except (NumericalError, MultiBranchError) as err:
        return f"{head}; {not_valid}; effective ranks and continuous-limit qfi not resolved ({err})"
    except DomainError as err:
        limit = f"continuous-limit qfi not computed ({err})"
    else:
        if math.isinf(report.qfi_limit):
            limit = "continuous-limit qfi diverges"
        else:
            limit = f"continuous-limit qfi = {report.qfi_limit:.6g} (reported, not asserted attainable)"
    return f"{head} (effective rank {r0} vs {r_beside} nearby); {not_valid}; {limit}"


def run_cr_experiment(
    model: ParametricModel,
    theta_true: float,
    n_samples: int,
    n_replicates: int,
    seed: int,
) -> EstimationReport:
    """R replicates of M-sample estimation, compared against 1/(M Q).

    Each replicate samples the model's two outcomes, with probabilities
    p_first(theta_true) and 1 - p_first(theta_true) clamped to [0, 1] and
    renormalized, from its own stream; the estimate is solved once per
    distinct count vector, since it depends on nothing else.  Where the
    first probability is exactly 0 or 1 the law is a point mass: every
    replicate gets the estimate of the one count vector it allows, and no
    stream is drawn.  Neither step calls ``state_fn``; the QFI and the
    rank-change note read the model's blocks.  The
    violation flag is set when the replicate variance falls more than
    three standard errors of the variance below the bound, with
    Var(s^2) ~ 2 s^4 / (R - 1).
    """
    if n_replicates < 2:
        raise InsufficientReplicatesError(f"need >= 2 replicates, got {n_replicates}")
    if model.p_first is None or model.estimate is None:
        raise UnsupportedModelError(f"no two-outcome measurement or estimator for {model.name!r}")
    if not model.in_domain(theta_true):
        raise DomainError(f"theta={theta_true} outside the domain {model.domain} of {model.name!r}")
    p = model.p_first(theta_true)
    probs = np.clip([p, 1.0 - p], 0.0, 1.0)
    probs = probs / probs.sum()

    if probs[0] in (0.0, 1.0):
        # A point mass: every stream would draw these counts.
        if n_samples < 1:
            raise InvalidInputError("n_samples must be >= 1")
        counts = [n_samples, 0] if probs[0] == 1.0 else [0, n_samples]
        estimates = np.full(n_replicates, mle(model, counts))
    else:
        dist = Distribution(("first", "second"), probs)
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
