"""Monte Carlo estimation experiments against the Cramér-Rao prediction.

Replicated sampling of a model's two-outcome measurement, given by the
closed-form probability of its first outcome (``ParametricModel.p_first``),
with the maximum-likelihood estimate taken from the observed frequency of
that outcome (``ParametricModel.estimate``).  Neither reads the density
matrix, so the sampling costs the same for every GHZ N.  The replicate
variance is compared with the fixed-rank bound 1/(M Q); at rank-changing
parameter values the bound is deliberately still reported so its
violation is visible.  The QFI and the note on a rank change share one
read of the model's blocks at the true value alone.

Randomness: one experiment draws from one NumPy stream,
``np.random.default_rng(seed)``, which gives the R first-outcome counts in
one binomial call; replicate r takes the r-th count, so the first R' of an
R-replicate run are the R'-replicate run with the same seed.  No stream is
drawn where the first outcome has probability exactly 0 or 1, as every
draw would give the same counts.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import discontinuity, quantum
from .exceptions import (
    DomainError,
    InsufficientReplicatesError,
    InvalidInputError,
    NotADiscontinuityError,
    NumericalError,
    UnsupportedModelError,
)
from .models import ParametricModel

if TYPE_CHECKING:
    from .classical import Distribution


def _integer(value, name: str) -> int:
    """``value`` as an int (``operator.index``), or an ``InvalidInputError``."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidInputError(f"{name}={value!r} is not an integer") from None


def _check_samples(n_samples) -> int:
    """``n_samples`` as a count numpy can draw as a C long: an integer from
    1 to 2**63 - 1."""
    n_samples = _integer(n_samples, "n_samples")
    if n_samples < 1:
        raise InvalidInputError("n_samples must be >= 1")
    if n_samples > 2**63 - 1:
        raise DomainError(f"n_samples={n_samples} exceeds 2**63 - 1, the largest binomial draw")
    return n_samples


def sample_outcomes(dist: Distribution, n_samples: int, seed) -> np.ndarray:
    """Multinomial outcome counts, deterministic in the seed.

    The counts are ``np.random.default_rng(seed).multinomial(n_samples,
    dist.probs)``: the first draw of the seed's stream.  ``seed`` is
    anything numpy's SeedSequence takes (an int, or a sequence of ints).
    """
    n_samples = _check_samples(n_samples)
    rng = np.random.default_rng(seed)
    return rng.multinomial(n_samples, dist.probs)


def mle(model: ParametricModel, counts) -> float:
    """Maximum-likelihood estimate from counts of the model's measurement.

    A two-outcome likelihood depends on the counts only through the
    frequency k/M of the first outcome, which ``model.estimate`` maps to
    the estimate.  ``counts`` must be two non-negative integers with a
    positive total.
    """
    counts = np.asarray(counts)
    if counts.shape != (2,) or counts.dtype.kind not in "iu":
        raise InvalidInputError(f"counts {counts.tolist()} are not two integers")
    first, second = counts.tolist()
    if min(first, second) < 0 or first + second < 1:
        raise InvalidInputError(f"counts {[first, second]} are negative or empty")
    if model.estimate is None:
        raise UnsupportedModelError(f"no two-outcome measurement or estimator for {model.name!r}")
    return float(model.estimate(first / (first + second)))


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
    cr_bound: float  # inf when the bound is not applicable (a QFI that reads as zero)
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
            "estimates": self.estimates.tolist(),
        }


def _qfi_and_rank_note(model: ParametricModel, theta: float) -> tuple[float, float, str]:
    """Q(theta), the floor at or below which Q reads as zero, and the note
    on a rank change there ("" where there is none), from one read of the
    blocks at theta alone with their first two derivatives.

    Q is ``quantum.model_qfi``'s, bit for bit: the same blocks and first
    derivatives, summed the same way.  Q reads as zero at or below
    sum_j m_j b_j^2 / lambda_max,j, with b_j the speed a kernel must exceed
    to move (``quantum._speed_bound``): the QFI of a block whose
    derivative is of that size, in Q's units, so the cut does not depend on
    the scale of theta.  A block with no weight adds nothing.  The same
    read goes to ``discontinuity._classify``, which is
    ``discontinuity.classify`` without its read: where it finds no
    discontinuity, as at full rank, no note is made; else the ranks and the
    limit are its report's, and where it cannot resolve the point, the note
    withholds them and quotes why.
    """
    st = quantum._model_blocks(model, [theta])
    q = float(quantum._direct_sum_qfi(st)[0])
    speed_bound = quantum._speed_bound(st)[0]
    top = st.eigenvalues[..., 0]
    floors = np.divide(speed_bound**2, top, out=np.zeros(top.shape), where=top > 0.0)
    floor = float(floors[0] @ st.multiplicities)
    try:
        report = discontinuity._classify(theta, st)
    except NotADiscontinuityError:
        return q, floor, ""
    except NumericalError as err:
        ranks, limit = "", f"effective ranks and continuous-limit qfi not resolved ({err})"
    else:
        ranks = f" (effective rank {report.rank_at_bar} vs {report.rank_beside} nearby)"
        value = report.qfi_limit
        limit = (
            "continuous-limit qfi diverges" if math.isinf(value)
            else f"continuous-limit qfi = {value:.6g} (reported, not asserted attainable)"
        )
    not_valid = "the fixed-rank Cramér-Rao bound is not valid here"
    return q, floor, f"rank changes at theta_true={theta}{ranks}; {not_valid}; {limit}"


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
    renormalized.  All R counts of the first outcome come from one
    binomial call on one stream, ``np.random.default_rng(seed)``, so the
    first R' replicates of an R-replicate run equal the R'-replicate run
    with the same seed.  The estimate is solved once per distinct count,
    in order of first appearance, since it depends on nothing else.
    ``n_samples``, ``n_replicates`` and ``seed`` must be integers,
    ``seed`` non-negative, ``n_samples`` at most 2**63 - 1 at every
    theta_true, and ``n_replicates`` at most 2**32: the run holds its R
    estimates as float64, 32 GiB at R = 2**32.  Where the first
    probability is exactly 0 or 1 the law is a point mass: every replicate
    gets the estimate of the one count vector it allows, and no stream is
    drawn.
    Neither step calls ``state_fn``.  The QFI and the rank-change note
    come from one read of the model's blocks and their first two
    derivatives at theta_true alone, made before any sampling, so a
    theta_true outside the model's domain is that read's ``DomainError``;
    ``discontinuity._classify`` analyses the same read, and its report
    gives the ranks and the limit.  The
    bound is not applicable (reported as inf) where Q is at or below the
    size of the QFI that the kernel-motion speed bound leaves unresolved
    (``_qfi_and_rank_note``), a cut in Q's own units, so a regular point
    stays regular at any scale of theta.
    The violation flag is set when the replicate variance falls more than
    three standard errors of the variance below the bound, with
    Var(s^2) ~ 2 s^4 / (R - 1).
    """
    n_replicates = _integer(n_replicates, "n_replicates")
    seed = _integer(seed, "seed")
    if n_replicates < 2:
        raise InsufficientReplicatesError(f"need >= 2 replicates, got {n_replicates}")
    if n_replicates > 2**32:
        raise DomainError(
            f"n_replicates={n_replicates} exceeds 2**32: 2**32 float64 estimates "
            "already fill 32 GiB"
        )
    if model.p_first is None or model.estimate is None:
        raise UnsupportedModelError(f"no two-outcome measurement or estimator for {model.name!r}")
    q, q_floor, rank_note = _qfi_and_rank_note(model, theta_true)
    n_samples = _check_samples(n_samples)
    if seed < 0:
        raise InvalidInputError(f"seed must be >= 0, got {seed}")
    p = model.p_first(theta_true)
    probs = np.clip([p, 1.0 - p], 0.0, 1.0)
    probs = probs / probs.sum()

    if probs[0] in (0.0, 1.0):
        # A point mass: every draw would give these counts.
        counts = [n_samples, 0] if probs[0] == 1.0 else [0, n_samples]
        estimates = np.full(n_replicates, mle(model, counts))
    else:
        # numpy's two-outcome multinomial draws exactly binomial(M, p0).
        ks = np.random.default_rng(seed).binomial(n_samples, probs[0], size=n_replicates).tolist()
        solved = {k: mle(model, [k, n_samples - k]) for k in dict.fromkeys(ks)}
        estimates = np.array([solved[k] for k in ks])

    # Shifted two-pass variance: identical replicate estimates must give
    # exactly zero, which the unshifted mean subtraction misses by rounding.
    sample_variance = float(np.var(estimates - estimates[0], ddof=1))
    notes = []
    if q <= q_floor:
        cr_bound = math.inf
        notes.append(f"QFI = {q:.3g} at theta_true; Cramér-Rao bound not applicable")
    else:
        cr_bound = 1.0 / (n_samples * q)
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
