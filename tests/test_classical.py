import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from helpers import bernoulli_family
from qfidisc import classical, models, quantum
from qfidisc.classical import Distribution
from qfidisc.exceptions import InvalidInputError, MisidentifiedOutcomeError


class TestDistribution:
    def test_clamps_tiny_negative(self):
        dist = Distribution(("a", "b"), np.array([1.0 + 5e-13, -5e-13]))
        assert dist.probs[1] == 0.0

    def test_rejects_bad_normalization(self):
        with pytest.raises(InvalidInputError):
            Distribution(("a", "b"), np.array([0.6, 0.6]))

    def test_rejects_negative_probability(self):
        with pytest.raises(InvalidInputError):
            Distribution(("a", "b"), np.array([1.1, -0.1]))

    @pytest.mark.parametrize("probs", [[math.nan, math.nan], [0.5, math.nan]])
    def test_rejects_nan_probability(self, probs):
        with pytest.raises(InvalidInputError, match="sum to nan"):
            Distribution(("a", "b"), np.array(probs))

    def test_reports_the_sum_as_a_plain_float(self):
        with pytest.raises(InvalidInputError, match=r"sum to 1\.2, not 1$"):
            Distribution(("a", "b"), np.array([0.6, 0.6]))

    @pytest.mark.parametrize(
        "outcomes, probs, shape",
        [(("a", "b"), [[0.5], [0.5]], r"\(2, 1\)"), (("a",), 1.0, r"\(\)")],
        ids=["two-dimensional", "zero-dimensional"],
    )
    def test_rejects_probs_that_are_not_one_dimensional(self, outcomes, probs, shape):
        # A (2, 1) array once passed the length check, and a 0-d one raised
        # a bare TypeError from len().
        with pytest.raises(InvalidInputError, match=rf"one-dimensional, got shape {shape}$"):
            Distribution(outcomes, probs)


class TestFisherInformation:
    @given(p=st.floats(0.05, 0.95))
    def test_matches_quantum_on_diagonal_family(self, p):
        # The Fisher information of Bernoulli(p) along dp = (1, -1) is the
        # QFI of diag(p, 1 - p): 1 / (p (1 - p)).
        q = quantum.qfi(models.classical_bit_state(p), np.diag([1.0, -1.0]).astype(complex))
        assert q == pytest.approx(1.0 / (p * (1.0 - p)), rel=1e-10)


class TestClassicalDiscontinuity:
    def test_nan_beside_theta_bar_is_refused(self):
        # A NaN neighbour must not read as speed = acceleration = nan, "continuous".
        def family(theta):
            p = 0.0 if theta == 0.0 else math.nan
            return Distribution(("0", "1"), np.array([p, 1.0 - p]))

        with pytest.raises(InvalidInputError, match="sum to nan"):
            classical.classical_discontinuity(family, 0.0, "0")

    def test_bernoulli_second_kind(self):
        report = classical.classical_discontinuity(bernoulli_family, 0.0, "0")
        assert report.kind == "second-kind"
        assert report.speed == pytest.approx(1.0, abs=1e-6)
        assert report.delta_f == math.inf
        assert report.evidence["divergence_rate"] > 0

    def test_trig_probability_jump(self):
        def family(theta):
            s2 = math.sin(theta) ** 2
            return Distribution(("0", "1"), np.array([s2, 1.0 - s2]))

        report = classical.classical_discontinuity(family, 0.0, "0")
        assert report.kind == "jump"
        assert abs(report.speed) < 1e-6
        assert report.acceleration == pytest.approx(2.0, rel=1e-4)
        assert report.delta_f == pytest.approx(4.0, rel=1e-4)

    def test_quartic_contact_is_continuous(self):
        def family(theta):
            q = theta**4
            return Distribution(("0", "1"), np.array([q, 1.0 - q]))

        report = classical.classical_discontinuity(family, 0.0, "0")
        assert report.kind == "continuous"
        assert report.delta_f == 0.0
        assert "order > 2" in report.note

    def test_misidentified_outcome(self):
        with pytest.raises(MisidentifiedOutcomeError):
            classical.classical_discontinuity(bernoulli_family, 0.3, "0")

    def test_jump_matches_quantum_side(self):
        # The same sin^2 family viewed as a diagonal quantum model loses
        # QFI 4 -> 0 at the vanishing point; the probability jump agrees.
        def family(theta):
            s2 = math.sin(theta) ** 2
            return Distribution(("0", "1"), np.array([s2, 1.0 - s2]))

        report = classical.classical_discontinuity(family, 0.0, "0")
        model = models.make_model("trig")
        q_limit = quantum.qfi_limit(model, 0.0, side="above").value
        q_at = quantum.model_qfi(model, 0.0)
        assert report.delta_f == pytest.approx(q_limit - q_at, rel=1e-4)
