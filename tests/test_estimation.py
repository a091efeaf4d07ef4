import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qfidisc import classical, estimation, models, quantum
from qfidisc.exceptions import (
    BoundarySolutionWarning,
    InsufficientReplicatesError,
    InvalidInputError,
    UnsupportedModelError,
)


class TestProjectiveMeasurement:
    def test_computational_basis_is_valid(self):
        meas = estimation.computational_basis_measurement(4)
        assert meas.dim == 4
        assert meas.labels == ("0", "1", "2", "3")

    def test_non_idempotent_rejected(self):
        half = np.eye(2, dtype=complex) / 2
        with pytest.raises(InvalidInputError):
            estimation.ProjectiveMeasurement((half, half), ("a", "b"))

    def test_incomplete_set_rejected(self):
        p0 = np.diag([1.0, 0.0]).astype(complex)
        with pytest.raises(InvalidInputError):
            estimation.ProjectiveMeasurement((p0, p0), ("a", "b"))

    def test_unknown_model_has_no_canonical_measurement(self):
        model = models.make_model("ghz", n_qubits=2)
        assert model.measurement is None and model.estimate is None
        with pytest.raises(UnsupportedModelError):
            estimation.run_cr_experiment(model, 0.1, n_samples=10, n_replicates=5, seed=0)


class TestBornProbabilities:
    def test_diagonal_state_computational_basis(self):
        dist = estimation.born_probabilities(
            models.classical_bit_state(0.3), estimation.computational_basis_measurement(2)
        )
        assert dist.probs == pytest.approx([0.3, 0.7], abs=1e-14)

    def test_plus_state_in_its_eigenbasis(self):
        plus = np.full((2, 2), 0.5, dtype=complex)
        dist = estimation.born_probabilities(plus, estimation.pauli_x_measurement())
        assert dist.probs == pytest.approx([1.0, 0.0], abs=1e-14)

    def test_transverse_qubit_at_zero_frequency(self):
        for t in (0.3, 1.0, 4.0):
            rho = models.ghz_state(1, 0.0, 1.0, t)
            dist = estimation.born_probabilities(rho, estimation.pauli_x_measurement())
            assert dist.probs[0] == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            estimation.born_probabilities(
                np.eye(4, dtype=complex) / 4, estimation.pauli_x_measurement()
            )


class TestSampleOutcomes:
    def test_deterministic_outcome(self):
        dist = classical.Distribution(("0", "1"), np.array([1.0, 0.0]))
        counts = estimation.sample_outcomes(dist, 100, seed=3)
        assert list(counts) == [100, 0]

    def test_single_sample(self):
        dist = classical.Distribution(("0", "1"), np.array([0.0, 1.0]))
        assert list(estimation.sample_outcomes(dist, 1, seed=3)) == [0, 1]

    def test_binomial_concentration(self):
        # 3 sigma = 3 * sqrt(1e6 * 0.25) = 1500 around the mean 500000.
        dist = classical.Distribution(("0", "1"), np.array([0.5, 0.5]))
        counts = estimation.sample_outcomes(dist, 10**6, seed=11)
        assert abs(counts[0] - 500_000) <= 1500

    def test_seed_reproducibility(self):
        dist = classical.Distribution(("0", "1"), np.array([0.37, 0.63]))
        a = estimation.sample_outcomes(dist, 1000, seed=(42, 7))
        b = estimation.sample_outcomes(dist, 1000, seed=(42, 7))
        c = estimation.sample_outcomes(dist, 1000, seed=(42, 8))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_rejects_empty_draw(self):
        dist = classical.Distribution(("0", "1"), np.array([0.5, 0.5]))
        with pytest.raises(InvalidInputError):
            estimation.sample_outcomes(dist, 0, seed=1)


class TestMle:
    def test_classical_bit_fraction(self):
        model = models.make_model("classical-bit")
        assert estimation.mle(model, [30, 70]) == pytest.approx(0.3, abs=1e-15)

    def test_trig_boundary_and_midpoint(self):
        model = models.make_model("trig")
        assert estimation.mle(model, [0, 100]) == 0.0
        assert estimation.mle(model, [50, 50]) == pytest.approx(math.pi / 4, rel=1e-12)

    def test_transverse_recovers_generating_parameter(self):
        kappa, t, theta = 1.0, 1.0, 0.2
        model = models.make_model("transverse-qubit", kappa=kappa, t=t)
        dist = estimation.born_probabilities(
            model.state_fn(theta), estimation.pauli_x_measurement()
        )
        m_total = 10**6
        counts = np.round(dist.probs * m_total).astype(int)  # noiseless counts
        theta_hat = estimation.mle(model, counts)
        assert theta_hat == pytest.approx(theta, abs=1e-3)

    def test_transverse_boundary_flagged(self):
        model = models.make_model("transverse-qubit", kappa=1.0, t=1.0)
        with pytest.warns(BoundarySolutionWarning):
            theta_hat = estimation.mle(model, [100, 0])
        assert theta_hat == pytest.approx(0.0, abs=1e-6)

    @given(theta=st.floats(0.0, 1.0), name=st.sampled_from(["classical-bit", "trig", "transverse-qubit"]))
    @settings(max_examples=60)
    def test_estimate_inverts_the_measurement(self, theta, name):
        # theta scaled onto each identifiable branch, clear of the ends
        # where the inverse is ill-conditioned (trig: pi/2; transverse: 0).
        kappa = 0.8
        model = models.make_model(name, kappa=kappa, t=1.7)
        lo, hi = {
            "classical-bit": (0.0, 1.0),
            "trig": (0.0, 1.57),
            "transverse-qubit": (0.01 * kappa, 0.49 * kappa),
        }[name]
        theta = lo + theta * (hi - lo)
        p_first = estimation.born_probabilities(model.state_fn(theta), model.measurement).probs[0]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BoundarySolutionWarning)  # theta on a bracket edge
            assert model.estimate(p_first) == pytest.approx(theta, abs=1e-9)

    def test_unsupported_model(self):
        model = models.make_model("ghz", n_qubits=2)
        with pytest.raises(UnsupportedModelError):
            estimation.mle(model, [1, 0, 0, 0])


class TestRunCrExperiment:
    def test_zero_variance_at_boundary(self):
        model = models.make_model("classical-bit")
        report = estimation.run_cr_experiment(model, 0.0, n_samples=100, n_replicates=1000, seed=7)
        assert np.all(report.estimates == 0.0)
        assert report.sample_variance == 0.0
        assert report.cr_bound == pytest.approx(0.01, rel=1e-12)
        assert report.violated is True
        assert "rank changes" in report.notes

    def test_trig_critical_point_bound_not_applicable(self):
        model = models.make_model("trig")
        report = estimation.run_cr_experiment(
            model, math.pi / 2, n_samples=100, n_replicates=500, seed=3
        )
        assert report.sample_variance == 0.0
        assert math.isinf(report.cr_bound)
        assert report.violated is True
        assert "not applicable" in report.notes

    def test_regular_point_matches_asymptotics(self):
        model = models.make_model("classical-bit")
        report = estimation.run_cr_experiment(
            model, 0.3, n_samples=10**4, n_replicates=10**3, seed=2026
        )
        scaled = report.n_samples * report.sample_variance
        assert 0.9 * 0.21 <= scaled <= 1.1 * 0.21
        assert report.violated is False
        assert report.notes == ""

    def test_studentized_ratio_across_regular_points(self):
        model = models.make_model("classical-bit")
        for p in (0.2, 0.5, 0.8):
            report = estimation.run_cr_experiment(
                model, p, n_samples=10**4, n_replicates=10**3, seed=99
            )
            ratio = report.n_samples * report.sample_variance * quantum.model_qfi(model, p)
            assert 0.9 <= ratio <= 1.1

    def test_bit_exact_reproducibility(self):
        model = models.make_model("classical-bit")
        a = estimation.run_cr_experiment(model, 0.4, n_samples=500, n_replicates=50, seed=5)
        b = estimation.run_cr_experiment(model, 0.4, n_samples=500, n_replicates=50, seed=5)
        assert np.array_equal(a.estimates, b.estimates)
        assert a.sample_variance == b.sample_variance
        assert a.to_json() == b.to_json()

    @pytest.mark.parametrize(
        "name, theta", [("classical-bit", 0.4), ("transverse-qubit", 0.2 * 1.3)]
    )
    @pytest.mark.filterwarnings("ignore::qfidisc.exceptions.BoundarySolutionWarning")
    def test_estimates_are_the_per_replicate_mle(self, name, theta):
        model = models.make_model(name, kappa=1.3, t=1.0)
        seed, m_total = 17, 60
        report = estimation.run_cr_experiment(
            model, theta, n_samples=m_total, n_replicates=200, seed=seed
        )
        dist = estimation.born_probabilities(model.state_fn(theta), model.measurement)
        for r, estimate in enumerate(report.estimates):
            counts = estimation.sample_outcomes(dist, m_total, seed=(seed, r))
            assert estimate == estimation.mle(model, counts)

    def test_insufficient_replicates(self):
        model = models.make_model("classical-bit")
        with pytest.raises(InsufficientReplicatesError):
            estimation.run_cr_experiment(model, 0.3, n_samples=10, n_replicates=1, seed=0)

    def test_transverse_report_carries_limit_note(self):
        model = models.make_model("transverse-qubit", kappa=1.0, t=1.0)
        report = estimation.run_cr_experiment(model, 0.0, n_samples=50, n_replicates=20, seed=1)
        assert report.sample_variance == 0.0
        assert report.violated is True
        assert "continuous-limit qfi" in report.notes

    @pytest.mark.parametrize(
        "name, kappa, expected",
        [
            ("classical-bit", 1.0, "continuous-limit qfi diverges"),
            # The limit's first sample at theta = -0.01 lies outside the
            # domain (-0.005, 0.005): not computed, which is not divergent.
            ("transverse-qubit", 0.01, "continuous-limit qfi not computed (theta=-0.01 outside"),
        ],
    )
    @pytest.mark.filterwarnings("ignore::qfidisc.exceptions.BoundarySolutionWarning")
    def test_limit_note_names_why_it_has_no_value(self, name, kappa, expected):
        model = models.make_model(name, kappa=kappa, t=1.0)
        report = estimation.run_cr_experiment(model, 0.0, n_samples=50, n_replicates=20, seed=1)
        assert "rank changes" in report.notes
        assert expected in report.notes

    def test_canonical_trig_measurement_is_optimal(self):
        # Sampling the trig family in its canonical basis gives the
        # Bernoulli(sin^2 theta) family whose information equals the QFI.
        model = models.make_model("trig")
        theta = 0.7
        dist = estimation.born_probabilities(model.state_fn(theta), model.measurement)
        assert dist.probs[0] == pytest.approx(math.sin(theta) ** 2, abs=1e-14)
        dp = math.sin(2 * theta) * np.array([1.0, -1.0])
        fisher = classical.fisher_information(dist, dp)
        assert fisher == pytest.approx(quantum.model_qfi(model, theta), rel=1e-10)
