import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qfidisc import classical, discontinuity, estimation, models, quantum
from qfidisc.exceptions import (
    BoundarySolutionWarning,
    DomainError,
    InsufficientReplicatesError,
    InvalidInputError,
    NumericalError,
    UnsupportedModelError,
)

from helpers import diagonal_branch_model, reparametrized


PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)


def dense_parity_probability(rho: np.ndarray, n_qubits: int) -> float:
    """(1 + tr(X^(x)N rho)) / 2 from the 2^N density matrix."""
    parity = np.ones((1, 1), dtype=complex)
    for _ in range(n_qubits):
        parity = np.kron(parity, PAULI_X)
    return 0.5 * (1.0 + float(np.trace(parity @ rho).real))


def raising_state(theta):
    raise AssertionError(f"state_fn called at theta={theta}")


class TestFirstOutcomeProbability:
    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize(
        "theta, kappa, t", [(0.0, 1.0, 1.0), (0.1, 1.0, 1.0), (-0.2, 0.8, 1.7), (0.3, 2.0, 0.5)]
    )
    def test_ghz_parity_matches_the_dense_trace(self, n, theta, kappa, t):
        model = models.make_model("ghz", kappa=kappa, t=t, n_qubits=n)
        dense = dense_parity_probability(models.ghz_state(n, theta, kappa, t), n)
        assert model.p_first(theta) == pytest.approx(dense, abs=1e-14)

    @pytest.mark.parametrize("name, theta", [("classical-bit", 0.3), ("trig", 0.7), ("trig", 1.2)])
    def test_diagonal_families_read_the_first_basis_state(self, name, theta):
        model = models.make_model(name)
        assert model.p_first(theta) == model.state_fn(theta)[0, 0].real

    @pytest.mark.parametrize("n", [1, 2, 8, 24])
    def test_parity_is_exactly_one_at_theta_zero(self, n):
        # Zero replicate variance at the rank change then holds for every
        # draw, not only with high probability.
        for kappa in (0.01, 1.0, 3.0):
            for t in (0.3, 1.0, 4.0):
                model = models.make_model("ghz", kappa=kappa, t=t, n_qubits=n)
                assert model.p_first(0.0) == 1.0


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

    @pytest.mark.parametrize("n_samples", [10.5, 10.0, "5"])
    def test_non_integer_sample_count_is_invalid(self, n_samples):
        # 10.5 drew counts that sum to 10.
        dist = classical.Distribution(("0", "1"), np.array([0.3, 0.7]))
        with pytest.raises(InvalidInputError, match="n_samples=.* is not an integer"):
            estimation.sample_outcomes(dist, n_samples, seed=1)

    def test_sample_count_past_a_c_long_is_a_domain_error(self):
        # run_cr_experiment's message; numpy's multinomial would raise an
        # OverflowError here.  The largest count still draws.
        dist = classical.Distribution(("0", "1"), np.array([0.3, 0.7]))
        for n_samples in (10**20, 2**63):
            with pytest.raises(DomainError, match=rf"^n_samples={n_samples} exceeds 2\*\*63 - 1, "):
                estimation.sample_outcomes(dist, n_samples, seed=1)
        assert estimation.sample_outcomes(dist, 2**63 - 1, seed=1).sum() == 2**63 - 1

    @pytest.mark.parametrize("p", [1e-300, 1e-12, 0.3, 0.5, 1 - 1e-12, 1 - 2**-53])
    @pytest.mark.parametrize("m_total", [1, 100, 10**4, 10**6])
    def test_binomial_is_the_first_multinomial_count(self, p, m_total):
        # run_cr_experiment draws binomial counts; this reads multinomial ones.
        binomial_rng, multinomial_rng = np.random.default_rng(5), np.random.default_rng(5)
        ks = binomial_rng.binomial(m_total, p, size=20)
        counts = multinomial_rng.multinomial(m_total, [p, 1.0 - p], size=20)
        assert np.array_equal(ks, counts[:, 0])
        # Both consumed the same words of the stream.
        assert binomial_rng.bit_generator.state == multinomial_rng.bit_generator.state


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
        p = model.p_first(theta)
        m_total = 10**6
        counts = np.round(np.array([p, 1.0 - p]) * m_total).astype(int)  # noiseless counts
        theta_hat = estimation.mle(model, counts)
        assert theta_hat == pytest.approx(theta, abs=1e-3)

    def test_transverse_boundary_flagged(self):
        model = models.make_model("transverse-qubit", kappa=1.0, t=1.0)
        with pytest.warns(BoundarySolutionWarning):
            theta_hat = estimation.mle(model, [100, 0])
        assert theta_hat == pytest.approx(0.0, abs=1e-6)

    @given(
        theta=st.floats(0.0, 1.0),
        case=st.sampled_from(
            [("classical-bit", 1), ("trig", 1), ("transverse-qubit", 1)]
            + [("ghz", 2), ("ghz", 8), ("ghz", 24)]
        ),
    )
    @settings(max_examples=90)
    def test_estimate_inverts_the_measurement(self, theta, case):
        # theta scaled onto each identifiable branch, clear of the ends
        # where the inverse is ill-conditioned (trig: pi/2; parity: 0 and
        # the first stationary point theta* of p(+)).
        name, n = case
        kappa, t = 0.8, 1.7
        model = models.make_model(name, kappa=kappa, t=t, n_qubits=n)
        lo, hi = {
            "classical-bit": (0.0, 1.0),
            "trig": (0.0, 1.57),
            "transverse-qubit": (0.01 * kappa, 0.49 * kappa),
            "ghz": (0.01 * kappa, 0.99 * models._parity_turning_point(n, kappa, t)),
        }[name]
        theta = lo + theta * (hi - lo)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BoundarySolutionWarning)  # theta on a bracket edge
            assert model.estimate(model.p_first(theta)) == pytest.approx(theta, abs=1e-9)

    @pytest.mark.parametrize(
        "counts",
        [[-5, 10], [3, 1, 1], [math.nan, 1], [[30, 70], [50, 50]], [0, 0], [30.0, 70.0],
         [True, False], [2**64, 1], []],
        ids=["negative", "three", "nan", "2-d", "empty", "float", "bool", "past-uint64", "none"],
    )
    def test_malformed_counts_are_invalid(self, counts):
        # The classical bit's estimate is k / M: [-5, 10] read -1.0 and
        # [3, 1, 1] read 0.6.
        model = models.make_model("classical-bit")
        with pytest.raises(InvalidInputError, match="counts"):
            estimation.mle(model, counts)

    def test_integer_counts_of_any_integer_type(self):
        model = models.make_model("classical-bit")
        for counts in ([30, 70], np.array([30, 70], dtype=np.uint8), (np.int64(30), 70)):
            assert estimation.mle(model, counts) == 0.3

    def test_model_without_measurement_is_unsupported(self):
        model = diagonal_branch_model(lambda theta: theta, lambda theta: 1.0, lambda theta: 0.0)
        assert model.p_first is None and model.estimate is None
        with pytest.raises(UnsupportedModelError):
            estimation.mle(model, [1, 0])
        with pytest.raises(UnsupportedModelError):
            estimation.run_cr_experiment(model, 0.1, n_samples=10, n_replicates=5, seed=0)


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
        "name, n, theta",
        [("classical-bit", 1, 0.4), ("transverse-qubit", 1, 0.2 * 1.3), ("ghz", 3, 0.1)],
    )
    @pytest.mark.filterwarnings("ignore::qfidisc.exceptions.BoundarySolutionWarning")
    def test_estimates_are_the_per_replicate_mle(self, name, n, theta):
        model = models.make_model(name, kappa=1.3, t=1.0, n_qubits=n)
        seed, m_total, n_replicates = 17, 60, 200
        report = estimation.run_cr_experiment(
            model, theta, n_samples=m_total, n_replicates=n_replicates, seed=seed
        )
        # The same stream read through multinomial, not the library's binomial.
        p = model.p_first(theta)
        rng = np.random.default_rng(seed)
        ks = rng.multinomial(m_total, [p, 1.0 - p], size=n_replicates)[:, 0].tolist()
        assert len(report.estimates) == n_replicates
        for estimate, k in zip(report.estimates, ks):
            assert estimate == estimation.mle(model, [k, m_total - k])

    @pytest.mark.parametrize("name, n", [("transverse-qubit", 1), ("ghz", 3), ("ghz", 24)])
    @pytest.mark.parametrize("theta", [0.0, 0.1])
    @pytest.mark.filterwarnings("ignore::qfidisc.exceptions.BoundarySolutionWarning")
    def test_never_reads_the_dense_state(self, name, n, theta):
        model = models.make_model(name, kappa=1.0, t=1.0, n_qubits=n)
        blind = dataclasses.replace(model, state_fn=raising_state)
        args = dict(n_samples=200, n_replicates=50, seed=8)
        report = estimation.run_cr_experiment(blind, theta, **args)
        assert report.to_json() == estimation.run_cr_experiment(model, theta, **args).to_json()

    @pytest.mark.parametrize(
        "name, theta",
        [("classical-bit", 1.5), ("trig", -0.1), ("transverse-qubit", 0.5), ("ghz", -0.6)],
    )
    def test_domain_is_checked_before_anything_else(self, name, theta):
        model = models.make_model(name, kappa=1.0, t=1.0, n_qubits=3)
        blind = dataclasses.replace(model, state_fn=raising_state)
        with pytest.raises(DomainError):
            estimation.run_cr_experiment(blind, theta, n_samples=10, n_replicates=5, seed=0)

    @pytest.mark.parametrize(
        "name, n, theta",
        [
            ("classical-bit", 1, 0.0),
            ("classical-bit", 1, 1.0),
            ("trig", 1, 0.0),
            ("trig", 1, math.pi / 2),
            ("transverse-qubit", 1, 0.0),
            ("ghz", 3, 0.0),
        ],
    )
    @pytest.mark.filterwarnings("ignore::qfidisc.exceptions.BoundarySolutionWarning")
    def test_point_mass_draws_no_stream(self, monkeypatch, name, n, theta):
        def no_draw(*args, **kwargs):
            raise AssertionError("a stream seeded on a point mass")

        model = models.make_model(name, n_qubits=n)
        assert model.p_first(theta) in (0.0, 1.0)
        monkeypatch.setattr(np.random, "default_rng", no_draw)
        report = estimation.run_cr_experiment(model, theta, n_samples=40, n_replicates=30, seed=2)
        assert len(report.estimates) == 30
        assert np.all(report.estimates == report.estimates[0])
        assert report.sample_variance == 0.0
        assert report.violated is True
        # The message sample_outcomes gives, not the estimator's "counts are empty".
        with pytest.raises(InvalidInputError, match="n_samples must be >= 1"):
            estimation.run_cr_experiment(model, theta, n_samples=0, n_replicates=30, seed=2)

    @given(
        seed=st.integers(0, 2**128),
        n_replicates=st.integers(2, 300),
        fraction=st.floats(0.0, 1.0),
        case=st.sampled_from(
            [("classical-bit", 1, 0.3), ("trig", 1, 0.7), ("transverse-qubit", 1, 0.2),
             ("ghz", 3, 0.1)]
        ),
    )
    @settings(max_examples=40, deadline=None)
    @pytest.mark.filterwarnings("ignore::qfidisc.exceptions.BoundarySolutionWarning")
    def test_first_replicates_are_the_shorter_run(self, seed, n_replicates, fraction, case):
        name, n, theta = case
        model = models.make_model(name, n_qubits=n)
        shorter = 2 + int(fraction * (n_replicates - 2))
        args = dict(n_samples=40, seed=seed)
        full = estimation.run_cr_experiment(model, theta, n_replicates=n_replicates, **args)
        prefix = estimation.run_cr_experiment(model, theta, n_replicates=shorter, **args)
        assert len(full.estimates) == n_replicates
        assert np.array_equal(full.estimates[:shorter], prefix.estimates)

    @pytest.mark.parametrize("theta", [0.0, 0.3])  # a point mass and a sampled law
    def test_negative_seed_is_invalid_before_any_draw(self, monkeypatch, theta):
        def no_draw(*args, **kwargs):
            raise AssertionError("a stream seeded for a negative seed")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        model = models.make_model("classical-bit")
        with pytest.raises(InvalidInputError, match="seed must be >= 0, got -1"):
            estimation.run_cr_experiment(model, theta, n_samples=40, n_replicates=30, seed=-1)

    @pytest.mark.parametrize("theta", [0.0, 0.3])  # a point mass and a sampled law
    def test_sample_count_past_a_c_long_is_a_domain_error(self, theta):
        model = models.make_model("classical-bit")
        with pytest.raises(DomainError, match=r"exceeds 2\*\*63 - 1"):
            estimation.run_cr_experiment(model, theta, n_samples=10**20, n_replicates=2, seed=0)
        with pytest.raises(DomainError):
            estimation.run_cr_experiment(model, theta, n_samples=2**63, n_replicates=2, seed=0)

    def test_largest_sample_count_runs(self):
        model = models.make_model("classical-bit")
        report = estimation.run_cr_experiment(
            model, 0.3, n_samples=2**63 - 1, n_replicates=2, seed=0
        )
        assert np.isfinite(report.estimates).all()
        assert report.n_samples == 2**63 - 1

    @pytest.mark.parametrize(
        "name, value",
        [("n_samples", 10.5), ("n_samples", 10.0), ("n_replicates", 5.0), ("seed", 1.5),
         ("seed", "3")],
    )
    def test_non_integer_counts_and_seed_are_invalid(self, name, value):
        model = models.make_model("classical-bit")
        args = {"n_samples": 10, "n_replicates": 5, "seed": 0, name: value}
        with pytest.raises(InvalidInputError, match=f"{name}=.* is not an integer"):
            estimation.run_cr_experiment(model, 0.3, **args)

    def test_integer_types_are_reported_as_ints(self):
        model = models.make_model("classical-bit")
        report = estimation.run_cr_experiment(
            model, 0.3, n_samples=np.int64(10), n_replicates=np.uint32(5), seed=np.int8(2)
        )
        fields = report.to_json()
        assert [type(fields[key]) for key in ("n_samples", "n_replicates", "seed")] == [int] * 3
        expected = estimation.run_cr_experiment(model, 0.3, n_samples=10, n_replicates=5, seed=2)
        assert fields == expected.to_json()

    @pytest.mark.parametrize("theta", [0.0, 0.3])  # a point mass and a sampled law
    def test_replicates_past_2_32_are_refused_before_any_allocation(self, monkeypatch, theta):
        def refused(*args, **kwargs):
            raise AssertionError("allocated or seeded past the replicate cap")

        monkeypatch.setattr(np.random, "default_rng", refused)
        monkeypatch.setattr(np, "full", refused)
        monkeypatch.setattr(np, "empty", refused)
        model = models.make_model("classical-bit")
        with pytest.raises(DomainError, match=r"exceeds 2\*\*32"):
            estimation.run_cr_experiment(model, theta, n_samples=10, n_replicates=2**32 + 1, seed=0)

    def test_insufficient_replicates(self):
        model = models.make_model("classical-bit")
        with pytest.raises(InsufficientReplicatesError):
            estimation.run_cr_experiment(model, 0.3, n_samples=10, n_replicates=1, seed=0)

    def test_transverse_report_carries_limit_note(self):
        model = models.make_model("transverse-qubit", kappa=1.0, t=1.0)
        with pytest.warns(BoundarySolutionWarning):  # theta = 0 is the bracket edge
            report = estimation.run_cr_experiment(
                model, 0.0, n_samples=50, n_replicates=20, seed=1
            )
        assert report.sample_variance == 0.0
        assert report.violated is True
        assert "continuous-limit qfi" in report.notes

    @pytest.mark.filterwarnings("ignore::qfidisc.exceptions.BoundarySolutionWarning")
    def test_limit_note_names_why_it_has_no_value(self):
        model = models.make_model("classical-bit")
        report = estimation.run_cr_experiment(model, 0.0, n_samples=50, n_replicates=20, seed=1)
        assert "rank changes" in report.notes
        assert "continuous-limit qfi diverges" in report.notes

    @pytest.mark.filterwarnings("ignore::qfidisc.exceptions.BoundarySolutionWarning")
    def test_transverse_note_at_small_kappa_reports_the_closed_form_limit(self):
        # The domain (-0.005, 0.005) is narrower than any fixed limit step;
        # the limit 4g is read at theta = 0 itself.
        model = models.make_model("transverse-qubit", kappa=0.01, t=1.0)
        report = estimation.run_cr_experiment(model, 0.0, n_samples=50, n_replicates=20, seed=1)
        limit = models.ghz_qfi_continuous(1, 0.01, 1.0)
        assert "(effective rank 1 vs 2 nearby)" in report.notes
        assert f"continuous-limit qfi = {limit:.6g} (reported" in report.notes

    @pytest.mark.parametrize("n, kappa, t", [(2, 1.0, 1.0), (4, 2.0, 0.3), (8, 1.0, 1.0)])
    @pytest.mark.filterwarnings("ignore::qfidisc.exceptions.BoundarySolutionWarning")
    def test_ghz_note_reports_the_closed_form_limit(self, n, kappa, t):
        model = models.make_model("ghz", kappa=kappa, t=t, n_qubits=n)
        report = estimation.run_cr_experiment(model, 0.0, n_samples=50, n_replicates=20, seed=1)
        limit = models.ghz_qfi_continuous(n, kappa, t)
        assert f"(effective rank {2 ** (n - 1)} vs {2**n} nearby)" in report.notes
        assert f"continuous-limit qfi = {limit:.6g} (reported" in report.notes

    @pytest.mark.parametrize("kappa, t", [(1.0, 1.0), (2.0, 0.3)])
    @pytest.mark.filterwarnings("ignore::qfidisc.exceptions.BoundarySolutionWarning")
    def test_rank_change_at_24_qubits_reports_ranks_and_limit(self, kappa, t):
        # The relative support cut keeps every light block: the state has
        # full rank 2^24 beside theta = 0, and the limit is the closed form.
        model = models.make_model("ghz", kappa=kappa, t=t, n_qubits=24)
        report = estimation.run_cr_experiment(model, 0.0, n_samples=50, n_replicates=20, seed=1)
        limit = models.ghz_qfi_continuous(24, kappa, t)
        assert report.sample_variance == 0.0 and report.violated is True
        assert report.notes.startswith(
            "rank changes at theta_true=0.0 (effective rank 8388608 vs 16777216 nearby); "
            "the fixed-rank Cramér-Rao bound is not valid here; "
            f"continuous-limit qfi = {limit:.6g} (reported"
        )

    @pytest.mark.filterwarnings("ignore::qfidisc.exceptions.BoundarySolutionWarning")
    def test_unresolved_rank_change_withholds_ranks_and_limit(self, monkeypatch):
        # Where classify cannot reconcile its numbers, the note quotes why.
        def unresolved(theta, stack):
            raise NumericalError("predicted and measured jumps differ")

        monkeypatch.setattr(discontinuity, "_classify", unresolved)
        model = models.make_model("transverse-qubit")
        report = estimation.run_cr_experiment(model, 0.0, n_samples=50, n_replicates=20, seed=1)
        assert report.notes == (
            "rank changes at theta_true=0.0; the fixed-rank Cramér-Rao bound is not valid here; "
            "effective ranks and continuous-limit qfi not resolved "
            "(predicted and measured jumps differ)"
        )

    @pytest.mark.parametrize(
        "name, theta",
        [
            ("classical-bit", 0.3),  # full rank at theta
            ("transverse-qubit", 0.2),
            ("trig", 0.0),  # a rank change: the note classifies the same read
            ("transverse-qubit", 0.0),
        ],
    )
    @pytest.mark.filterwarnings("ignore::qfidisc.exceptions.BoundarySolutionWarning")
    def test_blocks_are_read_once_at_theta_alone(self, name, theta):
        model = models.make_model(name)
        calls = []

        def counted(th):
            calls.append(th)
            return model.blocks_fn(th)

        args = dict(n_samples=50, n_replicates=20, seed=1)
        report = estimation.run_cr_experiment(
            dataclasses.replace(model, blocks_fn=counted), theta, **args
        )
        assert calls == [theta]
        assert report.to_json() == estimation.run_cr_experiment(model, theta, **args).to_json()

    @pytest.mark.parametrize("name, theta", [("classical-bit", 0.3), ("ghz", 0.1), ("ghz", 0.0)])
    def test_qfi_is_model_qfi_bit_for_bit(self, name, theta):
        model = models.make_model(name, n_qubits=4)
        q, _, _ = estimation._qfi_and_rank_note(model, theta)
        assert q == quantum.model_qfi(model, theta)

    @pytest.mark.parametrize("name, theta", [("classical-bit", 0.3), ("transverse-qubit", 0.2)])
    @pytest.mark.filterwarnings("ignore::qfidisc.exceptions.BoundarySolutionWarning")
    def test_full_rank_point_runs_no_kernel_analysis(self, monkeypatch, name, theta):
        def refused(*args):
            raise AssertionError("kernel analysis run on a read of full rank")

        model = models.make_model(name)
        args = dict(n_samples=200, n_replicates=50, seed=4)
        expected = estimation.run_cr_experiment(model, theta, **args).to_json()
        monkeypatch.setattr(quantum, "_block_motion", refused)
        report = estimation.run_cr_experiment(model, theta, **args)
        assert report.to_json() == expected
        assert report.notes == "" and math.isfinite(report.cr_bound)

    @pytest.mark.parametrize("name, theta", [("classical-bit", 0.3), ("transverse-qubit", 0.2)])
    @pytest.mark.filterwarnings("ignore::qfidisc.exceptions.BoundarySolutionWarning")
    def test_regular_point_stays_regular_at_every_scale_of_theta(self, name, theta):
        # theta = c phi: the estimates, the variance and the bound scale by
        # 1/c and 1/c^2, so the verdict and the notes cannot move.  At the
        # parent a fixed cut Q <= 1e-12 made the classical bit at c <= 1e-7
        # a violation with bound "inf".
        model = models.make_model(name)
        args = dict(n_samples=1000, n_replicates=200, seed=11)
        base = estimation.run_cr_experiment(model, theta, **args)
        assert base.notes == "" and math.isfinite(base.cr_bound)
        for scale in (1e-8, 1e-4, 1.0, 1e4, 1e8):
            report = estimation.run_cr_experiment(
                reparametrized(model, scale), theta / scale, **args
            )
            assert (report.violated, report.notes) == (base.violated, base.notes), scale
            assert report.cr_bound * scale**2 == pytest.approx(base.cr_bound, rel=1e-12)

    @pytest.mark.parametrize("theta", [0.0, math.pi / 2])
    @pytest.mark.filterwarnings("ignore::qfidisc.exceptions.BoundarySolutionWarning")
    def test_trig_bound_is_not_applicable_at_every_scale_of_theta(self, theta):
        # At pi/2, A' = sin(pi) is 1.2e-16 of rounding: its QFI lies under
        # the cut, which the sqrt(lambda_max |A''|) term of the speed bound
        # keeps in Q's units at every scale.
        model = models.make_model("trig")
        args = dict(n_samples=100, n_replicates=20, seed=3)
        for scale in (1e-8, 1e-4, 1.0, 1e4, 1e8):
            report = estimation.run_cr_experiment(
                reparametrized(model, scale), theta / scale, **args
            )
            assert report.to_json()["cr_bound"] == "inf", scale
            assert "Cramér-Rao bound not applicable" in report.notes

    def test_note_takes_its_ranks_from_the_classify_report(self, monkeypatch):
        # The ranks in the note are the report's, not a second rank test.
        classify = discontinuity._classify

        def relabelled(theta, stack):
            return dataclasses.replace(classify(theta, stack), rank_at_bar=7, rank_beside=9)

        monkeypatch.setattr(discontinuity, "_classify", relabelled)
        model = models.make_model("classical-bit")
        report = estimation.run_cr_experiment(model, 0.0, n_samples=50, n_replicates=20, seed=1)
        assert "(effective rank 7 vs 9 nearby)" in report.notes

    def test_canonical_trig_measurement_is_optimal(self):
        # Sampling the trig family in its canonical basis gives the
        # Bernoulli(sin^2 theta) family whose information equals the QFI.
        model = models.make_model("trig")
        theta = 0.7
        p = model.p_first(theta)
        assert p == pytest.approx(math.sin(theta) ** 2, abs=1e-14)
        dist = classical.Distribution(("first", "second"), np.array([p, 1.0 - p]))
        dp = math.sin(2 * theta) * np.array([1.0, -1.0])
        fisher = classical.fisher_information(dist, dp)
        assert fisher == pytest.approx(quantum.model_qfi(model, theta), rel=1e-10)
