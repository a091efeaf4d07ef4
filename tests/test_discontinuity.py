import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import diagonal_branch_model
from qfidisc import discontinuity, models, quantum
from qfidisc.classical import SPEED_TOL
from qfidisc.exceptions import (
    DivergenceError,
    DomainError,
    MultiBranchError,
    NotADiscontinuityError,
    NumericalError,
)
from qfidisc.models import ParametricModel


def ghz_dense_twin(n, kappa, t):
    """The GHZ model as one dense 2^N block, without its direct sum."""
    return ParametricModel(
        name=f"ghz-{n}-dense",
        state_fn=lambda th: models.ghz_state(n, th, kappa, t),
        blocks_fn=models.one_block(
            lambda th: models.ghz_state(n, th, kappa, t),
            lambda th: models.ghz_state_derivative(n, th, kappa, t),
        ),
        domain=(-kappa / 2.0, kappa / 2.0),
        open_domain=True,
    )


class TestVanishingEigenvalueBranch:
    def test_classical_bit_branch_is_the_parameter(self):
        model = models.make_model("classical-bit")
        branch = discontinuity.vanishing_eigenvalue_branch(model, 0.0)
        for off, val in zip(branch.offsets, branch.values):
            assert val == pytest.approx(off * branch.h, abs=1e-14)
        assert branch.rank_at_bar == 1
        assert branch.rank_beside == 2

    def test_trig_branch_is_sin_squared(self):
        model = models.make_model("trig")
        branch = discontinuity.vanishing_eigenvalue_branch(model, 0.0)
        assert all(off >= 0 for off in branch.offsets)  # one-sided at the edge
        for off, val in zip(branch.offsets, branch.values):
            assert val == pytest.approx(math.sin(off * branch.h) ** 2, abs=1e-13)

    def test_transverse_branch_matches_bloch_length(self):
        kappa, t = 1.0, 1.0
        model = models.make_model("transverse-qubit", kappa=kappa, t=t)
        branch = discontinuity.vanishing_eigenvalue_branch(model, 0.0)
        for off, val in zip(branch.offsets, branch.values):
            _, _, b, f, c = models.ghz_coefficients(off * branch.h, kappa, t)
            lam = 0.5 * (1.0 - math.hypot(b + f, c))
            assert val == pytest.approx(lam, abs=1e-12)

    @pytest.mark.parametrize(
        "name, n, kappa, t, theta_bar",
        [
            ("classical-bit", 1, 1.0, 1.0, 0.0),
            ("classical-bit", 1, 1.0, 1.0, 1.0),
            ("trig", 1, 1.0, 1.0, 0.0),
            ("trig", 1, 1.0, 1.0, math.pi / 2),
            ("transverse-qubit", 1, 1.0, 1.0, 0.0),
            ("ghz", 2, 1.0, 1.0, 0.0),
            ("ghz", 8, 2.0, 0.3, 0.0),
            ("ghz", 24, 1.0, 3.0, 0.0),
        ],
    )
    def test_stacked_values_equal_one_point_reads(self, name, n, kappa, t, theta_bar):
        # The branch reads its seven points in two stacks (the rank check's
        # three, then four more); each value must equal that of its point
        # read alone, bit for bit.
        model = models.make_model(name, kappa=kappa, t=t, n_qubits=n)
        branch = discontinuity.vanishing_eigenvalue_branch(model, theta_bar)
        (at_bar,) = quantum._model_blocks(model, [theta_bar], derivative=False)
        for offset, value in zip(branch.offsets, branch.values):
            theta = theta_bar + offset * branch.h
            (alone,) = quantum._model_blocks(model, [theta], derivative=False)
            w = 0.0
            for mult, rank, lam in zip(at_bar.multiplicities, at_bar.ranks[0], alone.eigenvalues[0]):
                w += mult * float(np.sum(lam[rank:]))
            assert value == w

    def test_regular_point_rejected(self):
        model = models.make_model("classical-bit")
        with pytest.raises(NotADiscontinuityError):
            discontinuity.vanishing_eigenvalue_branch(model, 0.5)

    def test_rank_rising_on_one_side_only_rejected(self):
        model = diagonal_branch_model(
            lambda theta: max(theta, 0.0) ** 2, lambda theta: 2.0 * max(theta, 0.0)
        )
        with pytest.raises(NotADiscontinuityError):
            discontinuity.vanishing_eigenvalue_branch(model, 0.0)

    def test_full_rank_model_rejected(self):
        def state(theta):
            base = models.trig_model_state(theta)
            return 0.9 * base + 0.1 * np.eye(2, dtype=complex) / 2

        def derivative(theta):
            return 0.9 * models.trig_model_derivative(theta)

        depolarized = ParametricModel(
            name="depolarized-trig",
            state_fn=state,
            blocks_fn=models.one_block(state, derivative),
            domain=(0.0, math.pi / 2),
        )
        with pytest.raises(NotADiscontinuityError):
            discontinuity.vanishing_eigenvalue_branch(depolarized, 0.0)

    def test_simultaneous_vanishing_adds_up(self):
        # The 2-qubit GHZ family drops from rank 4 to rank 2 at theta = 0:
        # each of its two blocks loses one eigenvalue, and the weight is
        # their sum.
        kappa, t = 1.0, 1.0
        model = models.make_model("ghz", kappa=kappa, t=t, n_qubits=2)
        branch = discontinuity.vanishing_eigenvalue_branch(model, 0.0)
        assert (branch.rank_at_bar, branch.rank_beside) == (2, 4)
        for off, val in zip(branch.offsets, branch.values):
            blocks = models.ghz_blocks(2, off * branch.h, kappa, t).blocks
            expected = sum(
                blk.multiplicity * max(np.linalg.eigvalsh(blk.matrix)[0], 0.0) for blk in blocks
            )
            assert val == pytest.approx(expected, abs=1e-15)

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("kappa,t", [(1.0, 1.0), (0.5, 2.0), (2.0, 0.3)])
    def test_ghz_blocks_match_the_dense_state(self, n, kappa, t):
        model = models.make_model("ghz", kappa=kappa, t=t, n_qubits=n)
        dense = ghz_dense_twin(n, kappa, t)
        branch = discontinuity.vanishing_eigenvalue_branch(model, 0.0)
        twin = discontinuity.vanishing_eigenvalue_branch(dense, 0.0)
        assert branch.offsets == twin.offsets
        assert np.max(np.abs(np.subtract(branch.values, twin.values))) <= 1e-14
        assert (branch.rank_at_bar, branch.rank_beside) == (twin.rank_at_bar, twin.rank_beside)
        report = discontinuity.classify(model, 0.0)
        twin_report = discontinuity.classify(dense, 0.0)
        assert report.kind == twin_report.kind
        assert report.delta_q_predicted == pytest.approx(twin_report.delta_q_predicted, rel=1e-5)
        assert report.delta_q_measured == pytest.approx(twin_report.delta_q_measured, rel=1e-5)

    def test_eigenvalue_near_the_kernel_is_refused(self):
        # diag(theta^2, eps, 1 - theta^2 - eps) at theta = 0.  With
        # eps = 1e-9 the non-vanishing eigenvalue eps sits below theta^2 at
        # the sampled offsets, so the vanishing one cannot be picked out.
        def model(eps):
            def state(th):
                return np.diag([th**2, eps, 1.0 - th**2 - eps]).astype(complex)

            def derivative(th):
                return np.diag([2.0 * th, 0.0, -2.0 * th]).astype(complex)

            return ParametricModel(
                name="near-kernel", state_fn=state, blocks_fn=models.one_block(state, derivative)
            )

        report = discontinuity.classify(model(1e-4), 0.0)
        assert report.kind == "jump"
        assert report.delta_q_predicted == pytest.approx(4.0, rel=1e-6)
        with pytest.raises(MultiBranchError):
            discontinuity.vanishing_eigenvalue_branch(model(1e-9), 0.0)

    def test_no_room_in_domain(self):
        # The base step at theta_bar = 0 is 1e-3, past either end of the domain.
        model = dataclasses.replace(models.make_model("classical-bit"), domain=(0.0, 5e-4))
        with pytest.raises(DomainError):
            discontinuity.vanishing_eigenvalue_branch(model, 0.0)

    def test_persistent_kernel_walks_inward(self):
        # One permanent zero eigenvalue plus one vanishing branch: the
        # kernel at theta_bar is two-dimensional, and the permanent zero
        # adds nothing to the vanishing weight.
        def state(theta):
            q = math.sin(theta) ** 2
            return np.diag([q, 1.0 - q, 0.0]).astype(complex)

        def derivative(theta):
            return math.sin(2.0 * theta) * np.diag([1.0, -1.0, 0.0]).astype(complex)

        model = ParametricModel(
            name="qutrit-with-kernel", state_fn=state, blocks_fn=models.one_block(state, derivative)
        )
        branch = discontinuity.vanishing_eigenvalue_branch(model, 0.0)
        for off, val in zip(branch.offsets, branch.values):
            assert val == pytest.approx(math.sin(off * branch.h) ** 2, abs=1e-13)


class TestClassify:
    def test_classical_bit_second_kind(self):
        report = discontinuity.classify(models.make_model("classical-bit"), 0.0)
        assert report.kind == "second-kind"
        assert report.speed == pytest.approx(1.0, abs=1e-6)
        assert math.isinf(report.qfi_limit)
        assert math.isinf(report.delta_q_measured)
        assert report.evidence["qfi_samples"]  # divergence evidence attached

    def test_trig_jump(self):
        report = discontinuity.classify(models.make_model("trig"), 0.0)
        assert report.kind == "jump"
        assert abs(report.speed) < 1e-6
        assert report.acceleration == pytest.approx(2.0, rel=1e-4)
        assert report.delta_q_measured == pytest.approx(4.0, rel=1e-6)
        assert report.qfi_at_bar == pytest.approx(0.0, abs=1e-12)
        assert report.delta_q_predicted == pytest.approx(report.delta_q_measured, rel=1e-2)

    def test_trig_jump_at_upper_endpoint(self):
        report = discontinuity.classify(models.make_model("trig"), math.pi / 2)
        assert report.kind == "jump"
        assert report.delta_q_measured == pytest.approx(4.0, rel=1e-6)

    def test_transverse_jump_identity(self):
        for t in (0.5, 1.0, 2.0):
            model = models.make_model("transverse-qubit", kappa=1.0, t=t)
            report = discontinuity.classify(model, 0.0)
            assert report.kind == "jump"
            assert abs(report.speed) < 1e-6
            expected_delta = models.ghz_qfi_continuous(1, 1.0, t) - models.ghz_qfi_discontinuous(
                1, 1.0, t
            )
            assert report.delta_q_measured == pytest.approx(expected_delta, rel=1e-3)
            assert report.delta_q_predicted == pytest.approx(report.delta_q_measured, rel=1e-2)

    @pytest.mark.parametrize(
        "n,kappa,t",
        [(n, kappa, t) for n in (2, 3, 4, 8, 10, 16) for kappa, t in ((1.0, 1.0), (0.5, 2.0))]
        + [(n, 2.0, 0.3) for n in (2, 3, 4, 8, 10)],
    )
    def test_ghz_jump_at_zero_is_the_closed_form(self, n, kappa, t):
        # Every block becomes pure at theta = 0; their jumps add up to the
        # paper's gap between the continuous limit and the value at 0.
        model = models.make_model("ghz", kappa=kappa, t=t, n_qubits=n)
        report = discontinuity.classify(model, 0.0)
        jump = models.ghz_qfi_continuous(n, kappa, t) - models.ghz_qfi_discontinuous(n, kappa, t)
        assert report.kind == "jump"
        assert abs(report.speed) < SPEED_TOL
        assert report.delta_q_predicted == pytest.approx(jump, rel=1e-2)
        assert report.delta_q_measured == pytest.approx(jump, rel=1e-2)
        assert report.qfi_at_bar == pytest.approx(
            models.ghz_qfi_discontinuous(n, kappa, t), rel=1e-10
        )

    @pytest.mark.parametrize(
        "kappa,t,message",
        [
            # The limit diverges while the weight has no speed.
            (1.0, 1.0, "diverges"),
            # 2a = 0.2697 against a measured jump of -0.0080.
            (2.0, 0.3, "differ"),
        ],
    )
    def test_unresolved_ghz_jump_raises(self, kappa, t, message):
        # At N = 24 the absolute support cut drops blocks of tiny weight,
        # so neither the weight nor the limit can be trusted.
        model = models.make_model("ghz", kappa=kappa, t=t, n_qubits=24)
        with pytest.raises(NumericalError, match=message):
            discontinuity.classify(model, 0.0)

    def test_measured_jump_is_limit_minus_value(self):
        report = discontinuity.classify(models.make_model("trig"), 0.0)
        assert report.delta_q_measured == report.qfi_limit - report.qfi_at_bar

    @given(
        curvature=st.floats(0.5, 5.0),
        cubic=st.floats(-0.5, 0.5),
        center=st.floats(-1.0, 1.0),
    )
    @settings(max_examples=25)
    def test_quadratic_branch_recovers_curvature(self, curvature, cubic, center):
        # lambda_min = c x^2 + d x^3 near x = 0 vanishes with speed 0 and
        # acceleration 2c, so the jump prediction is 4c.
        model = diagonal_branch_model(
            lambda theta: curvature * (theta - center) ** 2 + cubic * (theta - center) ** 3,
            lambda theta: 2.0 * curvature * (theta - center) + 3.0 * cubic * (theta - center) ** 2,
        )
        report = discontinuity.classify(model, center)
        assert report.kind == "jump"
        assert report.acceleration == pytest.approx(2.0 * curvature, rel=1e-4)
        assert report.delta_q_predicted == pytest.approx(report.delta_q_measured, rel=1e-2)

    def test_report_serializes_infinities(self):
        report = discontinuity.classify(models.make_model("classical-bit"), 0.0)
        payload = report.to_json()
        assert payload["kind"] == "second-kind"
        assert payload["qfi_limit"] == "inf"
        assert payload["delta_q_measured"] == "inf"
        assert isinstance(payload["speed"], float)


# (case, model builder, rank-change point): every built-in rank-change point,
# and the GHZ states at theta = 0 for N = 2, 3, 4, 8.
RANK_CHANGE_POINTS = [
    ("classical-bit-0", lambda: models.make_model("classical-bit"), 0.0),
    ("classical-bit-1", lambda: models.make_model("classical-bit"), 1.0),
    ("trig-0", lambda: models.make_model("trig"), 0.0),
    ("trig-pi-half", lambda: models.make_model("trig"), math.pi / 2),
    ("transverse-qubit-0", lambda: models.make_model("transverse-qubit"), 0.0),
] + [
    (f"ghz-{n}-0", lambda n=n: models.make_model("ghz", n_qubits=n), 0.0) for n in (2, 3, 4, 8)
]


def bits(*values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("build, theta_bar", [c[1:] for c in RANK_CHANGE_POINTS],
                         ids=[c[0] for c in RANK_CHANGE_POINTS])
def test_classify_reads_once_and_equals_the_separate_routines(monkeypatch, build, theta_bar):
    model = build()
    branch = discontinuity.vanishing_eigenvalue_branch(model, theta_bar)
    speed, accel = discontinuity.speed_and_acceleration(branch.h, branch.as_dict())
    qfi_at_bar = quantum.model_qfi(model, theta_bar)
    try:
        limit, samples = quantum.qfi_limit(model, theta_bar).value, None
    except DivergenceError as err:  # the classical bit's second kind
        limit, samples = math.inf, list(err.values)

    reads = []
    model_blocks = quantum._model_blocks

    def counted(*args, **kwargs):
        reads.append(args)
        return model_blocks(*args, **kwargs)

    monkeypatch.setattr(quantum, "_model_blocks", counted)
    report = discontinuity.classify(model, theta_bar)
    assert len(reads) == 1
    assert bits(report.speed, report.acceleration, report.qfi_at_bar, report.qfi_limit) == bits(
        speed, accel, qfi_at_bar, limit
    )
    assert bits(*report.evidence["branch_values"]) == bits(*branch.values)
    assert report.evidence.get("qfi_samples") == samples
