import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from helpers import diagonal_branch_model, reparametrized
from qfidisc import discontinuity, models, numdiff, quantum
from qfidisc.quantum import SPEED_TOL
from qfidisc.exceptions import (
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
            lambda th: models._assemble_blocks(
                n, models.ghz_block_arrays(n, th, kappa, t)[3]
            ),
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
        at_bar = quantum._model_blocks(model, [theta_bar])
        for offset, value in zip(branch.offsets, branch.values):
            theta = theta_bar + offset * branch.h
            alone = quantum._model_blocks(model, [theta])
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
            lambda theta: max(theta, 0.0) ** 2,
            lambda theta: 2.0 * max(theta, 0.0),
            lambda theta: 2.0 if theta > 0.0 else 0.0,
        )
        with pytest.raises(NotADiscontinuityError):
            discontinuity.vanishing_eigenvalue_branch(model, 0.0)

    def test_full_rank_model_rejected(self):
        def state(theta):
            base = models.trig_model_state(theta)
            return 0.9 * base + 0.1 * np.eye(2, dtype=complex) / 2

        def derivative(theta):
            return 0.9 * models.trig_model_derivative(theta)

        def second(theta):
            return 0.9 * models.trig_model_second_derivative(theta)

        depolarized = ParametricModel(
            name="depolarized-trig",
            state_fn=state,
            blocks_fn=models.one_block(state, derivative, second),
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
        assert report.delta_q_predicted == pytest.approx(twin_report.delta_q_predicted, rel=1e-10)
        assert report.delta_q_measured == pytest.approx(twin_report.delta_q_measured, rel=1e-10)
        assert (report.rank_at_bar, report.rank_beside) == (twin.rank_at_bar, twin.rank_beside)

    def test_eigenvalue_near_the_kernel_is_refused(self):
        # diag(theta^2, eps, 1 - theta^2 - eps) at theta = 0.  With
        # eps = 1e-9 the non-vanishing eigenvalue eps sits below theta^2 at
        # the sampled offsets, so the vanishing one cannot be picked out.
        def model(eps):
            def state(th):
                return np.diag([th**2, eps, 1.0 - th**2 - eps]).astype(complex)

            def derivative(th):
                return np.diag([2.0 * th, 0.0, -2.0 * th]).astype(complex)

            def second(th):
                return np.diag([2.0, 0.0, -2.0]).astype(complex)

            return ParametricModel(
                name="near-kernel",
                state_fn=state,
                blocks_fn=models.one_block(state, derivative, second),
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

        def second(theta):
            return 2.0 * math.cos(2.0 * theta) * np.diag([1.0, -1.0, 0.0]).astype(complex)

        model = ParametricModel(
            name="qutrit-with-kernel",
            state_fn=state,
            blocks_fn=models.one_block(state, derivative, second),
        )
        branch = discontinuity.vanishing_eigenvalue_branch(model, 0.0)
        for off, val in zip(branch.offsets, branch.values):
            assert val == pytest.approx(math.sin(off * branch.h) ** 2, abs=1e-13)


# (N, kappa, kappa t) of the one sweep case whose sampled branch misses the
# rank rise beside theta = 0 (see the test of that name).
BRANCH_UNDER_THE_CUT = (4, 3.0, 0.1)


class TestClassify:
    def test_classical_bit_second_kind(self):
        report = discontinuity.classify(models.make_model("classical-bit"), 0.0)
        assert report.kind == "second-kind"
        assert report.speed == 1.0 and report.acceleration == 0.0
        assert math.isinf(report.qfi_limit)
        assert math.isinf(report.delta_q_measured)
        assert (report.rank_at_bar, report.rank_beside) == (1, 2)

    def test_trig_jump(self):
        report = discontinuity.classify(models.make_model("trig"), 0.0)
        assert report.kind == "jump"
        assert abs(report.speed) < 1e-6
        assert report.acceleration == pytest.approx(2.0, rel=1e-14)
        assert report.delta_q_measured == pytest.approx(4.0, rel=1e-14)
        assert report.qfi_at_bar == pytest.approx(0.0, abs=1e-12)
        assert report.delta_q_predicted == pytest.approx(report.delta_q_measured, rel=1e-14)

    def test_trig_jump_at_upper_endpoint(self):
        report = discontinuity.classify(models.make_model("trig"), math.pi / 2)
        assert report.kind == "jump"
        assert report.acceleration == pytest.approx(2.0, rel=1e-14)
        assert report.delta_q_measured == pytest.approx(4.0, rel=1e-14)

    def test_transverse_jump_identity(self):
        for t in (0.5, 1.0, 2.0):
            model = models.make_model("transverse-qubit", kappa=1.0, t=t)
            report = discontinuity.classify(model, 0.0)
            assert report.kind == "jump"
            assert abs(report.speed) < 1e-6
            expected_delta = models.ghz_qfi_continuous(1, 1.0, t) - models.ghz_qfi_discontinuous(
                1, 1.0, t
            )
            assert report.delta_q_measured == pytest.approx(expected_delta, rel=1e-10)
            assert report.delta_q_predicted == pytest.approx(report.delta_q_measured, rel=1e-10)

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
        assert report.delta_q_predicted == pytest.approx(jump, rel=1e-8)
        assert report.delta_q_measured == pytest.approx(jump, rel=1e-8)
        assert report.qfi_at_bar == pytest.approx(
            models.ghz_qfi_discontinuous(n, kappa, t), rel=1e-10
        )

    @pytest.mark.parametrize("kappa,t", [(1.0, 1.0), (2.0, 0.3)])
    def test_ghz_jump_at_24_qubits_is_the_closed_form(self, kappa, t):
        # The support cut is relative to each block, so the blocks of
        # weight far below 1e-12 keep their rank and their share of the jump.
        model = models.make_model("ghz", kappa=kappa, t=t, n_qubits=24)
        report = discontinuity.classify(model, 0.0)
        jump = models.ghz_qfi_continuous(24, kappa, t) - models.ghz_qfi_discontinuous(24, kappa, t)
        assert report.kind == "jump"
        assert report.delta_q_measured == pytest.approx(jump, rel=1e-8)
        assert report.delta_q_predicted == pytest.approx(jump, rel=1e-8)
        assert (report.rank_at_bar, report.rank_beside) == (2**23, 2**24)

    def test_every_ghz_jump_of_the_sweep_is_the_closed_form(self):
        # N = 1..24 x kappa x kappa*t, 720 rank changes at theta = 0: the
        # measured jump -8 F2 - Q, the prediction 2a and 4g itself against
        # the closed forms, and the ranks against the sampled branch's.
        misses = []
        for n in range(1, 25):
            for kappa in (0.3, 0.5, 1.0, 2.0, 3.0):
                for kappa_t in (0.1, 0.3, 0.6, 1.0, 2.0, 3.0):
                    t = kappa_t / kappa
                    model = models.make_model("ghz", kappa=kappa, t=t, n_qubits=n)
                    limit = models.ghz_qfi_continuous(n, kappa, t)
                    jump = limit - models.ghz_qfi_discontinuous(n, kappa, t)
                    report = discontinuity.classify(model, 0.0)
                    four_g = 4.0 * quantum.bures_metric_fd(model, 0.0)
                    branch = discontinuity.vanishing_eigenvalue_branch(model, 0.0)
                    if (n, kappa, kappa_t) == BRANCH_UNDER_THE_CUT:
                        branch = dataclasses.replace(branch, rank_beside=2**n)
                    if not (
                        report.kind == "jump"
                        and abs(report.delta_q_measured - jump) <= 1e-8 * jump
                        and abs(report.delta_q_predicted - jump) <= 1e-8 * jump
                        and abs(four_g - limit) <= 1e-10 * limit
                        and (report.rank_at_bar, report.rank_beside)
                        == (branch.rank_at_bar, branch.rank_beside)
                    ):
                        misses.append((n, kappa, kappa_t, report.delta_q_measured, four_g))
        assert misses == []

    def test_the_sweep_case_whose_sampled_branch_stays_under_the_cut(self):
        # At N = 4, kappa = 3, kappa t = 0.1 the heaviest block's vanishing
        # eigenvalue has a'' = 1.9e-6 of its largest, so at the branch step
        # h = 1e-3 it is 7.8e-13 of it, under the 1e-12 support cut: the
        # sampled rank beside theta = 0 is 15.  It rises at 2h, and the
        # kernel count sees all 16 at theta_bar.
        n, kappa, kappa_t = BRANCH_UNDER_THE_CUT
        model = models.make_model("ghz", kappa=kappa, t=kappa_t / kappa, n_qubits=n)
        branch = discontinuity.vanishing_eigenvalue_branch(model, 0.0)
        assert (branch.rank_at_bar, branch.rank_beside) == (8, 15)
        beside = quantum._model_blocks(model, [2.0 * branch.h])
        assert int(quantum._weighted_ranks(beside)[0]) == 16
        report = discontinuity.classify(model, 0.0)
        assert (report.rank_at_bar, report.rank_beside) == (8, 16)

    def test_transverse_qubit_at_kappa_1e_3_resolves(self):
        # The domain (-5e-4, 5e-4) is narrower than the branch step, and the
        # vanishing eigenvalue at 1e-4 is under the support cut; at theta_bar
        # the acceleration is the closed form
        # a = (2 kappa t + 4 e^(-kappa t) - e^(-2 kappa t) - 3) / (2 kappa^2),
        # written with expm1 so that its O(1) terms do not cancel.
        kappa, t = 1e-3, 1.0
        x = kappa * t
        accel = (2.0 * x + 4.0 * math.expm1(-x) - math.expm1(-2.0 * x)) / (2.0 * kappa**2)
        model = models.make_model("transverse-qubit", kappa=kappa, t=t)
        report = discontinuity.classify(model, 0.0)
        assert report.kind == "jump"
        assert report.acceleration == pytest.approx(accel, rel=1e-8)
        assert report.delta_q_predicted == pytest.approx(report.delta_q_measured, rel=1e-8)
        assert (report.rank_at_bar, report.rank_beside) == (1, 2)
        with pytest.raises(DomainError):
            discontinuity.vanishing_eigenvalue_branch(model, 0.0)

    @pytest.mark.parametrize(
        "build, theta_bar",
        [
            (lambda: models.make_model("classical-bit"), 0.5),  # full rank
            (lambda: models.make_model("ghz", n_qubits=2, t=0.0), 0.1),  # pure at every theta
            (  # rises on one side only: no derivative at theta_bar sees it
                lambda: diagonal_branch_model(
                    lambda th: max(th, 0.0) ** 2,
                    lambda th: 2.0 * max(th, 0.0),
                    lambda th: 2.0 if th > 0.0 else 0.0,
                ),
                0.0,
            ),
            (  # a cubic vanishing eigenvalue: v = a = 0
                lambda: diagonal_branch_model(lambda th: th**3, lambda th: 3 * th**2, lambda th: 6 * th),
                0.0,
            ),
        ],
        ids=["full-rank", "ghz-t0", "one-sided", "cubic"],
    )
    def test_no_moving_kernel_direction_is_not_a_discontinuity(self, build, theta_bar):
        with pytest.raises(NotADiscontinuityError):
            discontinuity.classify(build(), theta_bar)

    def test_a_second_derivative_with_nonzero_trace_is_refused(self):
        # trig at 0 with A'' = diag(2, 0) (the true one is diag(2, -2)): the
        # kernel side still gives a = 2, but the fidelity's support sees
        # tr_S A'' = 0 and a continuous state, so the two kinds differ.
        model = ParametricModel(
            name="bad-trig",
            state_fn=models.trig_model_state,
            blocks_fn=models.one_block(
                models.trig_model_state,
                models.trig_model_derivative,
                lambda th: np.diag([2.0, 0.0]).astype(complex),
            ),
            domain=(0.0, math.pi / 2),
        )
        with pytest.raises(NumericalError, match="the kernel gives a jump"):
            discontinuity.classify(model, 0.0)

    @pytest.mark.parametrize(
        "diagonals, kind, rank_beside",
        [
            (  # diag(sin^2, cos^2, 0): of the two-dimensional kernel one
                # direction moves, at second order, so the rank rises to 2, not 3.
                (
                    lambda th: [math.sin(th) ** 2, math.cos(th) ** 2, 0.0],
                    lambda th: [math.sin(2.0 * th), -math.sin(2.0 * th), 0.0],
                    lambda th: [2.0 * math.cos(2.0 * th), -2.0 * math.cos(2.0 * th), 0.0],
                ),
                "jump",
                2,
            ),
            (  # diag(th, th^2, 1 - th - th^2): one kernel direction moves at
                # first order and the other at second, so the rank rises to 3.
                (
                    lambda th: [th, th**2, 1.0 - th - th**2],
                    lambda th: [1.0, 2.0 * th, -1.0 - 2.0 * th],
                    lambda th: [0.0, 2.0, -2.0],
                ),
                "second-kind",
                3,
            ),
        ],
        ids=["one-of-two", "first-and-second-order"],
    )
    def test_only_the_moving_kernel_directions_count_beside(self, diagonals, kind, rank_beside):
        matrices = [lambda th, f=f: np.diag(f(th)).astype(complex) for f in diagonals]
        model = ParametricModel(
            name="qutrit-with-kernel",
            state_fn=matrices[0],
            blocks_fn=models.one_block(*matrices),
            domain=(0.0, 0.5),
        )
        report = discontinuity.classify(model, 0.0)
        assert (report.kind, report.acceleration) == (kind, 2.0)
        assert (report.rank_at_bar, report.rank_beside) == (1, rank_beside)
        beside = quantum._model_blocks(model, [1e-3])
        assert int(quantum._weighted_ranks(beside)[0]) == rank_beside

    @pytest.mark.parametrize("dtype", [np.int64, np.uint64])
    def test_ranks_past_2_53_are_summed_in_integers(self, dtype):
        # One block diag(theta^2, 1 - theta^2) / m of multiplicity
        # m = 2^53 + 1: a float64 sum reads the ranks 2^53 and 2^54, as
        # int64 ranks times uint64 multiplicities would.
        m = 2**53 + 1
        sign = np.diag([1.0, -1.0]).astype(complex)

        def blocks(theta):
            arrays = (
                np.diag([theta**2, 1.0 - theta**2]).astype(complex) / m,
                2.0 * theta * sign / m,
                2.0 * sign / m,
            )
            mults = np.array([m], dtype=dtype)
            return (mults, *(a[None] for a in arrays))

        model = ParametricModel(name="heavy-block", state_fn=None, blocks_fn=blocks)
        report = discontinuity.classify(model, 0.0)
        assert report.kind == "jump"
        assert (report.rank_at_bar, report.rank_beside) == (m, 2 * m)
        with pytest.raises(NotADiscontinuityError, match=f"effective rank {2 * m}\\)"):
            discontinuity.classify(model, 0.3)

    @pytest.mark.parametrize("name", ["trig", "classical-bit", "transverse-qubit"])
    def test_measured_jump_is_limit_minus_value(self, name):
        # The measured side is the fidelity's, not 4g: equal up to rounding.
        report = discontinuity.classify(models.make_model(name), 0.0)
        limit = report.qfi_limit - report.qfi_at_bar
        assert report.delta_q_measured == pytest.approx(limit, rel=1e-12)

    def test_transverse_jump_at_small_kappa_is_the_closed_form(self):
        # kappa = 0.01: the jump is 0.66% of Q, and the domain is
        # (-0.005, 0.005), narrower than any fixed limit step.
        model = models.make_model("transverse-qubit", kappa=0.01, t=1.0)
        report = discontinuity.classify(model, 0.0)
        jump = models.ghz_qfi_continuous(1, 0.01, 1.0) - models.ghz_qfi_discontinuous(1, 0.01, 1.0)
        assert report.kind == "jump"
        assert report.delta_q_measured == pytest.approx(jump, rel=1e-8)
        assert report.delta_q_predicted == pytest.approx(jump, rel=1e-8)

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
            lambda theta: 2.0 * curvature + 6.0 * cubic * (theta - center),
        )
        report = discontinuity.classify(model, center)
        assert report.kind == "jump"
        assert report.acceleration == pytest.approx(2.0 * curvature, rel=1e-12)
        assert report.delta_q_predicted == pytest.approx(report.delta_q_measured, rel=1e-10)

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
    # One read of theta_bar alone: Q and 4g bit for bit as model_qfi and
    # bures_metric_fd give them, v and a as the multiplicity-weighted sums
    # of _block_motion's per-block terms, in block order.
    model = build()
    qfi_at_bar = quantum.model_qfi(model, theta_bar)
    limit = 4.0 * quantum.bures_metric_fd(model, theta_bar)
    speed = accel = 0.0
    st = quantum._model_blocks(model, [theta_bar])
    v, a = quantum._block_motion(st)[3:5]
    for mult, v_j, a_j in zip(st.multiplicities.tolist(), v[0].tolist(), a[0].tolist()):
        speed += mult * v_j
        accel += mult * a_j

    reads = []
    model_blocks = quantum._model_blocks

    def counted(*args, **kwargs):
        reads.append(args)
        return model_blocks(*args, **kwargs)

    monkeypatch.setattr(quantum, "_model_blocks", counted)

    def no_step(*args, **kwargs):
        raise AssertionError("classify called a numdiff routine")

    for name, fn in vars(numdiff).items():
        if callable(fn) and getattr(fn, "__module__", None) == numdiff.__name__:
            monkeypatch.setattr(numdiff, name, no_step)
            if hasattr(discontinuity, name):
                monkeypatch.setattr(discontinuity, name, no_step)
    report = discontinuity.classify(model, theta_bar)
    assert [list(thetas) for _, thetas in reads] == [[theta_bar]]
    assert bits(report.speed, report.acceleration, report.qfi_at_bar, report.qfi_limit) == bits(
        speed, accel, qfi_at_bar, limit
    )


@pytest.mark.parametrize("build, theta_bar", [c[1:] for c in RANK_CHANGE_POINTS],
                         ids=[c[0] for c in RANK_CHANGE_POINTS])
def test_classify_is_its_analysis_of_one_read(build, theta_bar):
    # classify is _classify on its own read; mc's note hands _classify a
    # read it took itself.
    model = build()
    stack = quantum._model_blocks(model, [theta_bar])
    assert discontinuity.classify(model, theta_bar) == discontinuity._classify(theta_bar, stack)


# Every built-in rank-change point: RANK_CHANGE_POINTS and the transverse
# qubit at kappa = 1e-3, whose domain is narrower than any fixed step.
BUILT_IN_POINTS = RANK_CHANGE_POINTS + [
    (
        "transverse-qubit-kappa-1e-3",
        lambda: models.make_model("transverse-qubit", kappa=1e-3),
        0.0,
    ),
]


def scaled_reading(build, theta_bar, scale):
    """``classify`` and 4 ``bures_metric_fd`` at theta_bar, read as theta =
    scale * phi: the kind and ranks, and Q, 4g, the limit and both jumps
    over scale^2."""
    model = reparametrized(build(), scale)
    report = discontinuity.classify(model, theta_bar / scale)
    four_g = 4.0 * quantum.bures_metric_fd(model, theta_bar / scale)
    values = (report.qfi_at_bar, four_g, report.qfi_limit, report.delta_q_predicted,
              report.delta_q_measured)
    return (report.kind, report.rank_at_bar, report.rank_beside), [v / scale**2 for v in values]


@pytest.mark.parametrize("build, theta_bar", [c[1:] for c in BUILT_IN_POINTS],
                         ids=[c[0] for c in BUILT_IN_POINTS])
def test_rank_change_points_do_not_depend_on_the_scale_of_theta(build, theta_bar):
    # theta = c phi: the kernel's speed scales as c and its curvature as
    # c^2, as do the bounds they are held against, so the kind and the
    # ranks stay, and Q, 4g and the jump scale as c^2 (inf stays inf).
    verdict, values = scaled_reading(build, theta_bar, 1.0)
    for scale in (1e-8, 1e-4, 1e4, 1e8):
        scaled_verdict, scaled_values = scaled_reading(build, theta_bar, scale)
        assert scaled_verdict == verdict, scale
        assert scaled_values == pytest.approx(values, rel=1e-12, abs=0.0), scale


@given(
    n=st.integers(1, 8),
    log_kappa=st.floats(-2.0, math.log10(3.0)),
    kappa_t=st.floats(0.1, 3.0),
    log_scale=st.floats(-8.0, 8.0),
)
@settings(max_examples=60, deadline=None)
def test_ghz_verdict_does_not_depend_on_the_scale_of_theta(n, log_kappa, kappa_t, log_scale):
    # The GHZ box at theta = 0, read at theta = c phi: the same kind and
    # ranks at every c, and a second kind exactly where the metric is inf.
    kappa = 10.0**log_kappa
    model = models.make_model("ghz", n_qubits=n, kappa=kappa, t=kappa_t / kappa)
    verdicts = []
    for read in (model, reparametrized(model, 10.0**log_scale)):
        report = discontinuity.classify(read, 0.0)
        verdicts.append((report.kind, report.rank_at_bar, report.rank_beside))
        infinite = math.isinf(4.0 * quantum.bures_metric_fd(read, 0.0))
        assert (report.kind == "second-kind") == infinite
    assert verdicts[0] == verdicts[1]


@pytest.mark.xfail(
    strict=True,
    reason="the m = 0 block's vanishing eigenvalue curves at 1.3e-7 of its largest, "
    "under ACCEL_TOL times the size of its derivatives, so rank_beside reads 7",
)
def test_ghz_3_at_kappa_1e_3_is_full_rank_beside_zero():
    # Every GHZ block has full rank at theta != 0, so the rank beside 0 is
    # 2^3 = 8, as it reads at kappa = 1e-2.
    report = discontinuity.classify(models.make_model("ghz", n_qubits=3, kappa=1e-3), 0.0)
    assert (report.rank_at_bar, report.rank_beside) == (4, 8)
