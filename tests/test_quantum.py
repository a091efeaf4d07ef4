import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import block_diag, sqrtm

from helpers import one_block, random_density, random_hermitian, rotation_model
from qfidisc import discontinuity, models, numdiff, quantum
from qfidisc.exceptions import (
    DegenerateModelError,
    DivergenceError,
    InvalidInputError,
    StepSizeError,
)


class TestSpectralDecompose:
    def test_maximally_mixed(self):
        spect = quantum.spectral_decompose(np.eye(2, dtype=complex) / 2)
        assert np.allclose(spect.eigenvalues, [0.5, 0.5])
        assert spect.effective_rank == 2

    def test_pure_state(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        spect = quantum.spectral_decompose(rho)
        assert np.allclose(spect.eigenvalues, [1.0, 0.0])
        assert spect.effective_rank == 1

    def test_diagonal_family_point(self):
        spect = quantum.spectral_decompose(models.classical_bit_state(0.3))
        assert np.allclose(spect.eigenvalues, [0.7, 0.3])

    def test_non_hermitian_rejected(self):
        bad = np.array([[0.5, 0.1], [0.0, 0.5]], dtype=complex)
        with pytest.raises(InvalidInputError):
            quantum.spectral_decompose(bad)

    def test_stack_of_states_rejected(self):
        # validate_hermitian takes stacks; a single-state routine does not.
        with pytest.raises(InvalidInputError):
            quantum.spectral_decompose(np.array([np.eye(2) / 2] * 2))

    def test_validate_hermitian_checks_every_matrix_of_a_stack(self):
        stack = np.array([np.eye(2), np.eye(2), np.eye(2)], dtype=complex)
        assert quantum.validate_hermitian(stack).shape == (3, 2, 2)
        stack[2, 0, 1] = 1e-6
        with pytest.raises(InvalidInputError):
            quantum.validate_hermitian(stack)

    @given(seed=st.integers(0, 10_000), dim=st.sampled_from([2, 3, 4, 8, 16]))
    def test_reconstruction_and_orthonormality(self, seed, dim):
        rho = random_density(dim, np.random.default_rng(seed))
        spect = quantum.spectral_decompose(rho)
        gram = spect.eigenvectors.conj().T @ spect.eigenvectors
        assert np.max(np.abs(gram - np.eye(dim))) < 1e-10
        assert np.max(np.abs(spect.reconstruct() - rho)) < 1e-10
        assert np.all(np.diff(spect.eigenvalues) <= 1e-15)
        assert 0 <= spect.effective_rank <= dim


class TestFidelity:
    def test_identical_states(self):
        rho = random_density(3, np.random.default_rng(5))
        assert quantum.fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)

    def test_orthogonal_pure_states(self):
        zero = np.diag([1.0, 0.0]).astype(complex)
        one = np.diag([0.0, 1.0]).astype(complex)
        assert quantum.fidelity(zero, one) == pytest.approx(0.0, abs=1e-12)

    def test_commuting_pair_against_matrix_sqrt_oracle(self):
        # Independent oracle: tr sqrt(sqrt(rho) sigma sqrt(rho)) by dense
        # matrix square roots; for these commuting states the value is
        # sqrt(.25*.75) + sqrt(.75*.25) = sqrt(3)/2.
        rho = models.classical_bit_state(0.25)
        sigma = models.classical_bit_state(0.75)
        s = sqrtm(rho)
        oracle = np.real(np.trace(sqrtm(s @ sigma @ s)))
        assert oracle == pytest.approx(math.sqrt(3) / 2, abs=1e-12)
        assert quantum.fidelity(rho, sigma) == pytest.approx(oracle, abs=1e-10)
        assert quantum.fidelity(rho, sigma) == pytest.approx(0.8660254037844386, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            quantum.fidelity(np.eye(2, dtype=complex) / 2, np.eye(3, dtype=complex) / 3)

    @given(seed=st.integers(0, 10_000))
    def test_qubit_closed_form_against_matrix_sqrt_oracle(self, seed):
        # 2x2 inputs take the closed form sqrt(tr AB + 2 sqrt(det A det B));
        # the oracle is tr sqrt(sqrt(rho) sigma sqrt(rho)) by scipy sqrtm.
        rng = np.random.default_rng(seed)
        rho, sigma = random_density(2, rng), random_density(2, rng)
        s = sqrtm(rho)
        oracle = float(np.real(np.trace(sqrtm(s @ sigma @ s))))
        assert quantum.fidelity(rho, sigma) == pytest.approx(oracle, abs=1e-10)

    @given(seed=st.integers(0, 10_000), dim=st.sampled_from([2, 3, 4]))
    def test_symmetric_and_discriminating(self, seed, dim):
        rng = np.random.default_rng(seed)
        rho, sigma = random_density(dim, rng), random_density(dim, rng)
        f_rs = quantum.fidelity(rho, sigma)
        f_sr = quantum.fidelity(sigma, rho)
        assert abs(f_rs - f_sr) < 1e-10
        assert 0.0 <= f_rs <= 1.0
        assert quantum.fidelity(rho, rho) > 1.0 - 1e-10
        if np.max(np.abs(rho - sigma)) > 1e-3:
            assert f_rs < 1.0 - 1e-8


class TestSld:
    def test_diagonal_lyapunov_solve(self):
        # Oracle: for diagonal rho and drho the defining equation
        # 2 drho = L rho + rho L gives L_ii = drho_ii / rho_ii.
        rho = models.classical_bit_state(0.5)
        drho = np.diag([1.0, -1.0]).astype(complex)
        l_op = quantum.sld(rho, drho)
        assert np.allclose(l_op, np.diag([2.0, -2.0]))
        assert np.allclose(2.0 * drho, l_op @ rho + rho @ l_op, atol=1e-12)

    def test_stationary_pure_state(self):
        plus = np.full((2, 2), 0.5, dtype=complex)
        l_op = quantum.sld(plus, np.zeros((2, 2), dtype=complex))
        assert np.max(np.abs(l_op)) < 1e-12

    def test_trig_point(self):
        theta = math.pi / 4
        rho = models.trig_model_state(theta)
        drho = math.sin(2 * theta) * np.diag([1.0, -1.0]).astype(complex)
        assert np.allclose(quantum.sld(rho, drho), np.diag([2.0, -2.0]), atol=1e-12)

    def test_zero_matrix_degenerate(self):
        with pytest.raises(DegenerateModelError):
            quantum.sld(np.zeros((2, 2), dtype=complex), np.diag([1.0, -1.0]).astype(complex))

    @given(seed=st.integers(0, 5_000), dim=st.sampled_from([2, 3, 4]))
    def test_hermitian_and_solves_lyapunov(self, seed, dim):
        rng = np.random.default_rng(seed)
        rho = random_density(dim, rng)
        drho = random_hermitian(dim, rng)
        l_op = quantum.sld(rho, drho)
        assert np.max(np.abs(l_op - l_op.conj().T)) < 1e-10
        # Full-rank input: the Lyapunov equation holds exactly.
        assert np.max(np.abs(2.0 * drho - (l_op @ rho + rho @ l_op))) < 1e-8


class TestQfi:
    def test_diagonal_family_values(self):
        drho = np.diag([1.0, -1.0]).astype(complex)
        q_half = quantum.qfi(models.classical_bit_state(0.5), drho)
        assert q_half == pytest.approx(4.0, rel=1e-10)
        q_quarter = quantum.qfi(models.classical_bit_state(0.25), drho)
        assert q_quarter == pytest.approx(16.0 / 3.0, rel=1e-10)

    def test_rank_one_boundary(self):
        drho = np.diag([1.0, -1.0]).astype(complex)
        assert quantum.qfi(models.classical_bit_state(0.0), drho) == pytest.approx(1.0, rel=1e-12)

    @given(seed=st.integers(0, 5_000), dim=st.sampled_from([2, 3, 4]))
    def test_matches_trace_form(self, seed, dim):
        rng = np.random.default_rng(seed)
        rho = random_density(dim, rng)
        drho = random_hermitian(dim, rng)
        q = quantum.qfi(rho, drho)
        l_op = quantum.sld(rho, drho)
        q_trace = float(np.real(np.trace(rho @ l_op @ l_op)))
        assert q == pytest.approx(q_trace, rel=1e-8)

    @given(
        seed=st.integers(0, 5_000),
        scale=st.floats(-7.0, 7.0).filter(lambda c: abs(c) > 1e-3),
    )
    def test_quadratic_in_derivative(self, seed, scale):
        rng = np.random.default_rng(seed)
        rho = random_density(3, rng)
        drho = random_hermitian(3, rng)
        assert quantum.qfi(rho, scale * drho) == pytest.approx(
            scale**2 * quantum.qfi(rho, drho), rel=1e-10
        )


class TestBuresMetric:
    @given(seed=st.integers(0, 2_000), dim=st.sampled_from([2, 4]), theta=st.floats(-1.0, 1.0))
    @settings(max_examples=30)
    def test_quarter_qfi_at_regular_points(self, seed, dim, theta):
        model = rotation_model(dim, seed)
        q = quantum.model_qfi(model, theta)
        if q < 1e-2:  # rotation generator nearly commutes with the state
            return
        g = quantum.bures_metric_fd(model, theta, eps=1e-4)
        assert g == pytest.approx(q / 4.0, rel=1e-3)

    def test_classical_bit_midpoint(self):
        model = models.make_model("classical-bit")
        # Oracle at the regular point: g = Q / 4 = 1.
        assert quantum.bures_metric_fd(model, 0.5, eps=1e-4) == pytest.approx(1.0, rel=1e-3)

    def test_trig_interior_and_endpoints(self):
        model = models.make_model("trig")
        for theta in (0.3, 1.0, math.pi / 2, 0.0):
            assert quantum.bures_metric_fd(model, theta, eps=1e-4) == pytest.approx(1.0, rel=1e-3)

    def test_two_sided_extrapolation_removes_the_even_error(self):
        # The two-sided quotient's error is even in eps; a first-order
        # Richardson step leaves 1.6e-7 (trig) and 6.2e-6 (classical bit).
        for name, theta in (("trig", 0.7), ("classical-bit", 0.3)):
            model = models.make_model(name)
            g = quantum.bures_metric_fd(model, theta, eps=1e-3)
            assert abs(4.0 * g - quantum.model_qfi(model, theta)) <= 1e-8

    @pytest.mark.parametrize("p", [0.2, 0.3, 0.7])
    @pytest.mark.parametrize("edge", ["lower", "upper"])
    def test_one_sided_extrapolation_removes_the_first_order_error(self, p, edge):
        # With the domain cut at p, only one side is sampled and the
        # quotient's error is first order in eps; the even-error step
        # (4 q(eps/2) - q(eps)) / 3 would leave more than 3e-5 relative.
        domain = (p, 1.0) if edge == "lower" else (0.0, p)
        model = dataclasses.replace(models.make_model("classical-bit"), domain=domain)
        q = quantum.model_qfi(model, p)
        assert abs(4.0 * quantum.bures_metric_fd(model, p) - q) <= 1e-6 * q

    def test_reference_root_is_taken_once(self, monkeypatch):
        # A 3x3 block goes through eigensolves: one root of the block at
        # theta and one stacked eigvalsh for the four shifted points, 2 in
        # all, with the bits of a fresh root per point.
        model, theta, eps = rotation_model(3, 1), 0.2, 1e-4
        rho = model.state_fn(theta)

        def quotient(e):
            gaps = [1.0 - quantum.fidelity(rho, model.state_fn(theta + s * e)) for s in (1, -1)]
            return (2.0 * gaps[0] / e**2 + 2.0 * gaps[1] / e**2) / 2

        expected = numdiff._even_richardson([quotient(eps), quotient(eps / 2.0)])
        solves = []
        for name in ("eigh", "eigvalsh"):
            solver = getattr(np.linalg, name)

            def counted(*args, _solver=solver, **kwargs):
                solves.append(_solver)
                return _solver(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        assert quantum.bures_metric_fd(model, theta, eps) == expected
        assert len(solves) == 2

    def test_underflow_raises_step_size_error(self):
        def state(theta):
            return np.eye(2, dtype=complex) / 2

        def derivative(theta):
            return np.zeros((2, 2), dtype=complex)

        constant = models.ParametricModel(
            name="constant", state_fn=state, blocks_fn=models._one_block(state, derivative)
        )
        with pytest.raises(StepSizeError):
            quantum.bures_metric_fd(constant, 0.0, eps=1e-4)

    def test_nonpositive_eps_rejected(self):
        with pytest.raises(StepSizeError):
            quantum.bures_metric_fd(models.make_model("trig"), 0.5, eps=0.0)


class TestQfiLimit:
    def test_trig_at_upper_endpoint(self):
        model = models.make_model("trig")
        limit = quantum.qfi_limit(model, math.pi / 2, side="below")
        assert limit.value == pytest.approx(4.0, rel=1e-6)
        # Without a side, the domain edge picks the one that exists.
        assert quantum.qfi_limit(model, math.pi / 2).value == limit.value

    def test_classical_bit_diverges(self):
        model = models.make_model("classical-bit")
        with pytest.raises(DivergenceError) as err:
            quantum.qfi_limit(model, 0.0, side="above")
        assert err.value.values is not None and len(err.value.values) > 0

    def test_transverse_qubit_matches_closed_form_and_metric(self):
        # Closed form at N = 1: 2 (exp(-kt) + kt - 1) / k^2; independent
        # cross-check against the fidelity-based metric (limit = 4 g).
        model = models.make_model("transverse-qubit", kappa=1.0, t=1.0)
        expected = 2.0 * (math.exp(-1.0) + 1.0 - 1.0)
        limit = quantum.qfi_limit(model, 0.0, side="above")
        assert limit.value == pytest.approx(expected, rel=1e-3)
        g = quantum.bures_metric_fd(model, 0.0, eps=1e-4)
        assert limit.value == pytest.approx(4.0 * g, rel=1e-3)

    def test_bad_side_rejected(self):
        with pytest.raises(InvalidInputError):
            quantum.qfi_limit(models.make_model("trig"), 0.5, side="sideways")


def block_model(parts, name="block-model"):
    """Direct-sum model from (multiplicity, weight, fixed-rank family) parts,
    and its dense twin.

    The block of a part is weight times the family's one block, grouped
    with the other parts' blocks of its size; the twin's state and
    derivative are block-diagonal with every block repeated.
    """

    def part_blocks(theta, derivative):
        for mult, w, fam in parts:
            [(_, block, dblock)] = fam.blocks_fn(theta, derivative)
            yield mult, w * block[0], None if dblock is None else w * dblock[0]

    def blocks(theta, derivative):
        by_size = {}
        for part in part_blocks(theta, derivative):
            by_size.setdefault(part[1].shape, []).append(part)
        return [
            (
                np.array([mult for mult, _, _ in group]),
                np.array([block for _, block, _ in group]),
                np.array([dblock for _, _, dblock in group]) if derivative else None,
            )
            for group in by_size.values()
        ]

    def dense(theta, derivative):
        parts_at = list(part_blocks(theta, derivative))
        which = 2 if derivative else 1
        return block_diag(*[part[which] for part in parts_at for _ in range(part[0])])

    def state(theta):
        return dense(theta, False)

    return (
        models.ParametricModel(name=name, state_fn=state, blocks_fn=blocks),
        models.ParametricModel(
            name=f"{name}-dense",
            state_fn=state,
            blocks_fn=lambda th, derivative: [
                one_block(state(th), dense(th, True) if derivative else None)
            ],
        ),
    )


HALF = np.eye(2, dtype=complex) / 2
HALF_PAIR = np.array([HALF, HALF])


class TestDirectSum:
    @given(
        n=st.integers(1, 8),
        theta_over_kappa=st.floats(0.03, 0.499),
        sign=st.sampled_from([-1.0, 1.0]),
        kappa=st.floats(0.5, 1.5),
        kappa_t=st.floats(1.0, 2.5),
    )
    @settings(max_examples=40)
    def test_ghz_blocks_match_dense_path(self, n, theta_over_kappa, sign, kappa, kappa_t):
        theta, t = sign * theta_over_kappa * kappa, kappa_t / kappa
        model = models.make_model("ghz", kappa=kappa, t=t, n_qubits=n)
        q = quantum.model_qfi(model, theta)
        dense = quantum.qfi(
            models.ghz_state(n, theta, kappa, t), models.ghz_state_derivative(n, theta, kappa, t)
        )
        assert q == pytest.approx(dense, rel=1e-9)
        assert abs(4.0 * quantum.bures_metric_fd(model, theta) - q) <= 1e-3 * q

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 16, 24])
    @pytest.mark.parametrize("kappa,t", [(1.0, 1.0), (0.5, 2.0), (1.5, 1.0 / 1.5), (2.0, 0.3)])
    def test_ghz_jump_at_zero_is_the_closed_form(self, n, kappa, t):
        # Q(0) is the discontinuous value; the metric is continuous, so
        # 4g(0) is the theta -> 0 limit and 4g - Q is the paper's jump.
        model = models.make_model("ghz", kappa=kappa, t=t, n_qubits=n)
        q0 = quantum.model_qfi(model, 0.0)
        assert q0 == pytest.approx(models.ghz_qfi_discontinuous(n, kappa, t), rel=1e-10)
        four_g = 4.0 * quantum.bures_metric_fd(model, 0.0)
        assert four_g == pytest.approx(models.ghz_qfi_continuous(n, kappa, t), rel=1e-3)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_weighted_blocks_match_block_diagonal_state(self, seed):
        # A 2x2 block (closed-form fidelity) and a 3x3 block (eigen route),
        # the second repeated twice, against the assembled 7x7 state.
        model, dense = block_model(
            [(1, 0.4, rotation_model(2, seed)), (2, 0.3, rotation_model(3, seed + 100))]
        )
        for theta in (-0.7, 0.2, 1.1):
            assert quantum.model_qfi(model, theta) == pytest.approx(
                quantum.model_qfi(dense, theta), rel=1e-12
            )
            assert quantum.bures_metric_fd(model, theta) == pytest.approx(
                quantum.bures_metric_fd(dense, theta), rel=1e-5
            )

    def test_block_traces_must_sum_to_one(self):
        model, _ = block_model([(1, 0.5, rotation_model(2, 0)), (2, 0.2, rotation_model(2, 1))])
        with pytest.raises(InvalidInputError):
            quantum.model_qfi(model, 0.3)
        with pytest.raises(InvalidInputError):
            quantum.bures_metric_fd(model, 0.3)

    def test_non_hermitian_block_rejected(self):
        bad = np.array([[0.5, 0.1], [0.0, 0.5]], dtype=complex)
        model = models.ParametricModel(
            name="bad-block",
            state_fn=lambda theta: bad,
            blocks_fn=lambda theta, derivative: [one_block(bad, np.zeros((2, 2), dtype=complex))],
        )
        with pytest.raises(InvalidInputError):
            quantum.model_qfi(model, 0.0)

    @pytest.mark.parametrize(
        "groups",
        [
            [],
            [(np.ones(1, dtype=int), HALF[None])],
            [(np.zeros(0, dtype=int), HALF_PAIR[:0], HALF_PAIR[:0])],
            [(np.array([-1, 2]), HALF_PAIR, np.zeros_like(HALF_PAIR))],
            [(np.array([0, 1]), HALF_PAIR, np.zeros_like(HALF_PAIR))],
            [(np.array([0.5, 0.5]), HALF_PAIR, np.zeros_like(HALF_PAIR))],
        ],
        ids=["empty", "two-tuple", "no-blocks", "negative", "zero", "fractional"],
    )
    def test_malformed_direct_sum_rejected(self, groups):
        # The weighted traces of the last three sum to 1: only the
        # multiplicities are wrong.
        model = models.ParametricModel(
            name="malformed", state_fn=None, blocks_fn=lambda theta, derivative: groups
        )
        with pytest.raises(InvalidInputError):
            quantum.model_qfi(model, 0.0)
        with pytest.raises(InvalidInputError):
            quantum.bures_metric_fd(model, 0.0)


# (model, a point to read around): every registry model, GHZ at three N,
# rotation models in 3 and 4 dimensions, and the 2x2 + 3x3 direct sum.
STACKED_CASES = [
    ("classical-bit", lambda: models.make_model("classical-bit"), 0.0),
    ("trig", lambda: models.make_model("trig"), math.pi / 2),
    ("transverse-qubit", lambda: models.make_model("transverse-qubit"), 0.0),
    ("ghz-2", lambda: models.make_model("ghz", n_qubits=2), 0.0),
    ("ghz-8", lambda: models.make_model("ghz", kappa=2.0, t=0.3, n_qubits=8), 0.0),
    ("ghz-24", lambda: models.make_model("ghz", n_qubits=24), 0.0),
    ("rotation-3", lambda: rotation_model(3, 4), 0.3),
    ("rotation-4", lambda: rotation_model(4, 5), -0.8),
    (
        "mixed-blocks",
        lambda: block_model(
            [(1, 0.4, rotation_model(2, 0)), (2, 0.3, rotation_model(3, 100))]
        )[0],
        0.2,
    ),
]


class TestStackedReads:
    """A value read in an n-point stack equals the same value read alone, bit for bit."""

    @pytest.mark.parametrize("build, theta_bar", [c[1:] for c in STACKED_CASES],
                             ids=[c[0] for c in STACKED_CASES])
    def test_limit_samples_equal_one_point_qfis(self, build, theta_bar):
        model = build()
        try:
            limit = quantum.qfi_limit(model, theta_bar)
            thetas, values = limit.thetas, limit.qfi_values
        except DivergenceError as err:  # the classical bit's second kind
            thetas, values = err.thetas, err.values
        alone = [quantum.model_qfi(model, th) for th in thetas]
        assert list(values) == alone

    @pytest.mark.parametrize("build, theta_bar", [c[1:] for c in STACKED_CASES],
                             ids=[c[0] for c in STACKED_CASES])
    def test_every_term_equals_its_one_point_read(self, build, theta_bar):
        model = build()
        sign = 1.0 if model.in_domain(theta_bar + 1e-2) else -1.0
        thetas = [theta_bar + sign * 1e-2 * 2.0**-k for k in range(5)]
        stacked = quantum._model_blocks(model, thetas)
        for i, theta in enumerate(thetas):
            alone = quantum._model_blocks(model, [theta])
            assert len(stacked) == len(alone)
            for group, group1 in zip(stacked, alone):
                assert np.array_equal(group.multiplicities, group1.multiplicities)
                for field in ("blocks", "dblocks", "eigenvalues", "eigenvectors", "ranks"):
                    got, want = getattr(group, field)[i], getattr(group1, field)[0]
                    assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), field

    def test_spectra_equal_one_matrix_eigensolves(self):
        rng = np.random.default_rng(11)
        for dim in (2, 3, 8):
            stack = np.array([random_density(dim, rng) for _ in range(5)])
            stack[1] = np.eye(dim) / dim  # a fully degenerate spectrum
            for lam_k, vecs_k, rho in zip(*quantum._decompose(stack)[:2], stack):
                lam, vecs = np.linalg.eigh(rho)
                order = np.argsort(lam)[::-1]
                assert np.array_equal(lam_k, np.maximum(lam[order], 0.0))
                assert np.array_equal(vecs_k, vecs[:, order])


def poisoned(model, call, kind):
    """``model`` whose blocks_fn returns a bad first block on its ``call``-th call.

    ``kind`` "hermitian" adds an upper-triangle entry; "trace" scales the
    block by 1.01, so the weighted traces no longer sum to 1.
    """
    calls = iter(range(10**6))

    def blocks(theta, derivative):
        groups = model.blocks_fn(theta, derivative)
        if next(calls) != call:
            return groups
        (mults, mats, dmats), *rest = groups
        mats = mats.copy()
        if kind == "hermitian":
            mats[0] += np.triu(np.full(mats.shape[1:], 1e-6), 1)
        else:
            mats[0] *= 1.01
        return [(mults, mats, dmats), *rest]

    return dataclasses.replace(model, blocks_fn=blocks)


# (routine on a transverse-qubit model, number of points it reads).
POISONED_READS = [
    ("model_qfi", lambda m: quantum.model_qfi(m, 0.1), 1),
    ("qfi_limit", lambda m: quantum.qfi_limit(m, 0.0, side="above"), 6),
    ("bures_metric_fd", lambda m: quantum.bures_metric_fd(m, 0.1), 5),
    ("branch", lambda m: discontinuity.vanishing_eigenvalue_branch(m, 0.0), 7),
]


@pytest.mark.parametrize("kind", ["hermitian", "trace"])
@pytest.mark.parametrize("routine, n_points", [r[1:] for r in POISONED_READS],
                         ids=[r[0] for r in POISONED_READS])
def test_a_bad_block_at_any_stacked_point_is_rejected(routine, n_points, kind):
    model = models.make_model("transverse-qubit")
    routine(poisoned(model, n_points, kind))  # past the last read: untouched
    for call in range(n_points):
        with pytest.raises(InvalidInputError):
            routine(poisoned(model, call, kind))


class DenseRead(Exception):
    """Raised by a ``state_fn`` that must not be read."""


def outcome(routine):
    """A routine's result in comparable form, or the class of its error."""
    try:
        out = routine()
    except (ValueError, RuntimeError) as err:
        return type(err)
    if isinstance(out, quantum.LimitEstimate):
        return out.value, out.error, out.thetas.tolist(), out.qfi_values.tolist()
    if isinstance(out, discontinuity.DiscontinuityReport):
        return json.dumps(out.to_json())
    return out


MODEL_ROUTINES = (
    quantum.model_qfi, quantum.qfi_limit, quantum.bures_metric_fd, discontinuity.classify
)
# (built-in model, its rank-change point, a regular point).
BUILT_IN_POINTS = [
    ("classical-bit", lambda: models.make_model("classical-bit"), 0.0, 0.3),
    ("trig", lambda: models.make_model("trig"), 0.0, 0.7),
    ("transverse-qubit", lambda: models.make_model("transverse-qubit"), 0.0, 0.1),
    ("ghz-3", lambda: models.make_model("ghz", n_qubits=3), 0.0, 0.1),
]


@pytest.mark.parametrize("build, rank_change, regular", [c[1:] for c in BUILT_IN_POINTS],
                         ids=[c[0] for c in BUILT_IN_POINTS])
def test_built_in_models_are_read_through_their_blocks_alone(build, rank_change, regular):
    model = build()

    def dense(theta):
        raise DenseRead(f"state_fn({theta}) of {model.name} read")

    blocks_only = dataclasses.replace(model, state_fn=dense)
    for theta in (rank_change, regular):
        for routine in MODEL_ROUTINES:
            got = outcome(lambda: routine(blocks_only, theta))
            assert got == outcome(lambda: routine(model, theta)), (routine.__name__, theta)


@pytest.mark.parametrize("name, n", [("transverse-qubit", 1), ("ghz", 3), ("ghz", 8)])
def test_derivative_free_reads_never_differentiate_the_coefficients(monkeypatch, name, n):
    # The metric, the rank check, the vanishing weight and the dense state
    # read no derivative, so the GHZ coefficients are never differentiated.
    model = models.make_model(name, n_qubits=n)
    reads = [
        lambda: quantum.bures_metric_fd(model, 0.1),
        lambda: quantum.bures_metric_fd(model, 0.0),
        lambda: discontinuity.rank_change(model, 0.0),
        lambda: discontinuity.vanishing_eigenvalue_branch(model, 0.0),
        lambda: models.ghz_state(n, 0.1, 1.0, 1.0).tobytes(),
    ]
    expected = [read() for read in reads]

    class DerivativeRead(Exception):
        pass

    def forbidden(*args):
        raise DerivativeRead(f"ghz_coefficient_derivatives{args} called")

    monkeypatch.setattr(models, "ghz_coefficient_derivatives", forbidden)
    assert [read() for read in reads] == expected
    with pytest.raises(DerivativeRead):  # the patch is live: the QFI needs derivatives
        quantum.model_qfi(model, 0.1)
