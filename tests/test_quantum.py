import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import block_diag, sqrtm

from helpers import random_density, random_hermitian, rotation_model
from qfidisc import models, quantum
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
        spect = quantum.spectral_decompose(rho, support_tol=1e-12)
        assert np.allclose(spect.eigenvalues, [1.0, 0.0])
        assert spect.effective_rank == 1

    def test_diagonal_family_point(self):
        spect = quantum.spectral_decompose(models.classical_bit_state(0.3))
        assert np.allclose(spect.eigenvalues, [0.7, 0.3])

    def test_non_hermitian_rejected(self):
        bad = np.array([[0.5, 0.1], [0.0, 0.5]], dtype=complex)
        with pytest.raises(InvalidInputError):
            quantum.spectral_decompose(bad)

    def test_negative_support_tol_rejected(self):
        with pytest.raises(InvalidInputError):
            quantum.spectral_decompose(np.eye(2, dtype=complex) / 2, support_tol=-1.0)

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

    def test_underflow_raises_step_size_error(self):
        constant = models.ParametricModel(
            name="constant", dim=2, state_fn=lambda theta: np.eye(2, dtype=complex) / 2
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

    The block of a part is weight * family.state_fn(theta); the twin's
    state and derivative are block-diagonal with every block repeated.
    """

    def blocks(theta):
        return [
            (mult, w * fam.state_fn(theta), w * fam.derivative_fn(theta)) for mult, w, fam in parts
        ]

    def dense(theta, which):
        return block_diag(*[blk[which] for blk in blocks(theta) for _ in range(blk[0])])

    def state(theta):
        return dense(theta, 1)

    dim = sum(mult * fam.dim for mult, _, fam in parts)
    return (
        models.ParametricModel(name=name, dim=dim, state_fn=state, blocks_fn=blocks),
        models.ParametricModel(
            name=f"{name}-dense", dim=dim, state_fn=state, derivative_fn=lambda th: dense(th, 2)
        ),
    )


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
            dim=2,
            state_fn=lambda theta: bad,
            blocks_fn=lambda theta: [(1, bad, np.zeros((2, 2), dtype=complex))],
        )
        with pytest.raises(InvalidInputError):
            quantum.model_qfi(model, 0.0)
