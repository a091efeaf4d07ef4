import contextlib
import dataclasses
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import block_diag, solve_sylvester, sqrtm

from helpers import count_reads, random_density, random_hermitian, reparametrized, rotation_model
from qfidisc import cli, discontinuity, models, quantum
from qfidisc.exceptions import (
    BoundarySolutionWarning,
    DivergenceError,
    InvalidInputError,
    NotADiscontinuityError,
    NumericalError,
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

    @pytest.mark.parametrize(
        "entry", [math.nan, math.inf, -math.inf, complex(0.0, math.inf), complex(math.nan, 0.0)]
    )
    def test_validate_hermitian_rejects_non_finite_entries(self, entry):
        # NaN once passed: `max() > tol` is False for NaN.  Symmetric on
        # the diagonal and off it, so only finiteness can fail.
        for where in ((1, 1, 1), (2, 0, 1)):
            stack = np.array([np.eye(2), np.eye(2), np.eye(2)], dtype=complex)
            stack[where] = entry
            stack[where[0], where[2], where[1]] = np.conj(entry)
            with pytest.raises(InvalidInputError, match="non-finite"):
                quantum.validate_hermitian(stack)

    @given(seed=st.integers(0, 10_000), dim=st.sampled_from([2, 3, 4, 8, 16]))
    def test_reconstruction_and_orthonormality(self, seed, dim):
        rho = random_density(dim, np.random.default_rng(seed))
        spect = quantum.spectral_decompose(rho)
        gram = spect.eigenvectors.conj().T @ spect.eigenvectors
        assert np.max(np.abs(gram - np.eye(dim))) < 1e-10
        rebuilt = (spect.eigenvectors * spect.eigenvalues) @ spect.eigenvectors.conj().T
        assert np.max(np.abs(rebuilt - rho)) < 1e-10
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


HALF = np.eye(2, dtype=complex) / 2
HALF_PAIR = np.array([HALF, HALF])


def random_pair(dim, rng):
    return random_density(dim, rng), random_hermitian(dim, rng)


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
        # Oracle independent of the spectral sum: the symmetric logarithmic
        # derivative L of a full-rank state solves rho L + L rho = 2 drho
        # (a Sylvester equation), and Q = tr(rho L^2).
        rng = np.random.default_rng(seed)
        rho = random_density(dim, rng)
        drho = random_hermitian(dim, rng)
        q = quantum.qfi(rho, drho)
        l_op = solve_sylvester(rho, rho, 2.0 * drho)
        q_trace = float(np.real(np.trace(rho @ l_op @ l_op)))
        assert q == pytest.approx(q_trace, rel=1e-8)

    @pytest.mark.parametrize(
        "rho, drho",
        [
            *(random_pair(dim, np.random.default_rng(dim)) for dim in (2, 3, 4, 8)),
            (models.classical_bit_state(0.0), np.diag([1.0, -1.0]).astype(complex)),
            (models.classical_bit_state(1.0), np.diag([1.0, -1.0]).astype(complex)),
        ],
        ids=["d2", "d3", "d4", "d8", "bit-p0", "bit-p1"],
    )
    def test_is_the_one_block_model_qfi_bit_for_bit(self, rho, drho):
        model = models.ParametricModel(
            name="one-block",
            state_fn=lambda th: rho,
            blocks_fn=models.one_block(lambda th: rho, lambda th: drho, lambda th: 0 * drho),
        )
        assert quantum.qfi(rho, drho).hex() == quantum.model_qfi(model, 0.0).hex()

    @pytest.mark.parametrize(
        "rho, drho",
        [
            (HALF_PAIR, HALF_PAIR),  # a stack of states
            (HALF, np.zeros((3, 3), dtype=complex)),
            (np.eye(3, dtype=complex) / 3, np.zeros((2, 2), dtype=complex)),
            (HALF, np.zeros(2, dtype=complex)),
            (np.full((2, 3), 0.5, dtype=complex), np.zeros((2, 3), dtype=complex)),
        ],
        ids=["stack", "derivative-larger", "derivative-smaller", "derivative-vector", "non-square"],
    )
    def test_shapes_that_do_not_fit_are_invalid_input(self, rho, drho):
        with pytest.raises(InvalidInputError):
            quantum.qfi(rho, drho)

    def test_zero_matrix_is_not_a_state(self):
        # A zero matrix fails the trace check before any spectral sum, read
        # alone or as a model's one block.
        zero, dz = np.zeros((2, 2), dtype=complex), np.diag([1.0, -1.0]).astype(complex)
        with pytest.raises(InvalidInputError, match="trace"):
            quantum.qfi(zero, dz)
        model = models.ParametricModel(
            name="zero-block",
            state_fn=lambda th: zero,
            blocks_fn=models.one_block(lambda th: zero, lambda th: dz, lambda th: 0 * dz),
        )
        reads = [quantum.model_qfi, lambda m, th: quantum.qfi_and_metric(m, [th]),
                 discontinuity.classify]
        for read in reads:
            with pytest.raises(InvalidInputError, match="trace"):
                read(model, 0.0)

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


def fidelity_quotient_metric(model, theta, eps=1e-3):
    """Oracle for g from the public ``fidelity`` alone: the two-sided
    quotient 2 (1 - F) / e^2 at e = eps, eps/2, eps/4, its even error
    removed by two Richardson levels."""
    rho = model.state_fn(theta)

    def quotient(e):
        gaps = [1.0 - quantum.fidelity(rho, model.state_fn(theta + s * e)) for s in (1, -1)]
        return (gaps[0] + gaps[1]) / e**2

    q = [quotient(eps / 2**k) for k in range(3)]
    r = [(4.0 * q[k + 1] - q[k]) / 3.0 for k in range(2)]
    return (16.0 * r[1] - r[0]) / 15.0


class TestBuresMetric:
    @given(seed=st.integers(0, 2_000), dim=st.sampled_from([2, 3, 4]), theta=st.floats(-1.0, 1.0))
    @settings(max_examples=30)
    def test_matches_the_fidelity_quotient_on_rotation_models(self, seed, dim, theta):
        model = rotation_model(dim, seed)
        g = quantum.bures_metric_fd(model, theta)
        assert g == pytest.approx(fidelity_quotient_metric(model, theta), rel=1e-5, abs=1e-7)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    @pytest.mark.parametrize("theta", [0.05, -0.2, 0.4])
    def test_matches_the_fidelity_quotient_at_ghz_regular_points(self, n, theta):
        model = models.make_model("ghz", kappa=1.0, t=1.0, n_qubits=n)
        g = quantum.bures_metric_fd(model, theta)
        assert g == pytest.approx(fidelity_quotient_metric(model, theta), rel=1e-5)

    def test_classical_bit_midpoint_and_edges(self):
        model = models.make_model("classical-bit")
        # Oracle at the regular point: g = Q / 4 = 1.
        assert quantum.bures_metric_fd(model, 0.5) == pytest.approx(1.0, rel=1e-14)
        # The vanishing probability moves at first order: g diverges.
        assert math.isinf(quantum.bures_metric_fd(model, 0.0))
        assert math.isinf(quantum.bures_metric_fd(model, 1.0))

    def test_trig_interior_and_endpoints(self):
        model = models.make_model("trig")
        for theta in (0.3, 1.0, math.pi / 2, 0.0):
            assert quantum.bures_metric_fd(model, theta) == pytest.approx(1.0, rel=1e-14)

    def test_constant_family_has_no_metric(self):
        def state(theta):
            return np.eye(2, dtype=complex) / 2

        def zero(theta):
            return np.zeros((2, 2), dtype=complex)

        constant = models.ParametricModel(
            name="constant", state_fn=state, blocks_fn=models.one_block(state, zero, zero)
        )
        assert quantum.bures_metric_fd(constant, 0.0) == 0.0

    def test_no_step_needs_room_in_the_domain(self):
        # kappa/2 = 5e-5: no finite-difference step of 1e-4 fits; g needs none.
        # The limit 2 (exp(-kt) + kt - 1) / k^2, written without cancellation.
        kappa = 1e-4
        model = models.make_model("transverse-qubit", kappa=kappa)
        four_g = 4.0 * quantum.bures_metric_fd(model, 0.0)
        assert four_g == pytest.approx(2.0 * (math.expm1(-kappa) + kappa) / kappa**2, rel=1e-10)


# (model, a regular point, its rank-change point), with theta = scale * phi.
SCALED_CASES = [
    ("trig", lambda: models.make_model("trig"), 0.7, 0.0),
    ("transverse-qubit", lambda: models.make_model("transverse-qubit"), 0.2, 0.0),
    ("ghz-3", lambda: models.make_model("ghz", kappa=2.0, t=0.3, n_qubits=3), -0.4, 0.0),
    ("ghz-24", lambda: models.make_model("ghz", n_qubits=24), 0.1, 0.0),
]


@pytest.mark.parametrize("build, regular, rank_change", [c[1:] for c in SCALED_CASES],
                         ids=[c[0] for c in SCALED_CASES])
@given(log_scale=st.floats(-3.0, 3.0))
@settings(max_examples=15)
def test_reparametrization_scales_qfi_and_metric_by_the_square(
    build, regular, rank_change, log_scale
):
    # theta = s phi: Q_phi = s^2 Q_theta and g_phi = s^2 g_theta, at a
    # regular point and at the rank change alike.
    model = build()
    scale = 10.0**log_scale
    scaled = reparametrized(model, scale)
    for theta in (regular, rank_change):
        [(q, g)] = quantum.qfi_and_metric(model, [theta])
        [(q_phi, g_phi)] = quantum.qfi_and_metric(scaled, [theta / scale])
        assert q_phi == pytest.approx(scale**2 * q, rel=1e-10)
        assert g_phi == pytest.approx(scale**2 * g, rel=1e-10)


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
        # Closed form at N = 1: 2 (exp(-kt) + kt - 1) / k^2; cross-check
        # against the metric at the point itself (limit = 4 g).
        model = models.make_model("transverse-qubit", kappa=1.0, t=1.0)
        expected = 2.0 * (math.exp(-1.0) + 1.0 - 1.0)
        limit = quantum.qfi_limit(model, 0.0, side="above")
        assert limit.value == pytest.approx(expected, rel=1e-3)
        g = quantum.bures_metric_fd(model, 0.0)
        assert limit.value == pytest.approx(4.0 * g, rel=1e-3)

    def test_bad_side_rejected(self):
        with pytest.raises(InvalidInputError):
            quantum.qfi_limit(models.make_model("trig"), 0.5, side="sideways")

    @pytest.mark.parametrize("n, kappa, t", [(2, 2.0, 0.05), (4, 1.0, 0.1)])
    def test_samples_of_different_rank_are_an_error(self, n, kappa, t):
        # The innermost sample's smallest eigenvalue falls under the support
        # cut, so it lies on another branch; extrapolating would miss the
        # closed-form limit (by -1.1% at N = 2) and report a tiny error.
        model = models.make_model("ghz", kappa=kappa, t=t, n_qubits=n)
        stack = quantum._model_blocks(model, 1e-2 * 2.0 ** -np.arange(quantum.LIMIT_STEPS))
        ranks = quantum._weighted_ranks(stack).tolist()
        assert ranks[0] == 2**n and ranks[-1] < 2**n
        with pytest.raises(NumericalError, match="effective rank differs between the samples"):
            quantum.qfi_limit(model, 0.0)
        # The metric needs no samples and gives the limit.
        four_g = 4.0 * quantum.bures_metric_fd(model, 0.0)
        assert four_g == pytest.approx(models.ghz_qfi_continuous(n, kappa, t), rel=1e-10)


def block_model(parts, name="block-model"):
    """Direct-sum model from (multiplicity, weight, fixed-rank family) parts
    whose blocks share one size, and its dense twin.

    The block of a part is weight times the family's one block; the twin's
    state and derivatives are block-diagonal with every block repeated.
    """

    def part_blocks(theta):
        for mult, w, fam in parts:
            _, *arrays = fam.blocks_fn(theta)
            yield mult, *(w * a[0] for a in arrays)

    def blocks(theta):
        mults, *arrays = zip(*part_blocks(theta))
        return (np.array(mults), *map(np.array, arrays))

    def dense(theta, k):
        parts_at = list(part_blocks(theta))
        return block_diag(*[part[k + 1] for part in parts_at for _ in range(part[0])])

    return (
        models.ParametricModel(name=name, state_fn=lambda th: dense(th, 0), blocks_fn=blocks),
        models.ParametricModel(
            name=f"{name}-dense",
            state_fn=lambda th: dense(th, 0),
            blocks_fn=models.one_block(
                lambda th: dense(th, 0), lambda th: dense(th, 1), lambda th: dense(th, 2)
            ),
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
        assert 4.0 * quantum.bures_metric_fd(model, theta) == q

    @pytest.mark.parametrize("n", range(1, 25))
    def test_ghz_qfi_matches_the_bloch_block_sum(self, n):
        # Oracle with no support cut: each 2x2 block [[r, x], [conj x, r]]
        # is 2r times the qubit with Bloch vector (Re x, -Im x, 0) / r, and
        # its QFI is 2r times that qubit's Bloch-form QFI.
        for kappa_t in (0.1, 0.3, 1.0, 3.0):
            for theta in (0.01, 0.2, 0.4):
                mults, blocks, dblocks, _ = models.ghz_block_arrays(n, theta, 1.0, kappa_t)
                oracle = 0.0
                for mult, block, dblock in zip(mults.tolist(), blocks, dblocks):
                    r, x, dx = block[0, 0].real, block[0, 1], dblock[0, 1]
                    v, dv = [x.real / r, -x.imag / r, 0.0], [dx.real / r, -dx.imag / r, 0.0]
                    oracle += mult * 2.0 * r * models.qubit_bloch_qfi(v, dv)
                model = models.make_model("ghz", kappa=1.0, t=kappa_t, n_qubits=n)
                assert quantum.model_qfi(model, theta) == pytest.approx(oracle, rel=1e-8)

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 16, 24])
    @pytest.mark.parametrize("kappa,t", [(1.0, 1.0), (0.5, 2.0), (1.5, 1.0 / 1.5), (2.0, 0.3)])
    def test_ghz_jump_at_zero_is_the_closed_form(self, n, kappa, t):
        # Q(0) is the discontinuous value; the metric is continuous, so
        # 4g(0) is the theta -> 0 limit and 4g - Q is the paper's jump.
        model = models.make_model("ghz", kappa=kappa, t=t, n_qubits=n)
        q0 = quantum.model_qfi(model, 0.0)
        assert q0 == pytest.approx(models.ghz_qfi_discontinuous(n, kappa, t), rel=1e-10)
        four_g = 4.0 * quantum.bures_metric_fd(model, 0.0)
        assert four_g == pytest.approx(models.ghz_qfi_continuous(n, kappa, t), rel=1e-10)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_weighted_blocks_match_block_diagonal_state(self, seed):
        # Two 3x3 blocks of different weights, the second repeated twice,
        # against the assembled 9x9 state.
        model, dense = block_model(
            [(1, 0.4, rotation_model(3, seed)), (2, 0.3, rotation_model(3, seed + 100))]
        )
        for theta in (-0.7, 0.2, 1.1):
            assert quantum.model_qfi(model, theta) == pytest.approx(
                quantum.model_qfi(dense, theta), rel=1e-12
            )
            assert quantum.bures_metric_fd(model, theta) == pytest.approx(
                quantum.bures_metric_fd(dense, theta), rel=1e-12
            )

    def test_block_traces_must_sum_to_one(self):
        model, _ = block_model([(1, 0.5, rotation_model(2, 0)), (2, 0.2, rotation_model(2, 1))])
        with pytest.raises(InvalidInputError):
            quantum.model_qfi(model, 0.3)
        with pytest.raises(InvalidInputError):
            quantum.bures_metric_fd(model, 0.3)

    def test_non_hermitian_block_rejected(self):
        bad = np.array([[0.5, 0.1], [0.0, 0.5]], dtype=complex)
        zero = np.zeros((2, 2), dtype=complex)
        model = models.ParametricModel(
            name="bad-block",
            state_fn=lambda theta: bad,
            blocks_fn=models.one_block(lambda theta: bad, lambda theta: zero, lambda theta: zero),
        )
        with pytest.raises(InvalidInputError):
            quantum.model_qfi(model, 0.0)

    @pytest.mark.parametrize(
        "direct_sum",
        [
            (),
            (np.ones(1, dtype=int), HALF[None]),
            (np.ones(1, dtype=int), HALF[None], np.zeros_like(HALF[None])),
            [(np.ones(1, dtype=int), HALF[None], np.zeros_like(HALF[None]), None)],
            (np.zeros(0, dtype=int), HALF_PAIR[:0], HALF_PAIR[:0], HALF_PAIR[:0]),
            (np.array([-1, 2]), HALF_PAIR, np.zeros_like(HALF_PAIR), np.zeros_like(HALF_PAIR)),
            (np.array([0, 1]), HALF_PAIR, np.zeros_like(HALF_PAIR), np.zeros_like(HALF_PAIR)),
            (np.array([0.5, 0.5]), HALF_PAIR, np.zeros_like(HALF_PAIR), np.zeros_like(HALF_PAIR)),
            (
                np.array([2**63], dtype=np.uint64),
                HALF[None] / 2**63,
                np.zeros_like(HALF[None]),
                np.zeros_like(HALF[None]),
            ),
        ],
        ids=[
            "empty", "two-tuple", "three-tuple", "list-of-groups", "no-blocks", "negative",
            "zero", "fractional", "past-int64",
        ],
    )
    def test_malformed_direct_sum_rejected(self, direct_sum):
        # A list holding one valid 4-tuple is the retired "one group per
        # block size" form.  The weighted traces of the last four sum to
        # 1: only the multiplicities are wrong; the last, 2**63, does not
        # fit the int64 in which ranks are summed.
        model = models.ParametricModel(
            name="malformed", state_fn=None, blocks_fn=lambda theta: direct_sum
        )
        for routine in (quantum.model_qfi, quantum.bures_metric_fd):
            with pytest.raises(InvalidInputError) as err:
                routine(model, 0.0)
            if isinstance(direct_sum, list):
                assert "4-tuple" in str(err.value)
            elif direct_sum and direct_sum[0].dtype == np.uint64:
                assert "are not integers in [1, 2**63)" in str(err.value)

    @pytest.mark.parametrize("second", [None, HALF_PAIR], ids=["missing", "wrong-shape"])
    def test_metric_needs_the_second_derivatives(self, second):
        # Every read takes the blocks with both derivatives: the QFI, which
        # uses no second derivative, rejects a missing or bad one as the
        # metric does.
        direct_sum = (np.ones(1, dtype=int), HALF[None], np.zeros_like(HALF[None]), second)
        model = models.ParametricModel(
            name="no-second", state_fn=None, blocks_fn=lambda theta: direct_sum
        )
        for routine in (quantum.model_qfi, quantum.bures_metric_fd):
            with pytest.raises(InvalidInputError):
                routine(model, 0.0)


def direct_sum_model(mults, blocks, first, second) -> models.ParametricModel:
    """A model whose ``blocks_fn`` returns the same 4-tuple at every theta."""
    read = (mults, blocks, first, second)
    return models.ParametricModel(name="direct-sum", state_fn=None, blocks_fn=lambda th: read)


BLOCK_READS = [
    lambda model: quantum.model_qfi(model, 0.0),
    lambda model: quantum.bures_metric_fd(model, 0.0),
    lambda model: discontinuity.classify(model, 0.0),
]
BLOCK_READ_IDS = ["model_qfi", "bures_metric_fd", "classify"]


def one_block_qfi(block=0.0, first=0.0, second=0.0) -> float:
    """``model_qfi`` of a one-block model: diag(0.6, 0.4) with derivatives
    diag(1, -1) and 0, each with its argument added to its upper right
    entry alone, which makes it that far from Hermitian, or, where the
    argument is not finite, to both off-diagonal entries, so that only
    finiteness fails."""

    def upper(diagonal, x):
        matrix = np.diag(diagonal).astype(complex)
        matrix[0, 1] += x
        if not math.isfinite(x):
            matrix[1, 0] += x
        return matrix

    rho, d1, d2 = upper([0.6, 0.4], block), upper([1.0, -1.0], first), upper([0.0, 0.0], second)
    model = models.ParametricModel(
        name="one-block",
        state_fn=None,
        blocks_fn=models.one_block(lambda th: rho, lambda th: d1, lambda th: d2),
    )
    return quantum.model_qfi(model, 0.0)


class TestBlockChecks:
    """A model read holds its blocks within 1e-12 of Hermitian and their two
    derivatives within 1e-10, all finite; the failure it reports is the
    first in the order blocks, first derivative, second derivative, each
    checked for finiteness before Hermiticity."""

    @pytest.mark.parametrize(
        "asymmetry", [{"block": 5e-13}, {"first": 5e-11}, {"second": 5e-11}],
        ids=["block", "first", "second"],
    )
    def test_within_tolerance_reads(self, asymmetry):
        assert one_block_qfi(**asymmetry) == pytest.approx(one_block_qfi(), rel=1e-9)

    @pytest.mark.parametrize(
        "asymmetry, message",
        [
            ({"block": 2e-12}, "density block is not Hermitian within 1e-12"),
            ({"first": 2e-10}, "state derivative is not Hermitian within 1e-10"),
            ({"second": 2e-10}, "state derivative is not Hermitian within 1e-10"),
            ({"second": math.nan}, "state derivative has a non-finite entry"),
            ({"second": math.inf}, "state derivative has a non-finite entry"),
            ({"block": math.nan}, "density block has a non-finite entry"),
            # The first failure in check order, not the first in the stack.
            ({"block": 2e-12, "second": math.nan}, "density block is not Hermitian within 1e-12"),
            (
                {"first": 2e-10, "second": math.inf},
                "state derivative is not Hermitian within 1e-10",
            ),
        ],
        ids=[
            "block", "first", "second", "second-nan", "second-inf", "block-nan",
            "block-before-second", "first-before-second",
        ],
    )
    def test_outside_tolerance_fails(self, asymmetry, message):
        # With no warning on the way: an inf entry is caught before any gap.
        with warnings.catch_warnings(), pytest.raises(InvalidInputError) as err:
            warnings.simplefilter("error")
            one_block_qfi(**asymmetry)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "read",
        [
            lambda model: quantum.model_qfi(model, 0.1),
            lambda model: quantum.qfi_and_metric(model, [0.1, 0.2]),
            lambda model: discontinuity.classify(model, 0.1),
        ],
        ids=["model_qfi", "qfi_and_metric", "classify"],
    )
    def test_a_0x0_block_is_invalid_input(self, read):
        # numpy's max of the empty Hermiticity gap raised a bare ValueError.
        empty = np.zeros((0, 0), dtype=complex)
        model = models.ParametricModel(
            name="empty",
            state_fn=None,
            blocks_fn=models.one_block(*[lambda th: empty] * 3),
        )
        with pytest.raises(InvalidInputError) as err:
            read(model)
        assert str(err.value).startswith("density block has no entries, got shape (")

    @pytest.mark.parametrize("read", BLOCK_READS, ids=BLOCK_READ_IDS)
    @pytest.mark.parametrize(
        "shape",
        [
            (np.ones(2, dtype=int), np.array([0.5, 0.5])),
            (np.ones(2, dtype=int), np.eye(2) / 2.0),
            (np.ones(1, dtype=int), np.eye(2)[None, None] / 2.0),
        ],
        ids=["(B,)", "one (d, d) block with d multiplicities", "(1, 1, d, d)"],
    )
    def test_blocks_of_the_wrong_rank_are_invalid_input(self, read, shape):
        # Each raised a bare TypeError past the Hermiticity check.
        mults, blocks = shape
        model = direct_sum_model(mults, blocks, np.zeros_like(blocks), np.zeros_like(blocks))
        with pytest.raises(InvalidInputError, match=r"blocks must be a \(B, d, d\) array"):
            read(model)

    @pytest.mark.parametrize("read", BLOCK_READS, ids=BLOCK_READ_IDS)
    def test_a_block_entry_that_is_not_a_number_is_invalid_input(self, read):
        # An object array of them raised a bare TypeError.
        blocks = np.array([[[{}, 0.0], [0.0, 0.5]]], dtype=object)
        zeros = np.zeros((1, 2, 2))
        model = direct_sum_model(np.ones(1, dtype=int), blocks, zeros, zeros)
        with pytest.raises(InvalidInputError, match="not a number"):
            read(model)

    @pytest.mark.parametrize("read", BLOCK_READS, ids=BLOCK_READ_IDS)
    def test_a_negative_block_eigenvalue_is_invalid_input(self, read):
        # Clamped without a word, diag(1.5, -0.5) read as Q = 0.667, 4g = inf
        # and a second kind.
        flip = np.diag([1.0, -1.0])[None]
        model = direct_sum_model(np.ones(1, dtype=int), np.diag([1.5, -0.5])[None], flip, 0 * flip)
        with pytest.raises(InvalidInputError, match="not positive semidefinite"):
            read(model)

    def test_a_negative_eigenvalue_within_the_support_cut_is_clamped(self):
        lam = 1e-13
        spect = quantum.spectral_decompose(np.diag([1.0 + lam, -lam]))
        assert spect.eigenvalues.tolist() == [1.0 + lam, 0.0]
        with pytest.raises(InvalidInputError, match="not positive semidefinite"):
            quantum.spectral_decompose(np.diag([1.0 + 100 * lam, -100 * lam]))

    @pytest.mark.parametrize(
        "read", [quantum.model_qfi, quantum.bures_metric_fd], ids=["model_qfi", "bures_metric_fd"]
    )
    def test_an_overflowing_read_is_a_numerical_error(self, read):
        # It warned "overflow encountered in square" and returned inf.
        model = direct_sum_model(
            np.ones(1, dtype=int), np.eye(2)[None] / 2.0, np.diag([1e300, -1e300])[None],
            np.zeros((1, 2, 2)),
        )
        with pytest.raises(NumericalError, match="overflow"):
            read(model, 0.0)


@st.composite
def blocks_fn_returns(draw):
    """A ``blocks_fn`` return: B, d in 0..3 blocks whose eigenvalues take
    either sign or 0 at magnitudes up to 1e300, normalized to weighted trace
    1 where that total is finite and nonzero, in a random eigenbasis, with
    random traceless derivatives up to 1e300 in size; as (B, d, d) arrays,
    or in one of three shapes of the wrong rank."""
    n_blocks, dim = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mults = rng.integers(1, 4, size=n_blocks)
    magnitudes = st.integers(-300, 300).map(lambda e: 10.0**e)
    signs = st.sampled_from([1.0, 1.0, -1.0, 0.0])
    lam = np.array([[draw(signs) * draw(magnitudes) for _ in range(dim)] for _ in range(n_blocks)])
    total = mults @ lam.sum(axis=-1) if lam.size else 0.0
    u = np.linalg.qr(random_hermitian(dim, rng) + 1j * np.eye(dim))[0] if dim else np.eye(0)
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite entry is a draw too
        if math.isfinite(total) and total:
            lam = lam / total
        blocks = (u * lam[:, None, :]) @ u.conj().T if n_blocks else np.zeros((0, dim, dim))

    def derivative():
        a = np.array([random_hermitian(dim, rng) for _ in range(n_blocks)]).reshape(blocks.shape)
        a -= np.eye(dim) * np.trace(a, axis1=-2, axis2=-1)[:, None, None] / max(dim, 1)
        return a * draw(magnitudes)

    parts = [blocks, derivative(), derivative()]
    shape = draw(st.sampled_from(["(B, d, d)"] * 3 + ["(B,)", "(d, d)", "(1, B, d, d)"]))
    if shape == "(B,)":
        parts = [part.trace(axis1=-2, axis2=-1) for part in parts]
    elif shape == "(d, d)" and n_blocks:
        mults, parts = np.ones(dim, dtype=int), [part[0] for part in parts]
    elif shape == "(1, B, d, d)":
        parts = [part[None] for part in parts]
    return (mults, *parts)


@settings(max_examples=150)
@given(read=blocks_fn_returns())
def test_a_malformed_blocks_fn_return_reads_or_fails_with_a_mapped_class(read):
    """Every read of a drawn direct sum returns, with inf only where a kernel
    direction moves at first order, or raises a class the CLI maps to an
    exit code, with no numpy warning on the way (warnings are errors)."""
    model = direct_sum_model(*read)
    results = {}
    for name, call in [
        ("q", lambda: quantum.model_qfi(model, 0.0)),
        ("g", lambda: quantum.bures_metric_fd(model, 0.0)),
        ("both", lambda: quantum.qfi_and_metric(model, [0.0])[0]),
        ("report", lambda: discontinuity.classify(model, 0.0)),
    ]:
        with contextlib.suppress(*cli._FAILURES):
            results[name] = call()
    if "q" in results:
        assert math.isfinite(results["q"]) and results["q"] >= 0.0
    if "g" in results:
        g = results["g"]
        assert math.isfinite(g) or g == math.inf
        if g == math.inf:
            *_, counts = quantum._block_motion(quantum._model_blocks(model, [0.0]))
            assert counts[0].any()
    if "both" in results:
        assert results["both"] == (results["q"], results["g"])
    if "report" in results:
        report = results["report"]
        assert report.kind in ("second-kind", "jump")
        assert math.isfinite(report.delta_q_predicted) == (report.kind == "jump")
        assert math.isfinite(report.qfi_at_bar)


# (model, a point to read around): every registry model, GHZ at three N,
# rotation models in 3 and 4 dimensions, and a weighted sum of 3x3 blocks.
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
        "weighted-blocks",
        lambda: block_model(
            [(1, 0.4, rotation_model(3, 0)), (2, 0.3, rotation_model(3, 100))]
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
            assert np.array_equal(stacked.multiplicities, alone.multiplicities)
            fields = ("blocks", "derivatives", "eigenvalues", "eigenvectors", "ranks")
            for field in fields:
                # The derivatives carry their order on the first axis.
                point = (slice(None),) if field == "derivatives" else ()
                got = getattr(stacked, field)[(*point, i)]
                want = getattr(alone, field)[(*point, 0)]
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


def hex_pairs(pairs):
    return [(float(q).hex(), float(g).hex()) for q, g in pairs]


# (model, grid): every built-in model.  The classical bit's grid has rows
# on both domain edges, and the transverse qubit's rows at +/-0.49995 lie
# within 1e-4 of +/-kappa/2; the rotation models and the weighted direct
# sum read 3x3 and 4x4 blocks.
ONE_READ_CASES = [
    ("classical-bit", lambda: models.make_model("classical-bit"), np.linspace(0.0, 1.0, 11)),
    ("trig", lambda: models.make_model("trig"), np.linspace(0.0, math.pi / 2, 7)),
    (
        "transverse-qubit",
        lambda: models.make_model("transverse-qubit"),
        [-0.49995, -0.4999, -0.1, 0.0, 0.2, 0.49995],
    ),
    ("ghz-2", lambda: models.make_model("ghz", n_qubits=2), [-0.3, 0.0, 0.3]),
    ("ghz-8", lambda: models.make_model("ghz", kappa=2.0, t=0.3, n_qubits=8), [0.0, 0.5, 0.99]),
    ("ghz-24", lambda: models.make_model("ghz", n_qubits=24), [-0.2, 0.0, 0.1, 0.2]),
    ("rotation-3", lambda: rotation_model(3, 4), [-0.8, 0.3]),
    ("rotation-4", lambda: rotation_model(4, 5), [0.1, 1.2]),
    (
        "weighted-blocks",
        lambda: block_model(
            [(1, 0.4, rotation_model(3, 0)), (2, 0.3, rotation_model(3, 100))]
        )[0],
        [-0.7, 0.2, 1.1],
    ),
]


class TestQfiAndMetric:
    """One grid in one stacked read gives each row what it gets read alone."""

    @pytest.mark.parametrize("build, grid", [c[1:] for c in ONE_READ_CASES],
                             ids=[c[0] for c in ONE_READ_CASES])
    def test_rows_equal_the_one_point_routines(self, build, grid):
        model = build()
        thetas = [float(theta) for theta in grid]
        expected = [
            (quantum.model_qfi(model, theta), quantum.bures_metric_fd(model, theta))
            for theta in thetas
        ]
        assert hex_pairs(quantum.qfi_and_metric(model, thetas)) == hex_pairs(expected)
        for theta, row in zip(thetas, expected):
            assert hex_pairs(quantum.qfi_and_metric(model, [theta])) == hex_pairs([row])

    @pytest.mark.parametrize("n_points", [1, 2, 7])
    def test_one_read_for_any_grid(self, monkeypatch, n_points):
        model = models.make_model("ghz", n_qubits=4)
        reads = count_reads(monkeypatch)
        quantum.qfi_and_metric(model, list(np.linspace(-0.2, 0.2, n_points)))
        assert reads == [n_points]

    def test_a_grid_through_the_rank_change_runs_the_analysis(self, monkeypatch):
        # GHZ N = 4 over -0.2:0.2:5: theta = 0 has a kernel, so the whole
        # read goes through the kernel analysis once, and its full-rank
        # rows add 2 a_j = 0 to Q.
        kappa, t = 1.0, 1.0
        model = models.make_model("ghz", kappa=kappa, t=t, n_qubits=4)
        calls = []
        block_motion = quantum._block_motion

        def counted(st):
            calls.append(st.blocks.shape[0])
            return block_motion(st)

        monkeypatch.setattr(quantum, "_block_motion", counted)
        rows = quantum.qfi_and_metric(model, list(np.linspace(-0.2, 0.2, 5)))
        assert calls == [5]
        four_gs = [4.0 * g for _, g in rows]
        assert four_gs[2] == pytest.approx(models.ghz_qfi_continuous(4, kappa, t), rel=1e-12)
        assert four_gs[2] > rows[2][0]
        assert [four_gs[i] for i in (0, 1, 3, 4)] == [rows[i][0] for i in (0, 1, 3, 4)]

    @pytest.mark.parametrize(
        "eps, moves",
        [(0.3e-6, False), (0.6e-6, False), (0.7e-6, False), (0.9e-6, False),
         (1.1e-6, True), (1e-3, True)],
    )
    def test_the_metric_classify_and_the_ranks_agree_on_motion(self, eps, moves):
        # diag(eps th, eps th, 1/2 + th, 1/2 - th - 2 eps th) at 0: a kernel
        # of two directions, each moving at speed eps, against a speed bound
        # of 1e-6 (1 + 2 eps).  Under it neither direction moves, though
        # their sum 2 eps may exceed the bound: 4g stays finite, classify
        # finds no discontinuity and the rank stays 2.  Over it 4g is inf,
        # the kind is second and the rank rises to 4.
        speeds = [eps, eps, 1.0, -1.0 - 2.0 * eps]
        model = models.ParametricModel(
            name="two-slow-directions",
            state_fn=None,
            blocks_fn=models.one_block(
                lambda th: np.diag([eps * th, eps * th, 0.5 + th, 0.5 - th - 2.0 * eps * th])
                .astype(complex),
                lambda th: np.diag(speeds).astype(complex),
                lambda th: np.zeros((4, 4), dtype=complex),
            ),
            domain=(0.0, 0.25),
        )
        infinite = math.isinf(quantum.bures_metric_fd(model, 0.0))
        try:
            report = discontinuity.classify(model, 0.0)
        except NotADiscontinuityError:
            second_kind = rises = False
        else:
            second_kind = report.kind == "second-kind"
            rises = report.rank_beside > report.rank_at_bar
            assert (report.rank_at_bar, report.rank_beside) == (2, 4)
        assert infinite == second_kind == rises == moves

    def test_structure_must_match_between_points(self):
        # One block of multiplicity 2 at theta = 0, one of multiplicity 1
        # elsewhere: each point is a valid direct sum, the pair is not.
        def blocks(theta):
            mult, block = (2, HALF / 2) if theta == 0.0 else (1, HALF)
            zero = np.zeros((1, 2, 2), dtype=complex)
            return (np.array([mult]), block[None], zero, zero)

        model = models.ParametricModel(name="changing", state_fn=None, blocks_fn=blocks)
        assert quantum.qfi_and_metric(model, [0.0]) == [(0.0, 0.0)]
        with pytest.raises(InvalidInputError, match="multiplicities differ"):
            quantum.qfi_and_metric(model, [0.0, 0.5])


class TestFullRankReads:
    """A read whose every block has full rank at every point has no
    kernel: the metric is Q and classify raises, with none of the kernel
    analysis run."""

    @pytest.fixture(autouse=True)
    def no_kernel_analysis(self, monkeypatch):
        def refused(*args):
            raise AssertionError("kernel analysis run on a read of full rank")

        monkeypatch.setattr(quantum, "_block_motion", refused)

    @pytest.mark.parametrize("n", [1, 4, 8])
    def test_ghz_grid_off_zero_has_4g_equal_to_q(self, n):
        model = models.make_model("ghz", n_qubits=n)
        thetas = [-0.3, -0.05, 0.1, 0.4]
        rows = quantum.qfi_and_metric(model, thetas)
        assert [q for q, _ in rows] == [quantum.model_qfi(model, theta) for theta in thetas]
        assert [4.0 * g for _, g in rows] == [q for q, _ in rows]

    def test_metric_at_a_regular_rotation_point_is_q(self):
        model = rotation_model(3, 4)
        assert 4.0 * quantum.bures_metric_fd(model, 0.3) == quantum.model_qfi(model, 0.3)

    @pytest.mark.parametrize(
        "build, theta_bar, rank",
        [
            (lambda: models.make_model("classical-bit"), 0.5, 2),
            (lambda: models.make_model("ghz", n_qubits=4), 0.1, 16),
            (lambda: rotation_model(3, 4), 0.3, 3),
        ],
        ids=["classical-bit", "ghz-4", "rotation-3"],
    )
    def test_classify_raises_before_the_analysis(self, build, theta_bar, rank):
        with pytest.raises(NotADiscontinuityError) as err:
            discontinuity.classify(build(), theta_bar)
        assert str(err.value) == (
            f"no kernel direction of the state moves at theta_bar={theta_bar} "
            f"(effective rank {rank})"
        )


def poisoned(model, call, kind):
    """``model`` whose blocks_fn returns a bad first block on its ``call``-th call.

    ``kind`` "hermitian" adds an upper-triangle entry; "trace" scales the
    block by 1.01, so the weighted traces no longer sum to 1.
    """
    calls = iter(range(10**6))

    def blocks(theta):
        direct_sum = model.blocks_fn(theta)
        if next(calls) != call:
            return direct_sum
        mults, mats, *derivatives = direct_sum
        mats = mats.copy()
        if kind == "hermitian":
            mats[0] += np.triu(np.full(mats.shape[1:], 1e-6), 1)
        else:
            mats[0] *= 1.01
        return (mults, mats, *derivatives)

    return dataclasses.replace(model, blocks_fn=blocks)


# (routine on a transverse-qubit model, number of points it reads).
POISONED_READS = [
    ("model_qfi", lambda m: quantum.model_qfi(m, 0.1), 1),
    ("qfi_limit", lambda m: quantum.qfi_limit(m, 0.0, side="above"), 6),
    ("bures_metric_fd", lambda m: quantum.bures_metric_fd(m, 0.1), 1),
    ("qfi_and_metric", lambda m: quantum.qfi_and_metric(m, [0.1, -0.2, 0.3]), 3),
    ("branch", lambda m: discontinuity.vanishing_eigenvalue_branch(m, 0.0), 7),
    ("classify", lambda m: discontinuity.classify(m, 0.0), 1),
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
def test_block_reads_take_order_2_and_the_parity_paths_orders_0_and_1(monkeypatch, name, n):
    # Every read of the blocks, the dense state's included, computes the
    # coefficients with both their derivatives once per point.  The scalar
    # parity probability reads no derivative, and so does the estimator's
    # p(+) at each bracket edge, once per estimator; each Newton step of
    # the estimate reads the first, and the turning-point search the first
    # on its grid and the second in its polish.
    model = models.make_model(name, n_qubits=n)
    orders = []
    series = models._ghz_series

    def counted(theta, kappa, t, order=0):
        orders.append(order)
        return series(theta, kappa, t, order)

    monkeypatch.setattr(models, "_ghz_series", counted)
    for read, expected in [
        (lambda: discontinuity.vanishing_eigenvalue_branch(model, 0.0), [2] * 7),
        (lambda: models.ghz_state(n, 0.1, 1.0, 1.0), [2]),
        (lambda: quantum.model_qfi(model, 0.1), [2]),
        (lambda: quantum.bures_metric_fd(model, 0.0), [2]),
        (lambda: quantum.qfi_and_metric(model, [0.1, 0.2]), [2, 2]),
        (lambda: discontinuity.classify(model, 0.0), [2]),
        (lambda: models.ghz_parity_probability(n, 0.1, 1.0, 1.0), [0]),
    ]:
        orders.clear()
        read()
        assert orders == expected
    orders.clear()
    with pytest.warns(BoundarySolutionWarning):
        model.estimate(1.0)  # the low edge: p(+) at theta = 0 alone
    assert orders == [0]
    model.estimate(model.p_first(0.2))  # searches theta* and reads p(theta*) once
    freq = model.p_first(0.1)
    orders.clear()
    model.estimate(freq)  # both edges known: Newton steps alone
    assert orders and set(orders) == {1}
    orders.clear()
    models._parity_turning_point(n, 1.0, 1.0)  # no turning point below 0.49 kappa
    assert len(orders) == 256 and set(orders) == {1}
    orders.clear()
    models._parity_turning_point(n, 1.0, 10.0)
    assert set(orders) == ({1} if n == 1 else {1, 2})
