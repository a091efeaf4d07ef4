import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qfidisc import models, quantum
from qfidisc.exceptions import DomainError, InvalidInputError


def fd_cross_derivative(m, n, kappa, t, h=1e-5, order=1):
    """Finite-difference theta-derivatives of the cross matrix element at 0."""

    def elem(theta):
        [[cross]] = models._cross_series(n, [m], models._ghz_series(theta, kappa, t)[4])
        return cross

    if order == 1:
        return (elem(h) - elem(-h)) / (2.0 * h)
    return (elem(h) - 2.0 * elem(0.0) + elem(-h)) / h**2


def brute_force_qfi_discontinuous(n, kappa, t):
    """Block sum of |d rho_cross|^2 / rho_diag at theta = 0, derivatives by
    central differences."""
    a, d, _, _, _ = models.ghz_coefficients(0.0, kappa, t)
    total = 0.0
    for m in range(n + 1):
        rmm = models._diag_element(m, n, a, d)
        if rmm <= 0.0:
            continue
        dcross = fd_cross_derivative(m, n, kappa, t, h=1e-5, order=1)
        total += math.comb(n, m) * abs(dcross) ** 2 / rmm
    return total


def brute_force_qfi_continuous(n, kappa, t):
    """-sum_m binom(n, m) d^2/dtheta^2 rho_cross at theta = 0 by central
    second differences."""
    total = 0.0
    for m in range(n + 1):
        total += math.comb(n, m) * fd_cross_derivative(m, n, kappa, t, h=1e-4, order=2)
    return -total.real


def reference_cross_diagonal(n, diag_of_m, cross_of_m):
    """Entry-by-entry assembly: (s, s) <- diag_of_m(popcount s), (s, sbar) <- cross_of_m(...)."""
    dim = 2**n
    full = np.zeros((dim, dim), dtype=complex)
    for s in range(dim):
        m = bin(s).count("1")
        full[s, s] = diag_of_m(m)
        full[s, s ^ (dim - 1)] = cross_of_m(m)
    return full


def reference_ghz_dense(n, theta, kappa, t, field):
    """Entry-by-entry assembly of the blocks' ``field`` ("matrix" or
    "derivative"); for m > N/2 the cross entry is block N - m's conjugate."""
    by_m = [getattr(blk, field) for blk in models.ghz_blocks(n, theta, kappa, t).blocks]
    return reference_cross_diagonal(
        n,
        lambda m: by_m[min(m, n - m)][0, 0].real,
        lambda m: by_m[m][0, 1] if m <= n - m else np.conj(by_m[n - m][0, 1]),
    )


def reference_ghz_state(n, theta, kappa, t):
    return reference_ghz_dense(n, theta, kappa, t, "matrix")


def reference_ghz_state_derivative(n, theta, kappa, t):
    return reference_ghz_dense(n, theta, kappa, t, "derivative")


def elementwise_ghz_state_derivative(n, theta, kappa, t):
    """Each cross entry differentiated on its own, m = 0..N, not read from the blocks."""
    bfc = models._ghz_series(theta, kappa, t, 1)[4]
    return reference_cross_diagonal(
        n, lambda m: 0.0, lambda m: models._cross_series(n, [m], bfc)[0][1]
    )


class TestDiagonalFamilies:
    def test_classical_bit_boundaries(self):
        assert np.allclose(models.classical_bit_state(0.0), np.diag([0.0, 1.0]))
        assert np.allclose(models.classical_bit_state(0.5), np.eye(2) / 2)
        assert np.allclose(models.classical_bit_state(0.3), np.diag([0.3, 0.7]))

    def test_classical_bit_domain(self):
        with pytest.raises(DomainError):
            models.classical_bit_state(1.5)
        with pytest.raises(DomainError):
            models.classical_bit_state(-0.2)

    def test_trig_points(self):
        assert np.allclose(models.trig_model_state(0.0), np.diag([0.0, 1.0]))
        assert np.allclose(models.trig_model_state(math.pi / 4), np.eye(2) / 2)
        assert np.allclose(models.trig_model_state(math.pi / 3), np.diag([0.75, 0.25]))

    def test_trig_domain(self):
        with pytest.raises(DomainError):
            models.trig_model_state(-0.1)
        with pytest.raises(DomainError):
            models.trig_model_state(2.0)


class TestGhzCoefficients:
    def test_no_evolution(self):
        assert models.ghz_coefficients(0.2, 1.0, 0.0) == pytest.approx((1.0, 0.0, 1.0, 0.0, 0.0))

    def test_zero_frequency_values(self):
        a, d, b, f, c = models.ghz_coefficients(0.0, 1.0, 1.0)
        assert a == pytest.approx(0.5 * (1 + math.exp(-1.0)), rel=1e-14)
        assert b == pytest.approx(math.exp(-0.5) * math.cosh(0.5), rel=1e-14)
        assert f == pytest.approx(math.exp(-0.5) * math.sinh(0.5), rel=1e-14)
        assert c == 0.0
        assert a + d == pytest.approx(1.0, abs=1e-14)

    def test_generic_point_direct_evaluation(self):
        # xi = sqrt(1 - 4 * 0.25^2) = sqrt(0.75); evaluated from scratch here.
        theta, kappa, t = 0.25, 1.0, 1.0
        xi = math.sqrt(0.75)
        decay = math.exp(-0.5)
        expected = (
            0.5 * (1 + math.exp(-1.0)),
            0.5 * (1 - math.exp(-1.0)),
            decay * math.cosh(xi / 2),
            decay * math.sinh(xi / 2) / xi,
            0.5 * decay * math.sinh(xi / 2) / xi,
        )
        assert models.ghz_coefficients(theta, kappa, t) == pytest.approx(expected, rel=1e-14)

    def test_domain_guards(self):
        with pytest.raises(DomainError):
            models.ghz_coefficients(0.5, 1.0, 1.0)  # |theta| = kappa/2
        with pytest.raises(DomainError):
            models.ghz_coefficients(0.0, -1.0, 1.0)
        with pytest.raises(DomainError):
            models.ghz_coefficients(0.0, 1.0, -0.5)

    @pytest.mark.parametrize("theta, kappa, t", [(0.0, 1.0, 2000.0), (0.1, 1.0, 1500.0)])
    def test_long_times_are_finite(self, theta, kappa, t):
        # xi*t/2 lies past ~710, where cosh and sinh overflow a double; the
        # coefficients are b = (E- + E+)/2 and f = kappa (E- - E+) / (2 xi),
        # with E-+ = exp(-(kappa -+ xi) t / 2), and E+ underflows to 0.
        xi = math.sqrt(kappa**2 - 4.0 * theta**2)
        slow = math.exp(-(kappa - xi) * t / 2.0)
        a, d, b, f, c = models.ghz_coefficients(theta, kappa, t)
        assert (a, d) == (0.5, 0.5)
        assert b == pytest.approx(slow / 2.0, rel=1e-12)
        assert f == pytest.approx(kappa * slow / (2.0 * xi), rel=1e-12)
        assert c == pytest.approx(2.0 * theta * slow / (2.0 * xi), rel=1e-12)
        assert all(map(math.isfinite, np.ravel(models._ghz_series(theta, kappa, t, 2)[4])))

    @given(
        theta=st.floats(-0.4, 0.4),
        kappa=st.floats(0.5, 2.0),
        t=st.floats(0.0, 3.0),
    )
    def test_derivatives_match_finite_differences(self, theta, kappa, t):
        # Each order against central differences of the order below it.
        if abs(theta) >= 0.45 * kappa:
            return
        h = 1e-6
        series = models._ghz_series(theta, kappa, t, 2)[4]
        lo = models._ghz_series(theta - h, kappa, t, 1)[4]
        hi = models._ghz_series(theta + h, kappa, t, 1)[4]
        for order in (1, 2):
            for got, below, above in zip(series[order], lo[order - 1], hi[order - 1]):
                fd = (above - below) / (2.0 * h)
                assert got == pytest.approx(fd, rel=1e-4, abs=1e-8)

    @pytest.mark.parametrize("n", range(1, 25))
    def test_block_second_derivatives_match_finite_differences(self, n):
        # The blocks' analytic second derivative against central
        # differences of their analytic first derivative, block by block,
        # relative to the size of the block's derivatives.
        for theta, kappa, t in ((0.0, 1.0, 1.0), (0.13, 0.7, 0.4), (-0.2, 1.5, 2.0), (0.01, 2.0, 0.05)):
            h = 1e-5 * kappa
            _, _, first, second = models.ghz_block_arrays(n, theta, kappa, t, order=2)
            below = models.ghz_block_arrays(n, theta - h, kappa, t)[2]
            above = models.ghz_block_arrays(n, theta + h, kappa, t)[2]
            fd = (above - below) / (2.0 * h)
            scale = np.abs(second).max(axis=(-2, -1)) + np.abs(first).max(axis=(-2, -1)) / kappa
            assert np.all(np.abs(fd - second).max(axis=(-2, -1)) <= 1e-6 * scale)


class TestGhzBlocks:
    def test_single_qubit_block(self):
        blockset = models.ghz_blocks(1, 0.0, 1.0, 1.0)
        assert len(blockset.blocks) == 1
        blk = blockset.blocks[0]
        _, _, b, f, _ = models.ghz_coefficients(0.0, 1.0, 1.0)
        assert blk.multiplicity == 1
        assert blk.matrix[0, 0] == pytest.approx(0.5)
        assert blk.matrix[0, 1] == pytest.approx((b + f) / 2.0)

    def test_initial_state_is_pure_ghz(self):
        full = models.ghz_state(2, 0.1, 1.0, 0.0)
        psi = models.ghz_state_vector(2)
        assert np.max(np.abs(full - np.outer(psi, psi.conj()))) < 1e-14

    def test_multiplicities(self):
        assert [b.multiplicity for b in models.ghz_blocks(2, 0.1, 1.0, 0.5).blocks] == [1, 1]
        assert [b.multiplicity for b in models.ghz_blocks(3, 0.1, 1.0, 0.5).blocks] == [1, 3]
        assert [b.multiplicity for b in models.ghz_blocks(4, 0.1, 1.0, 0.5).blocks] == [1, 4, 3]
        assert [b.multiplicity for b in models.ghz_blocks(5, 0.1, 1.0, 0.5).blocks] == [1, 5, 10]

    @given(
        n=st.integers(1, 8),
        theta=st.floats(-0.2, 0.2),
        kappa=st.floats(0.5, 1.5),
        t=st.floats(0.0, 2.0),
    )
    @settings(max_examples=40)
    def test_trace_normalization_and_symmetry(self, n, theta, kappa, t):
        blockset = models.ghz_blocks(n, theta, kappa, t)
        total = sum(b.multiplicity * np.trace(b.matrix).real for b in blockset.blocks)
        assert total == pytest.approx(1.0, abs=1e-10)
        a, d, _, _, _ = models.ghz_coefficients(theta, kappa, t)
        for m in range(n + 1):
            assert models._diag_element(m, n, a, d) == models._diag_element(n - m, n, a, d)

    @given(
        n=st.integers(1, 6),
        theta=st.floats(-0.2, 0.2),
        kappa=st.floats(0.5, 1.5),
        t=st.floats(0.0, 2.0),
    )
    @settings(max_examples=25)
    def test_assembled_matrix_is_a_state(self, n, theta, kappa, t):
        full = models.ghz_state(n, theta, kappa, t)
        quantum.validate_density_matrix(full)
        assert np.linalg.eigvalsh(full)[0] >= -1e-10

    @pytest.mark.parametrize("n", range(1, 11))
    def test_assembly_matches_reference_loop_bit_for_bit(self, n):
        for theta, kappa, t in ((0.0, 1.0, 1.0), (0.13, 0.7, 0.4), (-0.2, 1.5, 2.0)):
            for fast, slow in (
                (models.ghz_state, reference_ghz_state),
                (models.ghz_state_derivative, reference_ghz_state_derivative),
            ):
                got, want = fast(n, theta, kappa, t), slow(n, theta, kappa, t)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
            # Entries with m > N/2 are conjugates of block N - m, equal to
            # the elementwise derivative up to roundoff.
            got = models.ghz_state_derivative(n, theta, kappa, t)
            want = elementwise_ghz_state_derivative(n, theta, kappa, t)
            assert np.max(np.abs(got - want)) <= 1e-16

    def test_block_count_guards(self):
        with pytest.raises(DomainError):
            models.ghz_blocks(0, 0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            models.ghz_blocks(25, 0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            models.ghz_state(11, 0.0, 1.0, 1.0)  # full-matrix cap
        for n in (0, -3, 25):  # rejected before the model is built
            with pytest.raises(DomainError, match=rf"n_qubits={n} outside \[1, 24\]"):
                models.make_model("ghz", n_qubits=n)
        for n in (0, -3):  # the closed forms hold for every N >= 1
            for closed_form in (models.ghz_qfi_continuous, models.ghz_qfi_discontinuous):
                with pytest.raises(DomainError, match=r"outside \[1, inf\]"):
                    closed_form(n, 1.0, 1.0)
        assert models.ghz_qfi_continuous(30, 1.0, 1.0) > 0.0

    @pytest.mark.parametrize("n", [2.5, 2.0, "2", None])
    def test_non_integral_counts_rejected(self, n):
        with pytest.raises(InvalidInputError, match="is not an integer"):
            models.make_model("ghz", n_qubits=n)
        for closed_form in (models.ghz_qfi_continuous, models.ghz_qfi_discontinuous):
            with pytest.raises(InvalidInputError, match="is not an integer"):
                closed_form(n, 1.0, 1.0)

    def test_integral_counts_build(self):
        for n in [*range(1, 25), np.int64(3)]:
            mults = models.make_model("ghz", n_qubits=n).blocks_fn(0.1, 0)[0][0]
            assert mults.sum() == 2 ** (n - 1)
            assert models.ghz_qfi_discontinuous(n, 1.0, 1.0) > 0.0


class TestLindbladIntegrator:
    def test_zero_frequency_leaves_plus_invariant(self):
        rho = models.lindblad_integrate(1, 0.0, 1.0, 0.7, dt=1e-3)
        plus = np.full((2, 2), 0.5, dtype=complex)
        assert np.max(np.abs(rho - plus)) < 1e-12

    def test_matches_closed_form_single_qubit(self):
        rho_rk = models.lindblad_integrate(1, 0.25, 1.0, 1.0, dt=1e-4)
        rho_cf = models.ghz_state(1, 0.25, 1.0, 1.0)
        assert np.max(np.abs(rho_rk - rho_cf)) < 1e-8

    def test_matches_closed_form_two_qubits(self):
        rho_rk = models.lindblad_integrate(2, 0.1, 1.0, 0.5, dt=1e-3)
        rho_cf = models.ghz_state(2, 0.1, 1.0, 0.5)
        assert np.max(np.abs(rho_rk - rho_cf)) < 1e-6

    def test_preserves_state_structure(self):
        for t in (0.2, 0.6, 1.1):
            rho = models.lindblad_integrate(3, 0.2, 1.0, t, dt=1e-3)
            assert np.max(np.abs(rho - rho.conj().T)) < 1e-12
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
            assert np.linalg.eigvalsh(rho)[0] >= -1e-8

    def test_guards(self):
        with pytest.raises(DomainError):
            models.lindblad_integrate(11, 0.1, 1.0, 1.0)
        with pytest.raises(DomainError):
            models.lindblad_integrate(1, 0.1, 1.0, 1.0, dt=-1e-4)
        with pytest.raises(DomainError):
            models.lindblad_integrate(1, 0.1, -1.0, 1.0)


class TestBlochQfi:
    def test_maximally_mixed_branch(self):
        assert models.qubit_bloch_qfi([0, 0, 0], [1, 0, 0]) == pytest.approx(1.0)

    def test_pure_branch(self):
        assert models.qubit_bloch_qfi([1, 0, 0], [0, 1, 0]) == pytest.approx(1.0)

    def test_overlong_vector_rejected(self):
        with pytest.raises(InvalidInputError):
            models.qubit_bloch_qfi([1.1, 0, 0], [0, 0, 0])

    def test_mixed_branch_matches_spectral_qfi(self):
        v = np.array([0.3, 0.2, -0.4])
        dv = np.array([0.5, -0.1, 0.7])
        paulis = [
            np.array([[0, 1], [1, 0]], dtype=complex),
            np.array([[0, -1j], [1j, 0]], dtype=complex),
            np.array([[1, 0], [0, -1]], dtype=complex),
        ]
        rho = np.eye(2, dtype=complex) / 2 + sum(x * p for x, p in zip(v, paulis)) / 2
        drho = sum(x * p for x, p in zip(dv, paulis)) / 2
        assert models.qubit_bloch_qfi(v, dv) == pytest.approx(quantum.qfi(rho, drho), rel=1e-10)


class TestGhzClosedFormQfis:
    def test_single_qubit_discontinuous_value(self):
        expected = 4.0 * math.exp(-1.0) * math.sinh(0.5) ** 2
        assert models.ghz_qfi_discontinuous(1, 1.0, 1.0) == pytest.approx(expected, rel=1e-8)

    def test_no_evolution_no_information(self):
        for n in (1, 2, 5):
            assert models.ghz_qfi_discontinuous(n, 1.0, 0.0) == 0.0
            assert models.ghz_qfi_continuous(n, 1.0, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_discontinuous_matches_brute_force_block_sum(self):
        for n, t in ((1, 1.0), (4, 1.0), (6, 0.7), (8, 2.0)):
            closed = models.ghz_qfi_discontinuous(n, 1.0, t)
            brute = brute_force_qfi_discontinuous(n, 1.0, t)
            assert closed == pytest.approx(brute, rel=1e-6)

    def test_continuous_single_qubit_value(self):
        assert models.ghz_qfi_continuous(1, 1.0, 1.0) == pytest.approx(
            2.0 * math.exp(-1.0), rel=1e-12
        )
        assert models.ghz_qfi_continuous(1, 1.0, 1.0) == pytest.approx(
            brute_force_qfi_continuous(1, 1.0, 1.0), rel=1e-6
        )

    def test_continuous_matches_brute_force_block_sum(self):
        for n, t in ((2, 1.0), (4, 2.0), (8, 1.5)):
            closed = models.ghz_qfi_continuous(n, 1.0, t)
            brute = brute_force_qfi_continuous(n, 1.0, t)
            assert closed == pytest.approx(brute, rel=1e-6)


class TestRegistry:
    @given(
        name=st.sampled_from(models.MODEL_NAMES),
        u=st.floats(0.05, 0.95),
    )
    @settings(max_examples=40)
    def test_analytic_derivative_matches_finite_differences(self, name, u):
        model = models.make_model(name, kappa=1.0, t=0.8, n_qubits=3)
        lo, hi = model.domain
        if model.open_domain:
            lo, hi = lo + 0.05, hi - 0.05
        theta = lo + u * (hi - lo)
        h = 1e-5
        if not (model.in_domain(theta - h) and model.in_domain(theta + h)):
            return
        below, at, above = (model.blocks_fn(theta + k * h, 2) for k in (-1, 0, 1))
        for lo_group, (_, _, dblk, d2blk), hi_group in zip(below, at, above):
            assert np.max(np.abs(dblk - (hi_group[1] - lo_group[1]) / (2.0 * h))) < 1e-6
            assert np.max(np.abs(d2blk - (hi_group[2] - lo_group[2]) / (2.0 * h))) < 1e-6

    def test_unknown_name_rejected(self):
        with pytest.raises(InvalidInputError):
            models.make_model("bogus")

    def test_transverse_is_single_qubit(self):
        model = models.make_model("transverse-qubit", kappa=2.0, t=0.5, n_qubits=4)
        assert model.state_fn(0.1).shape == (2, 2)
        assert model.domain == (-1.0, 1.0)
