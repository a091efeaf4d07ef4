import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qfidisc import discontinuity, estimation, models, quantum
from qfidisc.exceptions import DomainError, InvalidInputError, StepSizeError


def fd_cross_derivative(m, n, kappa, t, h=1e-5, order=1):
    """Finite-difference theta-derivatives of the cross matrix element at 0."""

    def elem(theta):
        [[cross, _, _]] = models._cross_series(n, [m], models._ghz_series(theta, kappa, t, 2)[4])
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
    bfc = models._ghz_series(theta, kappa, t, 2)[4]
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

    def test_second_derivatives_finite_where_t_squared_times_s_overflows(self):
        # t^2 is finite at the largest t allowed, but t^2 S is not; written
        # as 4 theta^2 (6 W - t^2 S), S'' was 0 * inf = NaN at theta = 0.
        t = 1.3407807929942596e154
        (b, f, c), (db, df, dc), (d2b, d2f, d2c) = models._ghz_series(0.0, 1e-3, t, 2)[4]
        w = (t * b - 2.0 * f / 1e-3) / 1e-3**2  # S = f / kappa at theta = 0
        assert (db, df, dc, d2c) == (0.0, 0.0, 2.0 * f / 1e-3, 0.0)
        assert math.isfinite(d2b) and d2f == -2.0 * 1e-3 * w

    def test_every_read_is_finite_where_theta_t_squared_overflows(self):
        # kappa^2 and t^2 are finite floats, (theta t)^2 is not, and every
        # read takes the second derivatives, whose (theta t)^2 S term is
        # finite there.  The state has fully decayed and stands still.
        n, theta, kappa, t = 3, 4e149, 1e150, 1e150
        _, _, first, second = models.ghz_block_arrays(n, theta, kappa, t)
        assert not first.any() and not second.any()
        model = models.make_model("ghz", kappa=kappa, t=t, n_qubits=n)
        assert quantum.model_qfi(model, theta) == quantum.bures_metric_fd(model, theta) == 0.0

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
            _, _, first, second = models.ghz_block_arrays(n, theta, kappa, t)
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
            mults = models.make_model("ghz", n_qubits=n).blocks_fn(0.1)[0]
            assert mults.sum() == 2 ** (n - 1)
            assert models.ghz_qfi_discontinuous(n, 1.0, 1.0) > 0.0


def gather_form_integrate(n, theta, kappa, t_final, dt=None):
    """The integrator with sx_j rho sx_j written as the fancy-index gather
    rho[ix_(flip_j, flip_j)]: the reference lindblad_integrate must match
    bit for bit."""
    dt = 1e-4 * min(1.0, 1.0 / kappa) if dt is None else dt
    idx = np.arange(2**n)
    z_sum = n - 2 * np.array([bin(s).count("1") for s in idx])
    phase = -1j * (theta / 2.0) * (z_sum[:, None] - z_sum[None, :])
    flips = [idx ^ (1 << j) for j in range(n)]

    def rhs(r):
        out = phase * r - (kappa / 2.0) * n * r
        for flip in flips:
            out += (kappa / 2.0) * r[np.ix_(flip, flip)]
        return out

    psi = models.ghz_state_vector(n)
    rho = np.outer(psi, psi.conj())
    n_steps = max(1, math.ceil(t_final / dt - 1e-12))
    step = t_final / n_steps
    for _ in range(n_steps):
        k1 = rhs(rho)
        k2 = rhs(rho + 0.5 * step * k1)
        k3 = rhs(rho + 0.5 * step * k2)
        k4 = rhs(rho + step * k3)
        rho = rho + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        rho = (rho + rho.conj().T) / 2.0
        rho = rho / float(np.real(np.trace(rho)))
    return rho


class TestLindbladIntegrator:
    def test_flipped_views_match_gather_form_bit_for_bit(self):
        rng = np.random.default_rng(20261017)
        for n in range(1, 9):
            for dt in (None, 1e-3):
                kappa = float(rng.uniform(0.3, 2.0))
                theta = float(rng.uniform(-0.49, 0.49) * kappa)
                if n <= 6:
                    t = float(rng.uniform(5e-4, 0.004 if dt is None else 0.02))
                else:  # 2-3 steps; the flat flip index spans 2N bits
                    step = 1e-4 * min(1.0, 1.0 / kappa) if dt is None else dt
                    t = float(rng.uniform(1.5, 3.0)) * step
                got = models.lindblad_integrate(n, theta, kappa, t, dt=dt)
                assert np.array_equal(got, gather_form_integrate(n, theta, kappa, t, dt)), (n, dt)

    @pytest.mark.parametrize("n", range(1, 7))
    @pytest.mark.parametrize("t", [0.002, 0.006])
    @pytest.mark.parametrize("kappa", [0.5, 1.0])
    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    def test_matches_closed_form_in_benchmark_regime(self, n, t, kappa, sign):
        theta = sign * 0.4 * kappa
        rho = models.lindblad_integrate(n, theta, kappa, t)
        assert np.max(np.abs(rho - models.ghz_state(n, theta, kappa, t))) <= 1e-12

    def test_one_trace_per_step(self, monkeypatch):
        # bench/tracing.py reads the numpy.trace calls inside the span as steps.
        calls = []
        trace = np.trace
        monkeypatch.setattr(np, "trace", lambda a: calls.append(1) or trace(a))
        models.lindblad_integrate(3, 0.1, 0.75, 0.004)
        assert len(calls) == 40
        calls.clear()
        models.lindblad_integrate(3, 0.1, 0.75, 0.0)
        assert calls == []

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
        with pytest.raises(InvalidInputError, match="is not an integer"):
            models.lindblad_integrate(2.5, 0.1, 1.0, 1.0)
        for dt in (-1e-4, math.nan):
            with pytest.raises(DomainError, match="dt="):
                models.lindblad_integrate(1, 0.1, 1.0, 1.0, dt=dt)
        with pytest.raises(DomainError):
            models.lindblad_integrate(1, 0.1, -1.0, 1.0)

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_non_finite_theta_is_a_domain_error(self, theta):
        with pytest.raises(DomainError, match="theta"):
            models.lindblad_integrate(2, theta, 1.0, 0.01)

    def test_nan_trace_fails_the_drift_check(self):
        # kappa dt = 1e150 overflows a stage to inf, and inf - inf makes the
        # trace NaN, which must not pass as "no drift".
        with np.errstate(all="ignore"), pytest.raises(StepSizeError):
            models.lindblad_integrate(2, 0.0, 1e150, 1.0, dt=1.0)

    @pytest.mark.parametrize("theta", [3e4, -1e5, 1e300])
    def test_default_step_follows_a_large_theta_to_the_cap(self, monkeypatch, theta):
        # The phase rotates at up to |theta| N: at the kappa-only default
        # dt = 1e-4, |theta| = 3e4, 1e5 and 1e300 returned entries of
        # modulus 2.9e17, 7.4e259 and NaN.  At dt = 1e-4 / |theta|,
        # t = 0.01 needs more than RK4_MAX_STEPS steps.
        monkeypatch.setattr(np, "trace", None)  # a step would call it
        with pytest.raises(DomainError, match="RK4 steps"):
            models.lindblad_integrate(1, theta, 1.0, 0.01)

    def test_an_unstable_explicit_step_is_a_step_size_error(self):
        # theta dt = 3 lies outside RK4's stability interval on the
        # imaginary axis, and the trace stays 1: only the coherences grow.
        with pytest.raises(StepSizeError, match="modulus 2.86e\\+17"):
            models.lindblad_integrate(1, 3e4, 1.0, 0.01, dt=1e-4)

    def test_default_step_is_unchanged_where_kappa_dominates(self):
        rho = models.lindblad_integrate(2, 0.4, 0.5, 0.003)
        assert np.array_equal(rho, models.lindblad_integrate(2, 0.4, 0.5, 0.003, dt=1e-4))

    @pytest.mark.parametrize(
        "kappa, t, dt",
        [
            (1e10, 1.0, None),  # the default dt = 1e-14: 1e14 steps
            (1.0, 1.0, 1e-7),  # 1e7 steps
            (1.0, 1e150, 5e-324),  # t / dt overflows to inf
            (1.0, 10.0 + 1e-4, None),  # one step past the cap
        ],
    )
    def test_step_count_over_the_cap_is_refused_before_stepping(self, monkeypatch, kappa, t, dt):
        monkeypatch.setattr(np, "trace", None)  # a step would call it
        with pytest.raises(DomainError, match="RK4 steps"):
            models.lindblad_integrate(1, 0.0, kappa, t, dt=dt)

    def test_the_cap_admits_its_own_step_count(self, monkeypatch):
        # ceil(t / dt) = RK4_MAX_STEPS steps pass the check; the count is
        # read from the first step's trace, which stops the call.
        class FirstStep(Exception):
            pass

        def trace(a):
            raise FirstStep

        monkeypatch.setattr(np, "trace", trace)
        assert models.RK4_MAX_STEPS == 10**5
        with pytest.raises(FirstStep):
            models.lindblad_integrate(1, 0.0, 1.0, 10.0)


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

    @pytest.mark.parametrize("n", range(1, 25))
    def test_discontinuous_matches_the_eigensolved_model_qfi(self, n):
        # model_qfi eigensolves every block; it does not use the formula.
        for kappa in (1e-3, 0.3, 1.0, 3.0):
            for t in (1e-3, 0.3, 1.0, 2.5, 2000.0):
                model = models.make_model("ghz", n_qubits=n, kappa=kappa, t=t)
                assert models.ghz_qfi_discontinuous(n, kappa, t) == pytest.approx(
                    quantum.model_qfi(model, 0.0), rel=1e-12
                )
            assert models.ghz_qfi_discontinuous(n, kappa, 0.0) == 0.0

    @pytest.mark.parametrize("kappa_t", [0.5, 1.0, 3.0, 2000.0])
    def test_discontinuous_past_the_binomials_that_fit_a_float(self, kappa_t):
        # binomial(1100, 550) overflows a float and 2^-1100 underflows; the
        # block sum is finite and below the continuous limit.  Past
        # kappa t ~ 40, a = d = 1/2 and Q(0) = N / kappa^2.
        n, kappa = 1100, 2.0
        closed = models.ghz_qfi_discontinuous(n, kappa, kappa_t / kappa)
        assert 0.0 < closed < models.ghz_qfi_continuous(n, kappa, kappa_t / kappa)
        if kappa_t > 40.0:
            assert closed == pytest.approx(n / kappa**2, rel=1e-12)

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

    def test_continuous_meets_mpmath_at_every_kappa_t(self):
        # The closed form evaluated in 80-digit arithmetic, where its
        # cancellation at small kappa t costs nothing.
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(20)
        with mpmath.workdps(80):
            for _ in range(2000):
                n = int(rng.integers(1, 1001))
                kappa = 10.0 ** rng.uniform(-3.0, 1.0)
                t = 10.0 ** rng.uniform(-12.0, math.log10(50.0)) / kappa
                x = mpmath.mpf(kappa) * mpmath.mpf(t)
                e = mpmath.exp(-x)
                exact = (n**2 * (1 - e) ** 2 + n * (2 * x + 1 - (2 - e) ** 2)) / mpmath.mpf(kappa) ** 2
                closed = models.ghz_qfi_continuous(n, kappa, t)
                assert abs(closed - exact) <= 1e-14 * exact, (n, kappa, t)

    def test_discontinuous_meets_mpmath_to_1e_13(self):
        # The same block sum in 40-digit arithmetic, P_m by the recurrence
        # P_(m+1) = P_m (d/a) (N-m)/(m+1).  The float sum forms each P_m as
        # the exp of a log of size ~N, which amplifies its rounding: the
        # worst seen over 13500 such points is 5.2e-14.
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(73)
        with mpmath.workdps(40):
            for _ in range(150):
                n = int(rng.integers(1, 201))
                kappa = 10.0 ** rng.uniform(-3.0, 1.0)
                t = 10.0 ** rng.uniform(-12.0, math.log10(50.0)) / kappa
                e = mpmath.exp(-mpmath.mpf(kappa) * mpmath.mpf(t))
                a, d = (1 + e) / 2, (1 - e) / 2
                total, p = mpmath.mpf(0), a**n
                for m in range((n + 1) // 2):
                    rho = (d / a) ** (n - 2 * m)
                    total += p * (n - m - m * rho) ** 2 / (1 + rho)
                    p *= (d / a) * (n - m) / (m + 1)
                exact = (2 * d / (mpmath.mpf(kappa) * a)) ** 2 * total
                closed = models.ghz_qfi_discontinuous(n, kappa, t)
                assert abs(closed - exact) <= 1e-13 * exact, (n, kappa, t)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_continuous_is_above_the_discontinuous_value_at_small_times(self, n):
        # The limit exceeds the value at theta = 0 by the jump 2a >= 0; with
        # its digits lost to cancellation it once fell below it near t = 1e-6.
        for t in np.logspace(-8.0, -4.0, 41).tolist():
            assert models.ghz_qfi_continuous(n, 1.0, t) >= models.ghz_qfi_discontinuous(n, 1.0, t)


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
        below, at, above = (model.blocks_fn(theta + k * h) for k in (-1, 0, 1))
        assert np.max(np.abs(at[2] - (above[1] - below[1]) / (2.0 * h))) < 1e-6
        assert np.max(np.abs(at[3] - (above[2] - below[2]) / (2.0 * h))) < 1e-6

    @pytest.mark.parametrize(
        "name, n",
        [(name, 1) for name in models.MODEL_NAMES if name != "ghz"]
        + [("ghz", 1), ("ghz", 3), ("ghz", 24)],
    )
    # theta = 0 is each family's rank change; 0.1 and 0.4 are regular points.
    @pytest.mark.parametrize("theta", [0.0, 0.1, 0.4])
    def test_blocks_fn_returns_one_block_group(self, name, n, theta):
        direct_sum = models.make_model(name, n_qubits=n).blocks_fn(theta)
        assert isinstance(direct_sum, tuple) and len(direct_sum) == 4
        mults, blocks, *derivatives = direct_sum
        assert mults.ndim == 1 and mults.dtype.kind in "iu" and (mults >= 1).all()
        assert blocks.dtype == complex and blocks.ndim == 3
        assert blocks.shape[0] == len(mults) and blocks.shape[1] == blocks.shape[2]
        for derivative in derivatives:
            assert derivative.dtype == complex and derivative.shape == blocks.shape
        traces = blocks.trace(axis1=-2, axis2=-1).real
        assert abs(float(mults @ traces) - 1.0) <= 1e-10

    def test_a_one_argument_user_blocks_fn_reads_as_the_registry_model(self):
        # The trig family written from its formulas as a plain blocks_fn of
        # theta alone, with both derivatives: every read gives what the
        # registered family gives, bit for bit, at a regular point and at
        # the rank change theta = 0.
        sign = np.diag([1.0, -1.0]).astype(complex)

        def blocks(theta):
            s2 = math.sin(theta) ** 2
            return (
                np.array([1]),
                np.diag([s2, 1.0 - s2]).astype(complex)[None],
                (math.sin(2.0 * theta) * sign)[None],
                (2.0 * math.cos(2.0 * theta) * sign)[None],
            )

        trig = models.make_model("trig")
        user = models.ParametricModel(
            name="user-trig",
            state_fn=None,
            blocks_fn=blocks,
            domain=trig.domain,
            p_first=trig.p_first,
            estimate=trig.estimate,
        )

        def reads(model):
            limit = quantum.qfi_limit(model, 0.0)
            experiments = [
                estimation.run_cr_experiment(model, theta, 50, 20, seed=3).to_json()
                for theta in (0.0, 0.4)
            ]
            for report in experiments:
                del report["model"]
            return [
                quantum.model_qfi(model, 0.4),
                quantum.bures_metric_fd(model, 0.0),
                quantum.qfi_and_metric(model, [0.0, 0.4]),
                (limit.value, limit.error, limit.thetas.tolist(), limit.qfi_values.tolist()),
                discontinuity.classify(model, 0.0),
                discontinuity.vanishing_eigenvalue_branch(model, 0.0),
                experiments,
            ]

        assert reads(user) == reads(trig)

    def test_unknown_name_rejected(self):
        with pytest.raises(InvalidInputError):
            models.make_model("bogus")

    def test_transverse_is_single_qubit(self):
        model = models.make_model("transverse-qubit", kappa=2.0, t=0.5, n_qubits=4)
        assert model.state_fn(0.1).shape == (2, 2)
        assert model.domain == (-1.0, 1.0)
