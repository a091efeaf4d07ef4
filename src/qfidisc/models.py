"""Closed-form state families and their numerical oracle.

Model zoo
---------
* ``classical-bit``: rho_p = p |0><0| + (1-p) |1><1|, p in [0, 1].
* ``trig``: rho = sin^2(theta) |0><0| + cos^2(theta) |1><1|,
  theta in [0, pi/2] (restricted for identifiability).
* ``transverse-qubit``: a spin-1/2 precessing at frequency theta about z
  while transverse noise along x acts at rate kappa, starting from |+>.
  The state after time t follows from the N = 1 specialization of the
  GHZ matrix elements below.
* ``ghz``: N qubits prepared in (|0...0> + |1...1>)/sqrt(2) under the same
  single-qubit frequency + transverse-noise dynamics, solved in closed
  form via cross-diagonal matrix elements, and independently by a
  fixed-step RK4 integration of the master equation

      drho/dt = -i (theta/2) sum_j [sz_j, rho]
                + (kappa/2) (sum_j sx_j rho sx_j - N rho).

Closed form
-----------
The evolved GHZ state is cross-diagonal in the computational basis: only
entries (s, s) and (s, sbar) are nonzero, with sbar the bitwise complement
of s, and they depend on s only through m = popcount(s):

    rho[m, m]     = (d^m a^(N-m) + d^(N-m) a^m) / 2
    rho[m, N-m]   = (f^m (b - i c)^(N-m) + f^(N-m) (b + i c)^m) / 2

with coefficients (xi = sqrt(kappa^2 - 4 theta^2), real for |theta| < kappa/2)

    a = (1 + exp(-kappa t)) / 2          d = (1 - exp(-kappa t)) / 2
    b = exp(-kappa t / 2) cosh(xi t / 2)
    f = kappa exp(-kappa t / 2) sinh(xi t / 2) / xi
    c = 2 theta exp(-kappa t / 2) sinh(xi t / 2) / xi

Grouping index pairs (s, sbar) turns the full matrix into a direct sum of
2x2 blocks, one per m = 0..floor(N/2), each repeated binomial(N, m) times
(half that for the central block when N is even).  The GHZ models (and
``transverse-qubit``, their N = 1 member) hand this direct sum to the
QFI, the Bures metric and the discontinuity analysis through
``ParametricModel.blocks_fn``, so those never assemble the 2^N matrix.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .estimation import ProjectiveMeasurement, computational_basis_measurement, pauli_x_measurement
from .exceptions import BoundarySolutionWarning, DomainError, InvalidInputError, StepSizeError


# (multiplicity, block, d block / d theta) for each block of a direct sum.
Block = tuple[int, np.ndarray, np.ndarray]


@dataclass(frozen=True)
class ParametricModel:
    """A named family theta -> rho_theta with optional analytic derivative.

    ``blocks_fn``, when given, returns rho_theta as a direct sum: each
    block with its multiplicity and its theta-derivative, with the
    multiplicity-weighted block traces summing to 1.  The QFI, the Bures
    metric and the discontinuity analysis then read the blocks in place of
    ``state_fn`` and ``derivative_fn``.

    ``measurement`` is the two-outcome measurement the Monte Carlo
    experiments sample, and ``estimate`` maps the observed frequency of
    its first outcome to the maximum-likelihood theta; both are None for
    a model without one.
    """

    name: str
    dim: int
    state_fn: Callable[[float], np.ndarray]
    derivative_fn: Callable[[float], np.ndarray] | None = None
    blocks_fn: Callable[[float], list[Block]] | None = None
    domain: tuple[float, float] = (-math.inf, math.inf)
    open_domain: bool = False
    measurement: ProjectiveMeasurement | None = None
    estimate: Callable[[float], float] | None = None

    def in_domain(self, theta: float) -> bool:
        lo, hi = self.domain
        if self.open_domain:
            return lo < theta < hi
        return lo <= theta <= hi


# ---------------------------------------------------------------------------
# Diagonal qubit families
# ---------------------------------------------------------------------------


def classical_bit_state(p: float) -> np.ndarray:
    """rho_p = p |0><0| + (1-p) |1><1|."""
    if not -1e-12 <= p <= 1.0 + 1e-12:
        raise DomainError(f"p={p} outside [0, 1]")
    p = min(max(p, 0.0), 1.0)
    return np.diag([p, 1.0 - p]).astype(complex)


def classical_bit_derivative(p: float) -> np.ndarray:
    del p  # constant in the parameter
    return np.diag([1.0, -1.0]).astype(complex)


def trig_model_state(theta: float) -> np.ndarray:
    """rho = sin^2(theta) |0><0| + cos^2(theta) |1><1| on [0, pi/2]."""
    if not -1e-12 <= theta <= math.pi / 2 + 1e-12:
        raise DomainError(f"theta={theta} outside [0, pi/2]")
    s2 = math.sin(theta) ** 2
    return np.diag([s2, 1.0 - s2]).astype(complex)


def trig_model_derivative(theta: float) -> np.ndarray:
    return math.sin(2.0 * theta) * np.diag([1.0, -1.0]).astype(complex)


# ---------------------------------------------------------------------------
# GHZ family under transverse noise: coefficients and matrix elements
# ---------------------------------------------------------------------------


def _check_ghz_domain(theta: float, kappa: float, t: float) -> None:
    if kappa <= 0:
        raise DomainError(f"kappa={kappa} must be positive")
    if t < 0:
        raise DomainError(f"t={t} must be nonnegative")
    if abs(theta) >= kappa / 2:
        raise DomainError(f"|theta|={abs(theta)} >= kappa/2={kappa / 2}; coefficients not real")


def ghz_coefficients(theta: float, kappa: float, t: float) -> tuple[float, float, float, float, float]:
    """Coefficient functions (a, d, b, f, c) of the evolved GHZ elements."""
    _check_ghz_domain(theta, kappa, t)
    xi = math.sqrt(kappa**2 - 4.0 * theta**2)
    decay = math.exp(-kappa * t / 2.0)
    a = 0.5 * (1.0 + math.exp(-kappa * t))
    d = 0.5 * (1.0 - math.exp(-kappa * t))
    b = decay * math.cosh(xi * t / 2.0)
    g = math.sinh(xi * t / 2.0) / xi
    f = kappa * decay * g
    c = 2.0 * theta * decay * g
    return a, d, b, f, c


def ghz_coefficient_derivatives(theta: float, kappa: float, t: float) -> tuple[float, float, float]:
    """theta-derivatives (db, df, dc) of the b, f, c coefficients.

    a and d do not depend on theta.
    """
    _check_ghz_domain(theta, kappa, t)
    xi = math.sqrt(kappa**2 - 4.0 * theta**2)
    decay = math.exp(-kappa * t / 2.0)
    sh = math.sinh(xi * t / 2.0)
    ch = math.cosh(xi * t / 2.0)
    g = sh / xi
    # dxi/dtheta = -4 theta / xi
    dg = (-4.0 * theta / xi**3) * (0.5 * t * xi * ch - sh)
    db = -2.0 * theta * t * decay * g
    df = kappa * decay * dg
    dc = 2.0 * decay * g + 2.0 * theta * decay * dg
    return db, df, dc


def _diag_element(m: int, n_qubits: int, a: float, d: float) -> float:
    return 0.5 * (d**m * a ** (n_qubits - m) + d ** (n_qubits - m) * a**m)


def _cross_element(m: int, n_qubits: int, b: float, f: float, c: float) -> complex:
    return 0.5 * (
        f**m * (b - 1j * c) ** (n_qubits - m) + f ** (n_qubits - m) * (b + 1j * c) ** m
    )


def _cross_element_derivative(
    m: int, n_qubits: int, b: float, f: float, c: float, db: float, df: float, dc: float
) -> complex:
    """Product-rule derivative of the cross element in theta."""
    n = n_qubits
    w_minus = b - 1j * c
    w_plus = b + 1j * c
    dw_minus = db - 1j * dc
    dw_plus = db + 1j * dc
    term = 0.0 + 0.0j
    if m > 0:
        term += m * f ** (m - 1) * df * w_minus ** (n - m)
        term += f ** (n - m) * m * w_plus ** (m - 1) * dw_plus
    if n - m > 0:
        term += f**m * (n - m) * w_minus ** (n - m - 1) * dw_minus
        term += (n - m) * f ** (n - m - 1) * df * w_plus**m
    return 0.5 * term


@dataclass(frozen=True)
class GhzBlock:
    """One 2x2 block of the reshuffled GHZ state and its repeat count."""

    m: int
    multiplicity: int
    matrix: np.ndarray


@dataclass(frozen=True)
class GhzBlockSet:
    """Direct-sum decomposition of the evolved GHZ density matrix."""

    n_qubits: int
    blocks: tuple[GhzBlock, ...]
    coefficients: tuple[float, float, float, float, float]


def _block_multiplicity(m: int, n_qubits: int) -> int:
    full = math.comb(n_qubits, m)
    if n_qubits % 2 == 0 and m == n_qubits // 2:
        if full % 2:
            raise InvalidInputError("central binomial coefficient is odd")  # pragma: no cover
        return full // 2
    return full


def ghz_blocks(n_qubits: int, theta: float, kappa: float, t: float) -> GhzBlockSet:
    """2x2 block decomposition of the evolved N-qubit GHZ state."""
    if not 1 <= n_qubits <= 24:
        raise DomainError(f"n_qubits={n_qubits} outside [1, 24]")
    coeffs = ghz_coefficients(theta, kappa, t)
    a, d, b, f, c = coeffs
    blocks = []
    for m in range(n_qubits // 2 + 1):
        diag = _diag_element(m, n_qubits, a, d)
        cross = _cross_element(m, n_qubits, b, f, c)
        mat = np.array([[diag, cross], [np.conj(cross), diag]], dtype=complex)
        blocks.append(GhzBlock(m, _block_multiplicity(m, n_qubits), mat))
    return GhzBlockSet(n_qubits, tuple(blocks), coeffs)


def ghz_block_terms(n_qubits: int, theta: float, kappa: float, t: float) -> list[Block]:
    """(multiplicity, block, block derivative) for each 2x2 GHZ block.

    The diagonal of a block does not depend on theta, so its derivative is
    [[0, dc], [conj dc, 0]] with dc the derivative of the cross element.
    """
    blockset = ghz_blocks(n_qubits, theta, kappa, t)
    _, _, b, f, c = blockset.coefficients
    db, df, dc = ghz_coefficient_derivatives(theta, kappa, t)
    terms = []
    for blk in blockset.blocks:
        dcross = _cross_element_derivative(blk.m, n_qubits, b, f, c, db, df, dc)
        dmat = np.array([[0.0, dcross], [np.conj(dcross), 0.0]], dtype=complex)
        terms.append((blk.multiplicity, blk.matrix, dmat))
    return terms


def _assemble_cross_diagonal(n_qubits: int, diag, cross) -> np.ndarray:
    """Build the 2^N x 2^N cross-diagonal matrix from per-m entry values.

    ``diag[m]`` fills entry (s, s) and ``cross[m]`` entry (s, sbar) for
    every s with popcount(s) = m, m = 0..N.
    """
    if n_qubits > 10:
        raise DomainError(f"full 2^{n_qubits} matrix assembly capped at N = 10")
    dim = 2**n_qubits
    s = np.arange(dim)
    m = ((s[:, None] >> np.arange(n_qubits)) & 1).sum(axis=1)
    full = np.zeros((dim, dim), dtype=complex)
    full[s, s] = np.asarray(diag)[m]
    full[s, s ^ (dim - 1)] = np.asarray(cross)[m]
    return full


def ghz_full_matrix(blockset: GhzBlockSet) -> np.ndarray:
    """Undo the block permutation: computational-basis density matrix.

    Index pairs (s, sbar) are grouped by m = popcount(s); entries for
    m > N/2 follow from the stored blocks by Hermiticity and the m -> N-m
    symmetry of the diagonal.
    """
    n = blockset.n_qubits
    by_m = {blk.m: blk.matrix for blk in blockset.blocks}
    blocks = [by_m[min(m, n - m)] for m in range(n + 1)]
    diag = [blk[0, 0].real for blk in blocks]
    cross = [blk[0, 1] if m <= n - m else blk[1, 0] for m, blk in enumerate(blocks)]
    return _assemble_cross_diagonal(n, diag, cross)


def ghz_state(n_qubits: int, theta: float, kappa: float, t: float) -> np.ndarray:
    """Closed-form evolved GHZ density matrix in the computational basis."""
    return ghz_full_matrix(ghz_blocks(n_qubits, theta, kappa, t))


def ghz_state_derivative(n_qubits: int, theta: float, kappa: float, t: float) -> np.ndarray:
    """theta-derivative of the closed-form GHZ state (diagonal is constant)."""
    a, d, b, f, c = ghz_coefficients(theta, kappa, t)
    del a, d
    db, df, dc = ghz_coefficient_derivatives(theta, kappa, t)
    derivs = [
        _cross_element_derivative(m, n_qubits, b, f, c, db, df, dc) for m in range(n_qubits + 1)
    ]
    return _assemble_cross_diagonal(n_qubits, np.zeros(n_qubits + 1), derivs)


# ---------------------------------------------------------------------------
# Qubit QFI in Bloch form and the GHZ closed-form QFIs at theta = 0
# ---------------------------------------------------------------------------


def qubit_bloch_qfi(
    v, dv, d2v=None, continuous_limit: bool = False, purity_tol: float = 1e-12
) -> float:
    """QFI of a qubit from its Bloch vector v and derivative dv.

    Mixed states (|v| < 1): |dv|^2 + (v . dv)^2 / (1 - |v|^2).
    Pure states (1 - |v|^2 below ``purity_tol``): |dv|^2.
    With ``continuous_limit`` set, returns the limiting value -v . d2v
    reached when purity is approached only at this parameter point.
    """
    v = np.asarray(v, dtype=float)
    dv = np.asarray(dv, dtype=float)
    norm2 = float(v @ v)
    if norm2 > (1.0 + 1e-10) ** 2:
        raise InvalidInputError(f"Bloch vector norm {math.sqrt(norm2)} exceeds 1")
    if continuous_limit:
        if d2v is None:
            raise InvalidInputError("continuous_limit requires the second derivative d2v")
        return float(-(v @ np.asarray(d2v, dtype=float)))
    if 1.0 - norm2 < purity_tol:
        return float(dv @ dv)
    return float(dv @ dv + (v @ dv) ** 2 / (1.0 - norm2))


def _theta_zero_block_data(n_qubits: int, kappa: float, t: float):
    a, d, b, f, c = ghz_coefficients(0.0, kappa, t)
    db, df, dc = ghz_coefficient_derivatives(0.0, kappa, t)
    for m in range(n_qubits + 1):
        weight = math.comb(n_qubits, m) * _diag_element(m, n_qubits, a, d)
        if weight <= 0.0:
            continue  # no population in this sector (t = 0 extremes)
        cross = _cross_element(m, n_qubits, b, f, c)
        dcross = _cross_element_derivative(m, n_qubits, b, f, c, db, df, dc)
        rmm = _diag_element(m, n_qubits, a, d)
        yield weight, rmm, cross, dcross


def ghz_qfi_discontinuous(n_qubits: int, kappa: float, t: float) -> float:
    """QFI of the evolved GHZ state exactly at theta = 0.

    Population-weighted average of the pure-branch Bloch QFIs of the
    normalized 2x2 blocks, which all become pure at theta = 0.
    """
    total = 0.0
    for weight, rmm, cross, dcross in _theta_zero_block_data(n_qubits, kappa, t):
        v = np.array([cross.real / rmm, cross.imag / rmm, 0.0])
        dv = np.array([dcross.real / rmm, dcross.imag / rmm, 0.0])
        total += weight * qubit_bloch_qfi(v, dv)
    return total


def ghz_qfi_continuous(n_qubits: int, kappa: float, t: float) -> float:
    """Limit of the GHZ QFI as theta -> 0 (equals four times the metric).

    Closed form of the block sum of L'Hopital limits:
    [N^2 (1-e)^2 + N (2 kappa t + 1 - (2-e)^2)] / kappa^2, e = exp(-kappa t).
    """
    _check_ghz_domain(0.0, kappa, t)
    n = n_qubits
    e = math.exp(-kappa * t)
    return (n**2 * (1.0 - e) ** 2 + n * (2.0 * kappa * t + 1.0 - (2.0 - e) ** 2)) / kappa**2


# ---------------------------------------------------------------------------
# Master-equation integrator (independent oracle for the closed forms)
# ---------------------------------------------------------------------------


def ghz_state_vector(n_qubits: int) -> np.ndarray:
    """(|0...0> + |1...1>)/sqrt(2); equals |+> for a single qubit."""
    dim = 2**n_qubits
    psi = np.zeros(dim, dtype=complex)
    psi[0] = psi[-1] = 1.0 / math.sqrt(2.0)
    return psi


def lindblad_integrate(
    n_qubits: int,
    theta: float,
    kappa: float,
    t_final: float,
    dt: float | None = None,
) -> np.ndarray:
    """Fixed-step RK4 integration of the N-qubit transverse-noise master
    equation from the GHZ initial state.

    The state is re-Hermitized and trace-renormalized after every step;
    drift beyond 1e-8 before renormalization aborts with a step-size error.
    Global error is O(dt^4).
    """
    if not 1 <= n_qubits <= 10:
        raise DomainError(f"n_qubits={n_qubits} outside [1, 10] for dense integration")
    if kappa <= 0:
        raise DomainError(f"kappa={kappa} must be positive")
    if t_final < 0:
        raise DomainError(f"t_final={t_final} must be nonnegative")
    if dt is None:
        dt = 1e-4 * min(1.0, 1.0 / kappa)
    if dt <= 0:
        raise DomainError(f"dt={dt} must be positive")

    dim = 2**n_qubits
    psi = ghz_state_vector(n_qubits)
    rho = np.outer(psi, psi.conj())
    if t_final == 0.0:
        return rho

    idx = np.arange(dim)
    popcounts = np.array([bin(s).count("1") for s in idx])
    z_sum = n_qubits - 2 * popcounts  # eigenvalue of sum_j sz_j on |s>
    # [sum_j sz_j, rho]_{ij} = (z_i - z_j) rho_{ij}: a fixed phase mask.
    phase = -1j * (theta / 2.0) * (z_sum[:, None] - z_sum[None, :])
    flips = [idx ^ (1 << j) for j in range(n_qubits)]

    def rhs(r: np.ndarray) -> np.ndarray:
        out = phase * r - (kappa / 2.0) * n_qubits * r
        for flip in flips:
            out += (kappa / 2.0) * r[np.ix_(flip, flip)]
        return out

    n_steps = max(1, math.ceil(t_final / dt - 1e-12))
    step = t_final / n_steps
    for _ in range(n_steps):
        k1 = rhs(rho)
        k2 = rhs(rho + 0.5 * step * k1)
        k3 = rhs(rho + 0.5 * step * k2)
        k4 = rhs(rho + step * k3)
        rho = rho + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        rho = (rho + rho.conj().T) / 2.0
        trace = float(np.real(np.trace(rho)))
        if abs(trace - 1.0) > 1e-8:
            raise StepSizeError(
                f"trace drifted to {trace} (|drift| > 1e-8); reduce dt below {step:g}"
            )
        rho = rho / trace
    return rho


# ---------------------------------------------------------------------------
# Maximum-likelihood estimator of the transverse qubit
# ---------------------------------------------------------------------------


def _transverse_estimator(kappa: float, t: float) -> Callable[[float], float]:
    """theta in [0, 0.49 kappa] with p(+) = the observed frequency.

    p(+) = 1/2 + Re rho_01 falls in |theta|, so the likelihood peaks where
    p(+) equals the frequency; bisection runs until the midpoint equals an
    endpoint.  A frequency outside p(+)'s range on the bracket gives the
    nearer edge and a ``BoundarySolutionWarning``.
    """

    def p_plus(theta: float) -> float:
        _, _, b, f, c = ghz_coefficients(theta, kappa, t)
        return min(0.5 + _cross_element(0, 1, b, f, c).real, 1.0)  # clamped like Born

    def estimate(freq: float) -> float:
        lo, hi = 0.0, 0.49 * kappa
        if freq >= p_plus(lo) or freq <= p_plus(hi):
            edge = lo if freq >= p_plus(lo) else hi
            warnings.warn(
                f"likelihood maximizer {edge:.6g} sits on the bracket edge [{lo:g}, {hi:g}]",
                BoundarySolutionWarning,
                stacklevel=2,
            )
            return edge
        while True:
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                return mid
            if p_plus(mid) > freq:
                lo = mid
            else:
                hi = mid

    return estimate


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

MODEL_NAMES = ("classical-bit", "trig", "transverse-qubit", "ghz")


def make_model(name: str, kappa: float = 1.0, t: float = 1.0, n_qubits: int = 1) -> ParametricModel:
    """Build a registered model; (kappa, t, n_qubits) apply where relevant."""
    if name == "classical-bit":
        return ParametricModel(
            name=name,
            dim=2,
            state_fn=classical_bit_state,
            derivative_fn=classical_bit_derivative,
            domain=(0.0, 1.0),
            measurement=computational_basis_measurement(2),
            estimate=lambda p_hat: p_hat,
        )
    if name == "trig":
        return ParametricModel(
            name=name,
            dim=2,
            state_fn=trig_model_state,
            derivative_fn=trig_model_derivative,
            domain=(0.0, math.pi / 2),
            measurement=computational_basis_measurement(2),
            estimate=lambda p_hat: math.asin(math.sqrt(p_hat)),
        )
    if name in ("transverse-qubit", "ghz"):
        n = 1 if name == "transverse-qubit" else n_qubits
        if kappa <= 0:
            raise DomainError(f"kappa={kappa} must be positive")
        if t < 0:
            raise DomainError(f"t={t} must be nonnegative")
        return ParametricModel(
            name=name,
            dim=2**n,
            state_fn=lambda th: ghz_state(n, th, kappa, t),
            blocks_fn=lambda th: ghz_block_terms(n, th, kappa, t),
            domain=(-kappa / 2.0, kappa / 2.0),
            open_domain=True,
            measurement=pauli_x_measurement() if n == 1 else None,
            estimate=_transverse_estimator(kappa, t) if n == 1 else None,
        )
    raise InvalidInputError(f"unknown model {name!r}; registered: {MODEL_NAMES}")
