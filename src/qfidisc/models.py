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

evaluated with the two exponentials exp(-(kappa - xi) t / 2) and
expm1(-xi t), each at most 1 in size, so they stay finite at every kappa t.

Grouping index pairs (s, sbar) turns the full matrix into a direct sum of
2x2 blocks, one per m = 0..floor(N/2), each repeated binomial(N, m) times
(half that for the central block when N is even); the dense matrix and
its derivative are assembled from these blocks.  Every model here hands
its state to the QFI, the Bures metric and the discontinuity analysis as
such a direct sum through ``ParametricModel.blocks_fn``: the GHZ models
(and ``transverse-qubit``, their N = 1 member) as one (B, 2, 2) array of
their blocks per point, so those never assemble the 2^N matrix, and the
diagonal families as one 2x2 block; each model also gives the first and
second theta-derivatives of its blocks in closed form.
The Monte Carlo experiments measure the parity X on every qubit, whose +
probability (1 + Re (b + f + i c)^N) / 2 needs no matrix either.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .exceptions import (
    BoundarySolutionWarning,
    DomainError,
    InvalidInputError,
    StepSizeError,
)


# A direct sum of equal-size blocks: multiplicities (B,), blocks (B, d, d),
# and their first and second theta-derivatives (B, d, d).
BlockGroup = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


@dataclass(frozen=True)
class ParametricModel:
    """A named family theta -> rho_theta.

    ``blocks_fn(theta)`` returns rho_theta as a direct sum of equal-size
    blocks, the 4-tuple (multiplicities, blocks, first, second) of
    ``BlockGroup``: positive integer multiplicities, the blocks and their
    analytic first and second theta-derivatives, all of them present at
    every read.  The weighted block traces sum to 1, and the block count,
    size and multiplicities are the same at every theta; blocks of
    different sizes are given as one dense block (``one_block``).  The
    QFI, the Bures metric and the discontinuity analysis read only the
    blocks, and ask for them only at a theta that ``in_domain`` accepts:
    the domain, closed or open as ``open_domain`` says, is the one domain
    rule of every library read.  ``state_fn`` returns the dense state;
    no library routine reads it.

    ``p_first`` is the probability of the first outcome of the
    two-outcome measurement the Monte Carlo experiments sample, and
    ``estimate`` maps the observed frequency of that outcome to the
    maximum-likelihood theta; both are None for a model without one.
    """

    name: str
    state_fn: Callable[[float], np.ndarray]
    blocks_fn: Callable[[float], BlockGroup]
    domain: tuple[float, float] = (-math.inf, math.inf)
    open_domain: bool = False
    p_first: Callable[[float], float] | None = None
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
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"p={p} outside [0, 1]")
    return np.array([[p, 0.0], [0.0, 1.0 - p]], dtype=complex)


def classical_bit_derivative(p: float) -> np.ndarray:
    del p  # constant in the parameter
    return np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def classical_bit_second_derivative(p: float) -> np.ndarray:
    del p  # the state is linear in the parameter
    return np.zeros((2, 2), dtype=complex)


def trig_model_state(theta: float) -> np.ndarray:
    """rho = sin^2(theta) |0><0| + cos^2(theta) |1><1| on [0, pi/2]."""
    if not 0.0 <= theta <= math.pi / 2:
        raise DomainError(f"theta={theta} outside [0, pi/2]")
    s2 = math.sin(theta) ** 2
    return np.array([[s2, 0.0], [0.0, 1.0 - s2]], dtype=complex)


def trig_model_derivative(theta: float) -> np.ndarray:
    return math.sin(2.0 * theta) * np.diag([1.0, -1.0]).astype(complex)


def trig_model_second_derivative(theta: float) -> np.ndarray:
    return 2.0 * math.cos(2.0 * theta) * np.diag([1.0, -1.0]).astype(complex)


def one_block(state_fn, derivative_fn, second_fn):
    """``blocks_fn`` of a family that is one block of multiplicity 1, from
    its state and its first and second theta-derivatives."""
    fns = (state_fn, derivative_fn, second_fn)

    def blocks(theta: float) -> BlockGroup:
        return (np.ones(1, dtype=int), *(fn(theta)[None] for fn in fns))

    return blocks


# ---------------------------------------------------------------------------
# GHZ family under transverse noise: coefficients and matrix elements
# ---------------------------------------------------------------------------


def _check_ghz_rates(kappa: float, t: float) -> None:
    """kappa finite and positive, with kappa^2 (in xi and the closed-form QFIs)
    a positive finite float, and t finite and nonnegative, with t^2 (in the
    blocks' second derivatives) finite; written so that NaN fails."""
    if not 0 < kappa < math.inf:
        raise DomainError(f"kappa={kappa} must be positive and finite")
    if not 0 < kappa * kappa < math.inf:
        raise DomainError(f"kappa={kappa} out of range: kappa**2 is not a positive finite float")
    if not 0 <= t < math.inf:
        raise DomainError(f"t={t} must be nonnegative and finite")
    if not t * t < math.inf:
        raise DomainError(f"t={t} out of range: t**2 is not a finite float")


def _check_ghz_domain(theta: float, kappa: float, t: float) -> None:
    _check_ghz_rates(kappa, t)
    if not abs(theta) < kappa / 2:
        raise DomainError(f"|theta|={abs(theta)} >= kappa/2={kappa / 2}; coefficients not real")


def _check_qubits(n_qubits: int, most: float = math.inf) -> None:
    """The blocks are built for N = 1..24; the closed-form QFIs hold for every N >= 1."""
    if not isinstance(n_qubits, (int, np.integer)):
        raise InvalidInputError(f"n_qubits={n_qubits!r} is not an integer")
    if not 1 <= n_qubits <= most:
        raise DomainError(f"n_qubits={n_qubits} outside [1, {most}]")


def _ghz_series(theta: float, kappa: float, t: float, order: int = 0) -> tuple:
    """The GHZ coefficients at one point: (a, d, gap, e_+, bfc), with the
    gap kappa - xi = 4 theta^2 / (kappa + xi), e_+ = exp(-gap t / 2), and
    ``bfc`` the triple (b, f, c) followed by its first ``order`` <= 2
    theta-derivatives.

    With s = exp(-kappa t/2) sinh(xi t/2) = -e_+ expm1(-xi t) / 2, each
    factor at most 1, the coefficients are b = e_+ (2 + expm1(-xi t)) / 2,
    f = kappa s / xi and c = 2 theta s / xi, finite for every kappa t.  Their
    derivatives follow from dxi/dtheta = -4 theta / xi through S = s / xi
    and W = (t b - 2 S) / xi^2:

        S' = -2 theta W,    S'' = -2 W - (24 theta^2 W - 4 (theta t)^2 S) / xi^2,
        b' = -2 theta t S,  f' = kappa S',  c' = 2 S + 2 theta S',
        b'' = -2 t S - 2 theta t S',  f'' = kappa S'',  c'' = 4 S' + 2 theta S''.

    S'' takes t only in (theta t)^2 S, formed as (theta t) (theta t S):
    t^2 S alone overflows for a t near the largest t^2 allowed, and 0 * inf
    at theta = 0 would be NaN; (theta t)^2 alone overflows where theta t
    passes ~1.3e154, though the product is finite there.

    The domain check, xi and the exponentials are computed once.  At
    theta = 0, e_+ = 1 and xi = kappa, so b and f equal a and d bit for bit.
    Each term is computed the same way whatever the order.  The blocks
    always take order 2; the order stays an argument for the scalar parity
    paths, which a GHZ Monte Carlo experiment calls once per Newton step
    of each distinct count: ``ghz_parity_probability`` (and so the
    estimator's p(+) at its two bracket edges, once per estimator) reads
    order 0, each step of the estimate order 1 (p(+) and its slope), and
    the turning-point search order 1 on its grid and order 2 in its Newton
    polish.  Per call (best of seven timeit runs on a 2-vCPU Xeon, Python
    3.11) order 0 takes 0.95 us, order 1 1.22 us and order 2 1.57 us.
    """
    _check_ghz_domain(theta, kappa, t)
    xi = math.sqrt(kappa**2 - 4.0 * theta**2)
    gap = 4.0 * theta**2 / (kappa + xi)
    e_plus = math.exp(-gap * t / 2.0)
    em1_kappa = math.expm1(-kappa * t)
    em1_xi = math.expm1(-xi * t)
    s = -e_plus * em1_xi / 2.0
    b = e_plus * (2.0 + em1_xi) / 2.0
    bfc = [(b, kappa / xi * s, 2.0 * theta / xi * s)]
    if order > 0:
        big_s = s / xi
        w = (t * b - 2.0 * big_s) / xi**2
        ds = -2.0 * theta * w
        bfc.append((-2.0 * theta * t * big_s, kappa * ds, 2.0 * big_s + 2.0 * theta * ds))
        if order > 1:
            d2s = -2.0 * w - (24.0 * theta**2 * w - 4.0 * (theta * t) * (theta * t * big_s)) / xi**2
            bfc.append(
                (-2.0 * t * big_s - 2.0 * theta * t * ds, kappa * d2s, 4.0 * ds + 2.0 * theta * d2s)
            )
    return 1.0 + em1_kappa / 2.0, -em1_kappa / 2.0, gap, e_plus, bfc


def ghz_coefficients(theta: float, kappa: float, t: float) -> tuple[float, float, float, float, float]:
    """Coefficient functions (a, d, b, f, c) of the evolved GHZ elements."""
    a, d, _, _, [bfc] = _ghz_series(theta, kappa, t)
    return (a, d, *bfc)


def _diag_element(m: int, n_qubits: int, a: float, d: float) -> float:
    return 0.5 * (d**m * a ** (n_qubits - m) + d ** (n_qubits - m) * a**m)


def _power_series(x: list, p: int) -> list:
    """x^p and its first two theta-derivatives from x = [x, x', x''], for
    an integer p >= 0; the factors p x^max(p-1, 0) and
    p (p-1) x^max(p-2, 0) vanish where the power has no such term."""
    slope = p * x[0] ** max(p - 1, 0)
    return [x[0] ** p, slope * x[1], p * (p - 1) * x[0] ** max(p - 2, 0) * x[1] ** 2 + slope * x[2]]


def _product_series(u: list, v: list) -> list:
    """u v and its first two theta-derivatives by the product rule."""
    return [u[0] * v[0], u[1] * v[0] + u[0] * v[1], u[2] * v[0] + 2.0 * u[1] * v[1] + u[0] * v[2]]


def _cross_series(n_qubits: int, ms, bfc: list) -> list:
    """For each popcount m of ``ms``, the cross element
    (f^m w-^(N-m) + f^(N-m) w+^m) / 2, w+- = b +- i c, and its first two
    theta-derivatives, from the three (b, f, c) triples of ``bfc``."""
    f = [f for _, f, _ in bfc]
    w_minus = [b - 1j * c for b, _, c in bfc]
    w_plus = [b + 1j * c for b, _, c in bfc]
    out = []
    for m in ms:
        first = _product_series(_power_series(f, m), _power_series(w_minus, n_qubits - m))
        second = _product_series(_power_series(f, n_qubits - m), _power_series(w_plus, m))
        out.append([0.5 * (x + y) for x, y in zip(first, second)])
    return out


class GhzBlock(NamedTuple):
    """One 2x2 block of the reshuffled GHZ state: its repeat count, the
    block and its theta-derivative."""

    multiplicity: int
    matrix: np.ndarray
    derivative: np.ndarray


class GhzBlockSet(NamedTuple):
    """Direct-sum decomposition of the evolved GHZ density matrix."""

    blocks: tuple[GhzBlock, ...]


@functools.cache
def _block_multiplicities(n_qubits: int) -> np.ndarray:
    """binomial(N, m) for m = 0..floor(N/2), halved for the central m of even N."""
    full = [math.comb(n_qubits, m) for m in range(n_qubits // 2 + 1)]
    if n_qubits % 2 == 0:
        full[-1] //= 2
    out = np.array(full)
    out.flags.writeable = False
    return out


def ghz_block_arrays(n_qubits: int, theta: float, kappa: float, t: float) -> BlockGroup:
    """The GHZ blocks m = 0..floor(N/2) as the arrays (multiplicities,
    blocks, first, second) of ``BlockGroup``, with both theta-derivatives.

    Block m is [[r, x], [conj x, r]] with r and x the diagonal and cross
    elements of popcount m.  The diagonal does not depend on theta, so the
    k-th derivative of block m is [[0, x^(k)], [conj x^(k), 0]].
    """
    _check_qubits(n_qubits, 24)
    a, d, _, _, bfc = _ghz_series(theta, kappa, t, 2)
    ms = range(n_qubits // 2 + 1)
    blocks = np.zeros((3, len(ms), 2, 2), dtype=complex)
    blocks[0, :, 0, 0] = blocks[0, :, 1, 1] = [_diag_element(m, n_qubits, a, d) for m in ms]
    blocks[:, :, 0, 1] = np.array(_cross_series(n_qubits, ms, bfc)).T
    blocks[:, :, 1, 0] = blocks[:, :, 0, 1].conj()
    return (_block_multiplicities(n_qubits), *blocks)


def ghz_blocks(n_qubits: int, theta: float, kappa: float, t: float) -> GhzBlockSet:
    """2x2 block decomposition of the evolved N-qubit GHZ state, one
    ``GhzBlock`` per block of ``ghz_block_arrays`` (views of its arrays)."""
    mults, blocks, dblocks, _ = ghz_block_arrays(n_qubits, theta, kappa, t)
    return GhzBlockSet(tuple(map(GhzBlock, mults.tolist(), blocks, dblocks)))


def _assemble_blocks(n_qubits: int, mats: np.ndarray) -> np.ndarray:
    """Undo the block permutation: the 2^N x 2^N cross-diagonal matrix.

    Entry (s, s) is the diagonal and entry (s, sbar) the upper cross
    element of block m = popcount(s).  For m > N/2 the pair (s, sbar) is
    (sbar, s) of block N - m, so the entry is that block's lower cross
    element, the conjugate of its upper one.
    """
    if n_qubits > 10:
        raise DomainError(f"full 2^{n_qubits} matrix assembly capped at N = 10")
    dim = 2**n_qubits
    s = np.arange(dim)
    m = ((s[:, None] >> np.arange(n_qubits)) & 1).sum(axis=1)
    block = np.minimum(m, n_qubits - m)
    lower = (2 * m > n_qubits).astype(int)
    full = np.zeros((dim, dim), dtype=complex)
    full[s, s] = mats[block, 0, 0].real
    full[s, s ^ (dim - 1)] = mats[block, lower, 1 - lower]
    return full


def ghz_state(n_qubits: int, theta: float, kappa: float, t: float) -> np.ndarray:
    """Closed-form evolved GHZ density matrix in the computational basis."""
    _, blocks, _, _ = ghz_block_arrays(n_qubits, theta, kappa, t)
    return _assemble_blocks(n_qubits, blocks)


def ghz_state_derivative(n_qubits: int, theta: float, kappa: float, t: float) -> np.ndarray:
    """theta-derivative of the closed-form GHZ state (diagonal is constant)."""
    _, _, dblocks, _ = ghz_block_arrays(n_qubits, theta, kappa, t)
    return _assemble_blocks(n_qubits, dblocks)


# ---------------------------------------------------------------------------
# Qubit QFI in Bloch form and the GHZ closed-form QFIs at theta = 0
# ---------------------------------------------------------------------------


def qubit_bloch_qfi(v, dv) -> float:
    """QFI of a qubit from its Bloch vector v and derivative dv.

    Mixed states (|v| < 1): |dv|^2 + (v . dv)^2 / (1 - |v|^2).
    Pure states (1 - |v|^2 below 1e-12): |dv|^2.
    """
    v = np.asarray(v, dtype=float)
    dv = np.asarray(dv, dtype=float)
    norm2 = float(v @ v)
    if norm2 > (1.0 + 1e-10) ** 2:
        raise InvalidInputError(f"Bloch vector norm {math.sqrt(norm2)} exceeds 1")
    if 1.0 - norm2 < 1e-12:
        return float(dv @ dv)
    return float(dv @ dv + (v @ dv) ** 2 / (1.0 - norm2))


@functools.lru_cache(maxsize=32)
def _log_binomials(n_qubits: int) -> tuple[float, ...]:
    """log binomial(N, m) for m < N/2, each the log of the exact integer.
    The recurrence binomial(N, m+1) = binomial(N, m) (N-m) / (m+1) builds
    them all in O(N^2) bit operations, about N times fewer than calling
    math.comb for each m."""
    logs, binomial = [], 1
    for m in range((n_qubits + 1) // 2):
        logs.append(math.log(binomial))
        binomial = binomial * (n_qubits - m) // (m + 1)
    return tuple(logs)


def ghz_qfi_discontinuous(n_qubits: int, kappa: float, t: float) -> float:
    """QFI of the evolved GHZ state exactly at theta = 0.

    At theta = 0, b = a, f = d and c = 0, so block m is r_m [[1, 1], [1, 1]]
    with r_m = (d^m a^(N-m) + d^(N-m) a^m) / 2: every block is pure, 2 r_m
    times a pure qubit.  Only c moves (b' = f' = 0, c' = 2d / kappa), so the
    cross element moves by

        x'_m = i (d / kappa) (m d^(N-m) a^(m-1) - (N-m) d^m a^(N-m-1)),

    and the pure qubit's QFI is |x'_m|^2 / r_m^2 (Dittmann, J. Phys. A 32,
    2663 (1999)).  Weighted by the blocks' populations 2 mu_m r_m, with mu_m
    their multiplicities,

        Q(0) = sum_m 2 mu_m |x'_m|^2 / r_m    (blocks with r_m = 0 left out).

    As a + d = 1, P_k = binomial(N, k) d^k a^(N-k) is a Binomial(N, d)
    probability and 2 mu_m r_m = P_m + P_(N-m).  With rho_m = P_(N-m) / P_m
    = (d/a)^(N-2m) <= 1 (d <= a), the term of block m is

        (2d / (kappa a))^2 P_m (N - m - m rho_m)^2 / (1 + rho_m),

    zero at the central m of even N.  P_m is formed from logarithms, so no
    binomial overflows a float for any N and a term that underflows is one
    that adds nothing.  The exp of a log of size ~N amplifies that log's
    rounding: for N <= 200, kappa in [1e-3, 10] and kappa t in [1e-12, 50]
    the result is within 1e-13 relative of the same sum in 40-digit
    arithmetic (worst seen 5.2e-14, over 13500 random points).
    """
    _check_qubits(n_qubits)
    _check_ghz_domain(0.0, kappa, t)
    em1 = math.expm1(-kappa * t)
    a, d = 1.0 + em1 / 2.0, -em1 / 2.0
    if d == 0.0:
        return 0.0  # no evolution: the state does not depend on theta
    n, log_d, log_a, ratio = n_qubits, math.log(d), math.log(a), d / a
    total = 0.0
    for m, log_binomial in enumerate(_log_binomials(n)):
        p = math.exp(log_binomial + m * log_d + (n - m) * log_a)
        rho = ratio ** (n - 2 * m)
        total += p * (n - m - m * rho) ** 2 / (1.0 + rho)
    return (2.0 * d / (kappa * a)) ** 2 * total


def ghz_qfi_continuous(n_qubits: int, kappa: float, t: float) -> float:
    """Limit of the GHZ QFI as theta -> 0 (equals four times the metric).

    Closed form of the block sum of L'Hopital limits:
    [N^2 (1-e)^2 + N (2x + 1 - (2-e)^2)] / kappa^2, x = kappa t, e = exp(-x).
    With u = 1 - e = -expm1(-x) it is the sum of two nonnegative terms,
    [(N^2 - N) u^2 + 2N (x - u)] / kappa^2, and x - u = x + expm1(-x) is
    summed as its Taylor series sum_{k>=2} (-x)^k / k! below x = 1/2,
    where the difference would cancel, so no digit is lost at small x.
    """
    _check_qubits(n_qubits)
    _check_ghz_domain(0.0, kappa, t)
    n, x = n_qubits, kappa * t
    u = -math.expm1(-x)
    if x >= 0.5:
        x_minus_u = x - u
    else:
        x_minus_u, term, k = 0.0, x * x / 2.0, 2
        while x_minus_u + term != x_minus_u:
            x_minus_u += term
            k += 1
            term *= -x / k
    return ((n * n - n) * u * u + 2.0 * n * x_minus_u) / kappa**2


# ---------------------------------------------------------------------------
# Master-equation integrator (independent oracle for the closed forms)
# ---------------------------------------------------------------------------


def ghz_state_vector(n_qubits: int) -> np.ndarray:
    """(|0...0> + |1...1>)/sqrt(2); equals |+> for a single qubit."""
    _check_qubits(n_qubits)
    dim = 2**n_qubits
    psi = np.zeros(dim, dtype=complex)
    psi[0] = psi[-1] = 1.0 / math.sqrt(2.0)
    return psi


# The most RK4 steps one call takes: ten times the 1e4 of t = 1 at the
# default dt (about 3 s at N = 1 and 5 s at N = 6: 25-30 and 44-49 us a
# step, best of three timings of 1e4 steps on a 2-vCPU Xeon, numpy 2.4.6,
# one BLAS thread).
RK4_MAX_STEPS = 10**5


def lindblad_integrate(
    n_qubits: int,
    theta: float,
    kappa: float,
    t_final: float,
    dt: float | None = None,
) -> np.ndarray:
    """Fixed-step RK4 integration of the N-qubit transverse-noise master
    equation from the GHZ initial state.

    The integration runs on the only entries the GHZ orbit reaches: the
    set {(s, s), (s, sbar)}, sbar = s ^ (2^N - 1), is closed under the
    master equation.  sx_j rho sx_j flips bit j of the row and the column,
    (s, sbar) -> (s ^ 2^j, sbar ^ 2^j), again a pair of complements, and
    the commutator with sum_j sz_j is a phase on each entry.  The state is
    one vector of 2 2^N entries, the (s, s) and then the (s, sbar), in
    which the flip of bit j moves position p to p ^ 2^j.

    The right-hand side is the phase mask of -i(theta/2)[sum_j sz_j, rho],
    the decay -(kappa/2) N rho, and N gathers of (kappa/2) rho, added in
    the order j = 0..N-1.  The N index arrays hold N 2^(N+1) 8 bytes:
    160 KB at N = 10.  The stage sums and the RK4 update run in place in
    per-call buffers, in the operation order of
    rho + (step/6)(k1 + 2 k2 + 2 k3 + k4).  Every operation is elementwise,
    so each entry is computed as in the dense 2^N x 2^N integration, bit
    for bit; ``gather_form_integrate`` in tests/test_models.py is that
    dense form, kept as the reference.  The 2^N x 2^N matrix is assembled
    once, after the last step.

    The state is re-Hermitized and trace-renormalized after every step
    (the mirror of (s, sbar) is (sbar, s), the cross half reversed); drift
    beyond 1e-8 before renormalization aborts with a step-size error, as
    does a returned state with an entry of modulus above 1 or NaN.  The
    default dt is 1e-4 min(1, 1 / max(kappa, |theta|)).  Global error is
    O(dt^4).  A call that needs more than RK4_MAX_STEPS
    steps (t_final / dt, after rounding up) is a ``DomainError``, raised
    before the first step.
    """
    _check_qubits(n_qubits, 10)
    if not math.isfinite(theta):
        raise DomainError(f"theta={theta} must be finite")
    _check_ghz_rates(kappa, t_final)
    if dt is None:
        dt = 1e-4 * min(1.0, 1.0 / max(kappa, abs(theta)))
    if not dt > 0:
        raise DomainError(f"dt={dt} must be positive")
    if not t_final / dt - 1e-12 <= RK4_MAX_STEPS:
        raise DomainError(
            f"t_final={t_final} at dt={dt:g} needs more than {RK4_MAX_STEPS} RK4 steps"
        )

    dim = 2**n_qubits
    psi = ghz_state_vector(n_qubits)
    initial = np.outer(psi, psi.conj())
    if t_final == 0.0:
        return initial

    idx = np.arange(dim)
    rows = np.concatenate([idx, idx])
    cols = np.concatenate([idx, idx ^ (dim - 1)])
    popcounts = np.array([bin(s).count("1") for s in idx])
    z_sum = n_qubits - 2 * popcounts  # eigenvalue of sum_j sz_j on |s>
    # [sum_j sz_j, rho]_{ij} = (z_i - z_j) rho_{ij}: a fixed phase mask.
    phase = -1j * (theta / 2.0) * (z_sum[rows] - z_sum[cols])
    decay = (kappa / 2.0) * n_qubits
    pos = np.arange(2 * dim)
    flips = [pos ^ (1 << j) for j in range(n_qubits)]
    rho = initial[rows, cols]
    jump = np.empty_like(rho)

    def rhs(r: np.ndarray, out: np.ndarray) -> None:
        np.multiply(phase, r, out=out)
        np.multiply(decay, r, out=jump)
        out -= jump
        np.multiply(kappa / 2.0, r, out=jump)
        for flip in flips:
            out += jump[flip]

    k1, k2, k3, k4, stage = (np.empty_like(rho) for _ in range(5))
    # A 2^N x 2^N view whose diagonal is the state's (s, s) entries: the
    # one numpy.trace of a step, which bench/tracing.py counts as the step.
    diagonal = np.broadcast_to(rho[:dim].reshape(dim, 1), (dim, dim))
    n_steps = max(1, math.ceil(t_final / dt - 1e-12))
    step = t_final / n_steps
    for _ in range(n_steps):
        rhs(rho, k1)
        np.multiply(0.5 * step, k1, out=stage)
        stage += rho
        rhs(stage, k2)
        np.multiply(0.5 * step, k2, out=stage)
        stage += rho
        rhs(stage, k3)
        np.multiply(step, k3, out=stage)
        stage += rho
        rhs(stage, k4)
        k2 *= 2.0
        k1 += k2
        k3 *= 2.0
        k1 += k3
        k1 += k4
        k1 *= step / 6.0
        k1 += rho  # rho + (step/6)(k1 + 2 k2 + 2 k3 + k4)
        np.conjugate(k1[:dim], out=stage[:dim])
        np.conjugate(k1[: dim - 1 : -1], out=stage[dim:])  # (sbar, s)
        np.add(k1, stage, out=rho)
        rho /= 2.0
        trace = float(np.real(np.trace(diagonal)))
        if not abs(trace - 1.0) <= 1e-8:
            raise StepSizeError(
                f"trace drifted to {trace} (|drift| > 1e-8); reduce dt below {step:g}"
            )
        rho /= trace
    # The drift check sees only the diagonal; a state whose coherences grew
    # past |rho_ij| <= 1 (or to NaN) went unstable off it.
    largest = float(np.abs(rho).max())
    if not largest <= 1.0:
        raise StepSizeError(
            f"the state has an entry of modulus {largest:.3g} (> 1); reduce dt below {step:g}"
        )
    full = np.zeros((dim, dim), dtype=complex)
    full[rows, cols] = rho
    return full


# ---------------------------------------------------------------------------
# Parity measurement of the GHZ family and its maximum-likelihood estimator
# ---------------------------------------------------------------------------


def ghz_parity_probability(n_qubits: int, theta: float, kappa: float, t: float) -> float:
    """Probability of the + outcome of the parity X (x) ... (x) X.

    The parity reads the entries (s, sbar); summed with their binomial
    weights, the cross elements give <X^(x)N> = Re (b + f + i c)^N, so
    p(+) = (1 + Re (b + f + i c)^N) / 2, clamped at 1 like a Born
    probability.  For N = 1 this is the X measurement of the transverse
    qubit.  With kappa - xi = 4 theta^2 / (kappa + xi), b + f is summed as
    e^(-(kappa - xi) t/2) + (kappa - xi) f / kappa, two nonnegative terms
    that are exactly 1 and 0 at theta = 0, so p(+) is exactly 1 there.
    """
    return _parity_plus(n_qubits, kappa, _ghz_series(theta, kappa, t))


def _parity_plus(n_qubits: int, kappa: float, series: tuple) -> float:
    """p(+) from one ``_ghz_series`` result, of any order."""
    _, _, gap, e_plus, [(_, f, c), *_] = series
    b_plus_f = e_plus + gap * f / kappa
    return min(0.5 * (1.0 + (complex(b_plus_f, c) ** n_qubits).real), 1.0)


def _parity_slopes(n_qubits: int, bfc: list) -> list[float]:
    """The theta-derivatives of p(+) that ``bfc`` allows, each over N/2:
    Re z^(N-1) z' and, given z'', Re [(N-1) z^(N-2) z'^2 + z^(N-1) z''],
    with z = b + f + i c."""
    z, dz, *d2z = (complex(b + f, c) for b, f, c in bfc)
    head = z ** (n_qubits - 1)
    slopes = [(head * dz).real]
    if d2z:
        slopes.append(((n_qubits - 1) * z ** max(n_qubits - 2, 0) * dz * dz + head * d2z[0]).real)
    return slopes


def _newton_root(
    value_and_slope: Callable[[float], tuple[float, float]], target: float, lo: float, hi: float
) -> float:
    """theta in [lo, hi] where a falling value crosses ``target``.

    Bracketed Newton: from the midpoint, each evaluated theta moves lo up
    to it when the value exceeds ``target`` and hi down to it otherwise.
    The next theta is the Newton step when that lands strictly inside
    (lo, hi), and the midpoint when it does not.  The search stops once
    the value is within 1 ulp of ``target``, the step is within 4 ulps of
    theta or the bracket is 2 ulps wide, and returns the last evaluated
    theta.  The first test ends the search where the value cannot come
    closer: one ulp of p(+) near 1 can be 5 ulps of theta.
    """
    theta = 0.5 * (lo + hi)
    while True:
        value, slope = value_and_slope(theta)
        if value > target:
            lo = theta
        else:
            hi = theta
        miss = value - target
        step = miss / slope if slope else math.inf
        if (
            abs(miss) <= math.ulp(target)
            or abs(step) <= 4.0 * math.ulp(theta)
            or hi - lo <= 2.0 * math.ulp(hi)
        ):
            return theta
        theta = theta - step if lo < theta - step < hi else 0.5 * (lo + hi)


def _parity_turning_point(n_qubits: int, kappa: float, t: float) -> float:
    """First zero of dp(+)/dtheta on (0, 0.49 kappa], or 0.49 kappa without one.

    The sign of dp(+)/dtheta is read on a grid of 256 steps; the first
    cell where it stops falling is polished by ``_newton_root`` on
    -dp(+)/dtheta, with -d2p(+)/dtheta2 as its slope.
    """

    def falling(theta: float) -> bool:  # dp(+)/dtheta < 0
        return _parity_slopes(n_qubits, _ghz_series(theta, kappa, t, 1)[4])[0] < 0.0

    def rise_and_slope(theta: float) -> tuple[float, float]:
        slope, curve = _parity_slopes(n_qubits, _ghz_series(theta, kappa, t, 2)[4])
        return -slope, -curve

    grid = [0.49 * kappa * k / 256 for k in range(257)]
    for lo, hi in zip(grid, grid[1:]):
        if not falling(hi):
            return _newton_root(rise_and_slope, 0.0, lo, hi)
    return grid[-1]


def _ghz_estimator(n_qubits: int, kappa: float, t: float) -> Callable[[float], float]:
    """theta in [0, theta*] with p(+) = the observed frequency.

    p(+) is 1 at theta = 0 and falls in |theta| up to its first stationary
    point theta* (0.49 kappa for N = 1, searched for the first time a
    frequency below 1 is estimated for N >= 2), so on that branch the
    likelihood peaks where p(+) equals the frequency.  ``_newton_root``
    solves for it with p(+) and its derivative from one order-1
    ``_ghz_series`` call a step; p(+) is ``ghz_parity_probability``'s
    arithmetic, so the estimate is the root to within the rounding of p(+).
    A frequency outside p(+)'s range on the bracket gives the nearer edge
    and a ``BoundarySolutionWarning``; the low edge, theta = 0, is checked
    first and needs no theta*.  p(+) at each edge is evaluated once per
    estimator, when an estimate first checks that edge, as theta* is found
    once.
    """

    def p_and_slope(theta: float) -> tuple[float, float]:
        series = _ghz_series(theta, kappa, t, 1)
        slope = 0.5 * n_qubits * _parity_slopes(n_qubits, series[4])[0]
        return _parity_plus(n_qubits, kappa, series), slope

    @functools.cache
    def low() -> float:
        return ghz_parity_probability(n_qubits, 0.0, kappa, t)

    @functools.cache
    def upper() -> tuple[float, float]:
        hi = 0.49 * kappa if n_qubits == 1 else _parity_turning_point(n_qubits, kappa, t)
        return hi, ghz_parity_probability(n_qubits, hi, kappa, t)

    def edge(theta: float, where: str) -> float:
        warnings.warn(
            f"likelihood maximizer {theta:.6g} sits on the {where}",
            BoundarySolutionWarning,
            stacklevel=3,
        )
        return theta

    def estimate(freq: float) -> float:
        if freq >= low():
            return edge(0.0, "bracket's low edge theta = 0")
        hi, p_hi = upper()
        if freq <= p_hi:
            return edge(hi, f"bracket edge [0, {hi:g}]")
        return _newton_root(p_and_slope, freq, 0.0, hi)

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
            state_fn=classical_bit_state,
            blocks_fn=one_block(
                classical_bit_state, classical_bit_derivative, classical_bit_second_derivative
            ),
            domain=(0.0, 1.0),
            p_first=lambda p: p,
            estimate=lambda p_hat: p_hat,
        )
    if name == "trig":
        return ParametricModel(
            name=name,
            state_fn=trig_model_state,
            blocks_fn=one_block(
                trig_model_state, trig_model_derivative, trig_model_second_derivative
            ),
            domain=(0.0, math.pi / 2),
            p_first=lambda theta: math.sin(theta) ** 2,
            estimate=lambda p_hat: math.asin(math.sqrt(p_hat)),
        )
    if name in ("transverse-qubit", "ghz"):
        n = 1 if name == "transverse-qubit" else n_qubits
        _check_ghz_rates(kappa, t)
        _check_qubits(n, 24)
        return ParametricModel(
            name=name,
            state_fn=lambda th: ghz_state(n, th, kappa, t),
            blocks_fn=lambda th: ghz_block_arrays(n, th, kappa, t),
            domain=(-kappa / 2.0, kappa / 2.0),
            open_domain=True,
            p_first=lambda th: ghz_parity_probability(n, th, kappa, t),
            estimate=_ghz_estimator(n, kappa, t),
        )
    raise InvalidInputError(f"unknown model {name!r}; registered: {MODEL_NAMES}")
