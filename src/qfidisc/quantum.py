"""Dense Hermitian linear algebra and quantum-information functionals.

Everything operates on plain complex ndarrays representing density
matrices (Hermitian, unit trace, positive semidefinite up to numerical
noise) and Hermitian operators such as parameter derivatives of a state.

The central objects:

* ``qfi``: quantum Fisher information from the spectral representation,
  Q = 2 sum_{lk+ll>0} |<lk| drho |ll>|^2 / (lk+ll).
* ``sld``: the symmetric logarithmic derivative L solving
  2 drho = L rho + rho L, with the kernel block fixed to zero.
* ``fidelity``: Uhlmann fidelity tr sqrt(sqrt(rho) sigma sqrt(rho)).
* ``bures_metric_fd``: the metric coefficient g in
  2 [1 - F(rho_t, rho_{t+e})] = g e^2 + O(e^3), by finite differences.
* ``qfi_limit``: one-sided limit of the QFI along a step-halving sequence,
  with divergence detection for singular-metric points.

Model-level helpers work on direct sums.  A model may supply its state as
unnormalized blocks A_j, each repeated m_j times
(``ParametricModel.blocks_fn``); one without that structure is a single
block of multiplicity 1.  The QFI and the Uhlmann fidelity both split over
such a direct sum: for rho = (+)_j m_j A_j and sigma = (+)_j m_j B_j,

    Q(rho) = sum_j m_j Q(A_j, dA_j),    F(rho, sigma) = sum_j m_j F(A_j, B_j),

and the eigenvalues of the blocks are those of the full matrix, so the
absolute support cut means the same on a block as on the whole state.
For 2x2 blocks F has the closed form

    F(A, B) = sqrt(tr AB + 2 sqrt(det A det B)),

exact for PSD A and B.  Where a block is pure, the roundoff in its
vanishing determinant enters only through sqrt(det A det B), damped by
det B; an eigendecomposition would take the square root of the
roundoff-level eigenvalue itself, which swamps 1 - F at small steps.
Larger blocks go through explicit eigendecompositions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import (
    DegenerateModelError,
    DivergenceError,
    DomainError,
    InvalidInputError,
    NumericalError,
    StepSizeError,
)
from .numdiff import richardson_limit

SUPPORT_TOL = 1e-12
_HERMITIAN_TOL = 1e-12
_TRACE_TOL = 1e-10
_PSD_TOL = 1e-10
_UNDERFLOW_TOL = 1e-14


@dataclass(frozen=True)
class SpectralData:
    """Eigendecomposition of a density matrix with an effective-rank cut.

    ``eigenvalues`` are clamped to >= 0 and sorted descending;
    ``eigenvectors[:, k]`` is the unit eigenvector of ``eigenvalues[k]``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    support_tol: float
    effective_rank: int

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)

    def reconstruct(self) -> np.ndarray:
        """Rebuild the matrix sum_k lambda_k |k><k|."""
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def validate_hermitian(op: np.ndarray, tol: float = 1e-10, what: str = "operator") -> np.ndarray:
    op = np.asarray(op, dtype=complex)
    if op.ndim != 2 or op.shape[0] != op.shape[1]:
        raise InvalidInputError(f"{what} must be a square matrix, got shape {op.shape}")
    if np.max(np.abs(op - op.conj().T)) > tol:
        raise InvalidInputError(f"{what} is not Hermitian within {tol:g}")
    return op


def validate_density_matrix(rho: np.ndarray, check_psd: bool = False) -> np.ndarray:
    """Check the density-matrix contract; returns the array unchanged.

    Hermiticity within 1e-12, unit trace within 1e-10; eigenvalue
    positivity (within 1e-10) only when ``check_psd`` is set since it
    costs a full eigensolve.
    """
    rho = validate_hermitian(rho, _HERMITIAN_TOL, "density matrix")
    tr = np.trace(rho)
    if abs(tr - 1.0) > _TRACE_TOL:
        raise InvalidInputError(f"density matrix trace {tr} differs from 1 beyond {_TRACE_TOL:g}")
    if check_psd:
        lo = float(np.linalg.eigvalsh(rho)[0])
        if lo < -_PSD_TOL:
            raise InvalidInputError(f"density matrix has eigenvalue {lo} < -{_PSD_TOL:g}")
    return rho


def spectral_decompose(rho: np.ndarray, support_tol: float = SUPPORT_TOL) -> SpectralData:
    """Eigendecompose a density matrix, descending order, clamped spectrum."""
    _check_support_tol(support_tol)
    return _decompose(validate_density_matrix(rho), support_tol)


def _check_support_tol(support_tol: float) -> None:
    if support_tol < 0:
        raise InvalidInputError("support_tol must be >= 0")


def _decompose(rho: np.ndarray, support_tol: float) -> SpectralData:
    """Eigendecompose a Hermitian PSD matrix of any trace (a state or a block)."""
    try:
        lam, vecs = np.linalg.eigh(rho)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise NumericalError(f"eigensolver failed: {exc}") from exc
    order = np.argsort(lam)[::-1]
    lam = np.maximum(lam[order], 0.0)
    vecs = vecs[:, order]
    rank = int(np.count_nonzero(lam > support_tol))
    return SpectralData(lam, vecs, support_tol, rank)


def _sqrt_psd(rho: np.ndarray) -> np.ndarray:
    lam, vecs = np.linalg.eigh(rho)
    lam = np.sqrt(np.maximum(lam, 0.0))
    return (vecs * lam) @ vecs.conj().T


def _block_fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """tr sqrt(sqrt(a) b sqrt(a)) for PSD a, b of any trace, unclamped.

    2x2 blocks use the closed form sqrt(tr ab + 2 sqrt(det a det b));
    larger ones explicit eigendecompositions with eigenvalue clamping,
    which stays well behaved for rank-deficient inputs.
    """
    if a.shape != b.shape:
        raise InvalidInputError(f"dimension mismatch: {a.shape} vs {b.shape}")
    if a.shape == (2, 2):
        # tr ab = sum_ij a_ij conj(b_ij) for Hermitian b.
        tr_ab = float(np.vdot(b, a).real)
        det_a = max(float((a[0, 0] * a[1, 1]).real) - abs(a[0, 1]) ** 2, 0.0)
        det_b = max(float((b[0, 0] * b[1, 1]).real) - abs(b[0, 1]) ** 2, 0.0)
        return math.sqrt(max(tr_ab + 2.0 * math.sqrt(det_a * det_b), 0.0))
    sq = _sqrt_psd(a)
    inner = sq @ b @ sq
    w = np.linalg.eigvalsh((inner + inner.conj().T) / 2.0)
    return float(np.sum(np.sqrt(np.maximum(w, 0.0))))


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity tr sqrt(sqrt(rho) sigma sqrt(rho)), clamped to [0, 1]."""
    rho = validate_density_matrix(rho)
    sigma = validate_density_matrix(sigma)
    return min(max(_block_fidelity(rho, sigma), 0.0), 1.0)


def _overlaps(spect: SpectralData, drho: np.ndarray):
    """drho in the eigenbasis, the eigenvalue pair sums, and the pairs on the support."""
    d_eig = spect.eigenvectors.conj().T @ drho @ spect.eigenvectors
    denom = spect.eigenvalues[:, None] + spect.eigenvalues[None, :]
    return d_eig, denom, denom > spect.support_tol


def _qfi_sum(d_eig, denom, mask) -> float:
    return float(2.0 * np.sum(np.abs(d_eig[mask]) ** 2 / denom[mask]))


def _spectral_overlaps(rho, drho, support_tol):
    drho = validate_hermitian(drho, 1e-10, "state derivative")
    if np.shape(rho) != drho.shape:
        raise InvalidInputError("state and derivative dimensions differ")
    if np.max(np.abs(rho)) <= support_tol:
        raise DegenerateModelError("no eigenvalue pair above tolerance; state has no weight")
    spect = spectral_decompose(rho, support_tol)
    d_eig, denom, mask = _overlaps(spect, drho)
    if not mask.any():
        raise DegenerateModelError("no eigenvalue pair above tolerance; state has no weight")
    return spect, d_eig, denom, mask


def sld(rho: np.ndarray, drho: np.ndarray, support_tol: float = SUPPORT_TOL) -> np.ndarray:
    """Symmetric logarithmic derivative, kernel block set to zero.

    Components on eigenvalue pairs with lk + ll <= support_tol are left
    unspecified by the defining equation; zero is the minimal-norm choice
    and does not affect the Fisher information.
    """
    spect, d_eig, denom, mask = _spectral_overlaps(rho, drho, support_tol)
    l_eig = np.zeros_like(d_eig)
    l_eig[mask] = 2.0 * d_eig[mask] / denom[mask]
    v = spect.eigenvectors
    l_op = v @ l_eig @ v.conj().T
    return (l_op + l_op.conj().T) / 2.0


def qfi(rho: np.ndarray, drho: np.ndarray, support_tol: float = SUPPORT_TOL) -> float:
    """Quantum Fisher information via the spectral sum over the support."""
    _, d_eig, denom, mask = _spectral_overlaps(rho, drho, support_tol)
    return _qfi_sum(d_eig, denom, mask)


# ---------------------------------------------------------------------------
# Model-level helpers.  A "model" is any object exposing state_fn(theta),
# optional derivative_fn(theta), optional blocks_fn(theta), and
# in_domain(theta); see models.py.
# ---------------------------------------------------------------------------


def state_derivative(model, theta: float) -> np.ndarray:
    """d rho / d theta, analytic when the model provides it, else central
    differences with step 1e-5 * max(1, |theta|) (one-sided second-order
    at a domain edge)."""
    if model.derivative_fn is not None:
        return np.asarray(model.derivative_fn(theta), dtype=complex)
    h = 1e-5 * max(1.0, abs(theta))
    above = model.in_domain(theta + h)
    below = model.in_domain(theta - h)
    f = model.state_fn
    if above and below:
        return (f(theta + h) - f(theta - h)) / (2.0 * h)
    if above:
        return (-3.0 * f(theta) + 4.0 * f(theta + h) - f(theta + 2.0 * h)) / (2.0 * h)
    if below:
        return (3.0 * f(theta) - 4.0 * f(theta - h) + f(theta - 2.0 * h)) / (2.0 * h)
    raise DomainError(f"cannot differentiate {model.name} at theta={theta}: no room in domain")


def _model_blocks(model, theta: float, derivative: bool = True) -> list:
    """The state at theta as a checked direct sum [(multiplicity, block, dblock)].

    Uses ``model.blocks_fn`` when the model has one; otherwise the state is
    one block of multiplicity 1 with ``state_derivative`` as its derivative.
    Without ``derivative`` the dblock entries are None (and, for a model
    without blocks, never computed).  Every block must be Hermitian within
    1e-12, every dblock within 1e-10, and the weighted traces must sum to 1
    within 1e-10.
    """
    if model.blocks_fn is not None:
        raw = model.blocks_fn(theta)
    else:
        raw = [(1, model.state_fn(theta), state_derivative(model, theta) if derivative else None)]
    blocks = []
    total = 0.0
    for mult, block, dblock in raw:
        block = validate_hermitian(block, _HERMITIAN_TOL, "density block")
        if derivative:
            dblock = validate_hermitian(dblock, 1e-10, "state derivative")
            if block.shape != dblock.shape:
                raise InvalidInputError("state and derivative dimensions differ")
        else:
            dblock = None
        total += mult * float(np.trace(block).real)
        blocks.append((mult, block, dblock))
    if abs(total - 1.0) > _TRACE_TOL:
        raise InvalidInputError(
            f"density matrix trace {total} differs from 1 beyond {_TRACE_TOL:g}"
        )
    return blocks


def model_qfi(model, theta: float, support_tol: float = SUPPORT_TOL) -> float:
    """QFI of a parametric model at a point: sum_j m_j Q(B_j, dB_j) over its blocks."""
    _check_support_tol(support_tol)
    total = 0.0
    weighted = False
    for mult, block, dblock in _model_blocks(model, theta):
        d_eig, denom, mask = _overlaps(_decompose(block, support_tol), dblock)
        if mask.any():
            total += mult * _qfi_sum(d_eig, denom, mask)
            weighted = True
    if not weighted:
        raise DegenerateModelError("no eigenvalue pair above tolerance; state has no weight")
    return total


def _direct_sum_fidelity(blocks_a: list, blocks_b: list) -> float:
    """Uhlmann fidelity of two states given as matching direct sums, clamped to [0, 1]."""
    if [m for m, _, _ in blocks_a] != [m for m, _, _ in blocks_b]:
        raise InvalidInputError("block multiplicities differ between the two states")
    f = sum(m * _block_fidelity(a, b) for (m, a, _), (_, b, _) in zip(blocks_a, blocks_b))
    return min(max(f, 0.0), 1.0)


def bures_metric_fd(model, theta: float, eps: float = 1e-4) -> float:
    """Metric coefficient of 2[1 - F] by finite differences.

    Uses the two-sided average of the difference quotients at eps and a
    first-order Richardson step at eps/2.  Falls back to the one-sided
    quotient when theta sits on a domain edge.  The fidelity is summed over
    the model's blocks.
    """
    if eps <= 0:
        raise StepSizeError("eps must be positive")
    blocks0 = _model_blocks(model, theta, derivative=False)
    above = model.in_domain(theta + eps)
    below = model.in_domain(theta - eps)
    if not (above or below):
        raise DomainError(f"no room around theta={theta} in the domain of {model.name}")

    def quotient(e: float) -> float:
        total = 0.0
        sides = 0
        for sign, ok in ((+1.0, above), (-1.0, below)):
            if not ok:
                continue
            shifted = _model_blocks(model, theta + sign * e, derivative=False)
            gap = 1.0 - _direct_sum_fidelity(blocks0, shifted)
            if gap < _UNDERFLOW_TOL:
                raise StepSizeError(
                    f"1 - fidelity = {gap:.3e} underflows at eps={e:g}; increase eps"
                )
            total += 2.0 * gap / e**2
            sides += 1
        return total / sides

    q_full = quotient(eps)
    q_half = quotient(eps / 2.0)
    return 2.0 * q_half - q_full


@dataclass(frozen=True)
class LimitEstimate:
    """Extrapolated one-sided limit with its convergence estimate."""

    value: float
    error: float
    thetas: np.ndarray
    qfi_values: np.ndarray


def qfi_limit(
    model,
    theta_bar: float,
    side: str = "above",
    steps: int = 6,
    h0: float = 1e-2,
    rel_tol: float = 1e-3,
    support_tol: float = SUPPORT_TOL,
) -> LimitEstimate:
    """Limit of the QFI as theta -> theta_bar from one side.

    Samples theta_bar +/- h0 * 2**-k for k = 0..steps-1, extrapolates with
    a Richardson tableau, and raises ``DivergenceError`` when successive
    extrapolants disagree beyond ``rel_tol`` relative (the signature of a
    second-kind discontinuity or singular metric).
    """
    if steps < 2:
        raise InvalidInputError("steps must be >= 2")
    if side not in ("above", "below"):
        raise InvalidInputError(f"side must be 'above' or 'below', got {side!r}")
    sign = 1.0 if side == "above" else -1.0
    thetas = theta_bar + sign * h0 * 2.0 ** -np.arange(steps)
    for th in thetas:
        if not model.in_domain(th):
            raise DomainError(f"theta={th} outside the domain of {model.name} (side={side})")
    values = np.array([model_qfi(model, th, support_tol) for th in thetas])
    extrapolants = richardson_limit(values)
    diff = abs(extrapolants[-1] - extrapolants[-2])
    scale = max(abs(extrapolants[-1]), 1e-6)
    if diff > rel_tol * scale:
        raise DivergenceError(
            f"QFI limit at theta_bar={theta_bar} ({side}) does not converge: "
            f"last extrapolants differ by {diff:.3e} (relative {diff / scale:.3e})",
            thetas=thetas,
            values=values,
        )
    return LimitEstimate(float(extrapolants[-1]), float(diff), thetas, values)
