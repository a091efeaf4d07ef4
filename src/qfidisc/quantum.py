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

Model-level routines read all their sample points in one stacked call
(``_model_blocks``): the blocks of every point, stacked by shape, are
checked and eigendecomposed once per stack, and each block's result equals
the one it gets when read alone, bit for bit.
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
from .numdiff import _even_richardson, richardson_limit

SUPPORT_TOL = 1e-12
# The one-sided QFI limit samples theta_bar +/- LIMIT_H0 * 2**-k for
# k < LIMIT_STEPS; its last two extrapolants must agree within
# LIMIT_REL_TOL relative.
LIMIT_STEPS = 6
LIMIT_H0 = 1e-2
LIMIT_REL_TOL = 1e-3
_HERMITIAN_TOL = 1e-12
_TRACE_TOL = 1e-10
_PSD_TOL = 1e-10
_UNDERFLOW_TOL = 1e-14


@dataclass(frozen=True)
class SpectralData:
    """Eigendecomposition of a density matrix with an effective-rank cut.

    ``eigenvalues`` are clamped to >= 0 and sorted descending;
    ``eigenvectors[:, k]`` is the unit eigenvector of ``eigenvalues[k]``;
    ``effective_rank`` counts the eigenvalues above ``SUPPORT_TOL``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    effective_rank: int

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)

    def reconstruct(self) -> np.ndarray:
        """Rebuild the matrix sum_k lambda_k |k><k|."""
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.conj().T


def validate_hermitian(op: np.ndarray, tol: float = 1e-10, what: str = "operator") -> np.ndarray:
    """Check that ``op`` is a Hermitian matrix, or a stack of them along its
    leading axes, within ``tol`` entrywise; returns it as a complex array."""
    op = np.asarray(op, dtype=complex)
    if op.ndim < 2 or op.shape[-2] != op.shape[-1]:
        raise InvalidInputError(f"{what} must be a square matrix, got shape {op.shape}")
    if np.max(np.abs(op - op.conj().swapaxes(-1, -2))) > tol:
        raise InvalidInputError(f"{what} is not Hermitian within {tol:g}")
    return op


def validate_density_matrix(rho: np.ndarray, check_psd: bool = False) -> np.ndarray:
    """Check the density-matrix contract; returns the array unchanged.

    Hermiticity within 1e-12, unit trace within 1e-10; eigenvalue
    positivity (within 1e-10) only when ``check_psd`` is set since it
    costs a full eigensolve.
    """
    if np.ndim(rho) != 2:
        shape = np.shape(rho)
        raise InvalidInputError(f"density matrix must be a square matrix, got shape {shape}")
    rho = validate_hermitian(rho, _HERMITIAN_TOL, "density matrix")
    tr = np.trace(rho)
    if abs(tr - 1.0) > _TRACE_TOL:
        raise InvalidInputError(f"density matrix trace {tr} differs from 1 beyond {_TRACE_TOL:g}")
    if check_psd:
        lo = float(np.linalg.eigvalsh(rho)[0])
        if lo < -_PSD_TOL:
            raise InvalidInputError(f"density matrix has eigenvalue {lo} < -{_PSD_TOL:g}")
    return rho


def spectral_decompose(rho: np.ndarray) -> SpectralData:
    """Eigendecompose a density matrix, descending order, clamped spectrum."""
    return _decompose(validate_density_matrix(rho)[None])[0]


def _decompose(stack: np.ndarray) -> list[SpectralData]:
    """Eigendecompose a stack of Hermitian PSD matrices of any trace (states
    or blocks) in one call; LAPACK solves each matrix of the stack as it
    would alone, so every result equals that of its matrix by itself."""
    try:
        lam, vecs = np.linalg.eigh(stack)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise NumericalError(f"eigensolver failed: {exc}") from exc
    lam = np.maximum(lam[:, ::-1], 0.0)
    vecs = vecs[:, :, ::-1]
    ranks = (lam > SUPPORT_TOL).sum(axis=-1).tolist()
    return list(map(SpectralData, lam, vecs, ranks))


def _sqrt_psd(rho: np.ndarray) -> np.ndarray:
    lam, vecs = np.linalg.eigh(rho)
    lam = np.sqrt(np.maximum(lam, 0.0))
    return (vecs * lam) @ vecs.conj().T


def _block_fidelity(a: np.ndarray, b: np.ndarray, sqrt_a: np.ndarray | None = None) -> float:
    """tr sqrt(sqrt(a) b sqrt(a)) for PSD a, b of any trace, unclamped.

    2x2 blocks use the closed form sqrt(tr ab + 2 sqrt(det a det b));
    larger ones explicit eigendecompositions with eigenvalue clamping,
    which stays well behaved for rank-deficient inputs.  ``sqrt_a``, when
    given, is ``_sqrt_psd(a)``, taken once for several b.
    """
    if a.shape != b.shape:
        raise InvalidInputError(f"dimension mismatch: {a.shape} vs {b.shape}")
    if a.shape == (2, 2):
        # tr ab = sum_ij a_ij conj(b_ij) for Hermitian b.
        tr_ab = float(np.vdot(b, a).real)
        det_a = max(float((a[0, 0] * a[1, 1]).real) - abs(a[0, 1]) ** 2, 0.0)
        det_b = max(float((b[0, 0] * b[1, 1]).real) - abs(b[0, 1]) ** 2, 0.0)
        return math.sqrt(max(tr_ab + 2.0 * math.sqrt(det_a * det_b), 0.0))
    sq = _sqrt_psd(a) if sqrt_a is None else sqrt_a
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
    return d_eig, denom, denom > SUPPORT_TOL


def _qfi_sum(d_eig, denom, mask) -> float:
    return float(2.0 * np.sum(np.abs(d_eig[mask]) ** 2 / denom[mask]))


def _spectral_overlaps(rho, drho):
    drho = validate_hermitian(drho, 1e-10, "state derivative")
    if np.shape(rho) != drho.shape:
        raise InvalidInputError("state and derivative dimensions differ")
    if np.max(np.abs(rho)) <= SUPPORT_TOL:
        raise DegenerateModelError("no eigenvalue pair above tolerance; state has no weight")
    spect = spectral_decompose(rho)
    d_eig, denom, mask = _overlaps(spect, drho)
    if not mask.any():
        raise DegenerateModelError("no eigenvalue pair above tolerance; state has no weight")
    return spect, d_eig, denom, mask


def sld(rho: np.ndarray, drho: np.ndarray) -> np.ndarray:
    """Symmetric logarithmic derivative, kernel block set to zero.

    Components on eigenvalue pairs with lk + ll <= SUPPORT_TOL are left
    unspecified by the defining equation; zero is the minimal-norm choice
    and does not affect the Fisher information.
    """
    spect, d_eig, denom, mask = _spectral_overlaps(rho, drho)
    l_eig = np.zeros_like(d_eig)
    l_eig[mask] = 2.0 * d_eig[mask] / denom[mask]
    v = spect.eigenvectors
    l_op = v @ l_eig @ v.conj().T
    return (l_op + l_op.conj().T) / 2.0


def qfi(rho: np.ndarray, drho: np.ndarray) -> float:
    """Quantum Fisher information via the spectral sum over the support."""
    _, d_eig, denom, mask = _spectral_overlaps(rho, drho)
    return _qfi_sum(d_eig, denom, mask)


# ---------------------------------------------------------------------------
# Model-level helpers.  A "model" is any object exposing state_fn(theta),
# optional blocks_fn(theta), and in_domain(theta); see models.py.  Every
# built-in model has blocks_fn, so these read its blocks alone.
# ---------------------------------------------------------------------------


def state_derivative(model, theta: float) -> np.ndarray:
    """d rho / d theta of a model given by ``state_fn`` alone, by central
    differences with step 1e-5 * max(1, |theta|) (one-sided second-order
    at a domain edge)."""
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


def _model_blocks(model, thetas, derivative: bool = True, decompose: bool = True) -> list:
    """The state at each of ``thetas`` as a checked direct sum.

    Returns one list per theta of (multiplicity, block, dblock, spectrum)
    terms.  Uses ``model.blocks_fn`` when the model has one; otherwise the
    state is one block of multiplicity 1 with ``state_derivative`` as its
    derivative.  Without ``derivative`` the dblock entries are None (and,
    for a model without blocks, never computed); without ``decompose`` the
    spectrum entries are None.

    The blocks of all thetas are stacked by shape, and each stack is read
    at once: one Hermiticity check of its blocks (within 1e-12), one of
    their dblocks (within 1e-10), one trace per block, and one
    eigendecomposition.  At every theta the weighted traces must sum to 1
    within 1e-10, summed in block order.
    """
    raw = []
    for theta in thetas:
        if model.blocks_fn is not None:
            raw.append(model.blocks_fn(theta))
        else:
            dblock = state_derivative(model, theta) if derivative else None
            raw.append([(1, model.state_fn(theta), dblock)])
    flat = [term for terms in raw for term in terms]
    by_shape: dict[tuple, list[int]] = {}
    for k, term in enumerate(flat):
        by_shape.setdefault(np.shape(term[1]), []).append(k)
    read = [None] * len(flat)
    weighted_traces = [0.0] * len(flat)
    for shape, idx in by_shape.items():
        blocks = validate_hermitian([flat[k][1] for k in idx], _HERMITIAN_TOL, "density block")
        dblocks = spectra = [None] * len(idx)
        if derivative:
            if any(np.shape(flat[k][2]) != shape for k in idx):
                raise InvalidInputError("state and derivative dimensions differ")
            dblocks = validate_hermitian([flat[k][2] for k in idx], 1e-10, "state derivative")
        if decompose:
            spectra = _decompose(blocks)
        traces = np.trace(blocks, axis1=-2, axis2=-1).real.tolist()
        for k, block, dblock, spect, trace in zip(idx, blocks, dblocks, spectra, traces):
            mult = flat[k][0]
            read[k] = (mult, block, dblock, spect)
            weighted_traces[k] = mult * trace
    out = []
    start = 0
    for terms in raw:
        stop = start + len(terms)
        total = 0.0
        for weighted in weighted_traces[start:stop]:
            total += weighted
        if abs(total - 1.0) > _TRACE_TOL:
            raise InvalidInputError(
                f"density matrix trace {total} differs from 1 beyond {_TRACE_TOL:g}"
            )
        out.append(read[start:stop])
        start = stop
    return out


def _direct_sum_qfi(terms: list) -> float:
    """sum_j m_j Q(B_j, dB_j) over the terms of one ``_model_blocks`` direct sum."""
    total = 0.0
    weighted = False
    for mult, _, dblock, spect in terms:
        d_eig, denom, mask = _overlaps(spect, dblock)
        if mask.any():
            total += mult * _qfi_sum(d_eig, denom, mask)
            weighted = True
    if not weighted:
        raise DegenerateModelError("no eigenvalue pair above tolerance; state has no weight")
    return total


def model_qfi(model, theta: float) -> float:
    """QFI of a parametric model at a point: sum_j m_j Q(B_j, dB_j) over its blocks."""
    return _direct_sum_qfi(_model_blocks(model, [theta])[0])


def _direct_sum_fidelity(blocks_a: list, roots_a: list, blocks_b: list) -> float:
    """Uhlmann fidelity of two states given as matching direct sums, clamped to [0, 1].

    ``roots_a`` holds ``_sqrt_psd`` of each block of a larger than 2x2, None for the others.
    """
    if [m for m, *_ in blocks_a] != [m for m, *_ in blocks_b]:
        raise InvalidInputError("block multiplicities differ between the two states")
    f = sum(
        m * _block_fidelity(a, b, root)
        for (m, a, *_), root, (_, b, *_) in zip(blocks_a, roots_a, blocks_b)
    )
    return min(max(f, 0.0), 1.0)


def bures_metric_fd(model, theta: float, eps: float = 1e-4) -> float:
    """Metric coefficient of 2[1 - F] by finite differences.

    Averages the difference quotients on both sides of theta and
    extrapolates from eps and eps/2 with the Richardson steps of
    ``numdiff``.  The two-sided average has an error even in eps, removed
    by (4 q(eps/2) - q(eps)) / 3; on a domain edge the one-sided quotient
    has a first-order error, removed by 2 q(eps/2) - q(eps).  The fidelity
    is summed over the model's blocks, read at theta and every shifted
    point in one stacked call; the square root of each block at theta
    larger than 2x2 is taken once.
    """
    if eps <= 0:
        raise StepSizeError("eps must be positive")
    signs = [s for s in (+1.0, -1.0) if model.in_domain(theta + s * eps)]
    points = [theta] + [theta + sign * e for e in (eps, eps / 2.0) for sign in signs]
    blocks0, *shifted = _model_blocks(model, points, derivative=False, decompose=False)
    if not signs:
        raise DomainError(f"no room around theta={theta} in the domain of {model.name}")
    roots0 = [None if np.shape(a) == (2, 2) else _sqrt_psd(a) for _, a, *_ in blocks0]

    def quotient(e: float, sides: list) -> float:
        total = 0.0
        for blocks in sides:
            gap = 1.0 - _direct_sum_fidelity(blocks0, roots0, blocks)
            if gap < _UNDERFLOW_TOL:
                raise StepSizeError(
                    f"1 - fidelity = {gap:.3e} underflows at eps={e:g}; increase eps"
                )
            total += 2.0 * gap / e**2
        return total / len(sides)

    pair = [quotient(eps, shifted[: len(signs)]), quotient(eps / 2.0, shifted[len(signs) :])]
    if len(signs) == 2:
        return _even_richardson(pair)
    return float(richardson_limit(pair)[-1])


@dataclass(frozen=True)
class LimitEstimate:
    """Extrapolated one-sided limit with its convergence estimate."""

    value: float
    error: float
    thetas: np.ndarray
    qfi_values: np.ndarray


def qfi_limit(model, theta_bar: float, side: str | None = None) -> LimitEstimate:
    """Limit of the QFI as theta -> theta_bar from one side.

    Samples theta_bar +/- LIMIT_H0 * 2**-k for k = 0..LIMIT_STEPS-1,
    extrapolates with a Richardson tableau, and raises ``DivergenceError``
    when successive extrapolants disagree beyond LIMIT_REL_TOL relative
    (the signature of a second-kind discontinuity or singular metric).
    Without a ``side`` the limit is taken from above when
    theta_bar + LIMIT_H0 lies in the domain, and from below otherwise.
    """
    if side is None:
        side = "above" if model.in_domain(theta_bar + LIMIT_H0) else "below"
    if side not in ("above", "below"):
        raise InvalidInputError(f"side must be 'above' or 'below', got {side!r}")
    sign = 1.0 if side == "above" else -1.0
    thetas = theta_bar + sign * LIMIT_H0 * 2.0 ** -np.arange(LIMIT_STEPS)
    for th in thetas:
        if not model.in_domain(th):
            raise DomainError(f"theta={th} outside the domain of {model.name} (side={side})")
    values = np.array([_direct_sum_qfi(terms) for terms in _model_blocks(model, thetas)])
    extrapolants = richardson_limit(values)
    diff = abs(extrapolants[-1] - extrapolants[-2])
    scale = max(abs(extrapolants[-1]), 1e-6)
    if diff > LIMIT_REL_TOL * scale:
        raise DivergenceError(
            f"QFI limit at theta_bar={theta_bar} ({side}) does not converge: "
            f"last extrapolants differ by {diff:.3e} (relative {diff / scale:.3e})",
            thetas=thetas,
            values=values,
        )
    return LimitEstimate(float(extrapolants[-1]), float(diff), thetas, values)
