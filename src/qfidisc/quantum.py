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
* ``qfi_and_metric``: the QFI and that metric at every point of a grid.
* ``qfi_limit``: one-sided limit of the QFI along a step-halving sequence,
  with divergence detection for singular-metric points.

Model-level helpers work on direct sums.  Every model supplies its state
as unnormalized blocks A_j, each repeated m_j times
(``ParametricModel.blocks_fn``), as arrays: one group per block size of
multiplicities (B,), blocks (B, d, d) and, when asked for, their analytic
derivatives (B, d, d); a state with no structure is one block of
multiplicity 1.  The QFI and the Uhlmann fidelity both split over such a
direct sum:
for rho = (+)_j m_j A_j and sigma = (+)_j m_j B_j,

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
(``_model_blocks``): each group's blocks at every point form one
(points, blocks, d, d) array, checked and eigendecomposed once, and each
block's result equals the one it gets when read alone, bit for bit.  The
QFI, the fidelity and the vanishing weight are then array expressions
over those stacks, summed over the blocks of a point in block order.
``qfi_and_metric``, which ``qfi-scan`` calls once per grid, reads in two
such calls however long the grid: its points with derivatives for the
QFI, then the metric's shifted points of every row.  Where either read
fails, ``qfi-scan`` reads each row alone, so that each failing row keeps
its own error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

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
# The finite-difference step of bures_metric_fd by default and of qfi_and_metric.
METRIC_EPS = 1e-4


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
    if np.abs(op - op.conj().swapaxes(-1, -2)).max() > tol:
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


def _decompose(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecompose a stack of Hermitian PSD matrices of any trace (states
    or blocks) in one call: the eigenvalues descending and clamped to >= 0,
    and the eigenvectors as columns.  LAPACK solves each matrix of the
    stack as it would alone, so every result equals that of its matrix by
    itself."""
    try:
        lam, vecs = np.linalg.eigh(stack)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise NumericalError(f"eigensolver failed: {exc}") from exc
    return np.maximum(lam[..., ::-1], 0.0), vecs[..., ::-1]


def _support_rank(lam: np.ndarray) -> np.ndarray:
    """Counts of eigenvalues above SUPPORT_TOL along the last axis."""
    return (lam > SUPPORT_TOL).sum(axis=-1)


def spectral_decompose(rho: np.ndarray) -> SpectralData:
    """Eigendecompose a density matrix, descending order, clamped spectrum."""
    lam, vecs = _decompose(validate_density_matrix(rho))
    return SpectralData(lam, vecs, int(_support_rank(lam)))


def _dagger(op: np.ndarray) -> np.ndarray:
    return op.conj().swapaxes(-1, -2)


def _sqrt_psd(rho: np.ndarray) -> np.ndarray:
    lam, vecs = np.linalg.eigh(rho)
    lam = np.sqrt(np.maximum(lam, 0.0))
    return (vecs * lam[..., None, :]) @ _dagger(vecs)


def _det2(a: np.ndarray) -> np.ndarray:
    """Determinants of Hermitian 2x2 matrices, clamped to >= 0."""
    off = a[..., 0, 1]
    return np.maximum((a[..., 0, 0] * a[..., 1, 1]).real - np.hypot(off.real, off.imag) ** 2, 0.0)


def _block_fidelity(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """tr sqrt(sqrt(a) b sqrt(a)) for PSD a, b of any trace, unclamped,
    over stacks of matrices that broadcast against each other.

    2x2 blocks use the closed form sqrt(tr ab + 2 sqrt(det a det b));
    larger ones explicit eigendecompositions with eigenvalue clamping,
    which stays well behaved for rank-deficient inputs.  The square root
    of a is taken once for every b it is paired with.
    """
    if a.shape[-2:] == (2, 2):
        # tr ab = sum_ij a_ij conj(b_ij) for Hermitian b: the dot product
        # of the flattened matrices, taken by matmul as vdot takes it.
        flat_b = b.conj().reshape(*b.shape[:-2], 1, 4)
        tr_ab = (flat_b @ a.reshape(*a.shape[:-2], 4, 1))[..., 0, 0].real
        return np.sqrt(np.maximum(tr_ab + 2.0 * np.sqrt(_det2(a) * _det2(b)), 0.0))
    sq = _sqrt_psd(a)
    inner = sq @ b @ sq
    w = np.linalg.eigvalsh((inner + _dagger(inner)) / 2.0)
    return np.sqrt(np.maximum(w, 0.0)).sum(axis=-1)


def fidelity(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Uhlmann fidelity tr sqrt(sqrt(rho) sigma sqrt(rho)), clamped to [0, 1]."""
    rho = validate_density_matrix(rho)
    sigma = validate_density_matrix(sigma)
    if rho.shape != sigma.shape:
        raise InvalidInputError(f"dimension mismatch: {rho.shape} vs {sigma.shape}")
    return min(max(float(_block_fidelity(rho, sigma)), 0.0), 1.0)


def _overlaps(lam: np.ndarray, vecs: np.ndarray, drho: np.ndarray):
    """drho in the eigenbasis, the eigenvalue pair sums, and the pairs on the
    support, for one matrix or a stack."""
    d_eig = _dagger(vecs) @ drho @ vecs
    denom = lam[..., :, None] + lam[..., None, :]
    return d_eig, denom, denom > SUPPORT_TOL


def _qfi_sum(d_eig, denom, mask) -> np.ndarray:
    """2 sum |d_eig|^2 / denom over the pairs on the support, per matrix."""
    terms = np.divide(np.abs(d_eig) ** 2, denom, out=np.zeros(denom.shape), where=mask)
    return 2.0 * terms.reshape(*denom.shape[:-2], -1).sum(axis=-1)


def _spectral_overlaps(rho, drho):
    drho = validate_hermitian(drho, 1e-10, "state derivative")
    if np.shape(rho) != drho.shape:
        raise InvalidInputError("state and derivative dimensions differ")
    if np.max(np.abs(rho)) <= SUPPORT_TOL:
        raise DegenerateModelError("no eigenvalue pair above tolerance; state has no weight")
    spect = spectral_decompose(rho)
    d_eig, denom, mask = _overlaps(spect.eigenvalues, spect.eigenvectors, drho)
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
    return float(_qfi_sum(d_eig, denom, mask))


# ---------------------------------------------------------------------------
# Model-level helpers.  A "model" is any object exposing
# blocks_fn(theta, derivative) and in_domain(theta); see models.py.  These
# read its blocks alone and never differentiate a state.
# ---------------------------------------------------------------------------


class BlockStack(NamedTuple):
    """The blocks of one size at every point of a ``_model_blocks`` read.

    Arrays carry the point on their first axis and the block on the second:
    ``blocks`` and ``dblocks`` are (P, B, d, d), ``eigenvalues`` (P, B, d),
    descending and clamped to >= 0, and ``eigenvectors`` (P, B, d, d) with
    matching columns.  ``multiplicities`` (B,) holds at every point.  Fields
    a read did not ask for are None.
    """

    multiplicities: np.ndarray
    blocks: np.ndarray
    dblocks: np.ndarray | None
    eigenvalues: np.ndarray | None
    eigenvectors: np.ndarray | None

    @property
    def ranks(self) -> np.ndarray:
        """(P, B) effective ranks: eigenvalues above SUPPORT_TOL per block."""
        return _support_rank(self.eigenvalues)

    def at(self, points) -> BlockStack:
        """The same blocks at a subset of the points (an index list or a slice)."""
        mults, *arrays = self
        return BlockStack(mults, *(None if a is None else a[points] for a in arrays))


def _columns(columns: list) -> np.ndarray:
    """(P, B_k) arrays side by side: one column per block, in block order."""
    return columns[0] if len(columns) == 1 else np.concatenate(columns, axis=-1)


def _point_sums(columns: list) -> np.ndarray:
    """Sum (P, B_k) arrays over all their columns, per point, left to right in
    block order (the order a running total over the blocks takes)."""
    return np.cumsum(_columns(columns), axis=-1)[..., -1]


def _stack_groups(reads: list, k: int, derivative: bool):
    """Group k of every point's direct sum, stacked on a point axis."""
    groups = [read[k] for read in reads]
    if not all(isinstance(group, tuple) and len(group) == 3 for group in groups):
        raise InvalidInputError("a block group must be (multiplicities, blocks, derivatives)")
    try:
        mults = np.array([group[0] for group in groups])
        blocks = np.array([group[1] for group in groups], dtype=complex)
        dblocks = np.array([group[2] for group in groups], dtype=complex) if derivative else None
    except ValueError:  # ragged: the point reads differ in shape
        raise InvalidInputError("block structure differs between points") from None
    if mults.ndim != 2 or blocks.shape[:2] != mults.shape:
        raise InvalidInputError("block and multiplicity counts differ")
    if len(reads) > 1 and (mults != mults[0]).any():
        raise InvalidInputError("block multiplicities differ between points")
    mults = mults[0]
    if not mults.size or mults.dtype.kind not in "iu" or (mults < 1).any():
        raise InvalidInputError(f"multiplicities {mults.tolist()} are not positive integers")
    if derivative and dblocks.shape != blocks.shape:
        raise InvalidInputError("state and derivative dimensions differ")
    return mults, blocks, dblocks


def _model_blocks(model, thetas, derivative: bool = True, decompose: bool = True) -> list:
    """The state at each of ``thetas`` as a checked direct sum.

    Returns one ``BlockStack`` per block size, with the points on its
    first axis in the order of ``thetas``, from ``model.blocks_fn``.
    Without ``derivative`` no derivatives are asked for; without
    ``decompose`` no eigensolve is made.

    Each stack is read at once: one check that its groups are 3-tuples
    with the same positive integer multiplicities at every point, one
    Hermiticity check of its blocks (within 1e-12), one of their
    derivatives (within 1e-10), one trace per block, and one
    eigendecomposition.  At every theta the weighted traces must sum to 1
    within 1e-10, summed in block order.
    """
    reads = [model.blocks_fn(theta, derivative) for theta in thetas]
    if len({len(read) for read in reads}) > 1:
        raise InvalidInputError("block structure differs between points")
    if not reads[0]:
        raise InvalidInputError("the direct sum has no block groups")
    stacks, weighted_traces = [], []
    for k in range(len(reads[0])):  # one group per block size
        mults, blocks, dblocks = _stack_groups(reads, k, derivative)
        blocks = validate_hermitian(blocks, _HERMITIAN_TOL, "density block")
        if derivative:
            dblocks = validate_hermitian(dblocks, 1e-10, "state derivative")
        spectrum = _decompose(blocks) if decompose else (None, None)
        stacks.append(BlockStack(mults, blocks, dblocks, *spectrum))
        weighted_traces.append(mults * blocks.trace(axis1=-2, axis2=-1).real)
    for total in _point_sums(weighted_traces).tolist():
        if abs(total - 1.0) > _TRACE_TOL:
            raise InvalidInputError(
                f"density matrix trace {total} differs from 1 beyond {_TRACE_TOL:g}"
            )
    return stacks


def _direct_sum_qfi(stacks: list) -> np.ndarray:
    """sum_j m_j Q(B_j, dB_j) at every point of a ``_model_blocks`` read."""
    weighted, on_support = [], []
    for st in stacks:  # one per block size
        d_eig, denom, mask = _overlaps(st.eigenvalues, st.eigenvectors, st.dblocks)
        weighted.append(st.multiplicities * _qfi_sum(d_eig, denom, mask))
        # The eigenvalues descend: a block has a pair on the support iff its first is.
        on_support.append(mask[..., 0, 0])
    if not _columns(on_support).any(axis=-1).all():
        raise DegenerateModelError("no eigenvalue pair above tolerance; state has no weight")
    return _point_sums(weighted)


def model_qfi(model, theta: float) -> float:
    """QFI of a parametric model at a point: sum_j m_j Q(B_j, dB_j) over its blocks."""
    return float(_direct_sum_qfi(_model_blocks(model, [theta]))[0])


def _direct_sum_fidelity(at_theta: list, stacks: list) -> np.ndarray:
    """Uhlmann fidelity of the state with blocks ``at_theta`` (one (B, d, d)
    array per block size) with the state at each point of a read, clamped
    to [0, 1]."""
    per_block = [
        st.multiplicities * _block_fidelity(a, st.blocks) for a, st in zip(at_theta, stacks)
    ]
    return np.clip(_point_sums(per_block), 0.0, 1.0)


def _stencil(model, theta: float, eps: float) -> tuple[list, list]:
    """The metric's sides s = +1, -1 whose step theta + s*eps lies in the
    domain, and its points theta + s*e for e in (eps, eps/2), step by step."""
    signs = [s for s in (+1.0, -1.0) if model.in_domain(theta + s * eps)]
    return signs, [theta + sign * e for e in (eps, eps / 2.0) for sign in signs]


def _stencil_metric(model, theta: float, eps: float, signs: list, at_theta: list, stacks: list):
    """The metric coefficient at theta from its blocks ``at_theta`` and a read
    ``stacks`` of its ``_stencil`` points (see ``bures_metric_fd``)."""
    if not signs:
        raise DomainError(f"no room around theta={theta} in the domain of {model.name}")
    steps = [e for e in (eps, eps / 2.0) for _ in signs]
    gaps = 1.0 - _direct_sum_fidelity(at_theta, stacks)
    for gap, e in zip(gaps.tolist(), steps):
        if gap < _UNDERFLOW_TOL:
            raise StepSizeError(f"1 - fidelity = {gap:.3e} underflows at eps={e:g}; increase eps")
    quotients = 2.0 * gaps / np.array([e**2 for e in steps])
    pair = (np.sum(quotients.reshape(2, len(signs)), axis=-1) / len(signs)).tolist()
    if len(signs) == 2:
        return _even_richardson(pair)
    return float(richardson_limit(pair)[-1])


def bures_metric_fd(model, theta: float, eps: float = METRIC_EPS) -> float:
    """Metric coefficient of 2[1 - F] by finite differences.

    Averages the difference quotients on both sides of theta and
    extrapolates from eps and eps/2 with the Richardson steps of
    ``numdiff``.  The two-sided average has an error even in eps, removed
    by (4 q(eps/2) - q(eps)) / 3; on a domain edge the one-sided quotient
    has a first-order error, removed by 2 q(eps/2) - q(eps).  The fidelity
    is summed over the model's blocks, read at theta and every shifted
    point in one stacked call, without derivatives; the square root of
    each block at theta larger than 2x2 is taken once.
    """
    if eps <= 0:
        raise StepSizeError("eps must be positive")
    signs, points = _stencil(model, theta, eps)
    stacks = _model_blocks(model, [theta] + points, derivative=False, decompose=False)
    at_theta = [st.blocks[0] for st in stacks]
    shifted = [st.at(slice(1, None)) for st in stacks]
    return _stencil_metric(model, theta, eps, signs, at_theta, shifted)


def qfi_and_metric(model, thetas) -> list[tuple[float, float]]:
    """(Q, g) at each of ``thetas``: ``model_qfi`` and ``bures_metric_fd`` at
    its default eps, bit for bit, from two stacked reads however many
    points there are.

    The first read takes every theta with derivatives and eigensolves, for
    the QFI; the second every row's shifted points, without either.  Each
    row's fidelities pair its blocks from the first read with its own
    slice of the second.  An error at any point fails the whole call; a
    caller that wants each row's own outcome calls it again on ``[theta]``.
    """
    stacks = _model_blocks(model, thetas)
    qfis = _direct_sum_qfi(stacks).tolist()
    stencils = [_stencil(model, theta, METRIC_EPS) for theta in thetas]
    points = [p for _, row_points in stencils for p in row_points]
    shifted = _model_blocks(model, points, derivative=False, decompose=False) if points else []
    if shifted and _structure(shifted) != _structure(stacks):
        raise InvalidInputError("block structure differs between points")
    out, stop = [], 0
    for i, (theta, (signs, row_points)) in enumerate(zip(thetas, stencils)):
        row = slice(stop, stop + len(row_points))
        stop = row.stop
        at_theta = [st.blocks[i] for st in stacks]
        row_stacks = [st.at(row) for st in shifted]
        g = _stencil_metric(model, theta, METRIC_EPS, signs, at_theta, row_stacks)
        out.append((qfis[i], g))
    return out


def _structure(stacks: list) -> list:
    """The multiplicities and the block size of each group of a read."""
    return [(st.multiplicities.tolist(), st.blocks.shape[-1]) for st in stacks]


@dataclass(frozen=True)
class LimitEstimate:
    """Extrapolated one-sided limit with its convergence estimate."""

    value: float
    error: float
    thetas: np.ndarray
    qfi_values: np.ndarray


def _limit_points(model, theta_bar: float, side: str | None = None):
    """The side and the sample points of ``qfi_limit``; a ``DomainError``
    when a point lies outside the domain."""
    if side is None:
        side = "above" if model.in_domain(theta_bar + LIMIT_H0) else "below"
    if side not in ("above", "below"):
        raise InvalidInputError(f"side must be 'above' or 'below', got {side!r}")
    sign = 1.0 if side == "above" else -1.0
    thetas = theta_bar + sign * LIMIT_H0 * 2.0 ** -np.arange(LIMIT_STEPS)
    for th in thetas:
        if not model.in_domain(th):
            raise DomainError(f"theta={th} outside the domain of {model.name} (side={side})")
    return side, thetas


def _limit_estimate(theta_bar: float, side: str, thetas: np.ndarray, values: np.ndarray):
    """Extrapolate the QFI ``values`` at ``thetas`` to theta_bar (see ``qfi_limit``)."""
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


def qfi_limit(model, theta_bar: float, side: str | None = None) -> LimitEstimate:
    """Limit of the QFI as theta -> theta_bar from one side.

    Samples theta_bar +/- LIMIT_H0 * 2**-k for k = 0..LIMIT_STEPS-1,
    extrapolates with a Richardson tableau, and raises ``DivergenceError``
    when successive extrapolants disagree beyond LIMIT_REL_TOL relative
    (the signature of a second-kind discontinuity or singular metric).
    Without a ``side`` the limit is taken from above when
    theta_bar + LIMIT_H0 lies in the domain, and from below otherwise.
    """
    side, thetas = _limit_points(model, theta_bar, side)
    values = _direct_sum_qfi(_model_blocks(model, thetas))
    return _limit_estimate(theta_bar, side, thetas, values)
