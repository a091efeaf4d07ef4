"""Dense Hermitian linear algebra and quantum-information functionals.

Everything operates on plain complex ndarrays representing density
matrices (Hermitian, unit trace, positive semidefinite up to numerical
noise) and Hermitian operators such as parameter derivatives of a state.

The central objects:

* ``qfi``: quantum Fisher information from the spectral representation,
  Q = 2 sum_{lk+ll>0} |<lk| drho |ll>|^2 / (lk+ll); the one-block case of
  ``model_qfi``, read through the same checks and the same sum.
* ``fidelity``: Uhlmann fidelity tr sqrt(sqrt(rho) sigma sqrt(rho)).
* ``bures_metric_fd``: the metric coefficient g in
  2 [1 - F(rho_t, rho_{t+e})] = g e^2 + O(e^3), from the spectrum at t.
* ``qfi_and_metric``: the QFI and that metric at every point of a grid.
* ``qfi_limit``: one-sided limit of the QFI along a step-halving sequence,
  with divergence detection for singular-metric points.

Model-level helpers work on direct sums.  Every model supplies its state
as unnormalized blocks A_j, each repeated m_j times
(``ParametricModel.blocks_fn``), as arrays: one group per block size of
multiplicities (B,), blocks (B, d, d) and, up to the order asked for,
their analytic first and second derivatives (B, d, d); a state with no
structure is one block of multiplicity 1.  The QFI splits over such a
direct sum, Q(rho) = sum_j m_j Q(A_j, A_j'), and the eigenvalues of the
blocks are those of the full matrix.  The support cut is relative to each
block: an eigenvalue counts when it exceeds SUPPORT_TOL times the largest
of its block, so no rank depends on a block's weight.

The metric reads the same spectrum (D. Safranek, Phys. Rev. A 95, 052320
(2017)).  The kernel of a block, its eigenvalues at or below the cut with
projector P_j, moves with speed v_j = tr(P_j A_j') and curvature

    a_j = tr(P_j A_j'') - 2 sum_{k in ker, l not in ker} |<k| A_j' |l>|^2 / lambda_l,

the sum of the vanishing eigenvalues' second derivatives by second-order
perturbation theory; the trace sums a degenerate kernel without splitting
it.  Then 4g = sum_j m_j (Q_j + 2 a_j): 4g = Q wherever the rank is full,
and 4g - Q is the QFI's jump at a rank change.  Where |sum_j m_j v_j| is at
least SPEED_TOL the kernel moves at first order and g is infinite.  No
step is taken.

Model-level routines read all their sample points in one stacked call
(``_model_blocks``): each group's blocks at every point form one
(points, blocks, d, d) array, checked and eigendecomposed once, and each
block's result equals the one it gets when read alone, bit for bit.  The
QFI, the metric and the vanishing weight are then array expressions over
those stacks, summed over the blocks of a point in block order.
``qfi_and_metric``, which ``qfi-scan`` calls once per grid, reads the
whole grid in one such call.  Where it fails, ``qfi-scan`` reads each row
alone, so that each failing row keeps its own error.
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
)
from .numdiff import richardson_limit

# An eigenvalue at or below SUPPORT_TOL times the largest of its block (or
# density matrix) lies in the kernel.
SUPPORT_TOL = 1e-12
# A kernel speed |v| at or above this moves at first order: the metric is
# infinite there, and the discontinuity is of the second kind.  Finite-
# difference noise in v at the default step h = 1e-3 sits around 1e-8.
SPEED_TOL = 1e-6
# The one-sided QFI limit samples theta_bar +/- LIMIT_H0 * 2**-k for
# k < LIMIT_STEPS; its last two extrapolants must agree within
# LIMIT_REL_TOL relative.
LIMIT_STEPS = 6
LIMIT_H0 = 1e-2
LIMIT_REL_TOL = 1e-3
_HERMITIAN_TOL = 1e-12
_TRACE_TOL = 1e-10


@dataclass(frozen=True)
class SpectralData:
    """Eigendecomposition of a density matrix with an effective-rank cut.

    ``eigenvalues`` are clamped to >= 0 and sorted descending;
    ``eigenvectors[:, k]`` is the unit eigenvector of ``eigenvalues[k]``;
    ``effective_rank`` counts the eigenvalues above ``SUPPORT_TOL`` times
    the largest.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    effective_rank: int


def validate_hermitian(op: np.ndarray, tol: float = 1e-10, what: str = "operator") -> np.ndarray:
    """Check that ``op`` is a Hermitian matrix, or a stack of them along its
    leading axes, within ``tol`` entrywise; returns it as a complex array."""
    op = np.asarray(op, dtype=complex)
    if op.ndim < 2 or op.shape[-2] != op.shape[-1]:
        raise InvalidInputError(f"{what} must be a square matrix, got shape {op.shape}")
    if np.abs(op - op.conj().swapaxes(-1, -2)).max() > tol:
        raise InvalidInputError(f"{what} is not Hermitian within {tol:g}")
    return op


def validate_density_matrix(rho: np.ndarray) -> np.ndarray:
    """Check the density-matrix contract; returns the array unchanged.

    Hermiticity within 1e-12 and unit trace within 1e-10; positivity is
    not checked, since it costs a full eigensolve.
    """
    if np.ndim(rho) != 2:
        shape = np.shape(rho)
        raise InvalidInputError(f"density matrix must be a square matrix, got shape {shape}")
    rho = validate_hermitian(rho, _HERMITIAN_TOL, "density matrix")
    tr = np.trace(rho)
    if abs(tr - 1.0) > _TRACE_TOL:
        raise InvalidInputError(f"density matrix trace {tr} differs from 1 beyond {_TRACE_TOL:g}")
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
    """Counts of eigenvalues above SUPPORT_TOL times the largest, along the
    last axis of descending spectra."""
    return (lam > SUPPORT_TOL * lam[..., :1]).sum(axis=-1)


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
    """tr sqrt(sqrt(a) b sqrt(a)) for PSD a, b, unclamped.

    2x2 matrices use the closed form sqrt(tr ab + 2 sqrt(det a det b)),
    exact for PSD a and b; larger ones explicit eigendecompositions with
    eigenvalue clamping, which stays well behaved for rank-deficient inputs.
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


# ---------------------------------------------------------------------------
# Model-level helpers.  A "model" is any object exposing
# blocks_fn(theta, order) and in_domain(theta); see models.py.  These
# read its blocks alone and never differentiate a state.
# ---------------------------------------------------------------------------


class BlockStack(NamedTuple):
    """The blocks of one size at every point of a ``_model_blocks`` read.

    Arrays carry the point on their first axis and the block on the second:
    ``blocks`` and their first and second derivatives ``dblocks`` and
    ``d2blocks`` are (P, B, d, d), ``eigenvalues`` (P, B, d), descending and
    clamped to >= 0, and ``eigenvectors`` (P, B, d, d) with matching
    columns.  ``multiplicities`` (B,) holds at every point.  Derivatives a
    read did not ask for are None.
    """

    multiplicities: np.ndarray
    blocks: np.ndarray
    dblocks: np.ndarray | None
    d2blocks: np.ndarray | None
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def ranks(self) -> np.ndarray:
        """(P, B) effective ranks: eigenvalues above the support cut per block."""
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


def _stack_groups(reads: list, k: int, order: int) -> list:
    """Group k of every point's direct sum, stacked on a point axis: the
    multiplicities, the blocks and their derivatives up to ``order``, and
    None past it."""
    groups = [read[k] for read in reads]
    if not all(isinstance(group, tuple) and len(group) == 4 for group in groups):
        raise InvalidInputError("a block group must be (multiplicities, blocks, first, second)")
    if any(group[j] is None for group in groups for j in range(1, order + 2)):
        raise InvalidInputError(f"a block group lacks the derivatives of order <= {order}")
    try:
        mults = np.array([group[0] for group in groups])
        arrays = [
            np.array([group[j] for group in groups], dtype=complex) for j in range(1, order + 2)
        ]
    except ValueError:  # ragged: the point reads differ in shape
        raise InvalidInputError("block structure differs between points") from None
    blocks = arrays[0]
    if mults.ndim != 2 or blocks.shape[:2] != mults.shape:
        raise InvalidInputError("block and multiplicity counts differ")
    if len(reads) > 1 and (mults != mults[0]).any():
        raise InvalidInputError("block multiplicities differ between points")
    mults = mults[0]
    if not mults.size or mults.dtype.kind not in "iu" or (mults < 1).any():
        raise InvalidInputError(f"multiplicities {mults.tolist()} are not positive integers")
    if any(a.shape != blocks.shape for a in arrays):
        raise InvalidInputError("state and derivative dimensions differ")
    return [mults, *arrays, *[None] * (2 - order)]


def _checked_blocks(reads: list, order: int) -> list:
    """Per-point direct sums (each a list of block groups, as ``blocks_fn``
    returns them) as checked stacks: one ``BlockStack`` per block size,
    with the points on its first axis in the order of ``reads``.

    Each stack is read at once: one check that its groups are 4-tuples
    with the same positive integer multiplicities at every point, one
    Hermiticity check of its blocks (within 1e-12), one of each derivative
    up to ``order`` (within 1e-10), one trace per block, and one
    eigendecomposition.  At every point the weighted traces must sum to 1
    within 1e-10, summed in block order.
    """
    if len({len(read) for read in reads}) > 1:
        raise InvalidInputError("block structure differs between points")
    if not reads[0]:
        raise InvalidInputError("the direct sum has no block groups")
    stacks, weighted_traces = [], []
    for k in range(len(reads[0])):  # one group per block size
        mults, blocks, *derivatives = _stack_groups(reads, k, order)
        blocks = validate_hermitian(blocks, _HERMITIAN_TOL, "density block")
        derivatives = [
            None if d is None else validate_hermitian(d, 1e-10, "state derivative")
            for d in derivatives
        ]
        stacks.append(BlockStack(mults, blocks, *derivatives, *_decompose(blocks)))
        weighted_traces.append(mults * blocks.trace(axis1=-2, axis2=-1).real)
    for total in _point_sums(weighted_traces).tolist():
        if abs(total - 1.0) > _TRACE_TOL:
            raise InvalidInputError(
                f"density matrix trace {total} differs from 1 beyond {_TRACE_TOL:g}"
            )
    return stacks


def _model_blocks(model, thetas, order: int = 1) -> list:
    """The state at each of ``thetas`` as a checked direct sum
    (``_checked_blocks``), from ``model.blocks_fn`` asked for the
    derivatives up to ``order`` (0, 1 or 2)."""
    return _checked_blocks([model.blocks_fn(theta, order) for theta in thetas], order)


def _weighted_ranks(stacks: list) -> np.ndarray:
    """(P,) effective ranks of the whole state, weighted by multiplicity."""
    return sum((st.ranks * st.multiplicities).sum(axis=-1) for st in stacks)


def _block_qfis(stacks: list) -> list:
    """Per stack, the blocks' first derivatives in their eigenbases and
    their QFIs (P, B); a ``DegenerateModelError`` where a point has no
    eigenvalue pair on the support."""
    out, on_support = [], []
    for st in stacks:  # one per block size
        lam = st.eigenvalues
        d_eig = _dagger(st.eigenvectors) @ st.dblocks @ st.eigenvectors
        # Q = 2 sum |d_eig|^2 / (lk + ll) over the pairs on the support:
        # sums above 2 SUPPORT_TOL times the block's largest eigenvalue.
        denom = lam[..., :, None] + lam[..., None, :]
        mask = denom > 2.0 * SUPPORT_TOL * lam[..., :1, None]
        terms = np.divide(np.abs(d_eig) ** 2, denom, out=np.zeros(denom.shape), where=mask)
        out.append((d_eig, 2.0 * terms.reshape(*denom.shape[:-2], -1).sum(axis=-1)))
        # The eigenvalues descend: a block has a pair on the support iff its first is.
        on_support.append(mask[..., 0, 0])
    if not _columns(on_support).any(axis=-1).all():
        raise DegenerateModelError("no eigenvalue pair above tolerance; state has no weight")
    return out


def _direct_sum_qfi(stacks: list) -> np.ndarray:
    """sum_j m_j Q(B_j, dB_j) at every point of a ``_model_blocks`` read."""
    return _point_sums([st.multiplicities * q for st, (_, q) in zip(stacks, _block_qfis(stacks))])


def _kernel_motion(st: BlockStack, d_eig: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (P, B) speed v and curvature a of each block's kernel (see the
    module docstring); d_eig is the first derivative in the eigenbasis."""
    lam = st.eigenvalues
    kernel = np.arange(lam.shape[-1]) >= _support_rank(lam)[..., None]
    d2_eig = _dagger(st.eigenvectors) @ st.d2blocks @ st.eigenvectors
    speed = np.where(kernel, d_eig.diagonal(axis1=-2, axis2=-1).real, 0.0).sum(axis=-1)
    pairs = kernel[..., :, None] & ~kernel[..., None, :]
    coupling = np.divide(
        np.abs(d_eig) ** 2, lam[..., None, :], out=np.zeros(pairs.shape), where=pairs
    )
    curvature = np.where(kernel, d2_eig.diagonal(axis1=-2, axis2=-1).real, 0.0).sum(axis=-1)
    return speed, curvature - 2.0 * coupling.sum(axis=(-2, -1))


def _direct_sum_metric(stacks: list) -> tuple[np.ndarray, np.ndarray]:
    """Q and 4g = sum_j m_j (Q_j + 2 a_j) at every point of an order-2 read;
    4g is inf where |sum_j m_j v_j| >= SPEED_TOL."""
    qfis, four_gs, speeds = [], [], []
    for st, (d_eig, q) in zip(stacks, _block_qfis(stacks)):
        speed, curvature = _kernel_motion(st, d_eig)
        qfis.append(st.multiplicities * q)
        four_gs.append(st.multiplicities * (q + 2.0 * curvature))
        speeds.append(st.multiplicities * speed)
    moving = np.abs(_point_sums(speeds)) >= SPEED_TOL
    return _point_sums(qfis), np.where(moving, np.inf, _point_sums(four_gs))


def qfi(rho: np.ndarray, drho: np.ndarray) -> float:
    """Quantum Fisher information of a state and its derivative: the direct
    sum of one block of multiplicity 1, read as ``model_qfi`` reads it."""
    rho, drho = np.asarray(rho), np.asarray(drho)
    if rho.ndim != 2 or drho.ndim != 2:
        raise InvalidInputError(
            f"state and derivative must be matrices, got shapes {rho.shape} and {drho.shape}"
        )
    group = (np.ones(1, dtype=int), rho[None], drho[None], None)
    return float(_direct_sum_qfi(_checked_blocks([[group]], order=1))[0])


def model_qfi(model, theta: float) -> float:
    """QFI of a parametric model at a point: sum_j m_j Q(B_j, dB_j) over its blocks."""
    return float(_direct_sum_qfi(_model_blocks(model, [theta]))[0])


def bures_metric_fd(model, theta: float) -> float:
    """Bures metric coefficient g of 2 [1 - F] at theta, with no step.

    The name is historical: g was once a finite-difference quotient of the
    fidelity.  It is now 4g = sum_j m_j (Q_j + 2 a_j) from one read of the
    blocks and their first two derivatives at theta (see the module
    docstring): Q / 4 where the rank is full, the continuous limit of Q / 4
    at a rank change whose kernel stands still, and inf where it moves.
    """
    return float(_direct_sum_metric(_model_blocks(model, [theta], order=2))[1][0]) / 4.0


def qfi_and_metric(model, thetas) -> list[tuple[float, float]]:
    """(Q, g) at each of ``thetas``: ``model_qfi`` and ``bures_metric_fd``,
    bit for bit, from one order-2 read of every theta.

    An error at any point fails the whole call; a caller that wants each
    row's own outcome calls it again on ``[theta]``.
    """
    qfis, four_gs = _direct_sum_metric(_model_blocks(model, thetas, order=2))
    return [(q, four_g / 4.0) for q, four_g in zip(qfis.tolist(), four_gs.tolist())]


@dataclass(frozen=True)
class LimitEstimate:
    """Extrapolated one-sided limit with its convergence estimate."""

    value: float
    error: float
    thetas: np.ndarray
    qfi_values: np.ndarray


def qfi_limit(model, theta_bar: float, side: str | None = None) -> LimitEstimate:
    """Limit of the QFI as theta -> theta_bar from one side.

    Samples theta_bar +/- LIMIT_H0 * 2**-k for k = 0..LIMIT_STEPS-1, read
    in one stacked call, extrapolates with a Richardson tableau, and raises
    ``DivergenceError`` when successive extrapolants disagree beyond
    LIMIT_REL_TOL relative (the signature of a second-kind discontinuity or
    singular metric), and ``NumericalError`` when the samples' effective
    ranks differ, as they do where an inner one falls under the support
    cut.  Without a ``side`` the limit is taken from above when theta_bar +
    LIMIT_H0 lies in the domain, and from below otherwise; a sample outside
    the domain is a ``DomainError``.
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
    stacks = _model_blocks(model, thetas)
    ranks = _weighted_ranks(stacks)
    if (ranks != ranks[0]).any():
        raise NumericalError(
            f"QFI limit at theta_bar={theta_bar} ({side}): the effective rank differs "
            f"between the samples (ranks {ranks.tolist()})"
        )
    values = _direct_sum_qfi(stacks)
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
