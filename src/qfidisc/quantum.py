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
(``ParametricModel.blocks_fn``), as one group of arrays of equal-size
blocks: multiplicities (B,), blocks (B, d, d) and their analytic first
and second derivatives (B, d, d); a state with no structure is one block
of multiplicity 1.  The QFI splits over such a direct sum,
Q(rho) = sum_j m_j Q(A_j, A_j'), and the eigenvalues of the blocks are
those of the full matrix.  The support cut is relative to each
block: an eigenvalue counts when it exceeds SUPPORT_TOL times the largest
of its block, so no rank depends on a block's weight.

The metric reads the same spectrum (D. Safranek, Phys. Rev. A 95, 052320
(2017)).  The kernel of a block, its eigenvalues at or below the cut with
projector P_j, moves with speed v_j = tr(P_j A_j') and curvature

    a_j = tr(P_j A_j'') - 2 sum_{k in ker, l not in ker} |<k| A_j' |l>|^2 / lambda_l,

the sum of the vanishing eigenvalues' second derivatives by second-order
perturbation theory; the trace sums a degenerate kernel without splitting
it.  Then 4g = sum_j m_j (Q_j + 2 a_j): 4g = Q wherever the rank is full,
and 4g - Q is the QFI's jump at a rank change.  A kernel moves direction
by direction (degenerate perturbation theory): the eigenvectors of
P_j A_j' P_j whose eigenvalues exceed the block's speed bound move at
first order, and of the rest, those of the curvature part (the operator in
a_j's trace, restricted to them) whose eigenvalues exceed the curvature
bound move at second order.  ``_block_motion`` counts them; g is infinite
where one moves at first order, and ``discontinuity.classify`` takes its
kind and its rank beside theta_bar from the same counts.  No step is
taken.  The kernel is decided once per read (``BlockStack.support``);
``classify`` holds 4g against the fidelity expanded over each block's
support: the two agree up to the support cut and sum_j m_j tr A_j'' = 0,
which that check guards.  On a read where every block at every point has
full rank (``BlockStack.full_rank``) the metric is Q itself, and
``classify`` raises that there is no discontinuity, before any kernel
analysis.

Model-level routines read all their sample points in one stacked call
(``_model_blocks``): the blocks at every point and their two derivatives
form one (3, points, blocks, d, d) array, checked at once, the blocks are
eigendecomposed once, and each block's result equals the one it gets
when read alone, bit for bit.  The QFI, the metric and the vanishing
weight are then array expressions over that stack, summed over the
blocks of a point in block order.
``qfi_and_metric``, which ``qfi-scan`` calls once per grid, reads the
whole grid in one such call.  A read refuses a block with an eigenvalue
below -SUPPORT_TOL times its largest (``_decompose``) and raises
``NumericalError`` where its arithmetic overflows
(``_overflow_is_numerical``).  Every read checks its points against
``model.in_domain`` first, so ``blocks_fn`` never sees a theta outside
the domain; ``qfi-scan`` marks those rows and reads only the others.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .exceptions import (
    DivergenceError,
    DomainError,
    InvalidInputError,
    NumericalError,
)
from .numdiff import richardson_limit

# An eigenvalue at or below SUPPORT_TOL times the largest of its block (or
# density matrix) lies in the kernel.
SUPPORT_TOL = 1e-12
# A kernel direction moves at first order where its eigenvalue of P A' P
# exceeds SPEED_TOL, else at second order where its curvature eigenvalue
# exceeds ACCEL_TOL, each times its block's derivatives' size (``_block_motion``).
SPEED_TOL = 1e-6
ACCEL_TOL = 1e-6
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
    """Check that ``op`` is a finite Hermitian matrix, or a stack of them
    along its leading axes, within ``tol`` entrywise; returns it as a
    complex array."""
    op = np.asarray(op, dtype=complex)
    if op.ndim < 2 or op.shape[-2] != op.shape[-1]:
        raise InvalidInputError(f"{what} must be a square matrix, got shape {op.shape}")
    if not op.size:
        raise InvalidInputError(f"{what} has no entries, got shape {op.shape}")
    # Apart from the gap: a NaN gap passes `> tol`, and inf - inf would warn.
    if not np.isfinite(op).all():
        raise InvalidInputError(f"{what} has a non-finite entry")
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
    itself.  An eigenvalue below -SUPPORT_TOL times the largest of its
    matrix is an ``InvalidInputError``: only rounding is clamped."""
    try:
        lam, vecs = np.linalg.eigh(stack)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise NumericalError(f"eigensolver failed: {exc}") from exc
    # Ascending: each matrix's least eigenvalue first, its largest last.  A
    # negative one below the cut needs a negative least: test that first.
    least = lam[..., 0]
    if least.min() < 0.0 and (negative := least < -SUPPORT_TOL * lam[..., -1]).any():
        low, high = lam[negative][0, [0, -1]]
        raise InvalidInputError(
            f"a block has eigenvalue {low:.3e}, below -{SUPPORT_TOL:g} times its largest "
            f"{high:.3e}: not positive semidefinite"
        )
    return np.maximum(lam[..., ::-1], 0.0), vecs[..., ::-1]


def _on_support(lam: np.ndarray) -> np.ndarray:
    """Which eigenvalues of descending spectra exceed SUPPORT_TOL times the first."""
    return lam > SUPPORT_TOL * lam[..., :1]


def spectral_decompose(rho: np.ndarray) -> SpectralData:
    """Eigendecompose a density matrix, descending order, clamped spectrum.

    A negative eigenvalue is refused (``InvalidInputError``) unless it lies
    within SUPPORT_TOL times the largest, where it is clamped to 0.
    """
    lam, vecs = _decompose(validate_density_matrix(rho))
    return SpectralData(lam, vecs, int(_on_support(lam).sum()))


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
    The closed form stays because the eigen path is less accurate near
    F = 1: through it, the fidelity quotient that the tests hold the GHZ
    metric against misses their 1e-5 relative tolerance.
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
# blocks_fn(theta) and in_domain(theta); see models.py.  These read its
# blocks and their two derivatives alone and never differentiate a state.
# ---------------------------------------------------------------------------


class BlockStack(NamedTuple):
    """The blocks of a direct sum at every point of a ``_model_blocks`` read.

    Arrays carry the point on their first axis and the block on the second:
    ``blocks`` are (P, B, d, d), ``derivatives`` (2, P, B, d, d) their first
    and second derivatives, ``eigenvalues`` (P, B, d), descending and
    clamped to >= 0, ``eigenvectors`` (P, B, d, d) with matching columns,
    and ``support`` (P, B, d) is True for the eigenvalues on the support
    (``_on_support``).  ``multiplicities`` (B,), int64, hold at every
    point.
    """

    multiplicities: np.ndarray
    blocks: np.ndarray
    derivatives: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    support: np.ndarray

    @property
    def ranks(self) -> np.ndarray:
        """(P, B) effective ranks: eigenvalues on the support per block."""
        return self.support.sum(axis=-1)

    @property
    def full_rank(self) -> bool:
        """Whether every block at every point has its last eigenvalue on the
        support: full rank, no kernel for ``_block_motion`` to read."""
        return bool(self.support[..., -1].all())


def _point_sums(terms: np.ndarray) -> np.ndarray:
    """Sum (..., B) terms over the blocks, per point, left to right in block
    order (the order a running total over the blocks takes)."""
    return np.cumsum(terms, axis=-1)[..., -1]


def _stack_points(reads: list) -> tuple[np.ndarray, np.ndarray]:
    """Every point's direct sum, stacked on a point axis: the multiplicities,
    and one (3, P, B, d, d) array of the blocks and their first and second
    derivatives."""
    if not all(isinstance(read, tuple) and len(read) == 4 for read in reads):
        raise InvalidInputError(
            "a direct sum must be the 4-tuple (multiplicities, blocks, first, second)"
        )
    if any(array is None for read in reads for array in read[1:]):
        raise InvalidInputError("a direct sum lacks its blocks or their first or second derivative")
    try:
        mults = np.array([read[0] for read in reads])
        kinds = [[read[j] for read in reads] for j in (1, 2, 3)]
        try:
            stack = np.array(kinds, dtype=complex)
        except ValueError:  # the kinds differ in shape; the check below says so
            stack = [np.array(kind, dtype=complex) for kind in kinds]
    except ValueError:  # ragged: the point reads differ in shape
        raise InvalidInputError("block structure differs between points") from None
    except TypeError:  # an object entry that complex() does not take
        raise InvalidInputError("a block or derivative has an entry that is not a number") from None
    blocks = stack[0]
    if blocks.ndim != 4:
        raise InvalidInputError(f"blocks must be a (B, d, d) array, got shape {blocks.shape[1:]}")
    if mults.ndim != 2 or blocks.shape[:2] != mults.shape:
        raise InvalidInputError("block and multiplicity counts differ")
    if len(reads) > 1 and (mults != mults[0]).any():
        raise InvalidInputError("block multiplicities differ between points")
    mults = mults[0]
    # Ranks are weighted in int64, since int64 times uint64 is float64; a
    # uint64 past 2**63 - 1 wraps below 1 there.
    if not mults.size or mults.dtype.kind not in "iu" or (mults.astype(np.int64) < 1).any():
        raise InvalidInputError(f"multiplicities {mults.tolist()} are not integers in [1, 2**63)")
    if any(a.shape != blocks.shape for a in stack):
        raise InvalidInputError("state and derivative dimensions differ")
    return mults.astype(np.int64, copy=False), stack


# Each kind of a stack, the blocks and their two derivatives, by its name in
# errors.  The blocks, trace-normalized, are held to _HERMITIAN_TOL; each
# derivative, Hermitian only up to a rounding that grows with it, to
# _DERIVATIVE_GAP * eps * d times its largest entry over the stack, so the
# check does not depend on the scale of theta.  _DERIVATIVE_GAP is the
# largest gap measured in those units, 11.76, rounded up: over 80400
# derivatives of tests/helpers.rotation_model (d = 2-8, seeds 0-399, read
# at theta = s phi for s = 1e-8..1e8) and GHZ blocks rotated by random
# unitaries (N = 6-24).
_KINDS = ("density block", "state derivative", "state derivative")
_DERIVATIVE_GAP = 12.0


def _check_hermitian(stack: np.ndarray) -> None:
    """``validate_hermitian`` on each kind of a (3, P, B, d, d) stack in
    turn, at its tolerance (``_KINDS``).  A stack whose blocks are within
    1e-12 and whose derivatives have no gap at all, as every built-in
    model's, passes on one finiteness test and one gap per kind; any other
    is checked kind by kind, to pass within the tolerances its sizes give
    or to raise the first failure with its message."""
    if stack.shape[-2] == stack.shape[-1] and stack.size and np.isfinite(stack).all():
        # Finite first: the gap of an inf entry would be inf - inf; an empty
        # stack has no gap, and validate_hermitian says so.
        gaps = np.abs(stack - _dagger(stack)).max(axis=(1, 2, 3, 4))
        if gaps[0] <= _HERMITIAN_TOL and not gaps[1:].any():
            return
    sizes = np.abs(stack[1:]).max(axis=(1, 2, 3, 4), initial=0.0)
    gap = _DERIVATIVE_GAP * np.finfo(float).eps * stack.shape[-1]
    for kind, what, tol in zip(stack, _KINDS, [_HERMITIAN_TOL, *(gap * sizes).tolist()]):
        validate_hermitian(kind, tol, what)


def _checked_blocks(reads: list) -> BlockStack:
    """Per-point direct sums (each the 4-tuple ``blocks_fn`` returns) as one
    checked ``BlockStack``, with the points on its first axis in the order
    of ``reads``.

    The stack is read at once: one check that every read is a 4-tuple with
    the same positive integer multiplicities at every point, one
    Hermiticity check of the blocks (within 1e-12) and their two
    derivatives (relative to their size, ``_KINDS``) stacked together
    (``_check_hermitian``), one trace per block, and one eigendecomposition,
    which refuses a negative eigenvalue (``_decompose``).  At every point
    the weighted traces must sum to 1 within 1e-10, summed in block order.
    """
    mults, stack = _stack_points(reads)
    _check_hermitian(stack)
    blocks = stack[0]
    for total in _point_sums(mults * blocks.trace(axis1=-2, axis2=-1).real).tolist():
        if abs(total - 1.0) > _TRACE_TOL:
            raise InvalidInputError(
                f"density matrix trace {total} differs from 1 beyond {_TRACE_TOL:g}"
            )
    lam, vecs = _decompose(blocks)
    return BlockStack(mults, blocks, stack[1:], lam, vecs, _on_support(lam))


def _model_blocks(model, thetas) -> BlockStack:
    """The state at each of ``thetas`` as a checked direct sum
    (``_checked_blocks``) of ``model.blocks_fn(theta)``, the blocks with
    their first and second derivatives.  The one domain check of every
    model-level read: the first theta outside ``model.in_domain`` is a
    ``DomainError``, raised before ``blocks_fn`` is called."""
    for theta in thetas:
        if not model.in_domain(theta):
            raise DomainError(f"theta={theta} outside the domain of {model.name}")
    return _checked_blocks([model.blocks_fn(theta) for theta in thetas])


def _overflow_is_numerical(fn):
    """``fn`` with numpy's overflow raised as a ``NumericalError`` that names
    it: the inf an overflow leaves is no QFI and no metric.  Wraps each
    model-level read whole, so the read's own arithmetic is covered."""

    @functools.wraps(fn)
    def checked(*args, **kwargs):
        try:
            with np.errstate(over="raise"):
                return fn(*args, **kwargs)
        except FloatingPointError as exc:
            raise NumericalError(f"{fn.__name__}: {exc}") from None

    return checked


def _weighted_ranks(st: BlockStack) -> np.ndarray:
    """(P,) int64 effective ranks of the whole state, weighted by multiplicity."""
    return st.ranks @ st.multiplicities


def _in_eigenbasis(st: BlockStack, ops: np.ndarray) -> np.ndarray:
    """(..., P, B, d, d) operators on the blocks, in each block's eigenbasis."""
    return _dagger(st.eigenvectors) @ ops @ st.eigenvectors


def _pair_quotients(st: BlockStack, d_eig: np.ndarray) -> np.ndarray:
    """|A'_kl|^2 / (lambda_k + lambda_l) per point and block (P, B, d, d),
    from the first derivatives in the eigenbases ``d_eig``, over the pairs
    on the support: sums above 2 SUPPORT_TOL times the block's largest
    eigenvalue; 0 elsewhere."""
    lam = st.eigenvalues
    denom = lam[..., :, None] + lam[..., None, :]
    mask = denom > 2.0 * SUPPORT_TOL * lam[..., :1, None]
    return np.divide(np.abs(d_eig) ** 2, denom, out=np.zeros(denom.shape), where=mask)


def _block_qfis(quotients: np.ndarray) -> np.ndarray:
    """The blocks' QFIs (P, B), Q = 2 sum |A'_kl|^2 / (lambda_k + lambda_l),
    from their ``_pair_quotients``."""
    return 2.0 * quotients.reshape(*quotients.shape[:-2], -1).sum(axis=-1)


def _direct_sum_qfi(st: BlockStack) -> np.ndarray:
    """sum_j m_j Q(B_j, dB_j) at every point of a ``_model_blocks`` read."""
    d_eig = _in_eigenbasis(st, st.derivatives[0])
    return _point_sums(st.multiplicities * _block_qfis(_pair_quotients(st, d_eig)))


def _speed_bound(st: BlockStack) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per point and block of a read: SPEED_TOL (|A'| +
    sqrt(lambda_max |A''|)), the speed a kernel must exceed to move at
    first order, with |A'| and |A''|, |.| the largest absolute entry."""
    d1, d2 = np.abs(st.derivatives).max(axis=(-2, -1))
    return SPEED_TOL * (d1 + np.sqrt(st.eigenvalues[..., 0] * d2)), d1, d2


def _kind(first, second) -> str:
    """The Fisher information's behaviour where a vanishing eigenvalue or
    probability moves at first order, else at second, else not at all."""
    return "second-kind" if first else "jump" if second else "continuous"


def _block_motion(st: BlockStack) -> tuple:
    """Per point and block of a read: A' and A'' in the eigenbasis,
    the QFIs, v and a (the traces of P A' P and of the curvature part
    P (A'' - 2 A' A^+ A') P, A^+ the inverse on the support), the QFIs'
    ``_pair_quotients``, the (2, P, B) bounds, and the (2, P, B) counts of
    the kernel directions that move at first and at second order (see the
    module docstring).  With |.| the largest absolute entry, the bounds
    ``_speed_bound`` and ACCEL_TOL (|A''| + |A'|^2 / lambda_min) scale with
    theta as what they bound, are 0 for a block constant in theta, and by
    the speed bound's sqrt term keep a rounded A' = 0 (trig at pi/2) from
    reading as motion.  Each is formed once: a one-point read of a rank
    change takes Q, the speed bound and the fidelity's quotients from here
    alone."""
    d_eig, d2_eig = _in_eigenbasis(st, st.derivatives)
    quotients = _pair_quotients(st, d_eig)
    lam, support = st.eigenvalues, st.support
    inverse = np.divide(1.0, lam, out=np.zeros(lam.shape), where=support)
    curvature = d2_eig - 2.0 * d_eig @ (inverse[..., :, None] * d_eig)
    on_kernel = ~(support[..., :, None] | support[..., None, :])
    parts = np.where(on_kernel, [d_eig, curvature], 0.0)
    speed_bound, d1, d2 = _speed_bound(st)
    # 1 / lambda_min is the largest entry of A^+, and 0 with no support.
    bounds = np.array([speed_bound, ACCEL_TOL * (d2 + d1**2 * inverse.max(axis=-1))])
    w, u = np.linalg.eigh(parts[0])
    first = np.abs(w) > speed_bound[..., None]
    still = u * ~first[..., None, :]
    r = np.linalg.eigvalsh(_dagger(still) @ parts[1] @ still)
    counts = np.array([first.sum(axis=-1), (np.abs(r) > bounds[1][..., None]).sum(axis=-1)])
    v, a = parts.trace(axis1=-2, axis2=-1).real
    return d_eig, d2_eig, _block_qfis(quotients), v, a, quotients, bounds, counts


def _direct_sum_metric(st: BlockStack) -> tuple[np.ndarray, np.ndarray]:
    """Q and 4g = sum_j m_j (Q_j + 2 a_j) at every point of a read;
    4g is inf where a kernel direction moves at first order.

    The kernel analysis (``_block_motion``) runs only on a read that has a
    kernel: at full rank every a_j is 0, so 4g is Q, bit for bit."""
    if st.full_rank:
        q = _direct_sum_qfi(st)
        return q, q
    _, _, q, _, curvature, _, _, counts = _block_motion(st)
    four_g = _point_sums(st.multiplicities * (q + 2.0 * curvature))
    return _point_sums(st.multiplicities * q), np.where(counts[0].any(axis=-1), np.inf, four_g)


@_overflow_is_numerical
def qfi(rho: np.ndarray, drho: np.ndarray) -> float:
    """Quantum Fisher information of a state and its derivative: the direct
    sum of one block of multiplicity 1, read as ``model_qfi`` reads it,
    with a zero second derivative, which the QFI does not read."""
    rho, drho = np.asarray(rho), np.asarray(drho)
    if rho.ndim != 2 or drho.ndim != 2:
        raise InvalidInputError(
            f"state and derivative must be matrices, got shapes {rho.shape} and {drho.shape}"
        )
    one = (np.ones(1, dtype=int), rho[None], drho[None], np.zeros_like(drho[None]))
    return float(_direct_sum_qfi(_checked_blocks([one]))[0])


@_overflow_is_numerical
def model_qfi(model, theta: float) -> float:
    """QFI of a parametric model at a point: sum_j m_j Q(B_j, dB_j) over its blocks."""
    return float(_direct_sum_qfi(_model_blocks(model, [theta]))[0])


@_overflow_is_numerical
def bures_metric_fd(model, theta: float) -> float:
    """Bures metric coefficient g of 2 [1 - F] at theta, with no step.

    The name is historical: g was once a finite-difference quotient of the
    fidelity.  It is now 4g = sum_j m_j (Q_j + 2 a_j) from one read of the
    blocks and their first two derivatives at theta (see the module
    docstring): Q / 4 where the rank is full, the continuous limit of Q / 4
    at a rank change whose kernel stands still, and inf where it moves.
    """
    return float(_direct_sum_metric(_model_blocks(model, [theta]))[1][0]) / 4.0


@_overflow_is_numerical
def qfi_and_metric(model, thetas) -> list[tuple[float, float]]:
    """(Q, g) at each of ``thetas``: ``model_qfi`` and ``bures_metric_fd``,
    bit for bit, from one read of every theta.  The kernel analysis
    runs only where the read has a kernel somewhere on the grid; a grid of
    full rank gives 4g = Q from the QFI sum alone.

    An error at any point fails the whole call: a theta outside the
    model's domain is a ``DomainError`` before any block is built.
    """
    qfis, four_gs = _direct_sum_metric(_model_blocks(model, thetas))
    return [(q, four_g / 4.0) for q, four_g in zip(qfis.tolist(), four_gs.tolist())]


@dataclass(frozen=True)
class LimitEstimate:
    """Extrapolated one-sided limit with its convergence estimate.

    ``error`` is the gap between the last two Richardson extrapolants, a
    convergence test, not a bound on the error of ``value``: over a sweep of
    720 GHZ cases at theta = 0 (N = 1..24, six kappa t, five kappa) the gap
    understates the distance to the closed-form limit more than ten-fold in
    562 of the 677 cases that converge.
    """

    value: float
    error: float
    thetas: np.ndarray
    qfi_values: np.ndarray


@_overflow_is_numerical
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
    the domain is a ``DomainError``.  The reported ``error`` is that last
    gap between extrapolants, which is not an error bound
    (``LimitEstimate``).
    """
    if side is None:
        side = "above" if model.in_domain(theta_bar + LIMIT_H0) else "below"
    if side not in ("above", "below"):
        raise InvalidInputError(f"side must be 'above' or 'below', got {side!r}")
    sign = 1.0 if side == "above" else -1.0
    thetas = theta_bar + sign * LIMIT_H0 * 2.0 ** -np.arange(LIMIT_STEPS)
    st = _model_blocks(model, thetas)
    ranks = _weighted_ranks(st)
    if (ranks != ranks[0]).any():
        raise NumericalError(
            f"QFI limit at theta_bar={theta_bar} ({side}): the effective rank differs "
            f"between the samples (ranks {ranks.tolist()})"
        )
    values = _direct_sum_qfi(st)
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
