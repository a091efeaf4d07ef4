"""Seed-independent reference values the benchmark's gates compare against.

The GHZ references never touch the dense 2^N path: they sum spectral QFIs
of the 2x2 blocks that ``models.ghz_blocks`` returns, weighted by block
multiplicity (the QFI of a direct sum of unnormalized blocks is the sum of
the block QFIs).  Block derivatives come from a five-point stencil on
``ghz_blocks`` itself, so no analytic derivative of the package is reused.
"""

from __future__ import annotations

import math

import numpy as np

from qfidisc import models


def _block_qfi(mat: np.ndarray, dmat: np.ndarray) -> float:
    lam, vec = np.linalg.eigh(mat)
    d = vec.conj().T @ dmat @ vec
    den = lam[:, None] + lam[None, :]
    # Relative support cut: blocks of large N carry tiny total weight.
    keep = den > 1e-10 * lam.max()
    return 2.0 * float(np.sum(np.abs(d[keep]) ** 2 / den[keep]))


def ghz_block_qfi(n_qubits: int, theta: float, kappa: float, t: float) -> float:
    """QFI of the evolved GHZ state as a weighted sum of 2x2 block QFIs."""
    h = 1e-4 * kappa
    stencil = [models.ghz_blocks(n_qubits, theta + k * h, kappa, t).blocks for k in (-2, -1, 1, 2)]
    total = 0.0
    for j, blk in enumerate(models.ghz_blocks(n_qubits, theta, kappa, t).blocks):
        m2, m1, p1, p2 = (s[j].matrix for s in stencil)
        dmat = (m2 - 8.0 * m1 + 8.0 * p1 - p2) / (12.0 * h)
        total += blk.multiplicity * _block_qfi(blk.matrix, dmat)
    return total


def ghz_qfi_limit_at_zero(n_qubits: int, kappa: float, t: float) -> float:
    """lim theta -> 0 of the block-sum QFI (four times the Bures metric).

    The QFI is even in theta, so two Richardson levels on theta = d, d/2,
    d/4 remove the theta^2 and theta^4 terms.
    """
    d = 0.02 * kappa
    q = [ghz_block_qfi(n_qubits, d / 2**k, kappa, t) for k in range(3)]
    r = [(4.0 * q[k + 1] - q[k]) / 3.0 for k in range(2)]
    return (16.0 * r[1] - r[0]) / 15.0


def transverse_acceleration(kappa: float, t: float) -> float:
    """Second derivative a of the vanishing eigenvalue of the transverse qubit at 0."""
    kt = kappa * t
    return (2.0 * kt + 4.0 * math.exp(-kt) - math.exp(-2.0 * kt) - 3.0) / (2.0 * kappa**2)


def transverse_qfi_at_zero(kappa: float, t: float) -> float:
    """QFI of the transverse qubit exactly at theta = 0."""
    return 4.0 * math.exp(-kappa * t) * math.sinh(kappa * t / 2.0) ** 2 / kappa**2
