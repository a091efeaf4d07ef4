"""Shared builders for randomized states and test-only model families."""

import dataclasses

import numpy as np

from qfidisc import quantum
from qfidisc.exceptions import DomainError
from qfidisc.models import ParametricModel, one_block


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Full-rank random density matrix (Wishart construction)."""
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T + 1e-3 * np.eye(dim)
    return rho / np.trace(rho).real


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2.0


def rotation_model(dim: int, seed: int) -> ParametricModel:
    """Smooth fixed-rank family: a random state conjugated by exp(-i theta H)."""
    rng = np.random.default_rng(seed)
    rho0 = random_density(dim, rng)
    ham = random_hermitian(dim, rng)
    w, v = np.linalg.eigh(ham)

    def state(theta: float) -> np.ndarray:
        u = (v * np.exp(-1j * theta * w)) @ v.conj().T
        return u @ rho0 @ u.conj().T

    def commutator(op: np.ndarray) -> np.ndarray:
        return ham @ op - op @ ham

    def derivative(theta: float) -> np.ndarray:
        return -1j * commutator(state(theta))

    def second(theta: float) -> np.ndarray:
        return -commutator(commutator(state(theta)))

    return ParametricModel(
        name=f"rotation-{dim}d", state_fn=state, blocks_fn=one_block(state, derivative, second)
    )


def diagonal_branch_model(branch, dbranch, d2branch, name="diagonal-branch") -> ParametricModel:
    """diag(q(theta), 1 - q(theta)) for a supplied scalar branch q and its
    derivatives dq/dtheta ``dbranch`` and d2q/dtheta2 ``d2branch``."""

    def state(theta: float) -> np.ndarray:
        q = branch(theta)
        if not 0.0 <= q <= 1.0:
            raise DomainError(f"branch value {q} outside [0, 1]")
        return np.diag([q, 1.0 - q]).astype(complex)

    def derivative(theta: float) -> np.ndarray:
        return dbranch(theta) * np.diag([1.0, -1.0]).astype(complex)

    def second(theta: float) -> np.ndarray:
        return d2branch(theta) * np.diag([1.0, -1.0]).astype(complex)

    return ParametricModel(
        name=name, state_fn=state, blocks_fn=one_block(state, derivative, second)
    )


def reparametrized(model, scale):
    """``model`` read at theta = scale * phi, as a family in phi, with its
    measurement and estimator where it has them."""

    def blocks(phi):
        mults, *arrays = model.blocks_fn(scale * phi)
        return (mults, *(scale**k * a for k, a in enumerate(arrays)))

    def p_first(phi):
        return model.p_first(scale * phi)

    def estimate(freq):
        return model.estimate(freq) / scale

    lo, hi = (bound / scale for bound in model.domain)
    return dataclasses.replace(
        model,
        blocks_fn=blocks,
        domain=(lo, hi),
        p_first=None if model.p_first is None else p_first,
        estimate=None if model.estimate is None else estimate,
    )


def bernoulli_family(theta: float):
    """Distribution factory for the coin with bias theta; domain [0, 1]."""
    from qfidisc.classical import Distribution

    if not 0.0 <= theta <= 1.0:
        raise DomainError(f"theta={theta} outside [0, 1]")
    return Distribution(("0", "1"), np.array([theta, 1.0 - theta]))


def count_reads(monkeypatch) -> list:
    """The number of points of every ``quantum._model_blocks`` call from now on."""
    reads = []
    model_blocks = quantum._model_blocks

    def counted(model, thetas, *args, **kwargs):
        reads.append(len(thetas))
        return model_blocks(model, thetas, *args, **kwargs)

    monkeypatch.setattr(quantum, "_model_blocks", counted)
    return reads
