"""Seeded random instances: states, coarse-grainings, refinements.

Density operators come from Wishart-style products G G^dag (full rank by
default, rank-deficient on request). Projective coarse-grainings draw a
Haar-distributed orthonormal frame and a random rank partition; POVMs
normalize a batch of random PSD matrices by the inverse square root of
their sum. All draws take an explicit numpy Generator so sweeps are
reproducible.
"""

from __future__ import annotations

import numpy as np

from .coarse_graining import CoarseGraining, merge_outcomes
from .operators import op_power


def random_density(rng: np.random.Generator, dim: int, rank: int | None = None):
    k = rank or dim
    g = rng.normal(size=(dim, k)) + 1j * rng.normal(size=(dim, k))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_rank_partition(rng: np.random.Generator, dim: int) -> list:
    ranks, left = [], dim
    while left > 0:
        r = int(rng.integers(1, left + 1))
        ranks.append(r)
        left -= r
    return ranks


def random_projective_cg(
    rng: np.random.Generator, dim: int, ranks=None
) -> CoarseGraining:
    if ranks is None:
        ranks = random_rank_partition(rng, dim)
    u = random_unitary(rng, dim)
    effects, j = [], 0
    for r in ranks:
        block = u[:, j : j + r]
        effects.append(block @ block.conj().T)
        j += r
    labels = tuple(str(i) for i in range(len(effects)))
    return CoarseGraining(labels, tuple(effects))


def random_rank1_projective_cg(rng: np.random.Generator, dim: int) -> CoarseGraining:
    return random_projective_cg(rng, dim, ranks=[1] * dim)


def random_povm(
    rng: np.random.Generator, dim: int, n_effects: int | None = None
) -> CoarseGraining:
    n = n_effects or int(rng.integers(2, dim + 3))
    raw = []
    for _ in range(n):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        raw.append((g @ g.conj().T) * rng.uniform(0.2, 1.0))
    total = sum(raw)
    inv_root = op_power(total, -0.5)
    effects = tuple(inv_root @ r @ inv_root for r in raw)
    labels = tuple(str(i) for i in range(n))
    return CoarseGraining(labels, effects)


def random_coarse_graining(rng: np.random.Generator, dim: int) -> CoarseGraining:
    if rng.uniform() < 0.5:
        return random_projective_cg(rng, dim)
    return random_povm(rng, dim)


def random_merge(rng: np.random.Generator, cg: CoarseGraining):
    """Random outcome merge; returns (coarser, refinement_map)."""
    n = len(cg)
    n_groups = int(rng.integers(1, n)) if n > 1 else 1
    assignment = rng.integers(0, n_groups, size=n)
    # keep every group non-empty
    for g in range(n_groups):
        if not np.any(assignment == g):
            assignment[rng.integers(0, n)] = g
    groups = []
    for g in range(n_groups):
        members = [cg.labels[i] for i in range(n) if assignment[i] == g]
        if members:
            groups.append(members)
    return merge_outcomes(cg, groups)


def random_coarse_grained_state(
    rng: np.random.Generator, cg: CoarseGraining
) -> np.ndarray:
    """A state that equals its own coarse-grained state (projective cg)."""
    weights = rng.dirichlet(np.ones(len(cg)))
    return np.tensordot(weights / cg.volumes(), cg.effects, axes=1)
