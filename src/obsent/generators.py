"""Seeded random draws for sweeps: states, coarse-grainings, merges.

Density operators come from Wishart-style products G G^dag (full rank by
default, rank-deficient on request). Projective coarse-grainings draw a
Haar-distributed orthonormal frame and a random rank partition; POVMs
normalize a batch of random PSD matrices by the inverse square root of
their sum. All draws take an explicit numpy Generator so sweeps are
reproducible. A coarse-graining is a draw (random numbers only) and
_effect_stacks, which builds the effects of many draws with one qr and
one op_power per dimension, bit for bit as one draw alone. The
one-instance generators made of them (random_projective_cg, random_povm,
random_merge and their kin) serve only the tests and live in
tests/random_instances.py. A generator that is not a numpy Generator,
and a dimension, rank or effect count that is not a positive integer
raise ValidationError.
"""

from __future__ import annotations

import numpy as np

from .coarse_graining import CoarseGraining
from .operators import _each, _instance, _integer, _items, _power


def _dim(rng, dim) -> int:
    """dim through the integer gate, once rng is a numpy Generator."""
    _instance(rng, np.random.Generator, "rng")
    return _integer(dim, 1, "dimension")


def _gaussian(rng: np.random.Generator, *shape) -> np.ndarray:
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def random_density(rng: np.random.Generator, dim: int, rank: int | None = None):
    g = _gaussian(rng, _dim(rng, dim), _integer(rank or dim, 1, "rank"))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def _unitaries(g: np.ndarray) -> np.ndarray:
    """random_unitary of each Gaussian matrix of a (..., d, d) stack, from
    one qr: the Q factor with the phases of R's diagonal taken out."""
    q, r = np.linalg.qr(g)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def random_rank_partition(rng: np.random.Generator, dim: int) -> list:
    ranks, left = [], _dim(rng, dim)
    while left > 0:
        r = int(rng.integers(1, left + 1))
        ranks.append(r)
        left -= r
    return ranks


def _draw_projective(rng: np.random.Generator, dim: int, ranks=None) -> tuple:
    """random_projective_cg's draws: (ranks, Gaussian matrix, None)."""
    d = _dim(rng, dim)
    if ranks is None:
        ranks = random_rank_partition(rng, d)
    return [_integer(r, 1, "rank") for r in _items(ranks, "ranks")], _gaussian(rng, d, d), None


def _draw_povm(rng: np.random.Generator, dim: int, n_effects=None) -> tuple:
    """random_povm's draws: (None, stack of Gaussian matrices, weights)."""
    d = _dim(rng, dim)
    if n_effects is not None:
        n_effects = _integer(n_effects, 1, "effect count")
    n = n_effects or int(rng.integers(2, d + 3))
    draws = [(_gaussian(rng, d, d), rng.uniform(0.2, 1.0)) for _ in range(n)]
    return None, np.array([g for g, _ in draws]), np.array([w for _, w in draws])


def _draw_cg(rng: np.random.Generator, dim: int) -> tuple:
    """random_coarse_graining's draws."""
    _dim(rng, dim)
    return _draw_projective(rng, dim) if rng.uniform() < 0.5 else _draw_povm(rng, dim)


def _effect_stacks(draws: list) -> list:
    """The (n, d, d) effect stack of each draw, unchecked: the frames of
    the projective draws from one qr per dimension, the inverse roots of
    the POVM totals (each summed in draw order) from one _power per
    dimension."""
    frames = iter(_each(_unitaries, [g for ranks, g, _ in draws if ranks is not None]))
    raws = [(g @ g.conj().swapaxes(1, 2)) * w[:, None, None]
            for ranks, g, w in draws if ranks is None]
    roots = _each(lambda total: _power(total, -0.5), [sum(raw) for raw in raws])
    povms = iter(root @ raw @ root for root, raw in zip(roots, raws))

    def stack(ranks):
        if ranks is None:
            return next(povms)
        u, ends = next(frames), np.cumsum(ranks).tolist()
        blocks = [u[:, e - r : e] for r, e in zip(ranks, ends)]
        return np.array([block @ block.conj().T for block in blocks])

    return [stack(ranks) for ranks, _, _ in draws]


def _coarse_graining(stack: np.ndarray) -> CoarseGraining:
    return CoarseGraining(tuple(str(i) for i in range(len(stack))), stack)


def _draw_merge(rng: np.random.Generator, n: int) -> np.ndarray:
    """The draws of random_merge for n outcomes, as the 0/1 refinement
    matrix (outcomes x non-empty groups, groups in index order)."""
    n_groups = int(rng.integers(1, n)) if n > 1 else 1
    assignment = rng.integers(0, n_groups, size=n)
    for g in range(n_groups):  # keep every group non-empty
        if not np.any(assignment == g):
            assignment[rng.integers(0, n)] = g
    return (assignment[:, None] == np.flatnonzero(np.bincount(assignment))).astype(float)
