"""One-instance random generators for the tests.

Each is one draw of obsent.generators made into its public object, so it
consumes its Generator exactly as the draw does and gives the bits of the
stack forms verify uses (test_stack_forms.py). A generator that is not a
numpy Generator, a dimension, rank or effect count that is not a positive
integer, and a cg that is not a CoarseGraining raise ValidationError.
"""

from __future__ import annotations

import numpy as np

from obsent.coarse_graining import CoarseGraining, merge_outcomes
from obsent.generators import (
    _coarse_graining,
    _dim,
    _draw_cg,
    _draw_merge,
    _draw_povm,
    _draw_projective,
    _effect_stacks,
    _gaussian,
    _unitaries,
)
from obsent.operators import _instance
from obsent.state_analysis import _coarse_grained


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    d = _dim(rng, dim)
    return _unitaries(_gaussian(rng, d, d))


def random_projective_cg(
    rng: np.random.Generator, dim: int, ranks=None
) -> CoarseGraining:
    return _coarse_graining(_effect_stacks([_draw_projective(rng, dim, ranks)])[0])


def random_rank1_projective_cg(rng: np.random.Generator, dim: int) -> CoarseGraining:
    return random_projective_cg(rng, dim, ranks=[1] * _dim(rng, dim))


def random_povm(
    rng: np.random.Generator, dim: int, n_effects: int | None = None
) -> CoarseGraining:
    return _coarse_graining(_effect_stacks([_draw_povm(rng, dim, n_effects)])[0])


def random_coarse_graining(rng: np.random.Generator, dim: int) -> CoarseGraining:
    return _coarse_graining(_effect_stacks([_draw_cg(rng, dim)])[0])


def random_merge(rng: np.random.Generator, cg: CoarseGraining):
    """Random outcome merge; returns (coarser, refinement_map)."""
    m = _draw_merge(rng, _dim(rng, len(_instance(cg, CoarseGraining, "cg"))))
    groups = [[cg.labels[i] for i in np.flatnonzero(column)] for column in m.T]
    return merge_outcomes(cg, groups)


def random_coarse_grained_state(
    rng: np.random.Generator, cg: CoarseGraining
) -> np.ndarray:
    """A state that equals its own coarse-grained state (projective cg)."""
    n = _dim(rng, len(_instance(cg, CoarseGraining, "cg")))
    return _coarse_grained(cg.effects, cg.volumes(), rng.dirichlet(np.ones(n)))
