"""verify draws all its instances first and then runs each linear-algebra
step once per dimension over the concatenation of their stacks. Its
reports keep their bits because of two facts pinned here: each batched
LAPACK step (eigh, eigvalsh, qr, op_power at +-1/2) gives every matrix of a
concatenated stack the bytes of its own call, and each private stack form
gives the bytes of the public one-instance function it stands for. A numpy
or BLAS change that breaks either fails here instead of silently moving
verify's bits."""

import numpy as np
import pytest

from obsent import (
    CoarseGraining,
    alpha_oe,
    alpha_oe_divergence_form,
    alpha_oe_gap,
    conditional_ensemble,
    outcomes,
    post_measurement_state,
    renyi_entropy,
    sequential,
    tensor_cg,
)
from obsent.coarse_graining import (
    _checked, _lueders_roots, _merged, _oe_table, _outcomes, _tensor
)
from obsent.generators import (
    _draw_cg,
    _draw_merge,
    _draw_povm,
    _draw_projective,
    _effect_stacks,
    random_density,
    random_rank_partition,
)
from obsent.operators import op_power
from obsent.state_analysis import _measured
from obsent.verify import _composed
from random_instances import (
    random_coarse_graining,
    random_merge,
    random_povm,
    random_projective_cg,
    random_rank1_projective_cg,
)

DIMS = (2, 3, 4, 5, 6, 8)


def _psd_stack(rng, n: int, d: int) -> np.ndarray:
    g = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
    return g @ g.conj().swapaxes(1, 2)


def _same(a, b) -> bool:
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


@pytest.mark.parametrize("d", DIMS)
def test_batched_lapack_steps_equal_per_matrix_calls(d):
    rng = np.random.default_rng(d)
    g = rng.normal(size=(33, d, d)) + 1j * rng.normal(size=(33, d, d))
    h = _psd_stack(rng, 33, d) / d
    steps = {
        "eigh": (np.linalg.eigh, h),
        "eigvalsh": (np.linalg.eigvalsh, h),
        "qr": (np.linalg.qr, g),
        "op_power 0.5": (lambda m: op_power(m, 0.5), h),
        "op_power -0.5": (lambda m: op_power(m, -0.5), h),
    }
    for name, (fn, stack) in steps.items():
        batched = fn(stack)
        for k in range(len(stack)):
            alone = fn(stack[k])
            if isinstance(alone, tuple):
                assert all(_same(b[k], a) for b, a in zip(batched, alone)), (name, k)
            else:
                assert _same(batched[k], alone), (name, k)


def _loop_projective(rng, dim: int) -> CoarseGraining:
    """random_projective_cg as one qr and a loop over rank blocks: the
    arithmetic its stack form must keep."""
    ranks = random_rank_partition(rng, dim)
    q, r = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
    u = q * (np.diag(r) / np.abs(np.diag(r)))
    ends = np.cumsum(ranks)
    blocks = [u[:, e - k : e] for k, e in zip(ranks, ends)]
    return CoarseGraining(tuple(range(len(blocks))), tuple(b @ b.conj().T for b in blocks))


def _loop_povm(rng, dim: int) -> CoarseGraining:
    """random_povm as a loop over effects, normalized by the inverse root of
    their sum in draw order: the arithmetic its stack form must keep."""
    raw = []
    for _ in range(int(rng.integers(2, dim + 3))):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        raw.append((g @ g.conj().T) * rng.uniform(0.2, 1.0))
    inv_root = op_power(sum(raw), -0.5)
    return CoarseGraining(tuple(range(len(raw))), tuple(inv_root @ r @ inv_root for r in raw))


@pytest.mark.parametrize("d", DIMS)
def test_generators_keep_the_per_effect_arithmetic(d):
    rng, twin = np.random.default_rng(d), np.random.default_rng(d)
    for _ in range(10):
        for fast, loop in ((random_projective_cg, _loop_projective), (random_povm, _loop_povm)):
            cg, reference = fast(rng, d), loop(twin, d)
            assert _same(cg.effects, reference.effects)
            rho = random_density(rng, d)
            assert rho.tobytes() == random_density(twin, d).tobytes()
            # the outcome traces, against one einsum per coarse-graining
            p = np.einsum("kij,ji->k", reference.effects, rho).real
            assert _same(outcomes(cg, rho).probabilities, np.maximum(p, 0.0))


@pytest.mark.parametrize("seed", range(3))
def test_stack_generators_equal_public_generators(seed):
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    draws, public, merges = [], [], []
    for k in range(30):
        d = DIMS[k % len(DIMS)]
        draws += [_draw_cg(rng, d), _draw_projective(rng, d), _draw_povm(rng, d)]
        draws.append(_draw_projective(rng, d, [1] * d))
        public += [random_coarse_graining(twin, d), random_projective_cg(twin, d)]
        public += [random_povm(twin, d), random_rank1_projective_cg(twin, d)]
        merges.append((_draw_merge(rng, len(draws[-3][0])), random_merge(twin, public[-3])))
    # one stream, drawn in the same order: the draws consume what the
    # generators consume
    assert rng.bit_generator.state == twin.bit_generator.state
    checked = _checked(_effect_stacks(draws))
    for (effects, volumes, keep), cg in zip(checked, public):
        assert keep.all()
        assert _same(effects, cg.effects) and _same(volumes, cg.volumes())
    fines = [effects for effects, _, _ in checked[1::4]]
    coarse = _checked([_merged(m, e) for (m, _), e in zip(merges, fines)])
    for (m, (coarser, rmap)), (effects, _, _) in zip(merges, coarse):
        assert _same(m, rmap.matrix) and _same(effects, coarser.effects)


def test_batched_stack_forms_equal_public_operations():
    rng = np.random.default_rng(7)
    cgs, rhos = [], []
    for k in range(24):
        d = DIMS[k % 4]
        cgs += [random_coarse_graining(rng, d), random_coarse_graining(rng, d)]
        rhos.append(random_density(rng, d))
    firsts, seconds = cgs[0::2], cgs[1::2]
    # outcome probabilities of all instances from one einsum per dimension
    dists = _outcomes([((c.effects, c.volumes()), rho) for c, rho in zip(firsts, rhos)])
    for cg, rho, (p, _) in zip(firsts, rhos, dists):
        assert _same(outcomes(cg, rho).probabilities, p)
    # the entropy table of all states: each state's column is its one-state
    # table, and each entry the one-order public function's value
    grid = [0.3, 1.0, 2.0, 1 + 1e-7]
    table = _oe_table(dists, rhos, grid)
    assert table.shape == (4, len(rhos), len(grid))
    public = (alpha_oe, alpha_oe_divergence_form, lambda _, rho, a: renyi_entropy(rho, a),
              alpha_oe_gap)
    for k, (cg, rho, dist) in enumerate(zip(firsts, rhos, dists)):
        assert _same(table[:, k], _oe_table([dist], [rho], grid)[:, 0])
        for j, a in enumerate(grid):
            assert [f(cg, rho, a) for f in public] == table[:, k, j].tolist()
    # Luders roots of all instances from one op_power per dimension
    roots = _lueders_roots([c.effects for c in firsts])
    for cg, root in zip(firsts, roots):
        assert _same(root, _lueders_roots([cg.effects])[0])
    # sequential, level by level as verify builds its chains
    checked = [(c.effects, c.volumes(), None) for c in firsts]
    composed = _composed(checked, [c.effects for c in seconds])
    for cg1, cg2, (effects, volumes, keep) in zip(firsts, seconds, composed):
        seq = sequential(cg1, cg2)
        assert _same(effects, seq.effects) and _same(volumes, seq.volumes())
        assert keep.sum() == len(seq)
    # tensor_cg's stack form, checked as construction checks it
    pairs = list(zip(firsts[:6], seconds[6:]))
    products = _checked([_tensor(a.effects, b.effects) for a, b in pairs])
    for (a, b), (effects, _, _) in zip(pairs, products):
        assert _same(effects, tensor_cg([a, b]).effects)


def test_measured_cases_equal_one_case_calls():
    rng = np.random.default_rng(11)
    cgs, rhos = [], []
    for k in range(4 * len(DIMS)):
        d = DIMS[k % len(DIMS)]
        cgs += [random_projective_cg(rng, d), random_povm(rng, d)]
        rhos += [random_density(rng, d)] * 2
    cases = [(cg.effects, cg.volumes(), rho) for cg, rho in zip(cgs, rhos)]
    for case, cg, rho, many in zip(cases, cgs, rhos, _measured(cases)):
        [one] = _measured([case])
        assert len(many) == len(one) == 5
        assert all(_same(a, b) for a, b in zip(many, one))
        # and the one-case call gives the public wrappers' bytes
        p, keep, states, flats, post = one
        ensemble = conditional_ensemble(cg, rho)
        assert _same(p[keep], ensemble.probabilities)
        assert _same(states, ensemble.states) and _same(flats, ensemble.flat_states)
        assert _same(post, post_measurement_state(cg, rho))
