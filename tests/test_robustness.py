"""Property tests: the order-alpha entropies and the classical and quantum
divergences return a finite number, INFINITE, or raise an ObsentError over
the valid range (alpha from 1e-3 to 1e4, weights scaled from 1e-6 to 1e6,
rank-deficient states with spectra spanning many orders of magnitude); a
grid of orders gives the kernel's per-order values bit for bit; and
effective_beta recovers beta at every spectral scale from 1e-6 to 1e6."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obsent import (
    INFINITE,
    LevelSystem,
    merge_outcomes,
    alpha_derivative,
    effective_beta,
    gibbs_state,
    alpha_oe,
    alpha_oe_divergence_form,
    alpha_oe_gap,
    classical_petz_renyi,
    decompose_alpha_oe,
    is_coarse_grained,
    jackson_check,
    kl_divergence,
    observational_entropy,
    petz_renyi,
    projective_cg,
    refinement_divergence_bound,
    renyi_entropy,
    renyi_mutual_info,
    renyi_mutual_info_divergence_form,
    renyi_post_measurement,
    umegaki,
    von_neumann,
)
from obsent.divergences import _renyi_divergence
from obsent.errors import InvalidAlpha, ObsentError
from obsent.generators import (
    random_coarse_graining,
    random_merge,
    random_projective_cg,
    random_unitary,
)


def _state(rng, dim, rank, spread):
    """Rank-deficient state whose eigenvalues span up to 10**-spread."""
    lam = np.zeros(dim)
    lam[: min(rank, dim)] = 10.0 ** (-spread * rng.uniform(size=min(rank, dim)))
    u = random_unitary(rng, dim)
    return (u * (lam / lam.sum())) @ u.conj().T


def _finite_infinite_or_error(fn, *args):
    try:
        value = fn(*args)
    except ObsentError:
        return
    assert math.isfinite(value) or value == INFINITE, (fn.__name__, value)


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(2, 6),
    rank=st.integers(1, 6),
    log_alpha=st.floats(-3.0, 4.0),
    log_scales=st.tuples(st.floats(-6.0, 6.0), st.floats(-6.0, 6.0)),
    spread=st.floats(0.0, 15.0),
)
def test_finite_infinite_or_obsent_error(
    seed, dim, rank, log_alpha, log_scales, spread
):
    rng = np.random.default_rng(seed)
    alpha = 10.0**log_alpha
    rho = _state(rng, dim, rank, spread)
    cg = random_coarse_graining(rng, dim)
    x = rng.dirichlet(np.ones(dim)) * 10.0 ** log_scales[0]
    q = rng.dirichlet(np.ones(dim)) * 10.0 ** log_scales[1]
    x[rng.uniform(size=dim) < 0.3] = 0.0
    q[rng.uniform(size=dim) < 0.3] = 0.0

    _finite_infinite_or_error(alpha_oe, cg, rho, alpha)
    _finite_infinite_or_error(observational_entropy, cg, rho)
    _finite_infinite_or_error(alpha_oe_divergence_form, cg, rho, alpha)
    _finite_infinite_or_error(renyi_entropy, rho, alpha)
    _finite_infinite_or_error(von_neumann, rho)
    _finite_infinite_or_error(classical_petz_renyi, x, q, alpha)
    _finite_infinite_or_error(classical_petz_renyi, q, x, alpha)
    _finite_infinite_or_error(kl_divergence, x, q)

    sigma = _state(rng, dim, max(dim + 1 - rank, 1), spread)
    rho_ab = _state(rng, 2 * dim, 2 * rank, spread)
    fine = random_projective_cg(rng, dim)
    coarser, rmap = random_merge(rng, fine)
    for a, b in ((rho, sigma), (sigma, rho), (rho, rho)):
        _finite_infinite_or_error(petz_renyi, a, b, alpha)
        _finite_infinite_or_error(umegaki, a, b)
    _finite_infinite_or_error(alpha_oe_gap, cg, rho, alpha)
    _finite_infinite_or_error(
        renyi_mutual_info_divergence_form, rho_ab, (2, dim), alpha
    )
    _finite_infinite_or_error(alpha_derivative, cg, rho, alpha)
    _finite_infinite_or_error(
        refinement_divergence_bound, fine, coarser, rmap, rho, alpha
    )


_ORDER = st.floats(-3.0, 4.0).map(lambda e: 10.0**e)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    size=st.integers(0, 16),
    centers=st.tuples(st.floats(-300.0, 300.0), st.floats(-300.0, 300.0)),
    spread=st.floats(0.0, 20.0),
    scalar_q=st.booleans(),
    orders=st.lists(_ORDER, min_size=0, max_size=16),
)
def test_grid_call_equals_scalar_calls_bit_for_bit(
    seed, size, centers, spread, scalar_q, orders
):
    # weights from 1e-300 to 1e300 around two centres, with exact zeros
    rng = np.random.default_rng(seed)
    x, q = (
        10.0 ** np.clip(c + spread * rng.uniform(-1, 1, size), -300, 300)
        for c in centers
    )
    x[rng.uniform(size=size) < 0.2] = 0.0
    q[rng.uniform(size=size) < 0.2] = 0.0
    if scalar_q:
        q = 10.0 ** centers[1]
    # the orders with special cases in the kernel or in numpy's power
    orders = [1.0, 1 + 1e-7, 1 - 1e-7, 0.5, 2.0, 3.0, *orders]
    grid = _renyi_divergence(x, q, np.array(orders))
    assert isinstance(grid, np.ndarray) and grid.shape == (len(orders),)
    for alpha, value in zip(orders, grid.tolist()):
        scalar = _renyi_divergence(x, q, alpha)
        assert type(scalar) is float
        assert not math.isnan(scalar)
        # hex compares every bit: the sign of zero and INFINITE included
        assert scalar.hex() == value.hex(), (alpha, scalar, value)


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(2, 6),
    log_scale=st.floats(-6.0, 6.0),
    x=st.floats(-5.0, 5.0),
)
def test_effective_beta_is_scale_free(seed, dim, log_scale, x):
    # levels spanning [0, scale]; x = beta * span is the scale-free beta
    rng = np.random.default_rng(seed)
    levels = np.sort(rng.uniform(size=dim))
    levels = (levels - levels[0]) / (levels[-1] - levels[0])
    scale = 10.0**log_scale
    u = random_unitary(rng, dim)
    h = (u * (levels * scale)) @ u.conj().T
    beta = effective_beta(h, gibbs_state(h, x / scale))
    assert beta * scale == pytest.approx(x, abs=1e-8)


_RHO = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
_FINE = projective_cg(np.eye(4))
_COARSE, _MERGE = merge_outcomes(_FINE, [["0", "1"], ["2", "3"]])
# every public function of one order alpha, as alpha -> call
_SCALAR_ALPHA_FUNCTIONS = {
    "alpha_oe": lambda a: alpha_oe(_FINE, _RHO, a),
    "alpha_oe_divergence_form": lambda a: alpha_oe_divergence_form(_FINE, _RHO, a),
    "alpha_oe_gap": lambda a: alpha_oe_gap(_FINE, _RHO, a),
    "alpha_derivative": lambda a: alpha_derivative(_FINE, _RHO, a),
    "classical_petz_renyi": lambda a: classical_petz_renyi([0.5, 0.5], [0.3, 0.7], a),
    "renyi_entropy": lambda a: renyi_entropy(_RHO, a),
    "petz_renyi": lambda a: petz_renyi(_RHO, np.eye(4) / 4, a),
    "renyi_mutual_info": lambda a: renyi_mutual_info(_RHO, (2, 2), a),
    "renyi_mutual_info_divergence_form": (
        lambda a: renyi_mutual_info_divergence_form(_RHO, (2, 2), a)
    ),
    "renyi_post_measurement": lambda a: renyi_post_measurement(_FINE, _RHO, a),
    "decompose_alpha_oe": lambda a: decompose_alpha_oe(_FINE, _RHO, a),
    "is_coarse_grained": lambda a: is_coarse_grained(_FINE, _RHO, a),
    "refinement_divergence_bound": (
        lambda a: refinement_divergence_bound(_FINE, _COARSE, _MERGE, _RHO, a)
    ),
    "jackson_check": (
        lambda a: jackson_check(LevelSystem(np.array([0.0, 1.0]), 1.0), 1.0, a)
    ),
}


@pytest.mark.parametrize("name", sorted(_SCALAR_ALPHA_FUNCTIONS))
@pytest.mark.parametrize("alpha", [[2.0, 3.0], np.array([2.0]), np.array([]), "2"])
def test_public_functions_take_one_real_order(name, alpha):
    # the grid form of the kernel is private; a public alpha is one number
    call = _SCALAR_ALPHA_FUNCTIONS[name]
    with pytest.raises(InvalidAlpha):
        call(alpha)
    for one in (2, np.float64(2.0), np.array(2.0)):
        assert call(one) == call(2.0)
