"""Property test: the order-alpha entropies and the classical and quantum
divergences return a finite number, INFINITE, or raise an ObsentError over
the valid range (alpha from 1e-3 to 1e4, weights scaled from 1e-6 to 1e6,
rank-deficient states with spectra spanning many orders of magnitude)."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from obsent import (
    INFINITE,
    alpha_derivative,
    alpha_oe,
    alpha_oe_divergence_form,
    alpha_oe_gap,
    classical_petz_renyi,
    kl_divergence,
    observational_entropy,
    petz_renyi,
    refinement_divergence_bound,
    renyi_entropy,
    renyi_mutual_info_divergence_form,
    umegaki,
    von_neumann,
)
from obsent.errors import ObsentError
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
