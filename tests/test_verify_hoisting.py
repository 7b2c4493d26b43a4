"""verify evaluates each alpha grid from data computed once per instance:
outcome distributions, spectra, Nussbaum-Szkola pairs and the per-(cg, rho)
measurement object of state_analysis. Every value it gets that way is
bit-identical (==, not approx) to the public function it stands for."""

import math

import numpy as np
import pytest

from obsent import (
    alpha_oe,
    alpha_oe_divergence_form,
    alpha_oe_gap,
    classical_petz_renyi,
    decompose_alpha_oe,
    outcomes,
    petz_renyi,
    post_measurement_state,
    refinement_divergence_bound,
    renyi_entropy,
    renyi_post_measurement,
)
from obsent.coarse_graining import _refinement_bound
from obsent.divergences import _renyi_divergence, _spectral_pair
from obsent.generators import (
    random_coarse_graining,
    random_density,
    random_merge,
    random_projective_cg,
)
from obsent.state_analysis import _Measurement
from obsent.verify import ALPHA_GRID, _entropy, _oe

ALPHAS = ALPHA_GRID + (0.5, 1.0, 1 + 1e-7, 1 - 1e-7)


@pytest.mark.parametrize("seed", range(4))
def test_hoisted_values_equal_public_functions(seed):
    rng = np.random.default_rng(seed)
    for _ in range(8):
        d = int(rng.integers(2, 7))
        rho, sigma = random_density(rng, d), random_density(rng, d, rank=1)
        cg = random_coarse_graining(rng, d)
        proj = random_projective_cg(rng, d)
        coarser, rmap = random_merge(rng, proj)

        dist, spectrum = outcomes(cg, rho), np.linalg.eigvalsh(rho)
        pair = _spectral_pair(rho, sigma)
        flat_pair = _spectral_pair(rho, np.eye(d) / d)
        meas = _Measurement(proj, rho)
        fine, coarse = outcomes(proj, rho), outcomes(coarser, rho)
        for a in ALPHAS:
            assert _oe(dist, a) == alpha_oe(cg, rho, a)
            assert _entropy(spectrum, a) == renyi_entropy(rho, a)
            assert _renyi_divergence(*pair, a) == petz_renyi(rho, sigma, a)
            classical = classical_petz_renyi(dist.probabilities, dist.volumes / d, a)
            assert math.log(d) - classical == alpha_oe_divergence_form(cg, rho, a)
            gap = _renyi_divergence(*flat_pair, a) - classical
            assert gap == alpha_oe_gap(cg, rho, a)
            # one measurement object serves the whole grid
            assert meas.renyi_mixture(a) == renyi_post_measurement(proj, rho, a)
            assert meas.decompose(a) == decompose_alpha_oe(proj, rho, a)
            post = post_measurement_state(proj, rho)
            assert _entropy(meas.post_spectrum, a) == renyi_entropy(post, a)
            if a > 1.5 - 1e-9:
                bound = refinement_divergence_bound(proj, coarser, rmap, rho, a)
                assert _refinement_bound(fine, coarse, rmap, a) == bound
