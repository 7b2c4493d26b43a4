import math

import numpy as np
import pytest

from obsent import (
    INFINITE,
    alpha_oe_divergence_form,
    classical_petz_renyi,
    kl_divergence,
    petz_renyi,
    projective_cg,
    renyi_entropy,
    renyi_mutual_info,
    tensor,
    umegaki,
    von_neumann,
)
from obsent.divergences import renyi_mutual_info_divergence_form
from obsent.errors import (
    DimensionMismatch,
    InvalidAlpha,
    LengthMismatch,
    NotPSD,
    ObsentError,
    ValidationError,
)
from obsent.generators import random_density
from obsent.coarse_graining import outcomes
from random_instances import random_coarse_graining, random_unitary

from conftest import bell_state, proj, KET_PLUS

ALPHA_GRID = (0.3, 0.7, 1.5, 2.0, 3.0)


class TestKL:
    def test_equal_distributions(self):
        assert kl_divergence([0.5, 0.5], [0.5, 0.5]) == pytest.approx(0.0, abs=1e-15)

    def test_point_mass_vs_uniform(self):
        assert kl_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(math.log(2))

    def test_support_violation(self):
        assert kl_divergence([0.5, 0.5], [1.0, 0.0]) == INFINITE

    def test_ratio_overflow_evaluated_in_log_space(self):
        # x / p overflows to inf; the value is log(1 / 1e-310)
        assert kl_divergence([1.0], [1e-310]) == pytest.approx(
            310 * math.log(10), abs=1e-9
        )

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            kl_divergence([1.0], [0.5, 0.5])


class TestVonNeumannAndRenyi:
    def test_pure_state(self):
        assert von_neumann(proj(KET_PLUS)) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed(self):
        assert von_neumann(np.eye(3) / 3) == pytest.approx(math.log(3))

    def test_diagonal_qubit_frozen(self):
        # -(0.75 log 0.75 + 0.25 log 0.25)
        assert von_neumann(np.diag([0.75, 0.25])) == pytest.approx(
            0.5623351446188083, abs=1e-12
        )

    def test_renyi_maximally_mixed_all_alpha(self):
        for a in ALPHA_GRID:
            assert renyi_entropy(np.eye(4) / 4, a) == pytest.approx(math.log(4))

    def test_renyi_pure(self):
        for a in ALPHA_GRID:
            assert renyi_entropy(proj(KET_PLUS), a) == pytest.approx(0.0, abs=1e-10)

    def test_renyi_2_diagonal(self):
        assert renyi_entropy(np.diag([0.75, 0.25]), 2.0) == pytest.approx(
            -math.log(0.625), abs=1e-12
        )

    def test_renyi_non_increasing_in_alpha(self, rng):
        rho = random_density(rng, 5)
        vals = [renyi_entropy(rho, a) for a in ALPHA_GRID]
        assert all(u >= v - 1e-10 for u, v in zip(vals, vals[1:]))

    def test_alpha_one_delegates_to_von_neumann(self, rng):
        rho = random_density(rng, 4)
        assert renyi_entropy(rho, 1 + 1e-7) == pytest.approx(
            von_neumann(rho), abs=1e-5
        )

    def test_power_underflow_evaluated_in_log_space(self):
        # 0.9**1e4 and 0.1**1e4 both underflow to 0; 0.1**1e4 is negligible
        val = renyi_entropy(np.diag([0.9, 0.1]), 1e4)
        assert val == pytest.approx(1e4 / 9999 * -math.log(0.9), abs=1e-12)

    def test_invalid_alpha(self):
        with pytest.raises(InvalidAlpha):
            renyi_entropy(np.eye(2) / 2, -0.5)

    @pytest.mark.parametrize(
        "bad", [np.zeros((2, 2)), np.full((2, 2), np.nan), -np.eye(2), np.ones((2, 3))]
    )
    def test_empty_or_malformed_matrix_raises(self, bad):
        # no spectrum to take an entropy or divergence of
        with pytest.raises(ValidationError):
            renyi_entropy(bad, 2.0)
        with pytest.raises(ValidationError):
            petz_renyi(np.eye(2) / 2, bad, 2.0)


class TestUmegaki:
    def test_self_divergence(self, rng):
        rho = random_density(rng, 3)
        assert umegaki(rho, rho) == pytest.approx(0.0, abs=1e-10)

    def test_pure_vs_maximally_mixed(self):
        assert umegaki(proj(KET_PLUS), np.eye(2) / 2) == pytest.approx(math.log(2))

    def test_support_violation(self):
        assert umegaki(np.eye(2) / 2, np.diag([1.0, 0.0])) == INFINITE

    def test_rejects_indefinite(self):
        with pytest.raises(NotPSD):
            umegaki(np.diag([1.2, -0.2]), np.eye(2) / 2)
        with pytest.raises(NotPSD):
            umegaki(np.eye(2) / 2, np.diag([1.2, -0.2]))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            umegaki(np.eye(2) / 2, np.eye(3) / 3)


class TestPetzRenyi:
    def test_self_divergence_all_alpha(self, rng):
        rho = random_density(rng, 3)
        for a in ALPHA_GRID:
            assert petz_renyi(rho, rho, a) == pytest.approx(0.0, abs=1e-10)

    def test_worked_qubit_value(self):
        val = petz_renyi(np.diag([0.75, 0.25]), np.eye(2) / 2, 2.0)
        assert val == pytest.approx(math.log(1.25), abs=1e-12)

    def test_support_violation_above_one(self):
        assert petz_renyi(np.eye(2) / 2, np.diag([1.0, 0.0]), 2.0) == INFINITE

    def test_support_violation_in_rotated_basis(self, rng):
        # rank-2 rho with weight outside the rank-2 support of sigma
        u = random_unitary(rng, 3)
        rho = u @ np.diag([0.5, 0.5, 0.0]) @ u.conj().T
        sigma = u @ np.diag([0.0, 0.6, 0.4]) @ u.conj().T
        assert petz_renyi(rho, sigma, 2.0) == INFINITE
        assert umegaki(rho, sigma) == INFINITE
        assert math.isfinite(petz_renyi(rho, sigma, 0.5))

    def test_large_alpha_against_flat_state(self):
        # 0.9**5000 underflows and 0.5**-4999 overflows: the sum needs log space
        val = petz_renyi(np.diag([0.9, 0.1]), np.eye(2) / 2, 5000)
        expected = math.log(2) + 5000 / 4999 * math.log(0.9)
        assert val == pytest.approx(expected, abs=1e-14)

    @pytest.mark.parametrize("seed", [39, 156])
    def test_self_divergence_is_zero_to_rounding(self, seed):
        # rounding stays far below the 1e-10 nonnegativity tolerance of verify
        rho = random_density(np.random.default_rng(seed), 6)
        assert abs(petz_renyi(rho, rho, 3.0)) <= 1e-14

    def test_rejects_indefinite(self):
        with pytest.raises(NotPSD):
            petz_renyi(np.diag([1.2, -0.2]), np.eye(2) / 2, 2.0)
        with pytest.raises(NotPSD):
            petz_renyi(np.eye(2) / 2, np.diag([1.2, -0.2]), 0.5)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            petz_renyi(np.eye(2) / 2, np.eye(3) / 3, 2.0)

    def test_orthogonal_states_below_one(self):
        assert (
            petz_renyi(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), 0.5) == INFINITE
        )

    def test_alpha_near_one_matches_umegaki(self, rng):
        for _ in range(20):
            rho, sigma = random_density(rng, 2), random_density(rng, 2)
            target = umegaki(rho, sigma)
            assert petz_renyi(rho, sigma, 1 + 1e-7) == pytest.approx(
                target, abs=1e-5
            )
            assert petz_renyi(rho, sigma, 1 - 1e-7) == pytest.approx(
                target, abs=1e-5
            )

    def test_ordering_in_alpha(self, rng):
        for _ in range(50):
            d = int(rng.integers(2, 6))
            rho, sigma = random_density(rng, d), random_density(rng, d)
            vals = [petz_renyi(rho, sigma, a) for a in ALPHA_GRID]
            assert all(v2 >= v1 - 1e-10 for v1, v2 in zip(vals, vals[1:]))

    def test_nonnegative_for_states(self, rng):
        for _ in range(50):
            d = int(rng.integers(2, 6))
            rho, sigma = random_density(rng, d), random_density(rng, d)
            for a in ALPHA_GRID:
                assert petz_renyi(rho, sigma, a) >= -1e-10

    def test_data_processing_under_measurement(self, rng):
        for _ in range(50):
            d = int(rng.integers(2, 6))
            rho, sigma = random_density(rng, d), random_density(rng, d)
            cg = random_coarse_graining(rng, d)
            p = outcomes(cg, rho).probabilities
            q = outcomes(cg, sigma).probabilities
            for a in ALPHA_GRID:
                assert classical_petz_renyi(p, q, a) <= petz_renyi(
                    rho, sigma, a
                ) + 1e-10


class TestClassicalPetz:
    def test_unnormalized_inputs_allowed(self):
        # volumes are valid second arguments
        val = classical_petz_renyi([0.75, 0.25], [2.0, 1.0], 2.0)
        assert val == pytest.approx(math.log(0.75**2 / 2 + 0.25**2), abs=1e-12)

    def test_zero_terms_drop(self):
        assert classical_petz_renyi([1.0, 0.0], [0.5, 0.5], 2.0) == pytest.approx(
            math.log(2.0)
        )

    def test_power_underflow_evaluated_in_log_space(self):
        # 0.25**600 underflows to 0; the value is -log 4
        val = classical_petz_renyi([0.25] * 4, [1.0] * 4, 600)
        assert val == pytest.approx(-math.log(4), abs=1e-12)

    def test_dominant_term_with_underflowing_factor(self):
        # 1e4**-98 underflows, losing the dominant term 1e3**99 * 1e4**-98
        # = 1e-95 against 1e-3**99 = 1e-297
        val = classical_petz_renyi([1e3, 1e-3], [1e4, 1.0], 99)
        assert val == pytest.approx(-95 * math.log(10) / 98, abs=1e-12)

    def test_non_finite_weights_raise_obsent_error(self):
        with pytest.raises(ObsentError, match="finite"):
            classical_petz_renyi([math.nan, 1.0], [1.0, 1.0], 2.0)
        with pytest.raises(ObsentError, match="finite"):
            kl_divergence([0.5, 0.5], [math.inf, 1.0])

    def test_negative_weights_raise_obsent_error(self):
        with pytest.raises(ObsentError, match="negative weight"):
            classical_petz_renyi([-1, 2], [0.5, 0.5], 2)
        with pytest.raises(ObsentError, match="negative weight"):
            kl_divergence([0.5, -0.2], [0.5, 0.5])
        with pytest.raises(ObsentError, match="negative weight"):
            alpha_oe_divergence_form(
                projective_cg(np.eye(2)), np.diag([1.2, -0.2]), 2
            )


class TestMutualInfo:
    def test_product_state_vanishes(self, rng):
        rho = tensor(random_density(rng, 2), random_density(rng, 3))
        for a in ALPHA_GRID:
            assert renyi_mutual_info(rho, (2, 3), a) == pytest.approx(0.0, abs=1e-9)

    def test_bell_state(self):
        assert renyi_mutual_info(bell_state(), (2, 2), 2.0) == pytest.approx(
            2 * math.log(2), abs=1e-10
        )

    def test_classical_correlated(self):
        rho = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
        assert renyi_mutual_info(rho, (2, 2), 2.0) == pytest.approx(
            math.log(2), abs=1e-10
        )

    def test_sign_violation_exists(self):
        # correlated two-bit table whose order-2 mutual information is negative
        rho = np.diag([5 / 12, 3 / 12, 3 / 12, 1 / 12]).astype(complex)
        assert renyi_mutual_info(rho, (2, 2), 2.0) < -1e-3

    def test_divergence_form_is_a_separate_diagnostic(self, rng):
        rho = random_density(rng, 4)
        val = renyi_mutual_info_divergence_form(rho, (2, 2), 2.0)
        assert np.isfinite(val)
