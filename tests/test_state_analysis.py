import math

import numpy as np
import pytest

from obsent import (
    CoarseGraining,
    alpha_oe,
    coarse_grained_state,
    conditional_ensemble,
    decompose_alpha_oe,
    identity_cg,
    is_coarse_grained,
    op_power,
    post_measurement_state,
    projective_cg,
    renyi_entropy,
    renyi_post_measurement,
)
from obsent.errors import NonProjectiveCoarseGraining, ObsentError, ValidationError
from obsent.generators import random_density
from obsent.state_analysis import _measured
from random_instances import (
    random_coarse_grained_state,
    random_povm,
    random_projective_cg,
    random_rank1_projective_cg,
)

from conftest import KET_PLUS, proj

Z_BASIS = projective_cg(np.eye(2, dtype=complex), labels=("z0", "z1"))
ALPHAS = (0.5, 2.0, 3.0)


class TestPostMeasurementState:
    def test_commuting_state_unchanged(self):
        rho = np.diag([0.6, 0.4]).astype(complex)
        np.testing.assert_allclose(
            post_measurement_state(Z_BASIS, rho), rho, atol=1e-12
        )

    def test_plus_state_dephases(self):
        np.testing.assert_allclose(
            post_measurement_state(Z_BASIS, proj(KET_PLUS)), np.eye(2) / 2, atol=1e-12
        )

    def test_maximally_mixed_fixed(self, rng):
        cg = random_projective_cg(rng, 4)
        np.testing.assert_allclose(
            post_measurement_state(cg, np.eye(4) / 4), np.eye(4) / 4, atol=1e-10
        )

    def test_trace_one(self, rng):
        cg = random_povm(rng, 4)
        rho = random_density(rng, 4)
        out = post_measurement_state(cg, rho)
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-9)

    def test_projective_lueders_takes_no_eigh(self, rng, monkeypatch):
        # a projector is its own square root, so no effect is eigendecomposed
        cases = [
            (cg, random_density(rng, d))
            for d in (2, 3, 5)
            for cg in (random_projective_cg(rng, d), random_rank1_projective_cg(rng, d))
        ]
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(
            np.linalg, "eigh", lambda *a, **k: calls.append(a) or eigh(*a, **k)
        )
        measured = _measured([(cg.effects, cg.volumes(), rho) for cg, rho in cases])
        assert calls == []
        monkeypatch.undo()
        for (cg, rho), (p, keep, states, _, post) in zip(cases, measured):
            roots = op_power(cg.effects, 0.5)
            lueders = roots @ rho @ roots
            np.testing.assert_allclose(post, lueders.sum(axis=0), rtol=0, atol=1e-12)
            np.testing.assert_allclose(
                states * p[keep][:, None, None], lueders[keep], rtol=0, atol=1e-12
            )

    def test_any_finite_operator(self):
        # a Luders sum needs no probabilities, so negative outcome traces
        # are fine here; the conditional ensemble divides by them
        m = np.diag([1.0, -1.0])
        np.testing.assert_array_equal(post_measurement_state(Z_BASIS, m), m)
        with pytest.raises(ValidationError):
            conditional_ensemble(Z_BASIS, m)


def test_zero_operator_gives_no_raw_error():
    # an operator without outcomes has an empty ensemble and no spectra
    zero = np.zeros((2, 2))
    assert len(conditional_ensemble(Z_BASIS, zero).states) == 0
    for fn in (renyi_post_measurement, decompose_alpha_oe):
        try:
            fn(Z_BASIS, zero, 2.0)
        except ObsentError:
            pass


class TestConditionalEnsemble:
    def test_diagonal_qubit(self):
        ens = conditional_ensemble(Z_BASIS, np.diag([0.75, 0.25]))
        np.testing.assert_allclose(ens.probabilities, [0.75, 0.25])
        np.testing.assert_allclose(ens.states[0], np.diag([1.0, 0.0]), atol=1e-12)
        np.testing.assert_allclose(ens.states[1], np.diag([0.0, 1.0]), atol=1e-12)

    def test_trivial_cg(self, rng):
        rho = random_density(rng, 3)
        ens = conditional_ensemble(identity_cg(3), rho)
        assert len(ens.probabilities) == 1
        assert ens.probabilities[0] == pytest.approx(1.0)
        np.testing.assert_allclose(ens.states[0], rho, atol=1e-12)
        np.testing.assert_allclose(ens.flat_states[0], np.eye(3) / 3, atol=1e-12)

    def test_pure_plus_state(self):
        ens = conditional_ensemble(Z_BASIS, proj(KET_PLUS))
        np.testing.assert_allclose(ens.probabilities, [0.5, 0.5], atol=1e-12)
        np.testing.assert_allclose(ens.states[0], np.diag([1.0, 0.0]), atol=1e-12)

    def test_zero_probability_outcomes_omitted(self):
        ens = conditional_ensemble(Z_BASIS, np.diag([1.0, 0.0]))
        assert ens.labels == ("z0",)

    def test_unit_traces(self, rng):
        cg = random_projective_cg(rng, 5)
        rho = random_density(rng, 5)
        ens = conditional_ensemble(cg, rho)
        for state in ens.states + ens.flat_states:
            assert np.trace(state).real == pytest.approx(1.0, abs=1e-9)


class TestRenyiPostMeasurement:
    def test_rank1_reduces_to_outcome_renyi(self, rng):
        cg = random_rank1_projective_cg(rng, 4)
        rho = random_density(rng, 4)
        p = np.array(conditional_ensemble(cg, rho).probabilities)
        expected = -math.log(float(np.sum(p**2)))
        assert renyi_post_measurement(cg, rho, 2.0) == pytest.approx(
            expected, abs=1e-10
        )

    def test_trivial_cg_gives_state_renyi(self, rng):
        rho = random_density(rng, 3)
        for a in ALPHAS:
            assert renyi_post_measurement(identity_cg(3), rho, a) == pytest.approx(
                renyi_entropy(rho, a), abs=1e-9
            )

    def test_matches_direct_for_rank1(self, rng):
        for _ in range(50):
            d = int(rng.integers(2, 7))
            cg = random_rank1_projective_cg(rng, d)
            rho = random_density(rng, d)
            for a in ALPHAS:
                direct = renyi_entropy(post_measurement_state(cg, rho), a)
                assert renyi_post_measurement(cg, rho, a) == pytest.approx(
                    direct, abs=1e-9
                )

    def test_mixture_formula_deviates_for_higher_ranks(self):
        """Documented counterexample: the outcome-mixture expression differs
        from the Renyi entropy of the post-measurement state once effects
        have rank above one and unequal conditional purities.

        The exact form sum_i p_i^2 Tr rho_i^2 with p = (0.7, 0.3) and
        purities (25/49, 5/9) gives -log 0.30."""
        rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
        cg = CoarseGraining(
            ("a", "b"),
            (np.diag([1, 1, 0, 0]).astype(complex), np.diag([0, 0, 1, 1]).astype(complex)),
        )
        direct = renyi_entropy(post_measurement_state(cg, rho), 2.0)
        mixture = renyi_post_measurement(cg, rho, 2.0)
        assert direct == pytest.approx(-math.log(0.3), abs=1e-12)
        assert mixture - direct == pytest.approx(-0.011848498143930186, abs=1e-12)
        ens = conditional_ensemble(cg, rho)
        p = np.array(ens.probabilities)
        purity = np.array([np.trace(s @ s).real for s in ens.states])
        assert p == pytest.approx([0.7, 0.3], abs=1e-12)
        assert purity == pytest.approx([25 / 49, 5 / 9], abs=1e-12)
        assert -math.log(float(np.sum(p**2 * purity))) == pytest.approx(
            -math.log(0.30), abs=1e-12
        )


class TestDecomposeAlphaOe:
    def test_rank1_divergence_term_vanishes(self, rng):
        cg = random_rank1_projective_cg(rng, 4)
        rho = random_density(rng, 4)
        post, div = decompose_alpha_oe(cg, rho, 2.0)
        assert div == pytest.approx(0.0, abs=1e-10)
        assert post + div == pytest.approx(alpha_oe(cg, rho, 2.0), abs=1e-9)

    def test_maximally_mixed(self, rng):
        cg = random_projective_cg(rng, 4)
        post, div = decompose_alpha_oe(cg, np.eye(4) / 4, 2.0)
        assert post == pytest.approx(math.log(4), abs=1e-10)
        assert div == pytest.approx(0.0, abs=1e-10)

    def test_trivial_cg_closes(self, rng):
        rho = random_density(rng, 3)
        for a in ALPHAS:
            post, div = decompose_alpha_oe(identity_cg(3), rho, a)
            assert post + div == pytest.approx(
                alpha_oe(identity_cg(3), rho, a), abs=1e-9
            )

    def test_identity_holds_for_rank1_sweep(self, rng):
        worst = 0.0
        for _ in range(50):
            d = int(rng.integers(2, 7))
            cg = random_rank1_projective_cg(rng, d)
            rho = random_density(rng, d)
            for a in ALPHAS:
                post, div = decompose_alpha_oe(cg, rho, a)
                worst = max(worst, abs(post + div - alpha_oe(cg, rho, a)))
        assert worst <= 1e-9

    def test_split_deviates_for_higher_ranks(self):
        """Documented counterexample: with two rank-2 projectors the two
        terms do not sum back to the order-2 entropy; the residual is a
        finite 0.0118 nats for this diagonal state."""
        rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
        cg = CoarseGraining(
            ("a", "b"),
            (np.diag([1, 1, 0, 0]).astype(complex), np.diag([0, 0, 1, 1]).astype(complex)),
        )
        post, div = decompose_alpha_oe(cg, rho, 2.0)
        assert alpha_oe(cg, rho, 2.0) == pytest.approx(-math.log(0.29), abs=1e-12)
        assert post + div - alpha_oe(cg, rho, 2.0) == pytest.approx(
            0.011848498143930186, abs=1e-12
        )

    def test_rejects_non_projective(self, rng):
        cg = random_povm(rng, 3)
        assert not cg.is_projective()
        with pytest.raises(NonProjectiveCoarseGraining):
            decompose_alpha_oe(cg, np.eye(3) / 3, 2.0)


class TestCoarseGrainedState:
    def test_maximally_mixed_fixed_point(self, rng):
        cg = random_povm(rng, 3)
        np.testing.assert_allclose(
            coarse_grained_state(cg, np.eye(3) / 3), np.eye(3) / 3, atol=1e-10
        )

    def test_rank1_projective_gives_diagonal(self, rng):
        rho = random_density(rng, 2)
        out = coarse_grained_state(Z_BASIS, rho)
        np.testing.assert_allclose(out, np.diag(np.diag(rho)), atol=1e-12)

    def test_idempotent_for_projective(self, rng):
        cg = random_projective_cg(rng, 5)
        rho = random_density(rng, 5)
        once = coarse_grained_state(cg, rho)
        twice = coarse_grained_state(cg, once)
        assert np.max(np.abs(once - twice)) <= 1e-10


class TestIsCoarseGrained:
    def test_constructed_equality_case(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 7))
            cg = random_projective_cg(rng, d)
            rho = random_coarse_grained_state(rng, cg)
            for a in ALPHAS:
                report = is_coarse_grained(cg, rho, a)
                assert report.matrix_close and report.entropy_close
                assert report.consistent

    def test_plus_state_fails_both(self):
        report = is_coarse_grained(Z_BASIS, proj(KET_PLUS), 2.0)
        assert not report.matrix_close and not report.entropy_close
        assert report.consistent

    def test_maximally_mixed_passes_both(self, rng):
        cg = random_povm(rng, 4)
        report = is_coarse_grained(cg, np.eye(4) / 4, 2.0)
        assert report.matrix_close and report.entropy_close
