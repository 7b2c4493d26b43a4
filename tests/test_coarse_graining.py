import math
import warnings

import numpy as np
import pytest

from obsent import (
    CoarseGraining,
    RefinementMap,
    alpha_derivative,
    alpha_oe,
    alpha_oe_divergence_form,
    alpha_oe_gap,
    check_refinement,
    classical_petz_renyi,
    decompose_alpha_oe,
    identity_cg,
    measurement_channel,
    merge_outcomes,
    observational_entropy,
    outcomes,
    projective_cg,
    refinement_divergence_bound,
    renyi_entropy,
    renyi_post_measurement,
    sequential,
    tensor_cg,
)
from obsent.errors import (
    DimensionMismatch,
    InvalidAlpha,
    InvalidPartition,
    NotARefinement,
    NotPSD,
    ObsentError,
    ValidationError,
)
from obsent.generators import (
    random_coarse_graining,
    random_density,
    random_merge,
    random_povm,
    random_projective_cg,
    random_rank1_projective_cg,
    random_unitary,
)
from obsent.operators import op_power

from conftest import HADAMARD, KET_PLUS, proj

ALPHA_GRID = (0.3, 0.7, 1.5, 2.0, 3.0)
Z_BASIS = projective_cg(np.eye(2, dtype=complex), labels=("z0", "z1"))
X_BASIS = projective_cg(HADAMARD, labels=("x0", "x1"))


class TestConstruction:
    def test_sum_to_identity_enforced(self):
        with pytest.raises(ValidationError, match="identity"):
            CoarseGraining(("a", "b"), (np.diag([1.0, 0.0]), np.diag([0.0, 0.9])))

    def test_zero_effects_dropped(self):
        cg = CoarseGraining(
            ("a", "z", "b"),
            (np.diag([1.0, 0.0]), np.zeros((2, 2)), np.diag([0.0, 1.0])),
        )
        assert cg.labels == ("a", "b")
        assert len(cg) == 2
        np.testing.assert_array_equal(
            cg.effects, [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        )
        np.testing.assert_array_equal(cg.volumes(), [1.0, 1.0])

    def test_effects_are_an_owned_read_only_stack(self):
        given = np.array([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], dtype=complex)
        cg = CoarseGraining(("a", "b"), given)
        assert isinstance(cg.effects, np.ndarray)
        assert cg.effects.shape == (2, 2, 2) and cg.effects.dtype == complex
        with pytest.raises(ValueError):
            cg.effects[0, 0, 0] = 5.0
        with pytest.raises(ValueError):
            cg.volumes()[0] = 5.0
        given[0][0, 0] = 5.0
        np.testing.assert_array_equal(cg.effects[0], np.diag([1.0, 0.0]))
        np.testing.assert_array_equal(cg.volumes(), [1.0, 1.0])
        assert [e.shape for e in cg.effects] == [(2, 2), (2, 2)]

    def test_not_psd_names_first_bad_label(self):
        bad = np.diag([1.0, -0.5])
        with pytest.raises(NotPSD, match="effect 'b' is not PSD"):
            CoarseGraining(
                ("a", "b", "c"), (np.diag([0.0, 1.5]), bad, bad)
            )

    def test_not_psd_names_first_bad_label_of_a_stack(self):
        bad = np.diag([1.0, -0.5])
        with pytest.raises(NotPSD, match="effect 'b' is not PSD"):
            CoarseGraining(("a", "b", "c"), np.array([np.diag([0.0, 1.5]), bad, bad]))

    def test_ragged_list_names_the_bad_label(self):
        with pytest.raises(DimensionMismatch, match=r"effect 'c' has shape \(3, 3\)"):
            CoarseGraining(
                ("a", "b", "c"), [np.eye(2) / 2, np.eye(2) / 2, np.eye(3)]
            )

    def test_array_and_tuple_give_identical_effects(self, rng):
        # effects with a non-Hermitian part, so the symmetrization matters
        noise = rng.normal(size=(4, 3, 3)) + 1j * rng.normal(size=(4, 3, 3))
        raw = random_povm(rng, 3, 4).effects + 1e-10 * (noise - noise.swapaxes(1, 2))
        from_array = CoarseGraining(tuple("abcd"), raw)
        from_tuple = CoarseGraining(tuple("abcd"), tuple(raw))
        assert from_array.effects.tobytes() == from_tuple.effects.tobytes()
        # the per-effect reference: (E + E^H) / 2 one matrix at a time
        for got, e in zip(from_array.effects, raw):
            assert got.tobytes() == ((e + e.conj().T) * 0.5).tobytes()

    def test_mutating_the_input_leaves_effects(self):
        given = [np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)]
        cg = CoarseGraining(("a", "b"), given)
        given[0][0, 0] = 5.0
        given[1] = np.eye(2)
        np.testing.assert_array_equal(
            cg.effects, [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        )

    def test_projectivity_probe(self):
        assert Z_BASIS.is_projective()
        trine = CoarseGraining(
            ("0", "1", "2"),
            tuple(
                (2 / 3)
                * proj([np.cos(k * 2 * np.pi / 3), np.sin(k * 2 * np.pi / 3)])
                for k in range(3)
            ),
        )
        assert not trine.is_projective()


class TestOutcomesAndChannel:
    def test_maximally_mixed_z(self):
        dist = outcomes(Z_BASIS, np.eye(2) / 2)
        np.testing.assert_allclose(dist.probabilities, [0.5, 0.5])
        np.testing.assert_allclose(dist.volumes, [1.0, 1.0])

    def test_trivial_cg(self):
        dist = outcomes(identity_cg(3), np.eye(3) / 3)
        np.testing.assert_allclose(dist.probabilities, [1.0])
        np.testing.assert_allclose(dist.volumes, [3.0])

    def test_diagonal_readout(self):
        dist = outcomes(Z_BASIS, np.diag([0.75, 0.25]))
        np.testing.assert_allclose(dist.probabilities, [0.75, 0.25])

    def test_channel_on_identity_gives_volumes(self):
        cs = measurement_channel(Z_BASIS, np.eye(2))
        np.testing.assert_allclose(cs.weights, [1.0, 1.0])

    def test_channel_trace_preserving(self, rng):
        rho = random_density(rng, 4)
        cg = random_coarse_graining(rng, 4)
        assert measurement_channel(cg, rho).weights.sum() == pytest.approx(
            1.0, abs=1e-10
        )

    def test_plus_state_in_z(self):
        cs = measurement_channel(Z_BASIS, proj(KET_PLUS))
        np.testing.assert_allclose(cs.weights, [0.5, 0.5], atol=1e-12)


class TestEntropies:
    def test_trivial_cg_gives_log_d(self, rng):
        rho = random_density(rng, 5)
        assert observational_entropy(identity_cg(5), rho) == pytest.approx(
            math.log(5), abs=1e-12
        )
        for a in ALPHA_GRID:
            assert alpha_oe(identity_cg(5), rho, a) == pytest.approx(
                math.log(5), abs=1e-12
            )

    def test_pure_state_in_own_basis(self):
        assert observational_entropy(Z_BASIS, np.diag([1.0, 0.0])) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_diagonal_qubit_frozen(self):
        rho = np.diag([0.75, 0.25])
        assert observational_entropy(Z_BASIS, rho) == pytest.approx(
            0.5623351446188083, abs=1e-12
        )
        assert alpha_oe(Z_BASIS, rho, 2.0) == pytest.approx(
            -math.log(0.625), abs=1e-12
        )

    def test_maximally_mixed_rank1(self, rng):
        cg = random_projective_cg(rng, 4, ranks=[1, 1, 1, 1])
        for a in ALPHA_GRID:
            assert alpha_oe(cg, np.eye(4) / 4, a) == pytest.approx(
                math.log(4), abs=1e-10
            )

    def test_alpha_near_one_delegates(self, rng):
        rho = random_density(rng, 3)
        cg = random_coarse_graining(rng, 3)
        s1 = observational_entropy(cg, rho)
        assert alpha_oe(cg, rho, 1 + 1e-7) == pytest.approx(s1, abs=1e-5)
        assert alpha_oe(cg, rho, 1 - 1e-7) == pytest.approx(s1, abs=1e-5)

    def test_alpha_limit_converges_outside_delegation(self, rng):
        # genuine limit: alpha = 1 +- 1e-4 evaluates the power-mean formula
        rho = random_density(rng, 4)
        cg = random_coarse_graining(rng, 4)
        s1 = observational_entropy(cg, rho)
        assert alpha_oe(cg, rho, 1 + 1e-4) == pytest.approx(s1, abs=1e-2)
        assert alpha_oe(cg, rho, 1 - 1e-4) == pytest.approx(s1, abs=1e-2)

    def test_invalid_alpha(self):
        with pytest.raises(InvalidAlpha):
            alpha_oe(Z_BASIS, np.eye(2) / 2, 0.0)

    def test_volume_power_underflow_evaluated_in_log_space(self):
        # 4**(1 - 600) underflows to 0; the value is log 4
        assert alpha_oe(identity_cg(4), np.eye(4) / 4, 600) == pytest.approx(
            math.log(4), abs=1e-12
        )

    def test_rounding_level_probabilities_count_as_zero(self):
        # outcome probabilities of ~1e-17 from rounding are cut like
        # eigenvalues are, so an eigenstate has alpha-OE 0 also for alpha < 1
        u = random_unitary(np.random.default_rng(0), 6)
        rho = proj(u[:, 2])
        cg = projective_cg(u)
        for a in (0.3, 0.5, 0.7):
            assert alpha_oe(cg, rho, a) == pytest.approx(0.0, abs=1e-12)
            assert alpha_derivative(cg, rho, a) == pytest.approx(0.0, abs=1e-12)

    def test_divergence_form_matches_sweep(self, rng):
        worst = 0.0
        for _ in range(200):
            d = int(rng.integers(2, 7))
            rho = random_density(rng, d)
            cg = random_coarse_graining(rng, d)
            for a in ALPHA_GRID:
                worst = max(
                    worst,
                    abs(alpha_oe(cg, rho, a) - alpha_oe_divergence_form(cg, rho, a)),
                )
        assert worst <= 1e-10

    def test_gap_examples(self, rng):
        assert alpha_oe_gap(Z_BASIS, np.eye(2) / 2, 2.0) == pytest.approx(
            0.0, abs=1e-10
        )
        assert alpha_oe_gap(Z_BASIS, proj(KET_PLUS), 2.0) == pytest.approx(
            math.log(2), abs=1e-10
        )
        # a state equal to its coarse-grained state closes the gap
        cg = random_projective_cg(rng, 4)
        weights = rng.dirichlet(np.ones(len(cg)))
        rho = sum(
            w / v * e for w, v, e in zip(weights, cg.volumes(), cg.effects)
        )
        assert alpha_oe_gap(cg, rho, 2.0) == pytest.approx(0.0, abs=1e-8)

    def test_bounds_sweep(self, rng):
        for _ in range(100):
            d = int(rng.integers(2, 7))
            rho = random_density(rng, d)
            cg = random_coarse_graining(rng, d)
            for a in ALPHA_GRID:
                s = alpha_oe(cg, rho, a)
                assert s >= renyi_entropy(rho, a) - 1e-10
                assert s <= math.log(d) + 1e-10


class TestDerivative:
    def test_uniform_state_has_zero_derivative(self, rng):
        cg = random_projective_cg(rng, 4, ranks=[1, 1, 1, 1])
        assert alpha_derivative(cg, np.eye(4) / 4, 2.0) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_matches_finite_difference(self):
        rho = np.diag([0.75, 0.25])
        closed = alpha_derivative(Z_BASIS, rho, 2.0)
        h = 1e-5
        fd = (alpha_oe(Z_BASIS, rho, 2 + h) - alpha_oe(Z_BASIS, rho, 2 - h)) / (
            2 * h
        )
        assert closed == pytest.approx(fd, rel=1e-5)

    def test_never_positive(self, rng):
        for _ in range(50):
            d = int(rng.integers(2, 6))
            rho = random_density(rng, d)
            cg = random_coarse_graining(rng, d)
            for a in (0.3, 0.7, 1.5, 2.0, 3.0):
                assert alpha_derivative(cg, rho, a) <= 1e-12

    def test_rejects_alpha_one(self):
        with pytest.raises(InvalidAlpha):
            alpha_derivative(Z_BASIS, np.eye(2) / 2, 1.0 + 1e-8)

    def test_zero_operator_gives_no_raw_error(self):
        try:
            assert alpha_derivative(Z_BASIS, np.zeros((2, 2)), 2.0) <= 0.0
        except ObsentError:
            pass

    @pytest.mark.parametrize("alpha", [100.0, 300.0, 1000.0, 1e4])
    def test_large_alpha_stays_finite(self, alpha):
        # t**alpha * V underflows to all zeros at alpha = 1000
        rng = np.random.default_rng(3)
        rho = random_density(rng, 4)
        cg = random_coarse_graining(rng, 4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            val = alpha_derivative(cg, rho, alpha)
        assert math.isfinite(val) and val <= 0.0


class TestTensorCg:
    def test_four_effects(self):
        prod = tensor_cg([Z_BASIS, Z_BASIS])
        assert len(prod) == 4
        assert prod.dim == 4
        assert prod.labels[0] == ("z0", "z0")

    def test_additivity(self):
        rho = np.kron(np.diag([0.75, 0.25]), np.eye(2) / 2)
        prod = tensor_cg([Z_BASIS, Z_BASIS])
        for a in ALPHA_GRID:
            expected = alpha_oe(Z_BASIS, np.diag([0.75, 0.25]), a) + math.log(2)
            assert alpha_oe(prod, rho, a) == pytest.approx(expected, abs=1e-10)

    def test_effects_follow_kron_order(self, rng):
        parts = [random_coarse_graining(rng, d) for d in (2, 3, 2)]
        prod = tensor_cg(parts)
        k = 0
        for la, a in zip(parts[0].labels, parts[0].effects):
            for lb, b in zip(parts[1].labels, parts[1].effects):
                for lc, c in zip(parts[2].labels, parts[2].effects):
                    assert prod.labels[k] == (la, lb, lc)
                    np.testing.assert_allclose(
                        prod.effects[k], np.kron(np.kron(a, b), c), atol=1e-15
                    )
                    k += 1
        assert k == len(prod)

    def test_trivial_parts(self):
        prod = tensor_cg([identity_cg(2), identity_cg(2)])
        assert len(prod) == 1
        np.testing.assert_allclose(prod.effects[0], np.eye(4))


class TestSequential:
    def test_mub_pair_halves_everything(self):
        seq = sequential(Z_BASIS, X_BASIS)
        assert len(seq) == 4
        np.testing.assert_allclose(seq.volumes(), [0.5] * 4, atol=1e-12)
        for (lab_z, _), eff in zip(seq.labels, seq.effects):
            i = 0 if lab_z == "z0" else 1
            np.testing.assert_allclose(
                eff, 0.5 * Z_BASIS.effects[i], atol=1e-12
            )

    def test_repeating_projective_cg_is_idempotent(self, rng):
        cg = random_projective_cg(rng, 4)
        rho = random_density(rng, 4)
        seq = sequential(cg, cg)
        for a in ALPHA_GRID:
            assert alpha_oe(seq, rho, a) == pytest.approx(
                alpha_oe(cg, rho, a), abs=1e-9
            )

    def test_trivial_first_stage(self, rng):
        cg = random_coarse_graining(rng, 3)
        seq = sequential(identity_cg(3), cg)
        for eff, ref in zip(seq.effects, cg.effects):
            np.testing.assert_allclose(eff, ref, atol=1e-10)

    def test_second_index_sums_to_parent(self, rng):
        cg1 = random_coarse_graining(rng, 4)
        cg2 = random_coarse_graining(rng, 4)
        seq = sequential(cg1, cg2)
        for i, parent in enumerate(cg1.effects):
            partial = sum(
                eff
                for (lab1, _), eff in zip(seq.labels, seq.effects)
                if lab1 == cg1.labels[i]
            )
            assert np.max(np.abs(partial - parent)) <= 1e-8

    def test_monotone_under_composition(self, rng):
        for _ in range(30):
            d = int(rng.integers(2, 6))
            rho = random_density(rng, d)
            cg1 = random_coarse_graining(rng, d)
            cg2 = random_coarse_graining(rng, d)
            seq = sequential(cg1, cg2)
            for a in ALPHA_GRID:
                assert alpha_oe(seq, rho, a) <= alpha_oe(cg1, rho, a) + 1e-10

    def test_mub_equality_of_entropies(self, rng):
        rho = random_density(rng, 2)
        seq = sequential(Z_BASIS, X_BASIS)
        for a in ALPHA_GRID:
            assert alpha_oe(seq, rho, a) == pytest.approx(
                alpha_oe(Z_BASIS, rho, a), abs=1e-9
            )

    def test_projective_first_stage_takes_no_eigh(self, rng, monkeypatch):
        # a projector is its own square root, so no effect is eigendecomposed
        cases = [
            (cg1, random_coarse_graining(rng, d))
            for d in (2, 3, 5)
            for cg1 in (random_projective_cg(rng, d), random_rank1_projective_cg(rng, d))
        ]
        calls = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(
            np.linalg, "eigh", lambda *a, **k: calls.append(a) or eigh(*a, **k)
        )
        seqs = [sequential(cg1, cg2) for cg1, cg2 in cases]
        assert calls == []
        monkeypatch.undo()
        for (cg1, cg2), seq in zip(cases, seqs):
            roots = op_power(cg1.effects, 0.5)[:, None]
            expected = (roots @ cg2.effects @ roots).reshape(-1, cg1.dim, cg1.dim)
            np.testing.assert_allclose(seq.effects, expected, rtol=0, atol=1e-12)


class TestRefinement:
    def test_merge_to_identity(self):
        coarse, m = merge_outcomes(Z_BASIS, [["z0", "z1"]])
        assert len(coarse) == 1
        np.testing.assert_allclose(coarse.effects[0], np.eye(2))
        holds, residual = check_refinement(Z_BASIS, coarse, m)
        assert holds and residual <= 1e-12

    def test_identity_partition(self):
        coarse, m = merge_outcomes(Z_BASIS, [["z0"], ["z1"]])
        np.testing.assert_allclose(m.matrix, np.eye(2))
        holds, _ = check_refinement(Z_BASIS, coarse, m)
        assert holds

    def test_pairwise_merge_sums_volumes(self, rng):
        cg = random_projective_cg(rng, 4, ranks=[1, 1, 1, 1])
        coarse, m = merge_outcomes(cg, [["0", "1"], ["2", "3"]])
        np.testing.assert_allclose(coarse.volumes(), [2.0, 2.0], atol=1e-9)
        holds, _ = check_refinement(cg, coarse, m)
        assert holds

    def test_wrong_map_reports_residual(self, rng):
        cg = random_projective_cg(rng, 3, ranks=[1, 1, 1])
        coarse, _ = merge_outcomes(cg, [["0", "1"], ["2"]])
        wrong = RefinementMap(np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 0.0]]))
        holds, residual = check_refinement(cg, coarse, wrong)
        assert not holds and residual > 0.1

    def test_invalid_partition(self):
        with pytest.raises(InvalidPartition):
            merge_outcomes(Z_BASIS, [["z0"]])

    def test_empty_group_rejected(self):
        with pytest.raises(InvalidPartition):
            merge_outcomes(projective_cg(np.eye(2)), [[], ["0", "1"]])

    def test_non_stochastic_map_rejected(self):
        with pytest.raises(NotARefinement):
            RefinementMap(np.array([[0.5, 0.2], [1.0, 0.0]]))

    def test_map_shape_must_match_outcome_counts(self):
        from obsent.errors import ShapeMismatch

        coarse, m = merge_outcomes(Z_BASIS, [["z0", "z1"]])
        with pytest.raises(ShapeMismatch):
            check_refinement(Z_BASIS, Z_BASIS, m)

    def test_monotone_on_merges(self, rng):
        for _ in range(50):
            d = int(rng.integers(2, 7))
            rho = random_density(rng, d)
            cg = random_projective_cg(rng, d)
            coarse, _ = random_merge(rng, cg)
            for a in (1.5, 2.0, 3.0):
                assert alpha_oe(coarse, rho, a) >= alpha_oe(cg, rho, a) - 1e-10

    def test_bound_zero_for_identity_refinement(self, rng):
        cg = random_projective_cg(rng, 3)
        coarse, m = merge_outcomes(cg, [[lab] for lab in cg.labels])
        rho = random_density(rng, 3)
        assert refinement_divergence_bound(cg, coarse, m, rho, 2.0) == pytest.approx(
            0.0, abs=1e-10
        )

    def test_bound_is_exact_gap_for_trivial_coarser(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 6))
            cg = random_projective_cg(rng, d)
            coarse, m = merge_outcomes(cg, [list(cg.labels)])
            rho = random_density(rng, d)
            for a in (1.5, 2.0, 3.0):
                gap = alpha_oe(coarse, rho, a) - alpha_oe(cg, rho, a)
                bound = refinement_divergence_bound(cg, coarse, m, rho, a)
                assert bound == pytest.approx(gap, abs=1e-9)

    def test_bound_can_exceed_gap(self):
        """Documented counterexample: the divergence bound is not a valid
        lower bound for general merges.

        For the diagonal state below and the pairwise merge of the
        computational basis, the realized entropy gap at order 2 is
        log(15/13) while the reported bound is log(6/5), which is larger
        by about 0.0392 nats. Both are exponential means of the block
        divergences (0, log 1.5): the gap under escort weights
        p_I^2 / V_I normalized to (9/13, 4/13), the bound under p_I =
        (0.6, 0.4).
        """
        p3 = 0.2 + math.sqrt(0.08) / 2
        p4 = 0.2 - math.sqrt(0.08) / 2
        rho = np.diag([0.3, 0.3, p3, p4]).astype(complex)
        fine = projective_cg(np.eye(4, dtype=complex), labels=("0", "1", "2", "3"))
        coarse, m = merge_outcomes(fine, [["0", "1"], ["2", "3"]])
        gap = alpha_oe(coarse, rho, 2.0) - alpha_oe(fine, rho, 2.0)
        bound = refinement_divergence_bound(fine, coarse, m, rho, 2.0)
        assert gap == pytest.approx(math.log(0.30 / 0.26), abs=1e-12)
        assert bound == pytest.approx(math.log(1.2), abs=1e-12)
        assert bound - gap == pytest.approx(0.03922071315328149, abs=1e-12)
        p = outcomes(fine, rho).probabilities
        p_blk = np.array([p[:2].sum(), p[2:].sum()])
        assert p_blk == pytest.approx([0.6, 0.4], abs=1e-12)
        div = [
            classical_petz_renyi(p[k : k + 2] / pb, [0.5, 0.5], 2.0)
            for k, pb in zip((0, 2), p_blk)
        ]
        assert div == pytest.approx([0.0, math.log(1.5)], abs=1e-12)
        escort = p_blk**2 / 2.0
        assert escort / escort.sum() == pytest.approx([9 / 13, 4 / 13], abs=1e-12)
        ratio = math.exp(div[1])
        assert math.log(9 / 13 + 4 / 13 * ratio) == pytest.approx(gap, abs=1e-12)
        assert math.log(0.6 + 0.4 * ratio) == pytest.approx(bound, abs=1e-12)

    def test_bound_at_large_alpha_does_not_underflow(self):
        # (V_i p'_j / V'_j)**1e4 underflows to 0
        cg = projective_cg(np.eye(3))
        coarse, m = merge_outcomes(cg, [list(cg.labels)])
        rho = np.diag([0.5, 0.3, 0.2])
        gap = alpha_oe(coarse, rho, 1e4) - alpha_oe(cg, rho, 1e4)
        bound = refinement_divergence_bound(cg, coarse, m, rho, 1e4)
        assert gap == pytest.approx(0.4053957864579435, abs=1e-12)
        assert bound == pytest.approx(gap, abs=1e-12)

    def test_bound_for_a_non_deterministic_map(self):
        # every finer outcome splits evenly over the two coarser outcomes
        fine = projective_cg(np.eye(2))
        coarse = CoarseGraining(("a", "b"), [np.eye(2) / 2, np.eye(2) / 2])
        m = RefinementMap(np.full((2, 2), 0.5))
        rho = np.diag([0.7, 0.3])
        p, v = np.array([0.7, 0.3]), np.ones(2)
        pc, vc = np.array([0.5, 0.5]), np.ones(2)
        for a in (1.5, 2.0, 3.0):
            q = np.sum(m.matrix * (v[:, None] * pc / vc) ** a, axis=1) ** (1 / a)
            assert refinement_divergence_bound(
                fine, coarse, m, rho, a
            ) == pytest.approx(classical_petz_renyi(p, q, a), abs=1e-12)

    def test_bound_requires_alpha_above_one(self, rng):
        cg = random_projective_cg(rng, 3)
        coarse, m = merge_outcomes(cg, [list(cg.labels)])
        with pytest.raises(InvalidAlpha):
            refinement_divergence_bound(cg, coarse, m, np.eye(3) / 3, 0.5)


_TWO = merge_outcomes(projective_cg(np.eye(2)), [["0", "1"]])


@pytest.mark.parametrize(
    "entry",
    [
        lambda rho: alpha_oe(Z_BASIS, rho, 2.0),
        lambda rho: renyi_post_measurement(Z_BASIS, rho, 2.0),
        lambda rho: decompose_alpha_oe(Z_BASIS, rho, 2.0),
        lambda rho: refinement_divergence_bound(
            projective_cg(np.eye(2)), *_TWO, rho, 2.0
        ),
        lambda rho: alpha_derivative(Z_BASIS, rho, 2.0),
    ],
    ids=[
        "alpha_oe",
        "renyi_post_measurement",
        "decompose_alpha_oe",
        "refinement_divergence_bound",
        "alpha_derivative",
    ],
)
def test_state_entry_points_reject_zero_traceless_and_non_finite(entry):
    # a zero state has no outcome distribution to take an entropy of
    for rho in (np.zeros((2, 2)), np.diag([1.0, -1.0]), np.diag([np.nan, 1.0])):
        with pytest.raises(ValidationError, match="positive trace"):
            entry(rho)
