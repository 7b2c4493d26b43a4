"""verify evaluates each alpha grid from data computed once per instance:
outcome distributions, spectra, Nussbaum-Szkola pairs and the per-(cg, rho)
measurement tuples of state_analysis._measured, each swept over the whole
grid in one kernel call. Every grid entry of these table helpers, called
with one case, is bit-identical (==, not approx) to the public scalar
function it stands for; verify takes the helpers' tables over many
instances at once, whose rows equal their one-case calls bit for bit (see
the table tests in test_robustness.py)."""

import math

import numpy as np
import pytest

from obsent import (
    CoarseGraining,
    OutcomeDistribution,
    alpha_derivative,
    alpha_oe,
    alpha_oe_divergence_form,
    alpha_oe_gap,
    classical_petz_renyi,
    decompose_alpha_oe,
    identity_cg,
    is_coarse_grained,
    jackson_check,
    LevelSystem,
    outcomes,
    petz_renyi,
    post_measurement_state,
    refinement_divergence_bound,
    renyi_entropy,
    renyi_mutual_info,
    renyi_post_measurement,
)
from obsent import coarse_graining, divergences
from obsent.coarse_graining import _alpha_derivatives, _alpha_oes, _refinement_bounds
from obsent.divergences import _mutual_infos, _petz, _ragged
from obsent.generators import random_density
from obsent.report import PropertyResult
from obsent.state_analysis import _measured, _mixtures, _report_parts, _reports, _splits
from obsent.thermo import _jackson
from obsent.verify import (
    ALPHA_GRID,
    _canonical_closed_runs,
    _canonical_open_runs,
    run_suite,
)
from call_counts import count_calls, count_imported
from random_instances import random_coarse_graining, random_merge, random_projective_cg

# the grid, the alpha -> 1 neighbours and finite-difference points verify uses
ALPHAS = ALPHA_GRID + (0.5, 1.0, 1 + 1e-7, 1 - 1e-7, 2.0 + 1e-5, 0.3 - 1e-5)

# kernel calls of run_suite("all", 5, 12, 6), one per row length of each
# table of distributions, spectra or pairs; the count is deterministic, so a
# per-instance or per-order loop that creeps back fails here without timing
KERNEL_CALL_CEILING = 210

# np.linalg.eigh and eigvalsh calls of the same run, with one batched call
# per stack of conditional or flat states and per dimension of a table's
# states, of a level of coarse-graining checks or of Luders roots; per-matrix
# loops that creep back fail here
EIG_CALL_CEILING = 199

# objects and qr calls of the same run: verify draws first and builds the
# effect stacks of all instances afterwards, so it constructs only the
# coarse-grainings it reads through public paths (oe-core's alpha_oe at
# alpha = 1, the MUB case and the thermo runs' bases) and one qr per
# dimension and suite; every path reads p through coarse_graining._outcomes,
# so no OutcomeDistribution is built
CONSTRUCTION_CEILING = 17
QR_CALL_CEILING = 25

# _lueders_roots calls of the same run: one per level of the sequential
# suite's chains, one for its MUB case and one for all of decomposition's
# measurements
LUEDERS_ROOTS_CALL_CEILING = 5

# PropertyResult.record calls of the same run: one per property, from the
# suite's margin table, at any n; a per-instance record loop fails here
RECORD_CALL_CEILING = 45


@pytest.mark.parametrize("seed", range(4))
def test_hoisted_values_equal_public_functions(seed):
    rng = np.random.default_rng(seed)
    grid = np.array(ALPHAS)
    for _ in range(8):
        d = int(rng.integers(2, 7))
        rho, sigma = random_density(rng, d), random_density(rng, d, rank=1)
        rho_ab = random_density(rng, 6)
        cg = random_coarse_graining(rng, d)
        proj = random_projective_cg(rng, d)
        coarser, rmap = random_merge(rng, proj)

        dist, spectrum = outcomes(cg, rho), np.linalg.eigvalsh(rho)
        [meas] = _measured([(proj.effects, proj.volumes(), rho)])
        fine, coarse = outcomes(proj, rho), outcomes(coarser, rho)
        [oe] = _alpha_oes([(dist.probabilities, dist.volumes)], grid).tolist()
        [ent] = (-_ragged([spectrum], 1.0, grid)).tolist()
        [petz] = _petz([rho], [sigma], grid).tolist()
        [classical] = _ragged([dist.probabilities], [dist.volumes / d], grid)
        [flat] = _petz([rho], [np.eye(d) / d], grid)
        forms = (math.log(d) - classical).tolist()
        gaps = (flat - classical).tolist()
        [mixture] = _mixtures([meas], grid).tolist()
        post_terms, div_terms = (t[0].tolist() for t in _splits([meas], grid))
        [post_ent] = (-_ragged([np.linalg.eigvalsh(meas[-1])], 1.0, grid)).tolist()
        post = post_measurement_state(proj, rho)
        [mi] = _mutual_infos([(rho_ab, (2, 3))], grid).tolist()
        [reports] = _reports(_report_parts([(proj.effects, proj.volumes(), rho)]), grid)
        for k, a in enumerate(ALPHAS):
            assert oe[k] == alpha_oe(cg, rho, a)
            assert ent[k] == renyi_entropy(rho, a)
            assert petz[k] == petz_renyi(rho, sigma, a)
            p, q = dist.probabilities, dist.volumes / d
            assert classical[k] == classical_petz_renyi(p, q, a)
            assert forms[k] == alpha_oe_divergence_form(cg, rho, a)
            assert gaps[k] == alpha_oe_gap(cg, rho, a)
            # one measurement tuple serves the whole grid
            assert mixture[k] == renyi_post_measurement(proj, rho, a)
            assert (post_terms[k], div_terms[k]) == decompose_alpha_oe(proj, rho, a)
            assert post_ent[k] == renyi_entropy(post, a)
            assert mi[k] == renyi_mutual_info(rho_ab, (2, 3), a)
            assert reports[k] == is_coarse_grained(proj, rho, a)
            if a > 1.5 - 1e-9:
                bound = refinement_divergence_bound(proj, coarser, rmap, rho, a)
                case = ((fine.probabilities, fine.volumes),
                        (coarse.probabilities, coarse.volumes), rmap.matrix)
                assert _refinement_bounds([case], a).tolist() == [bound]
        pair = (dist.probabilities, dist.volumes)
        [derivs] = _alpha_derivatives([pair], ALPHA_GRID).tolist()
        for a, deriv in zip(ALPHA_GRID, derivs):
            assert deriv == alpha_derivative(cg, rho, a)
        # the difference quotient needs alpha != 1
        orders = [a for a in ALPHAS if a != 1.0]
        levels = LevelSystem(np.linspace(-1.0, 2.0, d), 1.5)
        for a, row in zip(orders, _jackson(levels, 0.8, orders)):
            assert row == jackson_check(levels, 0.8, a)


def test_run_rows_equal_single_alpha_runs():
    alphas = (1.0 + 1e-7, 0.5, 2.0, 3.0)
    for make_runs in (_canonical_closed_runs, _canonical_open_runs):
        grid_runs = make_runs(alphas, n_samples=6)
        for k, a in enumerate(alphas):
            for grid_run, run in zip(grid_runs, make_runs((a,), n_samples=6)):
                assert grid_run.samples[k :: len(alphas)] == run.samples


def test_kernel_calls_stay_under_ceiling(monkeypatch):
    calls = count_imported(monkeypatch, divergences, "_renyi_divergence")
    run_suite("all", 5, 12, 6)
    assert 0 < len(calls) <= KERNEL_CALL_CEILING


def test_lueders_root_calls_stay_under_ceiling(monkeypatch):
    calls = count_imported(monkeypatch, coarse_graining, "_lueders_roots")
    run_suite("all", 5, 12, 6)
    assert 0 < len(calls) <= LUEDERS_ROOTS_CALL_CEILING


def test_objects_and_qr_calls_stay_under_ceilings(monkeypatch):
    constructions = count_calls(monkeypatch, CoarseGraining, "__post_init__")
    distributions = count_calls(monkeypatch, OutcomeDistribution, "__post_init__")
    qrs = count_calls(monkeypatch, np.linalg, "qr")
    run_suite("all", 5, 12, 6)
    assert 0 < len(constructions) <= CONSTRUCTION_CEILING
    assert not distributions
    assert 0 < len(qrs) <= QR_CALL_CEILING
    # the counter counts: a direct outcomes call builds one
    outcomes(identity_cg(2), np.eye(2) / 2)
    assert len(distributions) == 1


def test_record_calls_stay_under_ceiling_at_any_n(monkeypatch):
    calls = count_calls(monkeypatch, PropertyResult, "record")
    for n in (12, 24):
        calls.clear()
        run_suite("all", 5, n, 6)
        assert 0 < len(calls) <= RECORD_CALL_CEILING


def test_eig_calls_stay_under_ceiling(monkeypatch):
    eighs = count_calls(monkeypatch, np.linalg, "eigh")
    eigvalshs = count_calls(monkeypatch, np.linalg, "eigvalsh")
    run_suite("all", 5, 12, 6)
    assert 0 < len(eighs) + len(eigvalshs) <= EIG_CALL_CEILING
