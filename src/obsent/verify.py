"""Randomized verification suites behind the `verify` CLI command.

Each suite evaluates a set of named properties over seeded random
instances. A property is either hard (a violation fails the run, exit
code 2) or survey (violations are recorded as observations and never fail
the run). The hard/survey split encodes which relations are actually
theorems: in particular the refinement divergence bound and the
general-rank decomposition identities admit finite counterexamples, so
they run as surveys that collect the measured margins, while the trivial
coarse-graining equality case of the bound, and the rank-1 decomposition
identities, are hard. The exact relations behind those surveys (gap and
bound as escort- and p-weighted exponential means of per-block
divergences; the general-rank split with escort weights) are asserted by
acceptance criteria 8b and 9b.

Margins are signed slack: a property instance passes iff margin >= -tol.
Reports are deterministic functions of (suite, seed, n, dim bound). Their
types (PropertyResult, VerificationReport) and the suite names live in
report, which the CLI imports alone: this module and its generators are
compiled only by the process that runs a suite.
"""

from __future__ import annotations

import math

import numpy as np

from .coarse_graining import (
    RefinementMap,
    _alpha_derivatives,
    _alpha_oes,
    _checked,
    _lueders_roots,
    _merged,
    _oe_table,
    _outcomes,
    _refinement_bounds,
    _sequential,
    _tensor,
    alpha_oe,
    identity_cg,
    projective_cg,
    refinement_divergence_bound,
    sequential,
)
from .divergences import _entropies, _mutual_infos, _petz, _ragged
from .errors import NotARefinement
from .generators import (
    _coarse_graining,
    _draw_cg,
    _draw_merge,
    _draw_projective,
    _effect_stacks,
    random_density,
)
from .operators import _each, _integer, _option, tensor
from .report import SUITES, PropertyResult, VerificationReport
from .state_analysis import (
    _coarse_grained, _measured, _mixtures, _report_parts, _reports, _splits
)
from .thermo import (
    DrivingProtocol,
    EnergyWindowing,
    LevelSystem,
    closed_run,
    effective_beta,
    _jackson,
    gibbs_state,
    open_run,
)

ALPHA_GRID = (0.3, 0.7, 1.5, 2.0, 3.0)
ALPHA_GT1 = (1.5, 2.0, 3.0)
ALPHA_LT1 = (0.3, 0.7)


def _at(states, alphas=(), mask=None, **per_state):
    """instance(k) for the k-th margin of a table with one row per state
    and one column per alpha, read in row-major order; with a mask, of the
    k-th entry where the mask holds. per_state names more values per row."""
    def instance(k):
        flat = k if mask is None else int(np.flatnonzero(mask)[k])
        i, j = divmod(flat, len(alphas) or 1)
        alpha = {"alpha": alphas[j]} if alphas else {}
        return {"state": states[i], **alpha, **{key: v[i] for key, v in per_state.items()}}
    return instance


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, stream)))


# ----------------------------------------------------------------- suites
# Each suite runs in two phases. The draw loop takes its instances from
# its random stream in a fixed order and makes no decomposition or check:
# states (Wishart products), and the raw draws behind each coarse-graining
# (generators._draw_cg and its kin). After it, every linear-algebra step
# runs once per dimension over all instances: the frames' qr and the
# POVMs' inverse roots (generators._effect_stacks), the construction
# checks (_checked), the Luders roots of each level of a sequential chain
# and of decomposition's measurements (state_analysis._measured), the
# outcome traces, the batched eigendecompositions of the entropy tables,
# and one _ragged call per table. The stack forms give each
# instance the bits of its public one-instance call
# (tests/test_stack_forms.py). Each property is then recorded once, from
# the margin table its suite computes out of those tables, elementwise in
# the order of the one-instance arithmetic.


def suite_divergences(seed: int, n: int, dim_max: int) -> list:
    ordering = PropertyResult("petz_alpha_ordering", "hard", 1e-10)
    dpi = PropertyResult("measurement_channel_dpi", "hard", 1e-10)
    nonneg = PropertyResult("nonnegativity", "hard", 1e-10)
    limit = PropertyResult("renyi_alpha_one_delegation", "hard", 1e-5)
    mi_sign = PropertyResult("renyi_mutual_info_sign", "survey", 1e-9)

    rng = _rng(seed, 1)
    rhos, sigmas, draws, mi_cases = [], [], [], []
    for _ in range(n):
        d = int(rng.integers(2, dim_max + 1))
        rhos.append(random_density(rng, d))
        sigmas.append(random_density(rng, d))  # full rank
        draws.append(_draw_cg(rng, d))
        dims = (int(rng.integers(2, 4)), int(rng.integers(2, 4)))
        mi_cases.append((random_density(rng, dims[0] * dims[1]), dims))
    cgs = _checked(_effect_stacks(draws))
    dists = _outcomes(list(zip(cgs, rhos)) + list(zip(cgs, sigmas)))
    ps, qs = [p for p, _ in dists[:n]], [p for p, _ in dists[n:]]
    quantum = _petz(rhos, sigmas, ALPHA_GRID + (1.0, 1 + 1e-7, 1 - 1e-7))
    vals, (one, above, below) = quantum[:, :-3], quantum[:, -3:].T
    # the kernel calls classical_petz_renyi(p, q, a) makes, over the grid
    classical = _ragged(ps, qs, ALPHA_GRID)
    ordering.record(np.min(vals[:, 1:] - vals[:, :-1], axis=1), _at(rhos, sigma=sigmas))
    nonneg.record(vals, _at(rhos, ALPHA_GRID))
    finite = ~np.isinf(vals)
    dpi.record(vals[finite] - classical[finite], _at(rhos, ALPHA_GRID, finite))
    limit.record(-np.maximum(abs(above - one), abs(below - one)), _at(rhos))
    at_mi = _at([m for m, _ in mi_cases], ALPHA_GRID, dims=[list(d) for _, d in mi_cases])
    mi_sign.record(_mutual_infos(mi_cases, ALPHA_GRID), at_mi)
    return [ordering, dpi, nonneg, limit, mi_sign]


def suite_oe_core(seed: int, n: int, dim_max: int) -> list:
    limit = PropertyResult("alpha_one_limit", "hard", 1e-5)
    forms = PropertyResult("divergence_form_equivalence", "hard", 1e-10)
    gap_id = PropertyResult("gap_identity", "hard", 1e-9)
    gap_pos = PropertyResult("gap_nonnegative", "hard", 1e-10)
    bounds = PropertyResult("renyi_and_logd_bounds", "hard", 1e-10)
    ordering = PropertyResult("alpha_ordering", "hard", 1e-10)
    deriv_sign = PropertyResult("alpha_derivative_sign", "hard", 1e-12)
    deriv_fd = PropertyResult("alpha_derivative_matches_fd", "hard", 1e-5)
    additivity = PropertyResult("product_additivity", "hard", 1e-9)
    concave = PropertyResult("concavity_alpha_lt1", "hard", 1e-10)
    quasi = PropertyResult("quasi_concavity_alpha_gt1", "hard", 1e-10)

    rng = _rng(seed, 2)
    cases, draws = [], []
    for _ in range(n):
        d = int(rng.integers(2, dim_max + 1))
        draws.append(_draw_cg(rng, d))
        rho = random_density(rng, d)
        # additivity on a 2 x 3 product
        draws += [_draw_cg(rng, 2), _draw_cg(rng, 3)]
        rho_a = random_density(rng, 2)
        rho_b = random_density(rng, 3)
        # concavity
        rho2 = random_density(rng, d)
        lam = float(rng.uniform(0.05, 0.95))
        mix = lam * rho + (1 - lam) * rho2
        cases.append((rho, tensor(rho_a, rho_b), mix, lam, rho_a, rho_b, rho2))
    cgs = _checked(_effect_stacks(draws))
    whole, part_a, part_b = cgs[0::3], cgs[1::3], cgs[2::3]
    products = _checked([_tensor(a[0], b[0]) for a, b in zip(part_a, part_b)])
    measured = [(cg, case[0]) for cg, case in zip(whole, cases)]
    for cg, a, b, prod, (_, prod_rho, mix, _, rho_a, rho_b, rho2) in zip(
        whole, part_a, part_b, products, cases
    ):
        measured += [(prod, prod_rho), (a, rho_a), (b, rho_b), (cg, mix), (cg, rho2)]
    dists = _outcomes(measured)
    dists, others = dists[:n], dists[n:]
    rhos, prod_rhos, mixes = ([case[k] for case in cases] for k in range(3))
    # the public path, against the hoisted grid
    s1 = np.array([alpha_oe(_coarse_graining(e), rho, 1.0) for (e, *_), rho in zip(whole, rhos)])
    # per-state columns; [:, None] keeps their shape (0, 1) at n = 0
    log_d = np.array([math.log(len(rho)) for rho in rhos])[:, None]
    lam = np.array([case[3] for case in cases])[:, None]
    g = len(ALPHA_GRID)
    # the grid, the alpha -> 1 neighbours and the finite-difference points
    steps = tuple(a + h for a in ALPHA_GRID for h in (1e-5, -1e-5))
    table = _oe_table(dists, rhos, ALPHA_GRID + (1 + 1e-7, 1 - 1e-7) + steps)
    oe, (form, s_rho, gap) = table[0], table[1:, :, :g]
    s, (above, below) = oe[:, :g], oe[:, g : g + 2].T
    deriv = _alpha_derivatives(dists, ALPHA_GRID)
    s_prod, s_a, s_b, s_mix, s_2 = _alpha_oes(others, ALPHA_GRID).reshape(n, 5, g).swapaxes(0, 1)
    at_rho = _at(rhos, ALPHA_GRID)
    limit.record(-np.maximum(abs(above - s1), abs(below - s1)), _at(rhos))
    forms.record(-abs(s - form), at_rho)
    gap_id.record(-abs(gap - (s - s_rho)), at_rho)
    gap_pos.record(gap, at_rho)
    bounds.record(np.minimum(s - s_rho, log_d - s), at_rho)
    deriv_sign.record(-deriv, at_rho)
    fd = (oe[:, g + 2 :: 2] - oe[:, g + 3 :: 2]) / 2e-5
    # floor keeps the relative test meaningful near zero derivatives
    rel = abs(deriv - fd) / np.maximum(np.maximum(abs(deriv), abs(fd)), 1e-3)
    deriv_fd.record(-rel, at_rho)
    ordering.record(np.min(s[:, :-1] - s[:, 1:], axis=1), _at(rhos))
    additivity.record(-abs(s_prod - (s_a + s_b)), _at(prod_rhos, ALPHA_GRID))
    lt1, gt1 = slice(0, len(ALPHA_LT1)), slice(ALPHA_GRID.index(2.0), g)
    concave.record(
        s_mix[:, lt1] - (lam * s[:, lt1] + (1 - lam) * s_2[:, lt1]), _at(mixes, ALPHA_LT1)
    )
    quasi.record(s_mix[:, gt1] - np.minimum(s[:, gt1], s_2[:, gt1]), _at(mixes, (2.0, 3.0)))
    return [limit, forms, gap_id, gap_pos, bounds, ordering, deriv_sign, deriv_fd,
            additivity, concave, quasi]


def _composed(firsts: list, seconds: list) -> list:
    """The checked (effects, volumes, keep) of sequential(first, second)
    for each checked first stage and the effect stack of its second, with
    one root call and one check call per dimension."""
    roots = _lueders_roots([e for e, _, _ in firsts])
    return _checked([_sequential(r, e) for r, e in zip(roots, seconds)])


def suite_sequential(seed: int, n: int, dim_max: int) -> list:
    chain = PropertyResult("chain_monotone", "hard", 1e-10)
    above = PropertyResult("chain_above_renyi", "hard", 1e-10)
    mub = PropertyResult("mub_equality", "hard", 1e-9)
    equality = PropertyResult("equality_condition_sufficient", "hard", 1e-9)
    converse = PropertyResult("equality_condition_converse", "survey", 1e-10)

    rng = _rng(seed, 3)
    # mutually-unbiased qubit bases: measuring x after z keeps z's alpha-OE
    z = projective_cg(np.eye(2, dtype=complex))
    x = projective_cg(np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2))
    seq = sequential(z, x)
    rhos, rho_qs, draws = [], [], []
    for _ in range(n):
        d = int(rng.integers(2, dim_max + 1))
        rhos.append(random_density(rng, d))
        draws += [_draw_cg(rng, d) for _ in range(4)]
        # mutually-unbiased qubit case: exact equality
        rho_qs.append(random_density(rng, 2))
        # composing with the trivial second stage keeps t-ratios, so
        # equality; the converse of the equality condition is observed only
        draws += [_draw_cg(rng, d), _draw_cg(rng, d)]
    cgs = _checked(_effect_stacks(draws))
    cg1s, identities = cgs[4::6], [np.eye(len(rho), dtype=complex)[None] for rho in rhos]
    # the chains level by level; the first level also composes cg1 with a
    # random second stage and with the trivial {I}
    roots = _lueders_roots([e for e, _, _ in cgs[0::6] + cg1s])
    seconds = [e for e, _, _ in cgs[1::6] + cgs[5::6]] + identities
    level = _checked([_sequential(r, e) for r, e in zip(roots + roots[n:], seconds)])
    stages = [cgs[0::6], level[:n]]
    for k in (2, 3):
        stages.append(_composed(stages[-1], [e for e, _, _ in cgs[k::6]]))
    mubs = [(c.effects, c.volumes()) for c in (seq, z)]
    measured = []
    for i, (rho, rho_q) in enumerate(zip(rhos, rho_qs)):
        measured += [(stage[i], rho) for stage in stages] + [(c, rho_q) for c in mubs]
        measured += [(level[2 * n + i], rho), (cg1s[i], rho), (level[n + i], rho)]
    dists = _outcomes(measured)
    g = len(ALPHA_GRID)
    oe = _alpha_oes(dists, ALPHA_GRID).reshape(n, 9, g).swapaxes(0, 1)
    at_rho = _at(rhos, ALPHA_GRID)
    chain.record(np.min(oe[:3] - oe[1:4], axis=0), at_rho)
    above.record(oe[3] - _entropies(rhos, ALPHA_GRID), at_rho)
    mub.record(-abs(oe[4] - oe[5]), _at(rho_qs, ALPHA_GRID))
    s_triv, s_1, s_12 = oe[6:]
    equality.record(-abs(s_triv - s_1), at_rho)
    at_two = ALPHA_GRID.index(2.0)
    equal = abs(s_12[:, at_two] - s_1[:, at_two]) <= 1e-9
    margins = []
    for i in np.flatnonzero(equal):
        (p1, v1), (p12, v12) = dists[9 * i + 7], dists[9 * i + 8]
        # the cg1 outcome of each kept effect of cg1 then cg2
        first = np.flatnonzero(level[n + i][2]) // len(cgs[6 * i + 5][0])
        p1, v1 = p1[first], v1[first]
        kept = (p12 > 1e-12) & (p1 > 1e-12)
        margins.append(-float(np.abs(p12 / v12 - p1 / v1)[kept].max(initial=0.0)))
    converse.record(margins, _at(rhos, (2.0,), equal))
    return [chain, above, mub, equality, converse]


def suite_refinement(seed: int, n: int, dim_max: int, inject_invalid=False) -> list:
    relation = PropertyResult("merge_reproduces_coarser", "hard", 1e-8)
    mono_hi = PropertyResult("monotone_alpha_gt1", "hard", 1e-10)
    mono_lo = PropertyResult("monotone_alpha_lt1", "survey", 1e-10)
    bound = PropertyResult("divergence_bound_leq_gap", "survey", 1e-10)
    trivial = PropertyResult("trivial_coarser_bound_equality", "hard", 1e-9)
    control = PropertyResult("invalid_map_rejected", "hard", 0.0)

    rng = _rng(seed, 4)
    rhos, draws, maps, rejected = [], [], [], []
    for _ in range(n):
        d = int(rng.integers(2, dim_max + 1))
        rhos.append(random_density(rng, d))
        draws.append(_draw_projective(rng, d))
        maps.append(_draw_merge(rng, len(draws[-1][0])))
        # a non-stochastic map must be rejected
        try:
            RefinementMap(np.full(maps[-1].shape, 0.37))
            rejected.append(-1.0)
        except NotARefinement:
            rejected.append(0.0)
    control.record(rejected, lambda k: {"note": "non-stochastic map accepted"})
    fines = _checked(_effect_stacks(draws))
    # the trivial coarser {I}: the bound equals the gap exactly
    maps += [np.ones((len(e), 1)) for e, _, _ in fines]
    built = [_merged(m, e) for m, (e, _, _) in zip(maps, fines + fines)]
    coarse = _checked(built)
    # check_refinement's residual
    relation.record([-float(np.max(np.abs(raw - e))) for raw, (e, _, _) in zip(built[:n], coarse)],
                    _at(rhos))
    measured = []
    for i, rho in enumerate(rhos):
        measured += [(fines[i], rho), (coarse[i], rho), (coarse[n + i], rho)]
    dists = _outcomes(measured)
    g = len(ALPHA_GRID)
    s_fine, s_coarse, s_triv = _alpha_oes(dists, ALPHA_GRID).reshape(n, 3, g).swapaxes(0, 1)
    # per order above 1: the bound of each merge, then of each trivial merge
    cases = [(dists[3 * i], dists[3 * i + 1], maps[i]) for i in range(n)]
    cases += [(dists[3 * i], dists[3 * i + 2], maps[n + i]) for i in range(n)]
    d_bounds = np.array([_refinement_bounds(cases, a) for a in ALPHA_GT1]).reshape(3, 2 * n).T
    gt1, lt1 = slice(len(ALPHA_LT1), g), slice(0, len(ALPHA_LT1))
    gap = s_coarse[:, gt1] - s_fine[:, gt1]
    mono_hi.record(gap, _at(rhos, ALPHA_GT1))
    finite = ~np.isinf(d_bounds[:n])
    bound.record(gap[finite] - d_bounds[:n][finite], _at(rhos, ALPHA_GT1, finite))
    mono_lo.record(s_coarse[:, lt1] - s_fine[:, lt1], _at(rhos, ALPHA_LT1))
    trivial.record(-abs((s_triv[:, gt1] - s_fine[:, gt1]) - d_bounds[n:]), _at(rhos, ALPHA_GT1))
    results = [relation, mono_hi, mono_lo, bound, trivial, control]
    if inject_invalid:
        injected = PropertyResult("injected_invalid_map", "hard", 0.0)
        d = 3
        cg = _coarse_graining(_effect_stacks([_draw_projective(_rng(seed, 5), d, [1, 1, 1])])[0])
        bad = np.array([[0.5, 0.2], [1.0, 0.0], [0.0, 1.0]])
        try:
            rmap = RefinementMap(bad)
            refinement_divergence_bound(
                cg, identity_cg(d), rmap, random_density(_rng(seed, 6), d), 2.0
            )
            injected.record(-1.0, lambda k: {"note": "invalid map not surfaced"})
        except NotARefinement as exc:
            injected.record(-1.0, lambda k: {"error": f"NotARefinement: {exc}"})
        results.append(injected)
    return results


def suite_decomposition(seed: int, n: int, dim_max: int) -> list:
    post_r1 = PropertyResult("post_measurement_renyi_rank1", "hard", 1e-9)
    split_r1 = PropertyResult("alpha_oe_split_rank1", "hard", 1e-9)
    post_gen = PropertyResult("post_measurement_renyi_general_rank", "survey", 1e-9)
    split_gen = PropertyResult("alpha_oe_split_general_rank", "survey", 1e-9)
    assembly = PropertyResult("gap_assembly_general_rank", "survey", 1e-9)
    trace_one = PropertyResult("post_measurement_trace", "hard", 1e-9)
    eq_cases = PropertyResult("cg_state_equality_cases", "hard", 1e-8)
    pert_cases = PropertyResult("cg_state_perturbed_cases", "hard", 0.0)
    agreement = PropertyResult("cg_state_tests_agree", "hard", 0.0)

    rng = _rng(seed, 7)
    alphas = (0.5, 2.0, 3.0)
    rhos, draws, weights, herms = [], [], [], []
    for _ in range(n):
        d = int(rng.integers(2, dim_max + 1))
        rhos.append(random_density(rng, d))
        draws += [_draw_projective(rng, d, [1] * d), _draw_projective(rng, d)]
        # coarse-grained-state biconditional, and a traceless perturbation
        weights.append(rng.dirichlet(np.ones(len(draws[-1][0]))))
        herm = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        herm = herm + herm.conj().T
        herm = herm - np.trace(herm) / d * np.eye(d)
        herms.append(0.02 * herm / max(1.0, float(np.max(np.abs(herm)))))
    cgs = _checked(_effect_stacks(draws))
    # the rank-1 and the general-rank case of each state, in that order
    measured = _measured([(e, v, rhos[i // 2]) for i, (e, v, _) in enumerate(cgs)])
    traces = [float(np.trace(post).real) for *_, post in measured[1::2]]
    trace_one.record([-abs(t - 1.0) for t in traces], _at(rhos))
    eq_states = [(e, v, _coarse_grained(e, v, w)) for (e, v, _), w in zip(cgs[1::2], weights)]
    eq_parts = _report_parts(eq_states)
    perts = [eq + herm for (_, _, eq), herm in zip(eq_parts, herms)]
    for i, spectrum in enumerate(_each(np.linalg.eigvalsh, perts)):
        lam_min, d = float(spectrum[0]), len(perts[i])
        if lam_min < 1e-6:
            perts[i] = (perts[i] + abs(lam_min) * 1.5 * np.eye(d)) / (
                1 + 1.5 * abs(lam_min) * d
            )
    pert_parts = [
        part for part in _report_parts([(e, v, s) for (e, v, _), s in zip(cgs[1::2], perts)])
        if part[0] >= 1e-3
    ]
    oe = _alpha_oes([(p, v) for (p, *_), (_, v, _) in zip(measured, cgs)], alphas)
    # the rank-1 and the general-rank table of each quantity
    (mix_1, mix_g), (post_1, post_g), (div_1, div_g), (oe_1, oe_g) = (
        t.reshape(n, 2, len(alphas)).swapaxes(0, 1)
        for t in (_mixtures(measured, alphas), *_splits(measured, alphas), oe)
    )
    s_rho = _entropies(rhos, alphas)
    at_rho = _at(rhos, alphas)
    post_r1.record(-abs(mix_1 - post_1), at_rho)
    split_r1.record(-abs(post_1 + div_1 - oe_1), at_rho)
    post_gen.record(-abs(mix_g - post_g), at_rho)
    split_gen.record(-abs(post_g + div_g - oe_g), at_rho)
    assembly.record(-abs(oe_g - s_rho - ((post_g - s_rho) + div_g)), at_rho)
    eq_reports, pert_reports = _reports(eq_parts, alphas), _reports(pert_parts, alphas)
    eq_cases.record(
        [[-max(r.matrix_residual, r.entropy_residual) for r in row] for row in eq_reports],
        _at([part[2] for part in eq_parts], alphas),
    )
    pert_cases.record(
        [[min(r.matrix_residual, r.entropy_residual) - 1e-8 for r in row]
         for row in pert_reports],
        _at([part[2] for part in pert_parts], alphas),
    )
    reports = [r for row in eq_reports + pert_reports for r in row]
    agreement.record([0.0 if r.consistent else -1.0 for r in reports])
    return [post_r1, split_r1, post_gen, split_gen, assembly, trace_one, eq_cases,
            pert_cases, agreement]


def _canonical_closed_runs(alphas, n_samples=50):
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    qubit = DrivingProtocol(
        ((np.diag([0.0, 1.0]).astype(complex), 1.2), (sx, 1.3))
    )
    rho_q = gibbs_state(qubit.segments[0][0], 1.0)
    qutrit_h1 = np.diag([0.0, 0.7, 1.9]).astype(complex)
    qutrit_h2 = np.array(
        [[0.3, 0.4, 0.0], [0.4, 1.1, 0.5], [0.0, 0.5, 1.6]], dtype=complex
    )
    qutrit = DrivingProtocol(((qutrit_h1, 0.9), (qutrit_h2, 1.1)))
    rho_t = gibbs_state(qutrit_h1, 0.8)
    runs = []
    for protocol, rho0, delta in ((qubit, rho_q, 0.4), (qutrit, rho_t, 0.3)):
        times = np.linspace(0.0, protocol.total_duration, n_samples + 1)[1:]
        runs.append(closed_run(protocol, rho0, EnergyWindowing(delta), alphas, times))
    return runs


def _canonical_open_runs(alphas, n_samples=50):
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    h_s = np.diag([0.0, 1.0]).astype(complex)
    v = 0.15 * np.kron(sx, np.diag(np.ones(5), 1) + np.diag(np.ones(5), -1))
    times = np.linspace(0.1, 6.0, n_samples)
    # (bath levels, system populations, bath beta, window width): a
    # nondegenerate bath with one level per window (volumes all 1), and
    # doubly degenerate bath levels with constant window volume 2
    baths = (
        ([0.0, 0.35, 0.8, 1.3, 1.95, 2.6], [0.7, 0.3], 1.0, 0.3),
        ([0.0, 0.0, 1.0, 1.0, 2.0, 2.0], [0.6, 0.4], 0.7, 0.5),
    )
    return [
        open_run(h_s, np.diag(levels).astype(complex), v, np.diag(pops).astype(complex),
                 beta, EnergyWindowing(delta), alphas, times)
        for levels, pops, beta, delta in baths
    ]


def suite_thermo(seed: int, n: int, dim_max: int) -> list:
    second_law = PropertyResult("closed_second_law", "hard", 1e-9)
    monitor = PropertyResult("gibbs_max_monitor", "survey", 1e-9)
    clausius = PropertyResult("clausius_xi3_where_monitor_holds", "hard", 1e-9)
    xi1 = PropertyResult("open_xi1_nonnegative", "hard", 1e-9)
    facto = PropertyResult("open_factorization_constant_volumes", "hard", 1e-9)
    xi2 = PropertyResult("open_xi2_sign", "survey", 1e-9)
    mi = PropertyResult("open_mutual_info_sign", "survey", 1e-9)
    jackson = PropertyResult("jackson_identity", "hard", 1e-9)
    beta_fix = PropertyResult("effective_beta_fixed_point", "hard", 1e-8)

    alphas = (1.0 + 1e-7, 0.5, 2.0, 3.0)
    closed = _canonical_closed_runs(alphas)
    samples = [s for run in closed for s in run.samples]
    held = [s for s in samples if s.gibbs_monitor_ok]
    opened = [s for run in _canonical_open_runs(alphas) for s in run.samples]
    at_closed, at_held, at_open = (
        lambda k, g=group: {"t": g[k].t, "alpha": g[k].alpha} for group in (samples, held, opened)
    )
    second_law.record([s.delta_entropy for s in samples], at_closed)
    clausius.record([s.xi3 for s in held], at_held)
    # a run without findings records one passing margin of 0.0
    findings = [f for run in closed for f in run.findings or [None]]
    monitor.record([-abs(f["margin"]) if f else 0.0 for f in findings], findings.__getitem__)
    xi1.record([s.xi1 for s in opened], at_open)
    facto.record([-abs(s.factorization_residual) for s in opened], at_open)
    xi2.record([s.xi2 for s in opened], at_open)
    mi.record([s.mutual_info for s in opened], at_open)

    rng = _rng(seed, 8)
    checks, betas = [], []
    for _ in range(50):
        n_levels = int(rng.integers(1, 7))
        levels = LevelSystem(
            np.sort(rng.uniform(-1.0, 2.0, size=n_levels)),
            float(rng.uniform(0.5, 4.0)),
        )
        t0 = float(rng.uniform(0.2, 3.0))
        orders = (0.5, 2.0, 3.0, 5.0)
        checks += [(t0, a, *check) for a, check in zip(orders, _jackson(levels, t0, orders))]
    keys = ("t0", "alpha", "lhs", "rhs")
    jackson.record([-abs(gap) for *_, gap in checks], lambda k: dict(zip(keys, checks[k])))
    for _ in range(min(n, 50)):
        d = int(rng.integers(2, dim_max + 1))
        h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h = h + h.conj().T
        beta = float(rng.uniform(-2.0, 2.0))
        betas.append((beta, effective_beta(h, gibbs_state(h, beta))))
    beta_fix.record([-abs(recovered - beta) for beta, recovered in betas],
                    lambda k: {"beta": betas[k][0]})
    return [second_law, monitor, clausius, xi1, facto, xi2, mi, jackson, beta_fix]


_SUITES = dict(zip(SUITES, (suite_divergences, suite_oe_core, suite_sequential,
                            suite_refinement, suite_decomposition, suite_thermo)))


def run_suite(
    suite: str,
    seed: int = 0,
    n: int = 200,
    dim_max: int = 6,
    inject_invalid: bool = False,
) -> VerificationReport:
    """Run one named suite (or 'all') and return its report. seed and n are
    integers >= 0 and dim_max is an integer >= 2 (ValidationError)."""
    all_suites = _option(suite, (*_SUITES, "all"), "suite") == "all"
    seed, n = _integer(seed, 0, "seed"), _integer(n, 0, "n")
    dim_max = _integer(dim_max, 2, "dim_max")
    props = []
    for name in _SUITES if all_suites else [suite]:
        if name == "refinement":
            props += suite_refinement(seed, n, dim_max, inject_invalid=inject_invalid)
        else:
            props += _SUITES[name](seed, n, dim_max)
    return VerificationReport(suite, seed, n, dim_max, props)
