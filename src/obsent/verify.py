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
Reports are deterministic functions of (suite, seed, n, dim bound).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .coarse_graining import (
    RefinementMap,
    _alpha_derivatives,
    _alpha_oes,
    _refinement_bounds,
    alpha_oe,
    check_refinement,
    identity_cg,
    merge_outcomes,
    outcomes,
    projective_cg,
    refinement_divergence_bound,
    sequential,
    tensor_cg,
)
from .divergences import _entropies, _mutual_infos, _petz, _ragged
from .errors import NotARefinement
from .generators import (
    random_coarse_grained_state,
    random_coarse_graining,
    random_density,
    random_merge,
    random_projective_cg,
    random_rank1_projective_cg,
)
from .operators import _integer, _option, tensor
from .serialize import operator_to_json
from .state_analysis import _Measurement, _mixtures, _report_part, _reports, _splits
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

_MAX_RECORDED_VIOLATIONS = 3


@dataclass
class PropertyResult:
    """Aggregated outcome of one property over a sweep."""

    name: str
    mode: str  # "hard" | "survey"
    tolerance: float
    instances: int = 0
    passes: int = 0
    fails: int = 0
    worst_margin: float = math.inf
    violations: list = field(default_factory=list)

    def record(self, margin: float, instance=None):
        self.instances += 1
        self.worst_margin = min(self.worst_margin, margin)
        if margin >= -self.tolerance:
            self.passes += 1
        else:
            self.fails += 1
            if instance is not None and len(self.violations) < _MAX_RECORDED_VIOLATIONS:
                # matrices are serialized only for the violations kept
                self.violations.append(
                    {k: operator_to_json(v) if isinstance(v, np.ndarray) else v
                     for k, v in dict(instance, margin=margin).items()}
                )

    def to_json(self) -> dict:
        worst = self.worst_margin
        return {
            "name": self.name,
            "mode": self.mode,
            "tolerance": self.tolerance,
            "instances": self.instances,
            "passes": self.passes,
            "fails": self.fails,
            "worst_margin": "INFINITE" if math.isinf(worst) else worst,
            "violations": self.violations,
        }


@dataclass
class VerificationReport:
    suite: str
    seed: int
    n: int
    dim_max: int
    properties: list

    @property
    def hard_failures(self) -> int:
        return sum(p.fails for p in self.properties if p.mode == "hard")

    @property
    def exit_code(self) -> int:
        return 2 if self.hard_failures else 0

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "n": self.n,
            "dim_max": self.dim_max,
            "hard_failures": self.hard_failures,
            "exit_code": self.exit_code,
            "properties": [p.to_json() for p in self.properties],
        }


def _state_instance(rho, alpha=None, **extra) -> dict:
    inst = {"state": rho}
    if alpha is not None:
        inst["alpha"] = alpha
    inst.update(extra)
    return inst


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, stream)))


def _pv(dist) -> tuple:
    """(p, V) of an outcome distribution without its labels, which for a
    long sequential chain outweigh the two vectors."""
    return dist.probabilities, dist.volumes


# ----------------------------------------------------------------- suites
# Each suite draws its instances in the order of its random stream and
# reduces each one at once to small vectors and matrices: outcome (p, V),
# states, spectra, Nussbaum-Szkola pairs. After the draw loop every table
# is evaluated in one _ragged call (and one batched eigendecomposition per
# dimension); the margins are then recorded in instance order.


def suite_divergences(seed: int, n: int, dim_max: int) -> list:
    ordering = PropertyResult("petz_alpha_ordering", "hard", 1e-10)
    dpi = PropertyResult("measurement_channel_dpi", "hard", 1e-10)
    nonneg = PropertyResult("nonnegativity", "hard", 1e-10)
    limit = PropertyResult("renyi_alpha_one_delegation", "hard", 1e-5)
    mi_sign = PropertyResult("renyi_mutual_info_sign", "survey", 1e-9)

    rng = _rng(seed, 1)
    rhos, sigmas, ps, qs, mi_cases = [], [], [], [], []
    for _ in range(n):
        d = int(rng.integers(2, dim_max + 1))
        rhos.append(random_density(rng, d))
        sigmas.append(random_density(rng, d))  # full rank
        cg = random_coarse_graining(rng, d)
        ps.append(outcomes(cg, rhos[-1]).probabilities)
        qs.append(outcomes(cg, sigmas[-1]).probabilities)
        dims = (int(rng.integers(2, 4)), int(rng.integers(2, 4)))
        mi_cases.append((random_density(rng, dims[0] * dims[1]), dims))
    quantum = _petz(rhos, sigmas, ALPHA_GRID + (1.0, 1 + 1e-7, 1 - 1e-7)).tolist()
    # the kernel calls classical_petz_renyi(p, q, a) makes, over the grid
    classical = _ragged(ps, qs, ALPHA_GRID).tolist()
    mis = _mutual_infos(mi_cases, ALPHA_GRID).tolist()
    rows = zip(rhos, sigmas, mi_cases, quantum, classical, mis)
    for rho, sigma, (rho_ab, dims), (*vals, one, above, below), c_row, mi_row in rows:
        margin = min(b - a for a, b in zip(vals, vals[1:]))
        ordering.record(margin, _state_instance(rho, sigma=sigma))
        for a, v in zip(ALPHA_GRID, vals):
            nonneg.record(v, _state_instance(rho, a))
        for a, v, c in zip(ALPHA_GRID, vals, c_row):
            if not math.isinf(v):
                dpi.record(v - c, _state_instance(rho, a))
        limit.record(-max(abs(above - one), abs(below - one)), _state_instance(rho))
        for a, mi in zip(ALPHA_GRID, mi_row):
            mi_sign.record(mi, _state_instance(rho_ab, a, dims=list(dims)))
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
    cases, dists, others = [], [], []
    for _ in range(n):
        d = int(rng.integers(2, dim_max + 1))
        cg = random_coarse_graining(rng, d)
        rho = random_density(rng, d)
        # additivity on a 2 x 3 product
        cg_a = random_coarse_graining(rng, 2)
        cg_b = random_coarse_graining(rng, 3)
        rho_a = random_density(rng, 2)
        rho_b = random_density(rng, 3)
        prod_rho = tensor(rho_a, rho_b)
        # concavity
        rho2 = random_density(rng, d)
        lam = float(rng.uniform(0.05, 0.95))
        mix = lam * rho + (1 - lam) * rho2
        # the public path, against the hoisted grid
        cases.append((rho, prod_rho, mix, lam, alpha_oe(cg, rho, 1.0)))
        dists.append(_pv(outcomes(cg, rho)))
        measured = ((tensor_cg([cg_a, cg_b]), prod_rho), (cg_a, rho_a), (cg_b, rho_b),
                    (cg, mix), (cg, rho2))
        others += [_pv(outcomes(c, m)) for c, m in measured]
    rhos = [rho for rho, *_ in cases]
    g = len(ALPHA_GRID)
    # the grid, the alpha -> 1 neighbours and the finite-difference points
    steps = tuple(a + h for a in ALPHA_GRID for h in (1e-5, -1e-5))
    oe = _alpha_oes(dists, ALPHA_GRID + (1 + 1e-7, 1 - 1e-7) + steps).tolist()
    # the kernel calls of classical_petz_renyi(p, V / d, a) and
    # petz_renyi(rho, I / d, a), over the grid
    flat_p = [v / len(rho) for (_, v), rho in zip(dists, rhos)]
    classical = _ragged([p for p, _ in dists], flat_p, ALPHA_GRID).tolist()
    flats = [np.eye(len(rho)) / len(rho) for rho in rhos]
    quantum = _petz(rhos, flats, ALPHA_GRID).tolist()
    s_rho = _entropies(rhos, ALPHA_GRID).tolist()
    derivs = _alpha_derivatives(dists, ALPHA_GRID).tolist()
    others = _alpha_oes(others, ALPHA_GRID).reshape(n, 5, g).tolist()
    tables = zip(cases, oe, classical, quantum, s_rho, derivs, others)
    for (rho, prod_rho, mix, lam, s1), row, c_row, q_row, s_row, d_row, other in tables:
        d = len(rho)
        svals, (above, below), fd_points = row[:g], row[g : g + 2], row[g + 2 :]
        limit.record(-max(abs(above - s1), abs(below - s1)), _state_instance(rho))
        columns = zip(
            ALPHA_GRID, svals, c_row, q_row, s_row, d_row, fd_points[0::2], fd_points[1::2]
        )
        for a, s, c, qu, s_rho_a, deriv, up, down in columns:
            forms.record(-abs(s - (math.log(d) - c)), _state_instance(rho, a))
            gap = qu - c
            gap_id.record(-abs(gap - (s - s_rho_a)), _state_instance(rho, a))
            gap_pos.record(gap, _state_instance(rho, a))
            bounds.record(min(s - s_rho_a, math.log(d) - s), _state_instance(rho, a))
            deriv_sign.record(-deriv, _state_instance(rho, a))
            fd = (up - down) / 2e-5
            # floor keeps the relative test meaningful near zero derivatives
            rel = abs(deriv - fd) / max(abs(deriv), abs(fd), 1e-3)
            deriv_fd.record(-rel, _state_instance(rho, a))
        ordering.record(
            min(b - a for a, b in zip(svals[1:], svals[:-1])),
            _state_instance(rho),
        )
        whole, s_a, s_b = other[:3]
        for a, w, u, v in zip(ALPHA_GRID, whole, s_a, s_b):
            additivity.record(-abs(w - (u + v)), _state_instance(prod_rho, a))
        s, s_mix, s_2 = (dict(zip(ALPHA_GRID, vals)) for vals in (svals, *other[3:]))
        for a in ALPHA_LT1:
            margin = s_mix[a] - (lam * s[a] + (1 - lam) * s_2[a])
            concave.record(margin, _state_instance(mix, a))
        for a in (2.0, 3.0):
            margin = s_mix[a] - min(s[a], s_2[a])
            quasi.record(margin, _state_instance(mix, a))
    return [
        limit,
        forms,
        gap_id,
        gap_pos,
        bounds,
        ordering,
        deriv_sign,
        deriv_fd,
        additivity,
        concave,
        quasi,
    ]


def _mub_qubit_case():
    z = projective_cg(np.eye(2, dtype=complex), labels=("z0", "z1"))
    h = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    x = projective_cg(h, labels=("x0", "x1"))
    return z, x


def suite_sequential(seed: int, n: int, dim_max: int) -> list:
    chain = PropertyResult("chain_monotone", "hard", 1e-10)
    above = PropertyResult("chain_above_renyi", "hard", 1e-10)
    mub = PropertyResult("mub_equality", "hard", 1e-9)
    equality = PropertyResult("equality_condition_sufficient", "hard", 1e-9)
    converse = PropertyResult("equality_condition_converse", "survey", 1e-10)

    rng = _rng(seed, 3)
    z, x = _mub_qubit_case()
    seq = sequential(z, x)
    cases, dists = [], []
    for _ in range(n):
        d = int(rng.integers(2, dim_max + 1))
        rho = random_density(rng, d)
        cgs = [random_coarse_graining(rng, d) for _ in range(4)]
        stages = [cgs[0]]
        for nxt in cgs[1:]:
            stages.append(sequential(stages[-1], nxt))
        # mutually-unbiased qubit case: exact equality
        rho_q = random_density(rng, 2)
        # composing with the trivial second stage keeps t-ratios, so
        # equality; the converse of the equality condition is observed only
        cg1 = random_coarse_graining(rng, d)
        seq2 = sequential(cg1, random_coarse_graining(rng, d))
        cases.append((rho, rho_q, [cg1.labels.index(lab1) for lab1, _ in seq2.labels]))
        measured = [(c, rho) for c in stages] + [(seq, rho_q), (z, rho_q)]
        measured += [(sequential(cg1, identity_cg(d)), rho), (cg1, rho), (seq2, rho)]
        dists += [_pv(outcomes(c, m)) for c, m in measured]
    g = len(ALPHA_GRID)
    oe = _alpha_oes(dists, ALPHA_GRID).reshape(n, 9, g).tolist()
    s_rho = _entropies([rho for rho, _, _ in cases], ALPHA_GRID).tolist()
    at_two = ALPHA_GRID.index(2.0)
    for i, ((rho, rho_q, first), s_row, grids) in enumerate(zip(cases, s_rho, oe)):
        for a, values, s in zip(ALPHA_GRID, zip(*grids[:4]), s_row):
            chain.record(
                min(u - v for u, v in zip(values, values[1:])),
                _state_instance(rho, a),
            )
            above.record(values[-1] - s, _state_instance(rho, a))
        for a, u, v in zip(ALPHA_GRID, grids[4], grids[5]):
            mub.record(-abs(u - v), _state_instance(rho_q, a))
        s_triv, s_1, s_12 = grids[6:]
        for a, u, v in zip(ALPHA_GRID, s_triv, s_1):
            equality.record(-abs(u - v), _state_instance(rho, a))
        if abs(s_12[at_two] - s_1[at_two]) <= 1e-9:
            (p1, v1), (p12, v12) = dists[9 * i + 7], dists[9 * i + 8]
            p1, v1 = p1[first], v1[first]
            kept = (p12 > 1e-12) & (p1 > 1e-12)
            ratios = np.abs(p12 / v12 - p1 / v1)[kept]
            converse.record(-float(ratios.max(initial=0.0)), _state_instance(rho, 2.0))
    return [chain, above, mub, equality, converse]


def suite_refinement(seed: int, n: int, dim_max: int, inject_invalid=False) -> list:
    relation = PropertyResult("merge_reproduces_coarser", "hard", 1e-8)
    mono_hi = PropertyResult("monotone_alpha_gt1", "hard", 1e-10)
    mono_lo = PropertyResult("monotone_alpha_lt1", "survey", 1e-10)
    bound = PropertyResult("divergence_bound_leq_gap", "survey", 1e-10)
    trivial = PropertyResult("trivial_coarser_bound_equality", "hard", 1e-9)
    control = PropertyResult("invalid_map_rejected", "hard", 0.0)

    rng = _rng(seed, 4)
    rhos, merges, trivials = [], [], []
    for _ in range(n):
        d = int(rng.integers(2, dim_max + 1))
        rho = random_density(rng, d)
        cg = random_projective_cg(rng, d)
        coarser, rmap = random_merge(rng, cg)
        _, residual = check_refinement(cg, coarser, rmap)
        relation.record(-residual, _state_instance(rho))
        fine = outcomes(cg, rho)
        # trivial coarser {I}: the bound equals the gap exactly
        triv_cg, triv_map = merge_outcomes(cg, [list(cg.labels)])
        rhos.append(rho)
        merges.append((fine, outcomes(coarser, rho), rmap))
        trivials.append((fine, outcomes(triv_cg, rho), triv_map))
        # a non-stochastic map must be rejected
        bad = np.full((len(cg), len(coarser)), 0.37)
        try:
            RefinementMap(bad)
            control.record(-1.0, {"note": "non-stochastic map accepted"})
        except NotARefinement:
            control.record(0.0)
    g = len(ALPHA_GRID)
    dists = [(fine, coarse, triv) for (fine, coarse, _), (_, triv, _) in zip(merges, trivials)]
    oe = _alpha_oes([_pv(d) for ds in dists for d in ds], ALPHA_GRID).reshape(n, 3, g).tolist()
    # per order above 1: the bound of each merge, then of each trivial merge
    d_bounds = [_refinement_bounds(merges + trivials, a).tolist() for a in ALPHA_GT1]
    for i, (rho, grids) in enumerate(zip(rhos, oe)):
        s_fine, s_coarse, s_triv = (dict(zip(ALPHA_GRID, grid)) for grid in grids)
        for a, d_bound in zip(ALPHA_GT1, d_bounds):
            gap = s_coarse[a] - s_fine[a]
            mono_hi.record(gap, _state_instance(rho, a))
            if not math.isinf(d_bound[i]):
                bound.record(gap - d_bound[i], _state_instance(rho, a))
        for a in ALPHA_LT1:
            mono_lo.record(s_coarse[a] - s_fine[a], _state_instance(rho, a))
        for a, d_bound in zip(ALPHA_GT1, d_bounds):
            gap = s_triv[a] - s_fine[a]
            trivial.record(-abs(gap - d_bound[n + i]), _state_instance(rho, a))
    results = [relation, mono_hi, mono_lo, bound, trivial, control]
    if inject_invalid:
        injected = PropertyResult("injected_invalid_map", "hard", 0.0)
        d = 3
        cg = random_projective_cg(_rng(seed, 5), d, ranks=[1, 1, 1])
        bad = np.array([[0.5, 0.2], [1.0, 0.0], [0.0, 1.0]])
        try:
            rmap = RefinementMap(bad)
            refinement_divergence_bound(
                cg, identity_cg(d), rmap, random_density(_rng(seed, 6), d), 2.0
            )
            injected.record(-1.0, {"note": "invalid map not surfaced"})
        except NotARefinement as exc:
            injected.record(-1.0, {"error": f"NotARefinement: {exc}"})
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
    rhos, dists, mixtures, splits, eq_parts, pert_parts = [], [], [], [], [], []
    for _ in range(n):
        d = int(rng.integers(2, dim_max + 1))
        rho = random_density(rng, d)
        cg_r1 = random_rank1_projective_cg(rng, d)
        cg_gen = random_projective_cg(rng, d)
        r1, gen = _Measurement(cg_r1, rho), _Measurement(cg_gen, rho)
        trace_one.record(
            -abs(float(np.trace(gen.post_state).real) - 1.0), _state_instance(rho)
        )
        rhos.append(rho)
        dists += [_pv(r1.dist), _pv(gen.dist)]
        mixtures += [r1.mixture_part, gen.mixture_part]
        splits += [r1.split_part, gen.split_part]
        # coarse-grained-state biconditional
        eq_parts.append(_report_part(cg_gen, random_coarse_grained_state(rng, cg_gen)))
        rho_eq = eq_parts[-1][2]
        herm = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        herm = herm + herm.conj().T
        herm = herm - np.trace(herm) / d * np.eye(d)
        pert = rho_eq + 0.02 * herm / max(1.0, float(np.max(np.abs(herm))))
        lam_min = float(np.linalg.eigvalsh(pert)[0])
        if lam_min < 1e-6:
            pert = (pert + abs(lam_min) * 1.5 * np.eye(d)) / (
                1 + 1.5 * abs(lam_min) * d
            )
        part = _report_part(cg_gen, pert)
        pert_parts.append(part if part[0] >= 1e-3 else None)
    g = len(alphas)
    mix = _mixtures(mixtures, alphas).reshape(n, 2, g)
    post, div = (t.reshape(n, 2, g) for t in _splits(splits, alphas))
    oe = _alpha_oes(dists, alphas).reshape(n, 2, g)
    s_rho = _entropies(rhos, alphas)
    eq_reports = _reports(eq_parts, alphas)
    pert_reports = iter(_reports([part for part in pert_parts if part], alphas))
    props = (post_r1, split_r1, post_gen, split_gen, assembly)
    for i, rho in enumerate(rhos):
        (mix_1, mix_g), (post_1, post_g), (div_1, div_g), (oe_1, oe_g) = (
            mix[i], post[i], div[i], oe[i]
        )
        # one margin array per property, in the order they are recorded
        margins = (
            -abs(mix_1 - post_1),
            -abs(post_1 + div_1 - oe_1),
            -abs(mix_g - post_g),
            -abs(post_g + div_g - oe_g),
            -abs(oe_g - s_rho[i] - ((post_g - s_rho[i]) + div_g)),
        )
        for a, row in zip(alphas, zip(*(m.tolist() for m in margins))):
            for prop, margin in zip(props, row):
                prop.record(margin, _state_instance(rho, a))
        for a, report in zip(alphas, eq_reports[i]):
            eq_cases.record(
                -max(report.matrix_residual, report.entropy_residual),
                _state_instance(eq_parts[i][2], a),
            )
            agreement.record(0.0 if report.consistent else -1.0)
        if pert_parts[i]:
            for a, report in zip(alphas, next(pert_reports)):
                pert_cases.record(
                    min(report.matrix_residual, report.entropy_residual) - 1e-8,
                    _state_instance(pert_parts[i][2], a),
                )
                agreement.record(0.0 if report.consistent else -1.0)
    return [
        post_r1,
        split_r1,
        post_gen,
        split_gen,
        assembly,
        trace_one,
        eq_cases,
        pert_cases,
        agreement,
    ]


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
    for record in _canonical_closed_runs(alphas):
        for s in record.samples:
            second_law.record(s.delta_entropy, {"t": s.t, "alpha": s.alpha})
            if s.gibbs_monitor_ok:
                clausius.record(s.xi3, {"t": s.t, "alpha": s.alpha})
        for f in record.findings:
            monitor.record(-abs(f["margin"]), dict(f))
        if not record.findings:
            monitor.record(0.0)
    for record in _canonical_open_runs(alphas):
        for s in record.samples:
            xi1.record(s.xi1, {"t": s.t, "alpha": s.alpha})
            facto.record(
                -abs(s.factorization_residual), {"t": s.t, "alpha": s.alpha}
            )
            xi2.record(s.xi2, {"t": s.t, "alpha": s.alpha})
            mi.record(s.mutual_info, {"t": s.t, "alpha": s.alpha})

    rng = _rng(seed, 8)
    for _ in range(50):
        n_levels = int(rng.integers(1, 7))
        levels = LevelSystem(
            np.sort(rng.uniform(-1.0, 2.0, size=n_levels)),
            float(rng.uniform(0.5, 4.0)),
        )
        t0 = float(rng.uniform(0.2, 3.0))
        orders = (0.5, 2.0, 3.0, 5.0)
        for a, (lhs, rhs, gap) in zip(orders, _jackson(levels, t0, orders)):
            jackson.record(-abs(gap), {"t0": t0, "alpha": a, "lhs": lhs, "rhs": rhs})
    for _ in range(min(n, 50)):
        d = int(rng.integers(2, dim_max + 1))
        h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        h = h + h.conj().T
        beta = float(rng.uniform(-2.0, 2.0))
        recovered = effective_beta(h, gibbs_state(h, beta))
        beta_fix.record(-abs(recovered - beta), {"beta": beta})
    return [second_law, monitor, clausius, xi1, facto, xi2, mi, jackson, beta_fix]


_SUITES = {
    "divergences": suite_divergences,
    "oe-core": suite_oe_core,
    "sequential": suite_sequential,
    "refinement": suite_refinement,
    "decomposition": suite_decomposition,
    "thermo": suite_thermo,
}


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
