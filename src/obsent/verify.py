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
    _alpha_derivative,
    _alpha_oe,
    _refinement_bound,
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
from .divergences import (
    _mutual_info,
    _renyi_divergence,
    _renyi_entropy,
    _spectral_pair,
)
from .errors import NotARefinement
from .generators import (
    random_coarse_grained_state,
    random_coarse_graining,
    random_density,
    random_merge,
    random_projective_cg,
    random_rank1_projective_cg,
)
from .operators import tensor
from .serialize import operator_to_json
from .state_analysis import _coarse_grained_reports, _Measurement, coarse_grained_state
from .thermo import (
    DrivingProtocol,
    EnergyWindowing,
    LevelSystem,
    closed_run,
    effective_beta,
    gibbs_state,
    jackson_check,
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


def _grid(values) -> dict:
    """ALPHA_GRID entry -> value, from one grid evaluation."""
    return dict(zip(ALPHA_GRID, values.tolist()))


# ----------------------------------------------------------------- suites


def suite_divergences(seed: int, n: int, dim_max: int) -> list:
    ordering = PropertyResult("petz_alpha_ordering", "hard", 1e-10)
    dpi = PropertyResult("measurement_channel_dpi", "hard", 1e-10)
    nonneg = PropertyResult("nonnegativity", "hard", 1e-10)
    limit = PropertyResult("renyi_alpha_one_delegation", "hard", 1e-5)
    mi_sign = PropertyResult("renyi_mutual_info_sign", "survey", 1e-9)

    rng = _rng(seed, 1)
    for _ in range(n):
        d = int(rng.integers(2, dim_max + 1))
        rho = random_density(rng, d)
        sigma = random_density(rng, d)  # full rank
        pair = _spectral_pair(rho, sigma)
        *vals, one, above, below = _renyi_divergence(
            *pair, ALPHA_GRID + (1.0, 1 + 1e-7, 1 - 1e-7)
        ).tolist()
        margin = min(b - a for a, b in zip(vals, vals[1:]))
        ordering.record(margin, _state_instance(rho, sigma=sigma))
        for a, v in zip(ALPHA_GRID, vals):
            nonneg.record(v, _state_instance(rho, a))
        cg = random_coarse_graining(rng, d)
        p = outcomes(cg, rho).probabilities
        q = outcomes(cg, sigma).probabilities
        # the kernel call classical_petz_renyi(p, q, a) makes, over the grid
        classical = _renyi_divergence(p, q, ALPHA_GRID).tolist()
        for a, quantum, c in zip(ALPHA_GRID, vals, classical):
            if math.isinf(quantum):
                continue
            dpi.record(quantum - c, _state_instance(rho, a))
        near = max(abs(above - one), abs(below - one))
        limit.record(-near, _state_instance(rho))
        d_a = int(rng.integers(2, 4))
        d_b = int(rng.integers(2, 4))
        rho_ab = random_density(rng, d_a * d_b)
        mis = _mutual_info(rho_ab, (d_a, d_b), ALPHA_GRID).tolist()
        for a, mi in zip(ALPHA_GRID, mis):
            mi_sign.record(mi, _state_instance(rho_ab, a, dims=[d_a, d_b]))
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

    # the grid, the alpha -> 1 neighbours and the finite-difference points
    near = (1 + 1e-7, 1 - 1e-7)
    steps = tuple(a + h for a in ALPHA_GRID for h in (1e-5, -1e-5))
    rng = _rng(seed, 2)
    for _ in range(n):
        d = int(rng.integers(2, dim_max + 1))
        cg = random_coarse_graining(rng, d)
        rho = random_density(rng, d)
        dist, spec = outcomes(cg, rho), np.linalg.eigvalsh(rho)
        flat_p, flat_pair = dist.volumes / d, _spectral_pair(rho, np.eye(d) / d)
        s1 = alpha_oe(cg, rho, 1.0)  # the public path, against the hoisted grid
        oe = _alpha_oe(dist, ALPHA_GRID + near + steps).tolist()
        g = len(ALPHA_GRID)
        svals, (above, below), fd_points = oe[:g], oe[g : g + 2], oe[g + 2 :]
        limit.record(-max(abs(above - s1), abs(below - s1)), _state_instance(rho))
        # the kernel calls of classical_petz_renyi(p, flat_p, a) and
        # petz_renyi(rho, I/d, a), over the grid
        classical = _renyi_divergence(dist.probabilities, flat_p, ALPHA_GRID).tolist()
        quantum = _renyi_divergence(*flat_pair, ALPHA_GRID).tolist()
        columns = zip(
            ALPHA_GRID,
            svals,
            classical,
            quantum,
            _renyi_entropy(spec, ALPHA_GRID).tolist(),
            _alpha_derivative(dist, ALPHA_GRID).tolist(),
            fd_points[0::2],
            fd_points[1::2],
        )
        for a, s, c, qu, s_rho, deriv, up, down in columns:
            forms.record(-abs(s - (math.log(d) - c)), _state_instance(rho, a))
            gap = qu - c
            gap_id.record(-abs(gap - (s - s_rho)), _state_instance(rho, a))
            gap_pos.record(gap, _state_instance(rho, a))
            bounds.record(min(s - s_rho, math.log(d) - s), _state_instance(rho, a))
            deriv_sign.record(-deriv, _state_instance(rho, a))
            fd = (up - down) / 2e-5
            # floor keeps the relative test meaningful near zero derivatives
            rel = abs(deriv - fd) / max(abs(deriv), abs(fd), 1e-3)
            deriv_fd.record(-rel, _state_instance(rho, a))
        ordering.record(
            min(b - a for a, b in zip(svals[1:], svals[:-1])),
            _state_instance(rho),
        )
        # additivity on a 2 x 3 product
        cg_a = random_coarse_graining(rng, 2)
        cg_b = random_coarse_graining(rng, 3)
        rho_a = random_density(rng, 2)
        rho_b = random_density(rng, 3)
        prod_rho = tensor(rho_a, rho_b)
        d_prod = outcomes(tensor_cg([cg_a, cg_b]), prod_rho)
        d_a, d_b = outcomes(cg_a, rho_a), outcomes(cg_b, rho_b)
        parts = (_alpha_oe(d_a, ALPHA_GRID) + _alpha_oe(d_b, ALPHA_GRID)).tolist()
        for a, whole, part in zip(ALPHA_GRID, _alpha_oe(d_prod, ALPHA_GRID).tolist(), parts):
            additivity.record(-abs(whole - part), _state_instance(prod_rho, a))
        # concavity
        rho2 = random_density(rng, d)
        lam = float(rng.uniform(0.05, 0.95))
        mix = lam * rho + (1 - lam) * rho2
        s = dict(zip(ALPHA_GRID, svals))
        s_mix = _grid(_alpha_oe(outcomes(cg, mix), ALPHA_GRID))
        s_2 = _grid(_alpha_oe(outcomes(cg, rho2), ALPHA_GRID))
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
    for _ in range(n):
        d = int(rng.integers(2, dim_max + 1))
        rho = random_density(rng, d)
        cgs = [random_coarse_graining(rng, d) for _ in range(4)]
        stages = [cgs[0]]
        for nxt in cgs[1:]:
            stages.append(sequential(stages[-1], nxt))
        grids = [_alpha_oe(outcomes(c, rho), ALPHA_GRID).tolist() for c in stages]
        s_rho = _renyi_entropy(np.linalg.eigvalsh(rho), ALPHA_GRID).tolist()
        for a, values, s in zip(ALPHA_GRID, zip(*grids), s_rho):
            chain.record(
                min(u - v for u, v in zip(values, values[1:])),
                _state_instance(rho, a),
            )
            above.record(values[-1] - s, _state_instance(rho, a))
        # mutually-unbiased qubit case: exact equality
        rho_q = random_density(rng, 2)
        d_seq, d_z = outcomes(seq, rho_q), outcomes(z, rho_q)
        pairs = zip(_alpha_oe(d_seq, ALPHA_GRID).tolist(), _alpha_oe(d_z, ALPHA_GRID).tolist())
        for a, (u, v) in zip(ALPHA_GRID, pairs):
            mub.record(-abs(u - v), _state_instance(rho_q, a))
        # composing with the trivial second stage keeps t-ratios, so equality
        cg1 = random_coarse_graining(rng, d)
        d_triv = outcomes(sequential(cg1, identity_cg(d)), rho)
        d_1 = outcomes(cg1, rho)
        s_1 = _grid(_alpha_oe(d_1, ALPHA_GRID))
        for a, u in zip(ALPHA_GRID, _alpha_oe(d_triv, ALPHA_GRID).tolist()):
            equality.record(-abs(u - s_1[a]), _state_instance(rho, a))
        # converse of the equality condition, observed only
        cg2 = random_coarse_graining(rng, d)
        seq2 = sequential(cg1, cg2)
        d_12 = outcomes(seq2, rho)
        if abs(_alpha_oe(d_12, 2.0) - s_1[2.0]) <= 1e-9:
            first = [cg1.labels.index(lab1) for lab1, _ in seq2.labels]
            p1, p12 = d_1.probabilities[first], d_12.probabilities
            kept = (p12 > 1e-12) & (p1 > 1e-12)
            ratios = np.abs(p12 / d_12.volumes - p1 / d_1.volumes[first])[kept]
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
    for _ in range(n):
        d = int(rng.integers(2, dim_max + 1))
        rho = random_density(rng, d)
        cg = random_projective_cg(rng, d)
        coarser, rmap = random_merge(rng, cg)
        _, residual = check_refinement(cg, coarser, rmap)
        relation.record(-residual, _state_instance(rho))
        fine, coarse = outcomes(cg, rho), outcomes(coarser, rho)
        s_fine, s_coarse = _grid(_alpha_oe(fine, ALPHA_GRID)), _grid(_alpha_oe(coarse, ALPHA_GRID))
        for a in ALPHA_GT1:
            gap = s_coarse[a] - s_fine[a]
            mono_hi.record(gap, _state_instance(rho, a))
            d_bound = _refinement_bound(fine, coarse, rmap, a)
            if not math.isinf(d_bound):
                bound.record(gap - d_bound, _state_instance(rho, a))
        for a in ALPHA_LT1:
            gap = s_coarse[a] - s_fine[a]
            mono_lo.record(gap, _state_instance(rho, a))
        # trivial coarser {I}: the bound equals the gap exactly
        triv_cg, triv_map = merge_outcomes(cg, [list(cg.labels)])
        triv = outcomes(triv_cg, rho)
        for a, s_triv in zip(ALPHA_GT1, _alpha_oe(triv, ALPHA_GT1).tolist()):
            gap = s_triv - s_fine[a]
            d_bound = _refinement_bound(fine, triv, triv_map, a)
            trivial.record(-abs(gap - d_bound), _state_instance(rho, a))
        # a non-stochastic map must be rejected
        bad = np.full((len(cg), len(coarser)), 0.37)
        try:
            RefinementMap(bad)
            control.record(-1.0, {"note": "non-stochastic map accepted"})
        except NotARefinement:
            control.record(0.0)
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
    for _ in range(n):
        d = int(rng.integers(2, dim_max + 1))
        rho = random_density(rng, d)
        cg_r1 = random_rank1_projective_cg(rng, d)
        cg_gen = random_projective_cg(rng, d)
        r1, gen = _Measurement(cg_r1, rho), _Measurement(cg_gen, rho)
        spec = np.linalg.eigvalsh(rho)
        trace_one.record(
            -abs(float(np.trace(gen.post_state).real) - 1.0), _state_instance(rho)
        )
        p_term, d_term = r1.decompose(alphas)
        pg, dg = gen.decompose(alphas)
        direct_g, oe_g = _renyi_entropy(gen.post_spectrum, alphas), _alpha_oe(gen.dist, alphas)
        s_rho = _renyi_entropy(spec, alphas)
        # one margin array per property, in the order they are recorded
        margins = (
            -abs(r1.renyi_mixture(alphas) - _renyi_entropy(r1.post_spectrum, alphas)),
            -abs(p_term + d_term - _alpha_oe(r1.dist, alphas)),
            -abs(gen.renyi_mixture(alphas) - direct_g),
            -abs(pg + dg - oe_g),
            -abs(oe_g - s_rho - ((direct_g - s_rho) + dg)),
        )
        props = (post_r1, split_r1, post_gen, split_gen, assembly)
        for a, row in zip(alphas, zip(*(m.tolist() for m in margins))):
            for prop, margin in zip(props, row):
                prop.record(margin, _state_instance(rho, a))
        # coarse-grained-state biconditional
        rho_eq = random_coarse_grained_state(rng, cg_gen)
        for a, report in zip(alphas, _coarse_grained_reports(cg_gen, rho_eq, alphas)):
            eq_cases.record(
                -max(report.matrix_residual, report.entropy_residual),
                _state_instance(rho_eq, a),
            )
            agreement.record(0.0 if report.consistent else -1.0)
        herm = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        herm = herm + herm.conj().T
        herm = herm - np.trace(herm) / d * np.eye(d)
        pert = rho_eq + 0.02 * herm / max(1.0, float(np.max(np.abs(herm))))
        lam_min = float(np.linalg.eigvalsh(pert)[0])
        if lam_min < 1e-6:
            pert = (pert + abs(lam_min) * 1.5 * np.eye(d)) / (
                1 + 1.5 * abs(lam_min) * d
            )
        dist = float(np.max(np.abs(pert - coarse_grained_state(cg_gen, pert))))
        if dist >= 1e-3:
            for a, report in zip(alphas, _coarse_grained_reports(cg_gen, pert, alphas)):
                pert_cases.record(
                    min(report.matrix_residual, report.entropy_residual) - 1e-8,
                    _state_instance(pert, a),
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
    for protocol, rho0, delta in (
        (qubit, rho_q, 0.4),
        (qutrit, rho_t, 0.3),
    ):
        times = np.linspace(0.0, protocol.total_duration, n_samples + 1)[1:]
        runs.append(
            closed_run(protocol, rho0, EnergyWindowing(delta), alphas, times)
        )
    return runs


def _canonical_open_runs(alphas, n_samples=50):
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    h_s = np.diag([0.0, 1.0]).astype(complex)
    runs = []
    # nondegenerate bath, one level per window (volumes all 1)
    h_b1 = np.diag([0.0, 0.35, 0.8, 1.3, 1.95, 2.6]).astype(complex)
    x_b = np.zeros((6, 6), dtype=complex)
    for k in range(5):
        x_b[k, k + 1] = x_b[k + 1, k] = 1.0
    v1 = 0.15 * np.kron(sx, x_b)
    runs.append(
        open_run(
            h_s,
            h_b1,
            v1,
            np.diag([0.7, 0.3]).astype(complex),
            1.0,
            EnergyWindowing(0.3),
            alphas,
            np.linspace(0.1, 6.0, n_samples),
        )
    )
    # doubly degenerate bath levels, constant window volume 2
    h_b2 = np.diag([0.0, 0.0, 1.0, 1.0, 2.0, 2.0]).astype(complex)
    runs.append(
        open_run(
            h_s,
            h_b2,
            v1,
            np.diag([0.6, 0.4]).astype(complex),
            0.7,
            EnergyWindowing(0.5),
            alphas,
            np.linspace(0.1, 6.0, n_samples),
        )
    )
    return runs


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
        for a in (0.5, 2.0, 3.0, 5.0):
            lhs, rhs, gap = jackson_check(levels, t0, a)
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
    """Run one named suite (or 'all') and return its report."""
    if suite == "all":
        props = []
        for name in _SUITES:
            props.extend(_run_one(name, seed, n, dim_max, inject_invalid))
        return VerificationReport("all", seed, n, dim_max, props)
    if suite not in _SUITES:
        raise ValueError(
            f"unknown suite {suite!r}; choose from "
            f"{sorted(_SUITES) + ['all']}"
        )
    return VerificationReport(
        suite, seed, n, dim_max, _run_one(suite, seed, n, dim_max, inject_invalid)
    )


def _run_one(name, seed, n, dim_max, inject_invalid):
    if name == "refinement":
        return suite_refinement(seed, n, dim_max, inject_invalid=inject_invalid)
    return _SUITES[name](seed, n, dim_max)
