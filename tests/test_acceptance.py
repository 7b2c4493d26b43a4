"""End-to-end acceptance checks.

Each test prints one `criterion NN: PASS/FAIL` line (visible with
`pytest -rA` or `-s`). Two checks assert the exact relations behind
naive forms that are false in general:

* criterion 8b (refinement divergence bound): for a merge of fine
  outcomes into blocks I with in-block divergences D_I, the realized gap
  is the order-(alpha-1) exponential mean of the D_I under escort weights
  proportional to p_I^alpha V_I^(1-alpha), and the divergence bound is the
  same mean under weights p_I. Neither dominates the other, so the naive
  gap >= D_alpha(P||Q) is not asserted: a pairwise merge of a diagonal
  dim-4 state at order 2 gives gap = log(15/13) < bound = log(6/5). They
  coincide for the single-outcome coarsening (8c).
* criterion 9b (general-rank decomposition): with conditional Renyi
  entropies S_i and divergences D_i to the flat states, the post-measurement
  entropy is an order-(1-alpha) exponential mean of the S_i under weights
  p_i^alpha, and alpha-OE adds the same mean of the D_i under escort
  weights. The naive p_i-weighted averages close only when every effect
  has rank 1 (or the spreads vanish); random rank partitions miss them by
  up to ~0.3 nats, so they are bounded by the spreads, not asserted.

Frozen counterexamples in the unit tests pin both failures of the naive
forms and tie them to the exact relations; everything passes at the
stated tolerances.
"""
import math
import time

import numpy as np

from obsent import (
    alpha_derivative,
    alpha_oe,
    alpha_oe_divergence_form,
    alpha_oe_gap,
    classical_petz_renyi,
    observational_entropy,
    outcomes,
    petz_renyi,
    refinement_divergence_bound,
    renyi_entropy,
    sequential,
    tensor,
    tensor_cg,
    projective_cg,
)
from obsent.cli import main as cli_main
from obsent.generators import random_density
from obsent.state_analysis import (
    coarse_grained_state,
    conditional_ensemble,
    decompose_alpha_oe,
    is_coarse_grained,
    post_measurement_state,
    renyi_post_measurement,
)
from obsent.thermo import (
    DrivingProtocol,
    EnergyWindowing,
    LevelSystem,
    closed_run,
    gibbs_state,
    jackson_check,
    open_run,
)
from random_instances import (
    random_coarse_grained_state,
    random_coarse_graining,
    random_merge,
    random_projective_cg,
    random_rank1_projective_cg,
)

ALPHA_GRID = (0.3, 0.7, 1.5, 2.0, 3.0)


def _report(number: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"criterion {number:>2}: {status} - {label}{suffix}")
    assert ok, f"criterion {number} ({label}){suffix}"


def _sweep_instances(seed, count=200, dim_max=6):
    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        d = int(rng.integers(2, dim_max + 1))
        rank = d if k % 4 else max(1, d - 1)
        out.append((random_density(rng, d, rank=rank), random_coarse_graining(rng, d)))
    return out


def test_criterion_01_alpha_limit():
    start = time.time()
    worst = 0.0
    for rho, cg in _sweep_instances(101):
        s1 = observational_entropy(cg, rho)
        worst = max(
            worst,
            abs(alpha_oe(cg, rho, 1 + 1e-7) - s1),
            abs(alpha_oe(cg, rho, 1 - 1e-7) - s1),
        )
    elapsed = time.time() - start
    _report(
        1,
        "alpha -> 1 limit within 1e-5",
        worst <= 1e-5 and elapsed < 10.0,
        f"worst={worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_form_equivalence_and_gap_identity():
    worst_form = worst_gap = 0.0
    for rho, cg in _sweep_instances(102):
        for a in ALPHA_GRID:
            s = alpha_oe(cg, rho, a)
            worst_form = max(
                worst_form, abs(s - alpha_oe_divergence_form(cg, rho, a))
            )
            worst_gap = max(
                worst_gap,
                abs(alpha_oe_gap(cg, rho, a) - (s - renyi_entropy(rho, a))),
            )
    _report(
        2,
        "divergence form and gap identity within 1e-10",
        worst_form <= 1e-10 and worst_gap <= 1e-10,
        f"form={worst_form:.2e}, gap={worst_gap:.2e}",
    )


def test_criterion_03_bounds_and_alpha_ordering():
    worst = math.inf
    for rho, cg in _sweep_instances(103):
        d = cg.dim
        values = []
        for a in ALPHA_GRID:
            s = alpha_oe(cg, rho, a)
            values.append(s)
            worst = min(worst, s - renyi_entropy(rho, a), math.log(d) - s)
        worst = min(worst, min(u - v for u, v in zip(values, values[1:])))
    _report(3, "bounds and alpha ordering, margin >= -1e-10", worst >= -1e-10,
            f"worst margin={worst:.2e}")


def test_criterion_04_derivative_formula():
    # relative error against the central difference; the denominator is
    # floored at 1e-3 so near-zero derivatives compare at 1e-8 absolute
    rng = np.random.default_rng(104)
    worst_rel = 0.0
    worst_sign = -math.inf
    h = 1e-5
    for _ in range(100):
        d = int(rng.integers(2, 7))
        rho = random_density(rng, d)
        cg = random_coarse_graining(rng, d)
        for a in (0.5, 2.0, 3.0):
            closed = alpha_derivative(cg, rho, a)
            fd = (alpha_oe(cg, rho, a + h) - alpha_oe(cg, rho, a - h)) / (2 * h)
            worst_rel = max(
                worst_rel, abs(closed - fd) / max(abs(closed), abs(fd), 1e-3)
            )
            worst_sign = max(worst_sign, closed)
    _report(
        4,
        "derivative matches finite difference (rel 1e-5) and is <= 1e-12",
        worst_rel <= 1e-5 and worst_sign <= 1e-12,
        f"rel={worst_rel:.2e}, max value={worst_sign:.2e}",
    )


def test_criterion_05_additivity():
    rng = np.random.default_rng(105)
    worst = 0.0
    for _ in range(200):
        rho_a, rho_b = random_density(rng, 2), random_density(rng, 3)
        cg_a = random_coarse_graining(rng, 2)
        cg_b = random_coarse_graining(rng, 3)
        joint_cg = tensor_cg([cg_a, cg_b])
        joint_rho = tensor(rho_a, rho_b)
        for a in ALPHA_GRID:
            total = alpha_oe(joint_cg, joint_rho, a)
            parts = alpha_oe(cg_a, rho_a, a) + alpha_oe(cg_b, rho_b, a)
            worst = max(worst, abs(total - parts))
    _report(5, "additivity on 2 x 3 products within 1e-9", worst <= 1e-9,
            f"worst={worst:.2e}")


def test_criterion_06_concavity():
    rng = np.random.default_rng(106)
    worst_concave = math.inf
    worst_quasi = math.inf
    for _ in range(200):
        d = int(rng.integers(2, 7))
        cg = random_coarse_graining(rng, d)
        rho1, rho2 = random_density(rng, d), random_density(rng, d)
        lam = float(rng.uniform(0.05, 0.95))
        mix = lam * rho1 + (1 - lam) * rho2
        for a in (0.3, 0.7):
            worst_concave = min(
                worst_concave,
                alpha_oe(cg, mix, a)
                - (lam * alpha_oe(cg, rho1, a) + (1 - lam) * alpha_oe(cg, rho2, a)),
            )
        for a in (2.0, 3.0):
            worst_quasi = min(
                worst_quasi,
                alpha_oe(cg, mix, a)
                - min(alpha_oe(cg, rho1, a), alpha_oe(cg, rho2, a)),
            )
    _report(
        6,
        "concavity (alpha<1) and quasi-concavity (alpha>1), margin >= -1e-10",
        worst_concave >= -1e-10 and worst_quasi >= -1e-10,
        f"concave={worst_concave:.2e}, quasi={worst_quasi:.2e}",
    )


def test_criterion_07_sequential_monotonicity():
    rng = np.random.default_rng(107)
    worst = math.inf
    for _ in range(60):
        d = int(rng.integers(2, 7))
        rho = random_density(rng, d)
        cgs = [random_coarse_graining(rng, d) for _ in range(4)]
        for a in ALPHA_GRID:
            current = cgs[0]
            values = [alpha_oe(current, rho, a)]
            for nxt in cgs[1:]:
                current = sequential(current, nxt)
                values.append(alpha_oe(current, rho, a))
            worst = min(worst, min(u - v for u, v in zip(values, values[1:])))
            worst = min(worst, values[-1] - renyi_entropy(rho, a))
    # mutually-unbiased qubit pair: exact equality
    z = projective_cg(np.eye(2, dtype=complex))
    hada = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
    x = projective_cg(hada)
    worst_mub = 0.0
    for _ in range(20):
        rho = random_density(rng, 2)
        seq = sequential(z, x)
        for a in ALPHA_GRID:
            worst_mub = max(
                worst_mub, abs(alpha_oe(seq, rho, a) - alpha_oe(z, rho, a))
            )
    _report(
        7,
        "sequential chains monotone (1e-10) and MUB equality (1e-9)",
        worst >= -1e-10 and worst_mub <= 1e-9,
        f"chain margin={worst:.2e}, MUB residual={worst_mub:.2e}",
    )


def _log_mean_exp(weights, values, order):
    """(1/order) log sum_k w_k exp(order x_k).

    For weights summing to 1 this is an exponential mean of x, so it lies
    in [min x, max x].
    """
    w, x = np.asarray(weights, dtype=float), np.asarray(values, dtype=float)
    return math.log(float(np.sum(w * np.exp(order * x)))) / order


def _merge_sweep(seed, count=200):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        d = int(rng.integers(2, 7))
        rho = random_density(rng, d)
        cg = random_projective_cg(rng, d)
        coarser, rmap = random_merge(rng, cg)
        out.append((rho, cg, coarser, rmap))
    return out


def test_criterion_08a_refinement_monotonicity():
    worst = math.inf
    for rho, cg, coarser, rmap in _merge_sweep(108):
        for a in (1.5, 2.0, 3.0):
            worst = min(worst, alpha_oe(coarser, rho, a) - alpha_oe(cg, rho, a))
    _report(8, "refinement monotonicity gap >= -1e-10", worst >= -1e-10,
            f"worst gap={worst:.2e}")


def test_criterion_08b_refinement_divergence_lower_bound():
    """Exact forms of the refinement gap and of the divergence bound.

    For a merge of fine outcomes j into blocks I, let
    D_I = D_alpha(p_j / p_I || V_j / V_I) over j in I. The gap
    alpha_oe(coarser) - alpha_oe(finer) is
    (1/(alpha-1)) log sum_I w_I exp((alpha-1) D_I) with escort weights
    w_I proportional to p_I^alpha V_I^(1-alpha), and
    refinement_divergence_bound is the same expression with weights p_I.
    Both lie in [min_I D_I, max_I D_I], but neither dominates the other,
    so the naive gap >= D_alpha(P||Q) is not asserted: in
    test_coarse_graining.TestRefinement.test_bound_can_exceed_gap the bound
    overshoots the gap by 0.0392 nats. The detail reports how many sweep
    instances have the gap below the bound.
    """
    worst = 0.0
    below = total = 0
    for rho, cg, coarser, rmap in _merge_sweep(108):
        dist = outcomes(cg, rho)
        p, v = dist.probabilities, dist.volumes
        blocks = [np.flatnonzero(column) for column in rmap.matrix.T]
        p_blk = np.array([p[b].sum() for b in blocks])
        v_blk = np.array([v[b].sum() for b in blocks])
        for a in (1.5, 2.0, 3.0):
            d_blk = np.array([
                classical_petz_renyi(p[b] / pb, v[b] / vb, a)
                for b, pb, vb in zip(blocks, p_blk, v_blk)
            ])
            escort = p_blk**a * v_blk ** (1.0 - a)
            gap = alpha_oe(coarser, rho, a) - alpha_oe(cg, rho, a)
            bound = refinement_divergence_bound(cg, coarser, rmap, rho, a)
            lo, hi = float(d_blk.min()), float(d_blk.max())
            worst = max(
                worst,
                abs(gap - _log_mean_exp(escort / escort.sum(), d_blk, a - 1.0)),
                abs(bound - _log_mean_exp(p_blk, d_blk, a - 1.0)),
                lo - gap, lo - bound, gap - hi, bound - hi,
            )
            total += 1
            below += gap - bound < -1e-10
    _report(
        8,
        "refinement gap and divergence bound as escort- and p-weighted "
        "means of block divergences within 1e-10",
        worst <= 1e-10,
        f"worst={worst:.2e}, gap < D_alpha(P||Q) in {below}/{total} instances",
    )


def test_criterion_08c_trivial_coarser_achieves_bound():
    from obsent import merge_outcomes

    rng = np.random.default_rng(208)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(2, 7))
        rho = random_density(rng, d)
        cg = random_projective_cg(rng, d)
        coarser, rmap = merge_outcomes(cg, [list(cg.labels)])
        for a in (1.5, 2.0, 3.0):
            gap = alpha_oe(coarser, rho, a) - alpha_oe(cg, rho, a)
            bound = refinement_divergence_bound(cg, coarser, rmap, rho, a)
            worst = max(worst, abs(gap - bound))
    _report(8, "trivial coarsening achieves the bound within 1e-9",
            worst <= 1e-9, f"worst={worst:.2e}")


def test_criterion_09a_decomposition_identities_rank1():
    rng = np.random.default_rng(109)
    worst = 0.0
    for _ in range(200):
        d = int(rng.integers(2, 7))
        rho = random_density(rng, d)
        cg = random_rank1_projective_cg(rng, d)
        for a in (0.5, 2.0, 3.0):
            direct = renyi_entropy(post_measurement_state(cg, rho), a)
            worst = max(worst, abs(renyi_post_measurement(cg, rho, a) - direct))
            post, div = decompose_alpha_oe(cg, rho, a)
            worst = max(worst, abs(post + div - alpha_oe(cg, rho, a)))
    _report(9, "decomposition identities, rank-1 projective, within 1e-9",
            worst <= 1e-9, f"worst={worst:.2e}")


def test_criterion_09b_decomposition_identities_general_rank():
    """Exact general-rank decomposition identities.

    For a projective coarse-graining with conditional ensemble
    (p_i, rho_i, omega_i), S_i = S_alpha(rho_i) and
    D_i = D_alpha(rho_i || omega_i):

    * S_alpha(rho') = (1/(1-alpha)) log sum_i p_i^alpha exp((1-alpha) S_i);
    * alpha_oe = S_alpha(rho') + (1/(1-alpha)) log sum_i pi_i exp((1-alpha) D_i)
      with pi_i proportional to p_i^alpha exp((1-alpha) S_i).

    The p_i-weighted forms returned by renyi_post_measurement and
    decompose_alpha_oe close only when every effect has rank 1 (frozen
    counterexample: 0.0118 nats for a diagonal dim-4 state under a
    rank-2 + rank-2 projective coarse-graining at order 2; see
    test_state_analysis.TestDecomposeAlphaOe.test_split_deviates_for_higher_ranks).
    Their residuals are bounded by the spreads max S_i - min S_i and
    max D_i - min D_i, which vanish in the rank-1 case. The detail reports
    how often those p_i-weighted forms miss by more than 1e-9.
    """
    rng = np.random.default_rng(209)
    worst = 0.0
    naive_misses = total = 0
    for _ in range(200):
        d = int(rng.integers(2, 7))
        rho = random_density(rng, d)
        cg = random_projective_cg(rng, d)  # random rank partition
        ens = conditional_ensemble(cg, rho)
        p = np.array(ens.probabilities)
        for a in (0.5, 2.0, 3.0):
            s_i = np.array([renyi_entropy(s, a) for s in ens.states])
            d_i = np.array([
                petz_renyi(s, w, a) for s, w in zip(ens.states, ens.flat_states)
            ])
            escort = p**a * np.exp((1.0 - a) * s_i)
            direct = renyi_entropy(post_measurement_state(cg, rho), a)
            post, div = decompose_alpha_oe(cg, rho, a)
            oe = alpha_oe(cg, rho, a)
            r1 = abs(renyi_post_measurement(cg, rho, a) - direct)
            r2 = abs(post + div - oe)
            worst = max(
                worst,
                abs(direct - _log_mean_exp(p**a, s_i, 1.0 - a)),
                abs(oe - post - _log_mean_exp(escort / escort.sum(), d_i, 1.0 - a)),
                r1 - float(s_i.max() - s_i.min()),
                r2 - float(d_i.max() - d_i.min()),
            )
            total += 2
            naive_misses += (r1 > 1e-9) + (r2 > 1e-9)
    _report(
        9,
        "exact decomposition identities, random rank partitions, within 1e-9",
        worst <= 1e-9,
        f"worst={worst:.2e}, p-weighted forms miss in {naive_misses}/{total} checks",
    )


def test_criterion_10_coarse_grained_state_biconditional():
    rng = np.random.default_rng(110)
    disagreements = 0
    eq_ok = pert_ok = True
    n_eq = n_pert = 0
    while n_eq < 100 or n_pert < 100:
        d = int(rng.integers(2, 7))
        cg = random_projective_cg(rng, d)
        rho_eq = random_coarse_grained_state(rng, cg)
        for a in (0.5, 2.0, 3.0):
            report = is_coarse_grained(cg, rho_eq, a)
            eq_ok &= report.matrix_close and report.entropy_close
            disagreements += 0 if report.consistent else 1
        n_eq += 1
        herm = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        herm = herm + herm.conj().T
        herm -= np.trace(herm) / d * np.eye(d)
        pert = rho_eq + 0.02 * herm / max(1.0, float(np.max(np.abs(herm))))
        lam_min = float(np.linalg.eigvalsh(pert)[0])
        if lam_min < 1e-6:
            pert = (pert + 1.5 * abs(lam_min) * np.eye(d)) / (
                1 + 1.5 * abs(lam_min) * d
            )
        if np.max(np.abs(pert - coarse_grained_state(cg, pert))) < 1e-3:
            continue
        for a in (0.5, 2.0, 3.0):
            report = is_coarse_grained(cg, pert, a)
            pert_ok &= not report.matrix_close and not report.entropy_close
            disagreements += 0 if report.consistent else 1
        n_pert += 1
    _report(
        10,
        "coarse-grained-state biconditional with zero disagreements",
        eq_ok and pert_ok and disagreements == 0,
        f"eq cases={n_eq}, perturbed={n_pert}, disagreements={disagreements}",
    )


ALPHAS_THERMO = (1.0 + 1e-7, 0.5, 2.0, 3.0)


def _acceptance_closed_runs():
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    qubit = DrivingProtocol(((np.diag([0.0, 1.0]).astype(complex), 1.2), (sx, 1.3)))
    rho_q = gibbs_state(qubit.segments[0][0], 1.0)
    h1 = np.diag([0.0, 0.7, 1.9]).astype(complex)
    h2 = np.array([[0.3, 0.4, 0.0], [0.4, 1.1, 0.5], [0.0, 0.5, 1.6]], dtype=complex)
    qutrit = DrivingProtocol(((h1, 0.9), (h2, 1.1)))
    rho_t = gibbs_state(h1, 0.8)
    runs = []
    for protocol, rho0, delta in ((qubit, rho_q, 0.4), (qutrit, rho_t, 0.3)):
        times = np.linspace(0.0, protocol.total_duration, 51)[1:]
        runs.append(
            closed_run(protocol, rho0, EnergyWindowing(delta), ALPHAS_THERMO, times)
        )
    return runs


def test_criterion_11_closed_second_law():
    start = time.time()
    runs = _acceptance_closed_runs()
    worst = min(r.min_delta_entropy() for r in runs)
    void = any(r.guarantee_void for r in runs)
    elapsed = time.time() - start
    _report(
        11,
        "closed-system entropy production >= -1e-9 (qubit and qutrit, 50 samples)",
        worst >= -1e-9 and not void and elapsed < 60.0,
        f"min dS={worst:.2e}, {elapsed:.1f}s",
    )


def _acceptance_open_run():
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    h_s = np.diag([0.0, 1.0]).astype(complex)
    h_b = np.diag([0.0, 0.35, 0.8, 1.3, 1.95, 2.6]).astype(complex)
    x_b = np.zeros((6, 6), dtype=complex)
    for k in range(5):
        x_b[k, k + 1] = x_b[k + 1, k] = 1.0
    return open_run(
        h_s,
        h_b,
        0.15 * np.kron(sx, x_b),
        np.diag([0.7, 0.3]).astype(complex),
        1.0,
        EnergyWindowing(0.3),
        ALPHAS_THERMO,
        np.linspace(0.1, 6.0, 50),
    )


def test_criterion_12_open_system():
    record = _acceptance_open_run()
    worst_xi1 = record.min_xi1()
    worst_facto = max(abs(s.factorization_residual) for s in record.samples)
    near_one = [s for s in record.samples if abs(s.alpha - 1.0) < 1e-6]
    classical_ok = all(
        s.mutual_info >= -1e-9 and s.xi2 >= -1e-9 for s in near_one
    )
    neg_mi = sum(1 for s in record.samples if s.mutual_info < -1e-9)
    neg_xi2 = sum(1 for s in record.samples if s.xi2 < -1e-9)
    _report(
        12,
        "open-system xi1 >= -1e-9, factorization within 1e-9, classical signs",
        worst_xi1 >= -1e-9
        and worst_facto <= 1e-9
        and classical_ok
        and not record.guarantee_void,
        f"min xi1={worst_xi1:.2e}, facto={worst_facto:.2e}, "
        f"recorded negatives: mi={neg_mi}, xi2={neg_xi2}",
    )


def test_criterion_13_clausius():
    runs = _acceptance_closed_runs()
    worst = math.inf
    n_findings = 0
    for record in runs:
        for s in record.samples:
            if s.gibbs_monitor_ok:
                worst = min(worst, s.xi3)
        n_findings += len(record.findings)
        for f in record.findings:
            assert f["type"] == "gibbs_max_violation"
            assert set(f) >= {"type", "t", "alpha", "margin"}
    _report(
        13,
        "xi3 >= -1e-9 where the Gibbs-max monitor holds; violations are findings",
        worst >= -1e-9,
        f"min xi3={worst:.2e}, structured findings={n_findings}",
    )


def test_criterion_14_jackson_identity():
    rng = np.random.default_rng(114)
    worst = 0.0
    for _ in range(50):
        levels = LevelSystem(
            np.sort(rng.uniform(-1.0, 2.0, size=int(rng.integers(1, 7)))),
            float(rng.uniform(0.5, 4.0)),
        )
        t0 = float(rng.uniform(0.2, 3.0))
        for a in (0.5, 2.0, 3.0, 5.0):
            _, _, gap = jackson_check(levels, t0, a)
            worst = max(worst, abs(gap))
    lhs, rhs, gap = jackson_check(LevelSystem(np.array([0.0, 1.0]), 1.0), 1.0, 2.0)
    worked_ok = (
        abs(lhs - 0.49959536399347315) <= 1e-12
        and abs(lhs - 0.4997) <= 2e-4
        and abs(gap) <= 1e-9
    )
    _report(
        14,
        "Jackson-derivative identity within 1e-9; worked qubit case",
        worst <= 1e-9 and worked_ok,
        f"worst gap={worst:.2e}, worked lhs={lhs:.6f}",
    )


def test_criterion_15_verify_determinism(tmp_path, capsys):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    args = ["verify", "--suite", "all", "--seed", "5", "--n", "120", "--dim", "6"]
    code1 = cli_main(args + ["--out", str(out1)])
    code2 = cli_main(args + ["--out", str(out2)])
    capsys.readouterr()
    identical = out1.read_bytes() == out2.read_bytes()
    _report(
        15,
        "verify --suite all --seed k emits byte-identical reports",
        identical and code1 == code2 == 0,
        f"bytes={out1.stat().st_size}, exit={code1}",
    )
