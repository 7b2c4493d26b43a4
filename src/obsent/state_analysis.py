"""Post-measurement and coarse-grained states.

Conditional states use the Luders update sqrt(Pi) rho sqrt(Pi) / p, which
reduces to Pi rho Pi / p for projective effects. The decomposition
identities relating alpha-OE to the Renyi entropy of the post-measurement
state are exact for rank-1 projective coarse-grainings; for higher-rank
effects they generally do not close (see the documented counterexample in
the tests), so consumers should treat the reported terms as diagnostics
unless every effect is rank 1. For projective effects of any rank,
Tr rho'^alpha = sum_i p_i^alpha Tr rho_i^alpha, so the exact relations take
exponential means of the conditional entropies and divergences where these
formulas take p_i-weighted averages (see renyi_post_measurement and
decompose_alpha_oe). A Luders sum needs no probabilities, so the
post-measurement state is defined for any finite square operator. The
conditional ensemble also needs a Hermitian matrix (NotHermitian) with
non-negative outcome traces Tr(Pi_i rho) (ValidationError), and
renyi_post_measurement and decompose_alpha_oe also a finite state of
positive trace; all three are one-case wrappers of the stack form
_measured, which verify calls on many cases at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from .coarse_graining import (
    CoarseGraining, _alpha_oes, _lueders_roots, _outcomes, _sequential, _state, outcomes
)
from .divergences import _check_alpha, _entropies, _ragged, _spectral_pair
from .errors import NonProjectiveCoarseGraining
from .operators import _each, _hermitian, _per_dim, _real


@dataclass(frozen=True)
class ConditionalEnsemble:
    """Per-outcome triples (p_i, rho_i, omega_i).

    rho_i is the normalized Luders post-state of outcome i and omega_i the
    flat state Pi_i / V_i on its effect. Outcomes with negligible
    probability are omitted.
    """

    labels: tuple
    probabilities: tuple
    states: tuple
    flat_states: tuple


@dataclass(frozen=True)
class CoarseGrainedReport:
    """Result of the two equality tests of is_coarse_grained."""

    matrix_close: bool
    entropy_close: bool
    matrix_residual: float
    entropy_residual: float

    @property
    def consistent(self) -> bool:
        return self.matrix_close == self.entropy_close


def post_measurement_state(cg: CoarseGraining, rho) -> np.ndarray:
    """Unselective post-measurement state sum_i sqrt(Pi_i) rho sqrt(Pi_i)."""
    m = _state(cg, rho, "square")
    [roots] = _lueders_roots([cg.effects])
    return _sequential(roots, m[None]).sum(axis=0)


def _measured(cases: list) -> list:
    """The alpha-independent data of measuring the complex matrix m with
    the effects of each (effects, volumes, m) case: (p_i, mask of the
    outcomes with p_i above PROB_FLOOR, stack of their rho_i, stack of
    their omega_i, post-measurement state). The p_i come from one
    coarse_graining._outcomes call and the roots from one _lueders_roots
    call per dimension; _mixtures and _splits evaluate these tuples, one or
    many at once, for one order or a 1-d array of orders."""
    dists = _outcomes([((e, v), m) for e, v, m in cases])
    out = []
    for (e, v, m), (p, _), roots in zip(cases, dists, _lueders_roots([e for e, _, _ in cases])):
        lueders, keep = _sequential(roots, m[None]), p > tol.PROB_FLOOR
        states = lueders[keep] / p[keep][:, None, None]
        out.append((p, keep, states, e[keep] / v[keep][:, None, None], lueders.sum(axis=0)))
    return out


def _mixtures(measured: list, alpha) -> np.ndarray:
    """renyi_post_measurement of each tuple of _measured, as rows:
    S_alpha((p_i)) + sum_i p_i S_alpha(rho_i) over the kept outcomes. The
    spectra of all rho_i come from one eigvalsh per dimension, and every
    entropy is one row of one _ragged call."""
    ps = [p[keep] for p, keep, _, _, _ in measured]
    spectra = _per_dim(np.linalg.eigvalsh, [states for _, _, states, _, _ in measured])
    rows = [row for p, spectrum in zip(ps, spectra) for row in (p, *spectrum)]
    s = -_ragged(rows, 1.0, alpha)
    return np.array([head + tail for head, tail in _blocks(ps, s)])


def _splits(measured: list, alpha) -> tuple:
    """decompose_alpha_oe of each tuple of _measured (projective effects),
    as rows of two arrays (S_alpha(rho'), sum_i p_i D_alpha(rho_i ||
    omega_i)). The post spectra and the Nussbaum-Szkola pairs of all
    (rho_i, omega_i) come from one batched eigendecomposition per
    dimension, and each post spectrum (against q = 1) and pair is one row
    of one _ragged call."""
    posts = _each(np.linalg.eigvalsh, [post for *_, post in measured])
    states, flats = [s for _, _, s, _, _ in measured], [f for _, _, _, f, _ in measured]
    pairs = _per_dim(_spectral_pair, states, flats)
    xs, qs = [], []
    for post, (big_p, big_q) in zip(posts, pairs):
        xs += [post, *big_p]
        qs += [np.ones(len(post)), *big_q]
    blocks = _blocks([p[keep] for p, keep, *_ in measured], _ragged(xs, qs, alpha))
    return np.array([-head for head, _ in blocks]), np.array([tail for _, tail in blocks])


def _blocks(ps: list, values: np.ndarray) -> list:
    """(head, sum_i p_i v_i) per measurement with kept probabilities p,
    whose block of values is the rows head, v_1, ..., v_len(p)."""
    out, at = [], 0
    for p in ps:
        rows = values[at + 1 : at + 1 + len(p)]
        out.append((values[at], sum((p_i * v for p_i, v in zip(p.tolist(), rows)), 0.0)))
        at += 1 + len(p)
    return out


def conditional_ensemble(cg: CoarseGraining, rho) -> ConditionalEnsemble:
    """Conditional states and flat references per outcome. rho is any finite
    Hermitian matrix (NotHermitian otherwise), of any trace."""
    m = _hermitian(_state(cg, rho, "square"), "state")
    [(p, keep, states, flats, _)] = _measured([(cg.effects, cg.volumes(), m)])
    labels = tuple(lab for lab, k in zip(cg.labels, keep) if k)
    return ConditionalEnsemble(labels, tuple(p[keep].tolist()), tuple(states), tuple(flats))


def renyi_post_measurement(cg: CoarseGraining, rho, alpha: float) -> float:
    """Renyi entropy of the post-measurement state via the outcome mixture.

    Returns -(1/(alpha-1)) log sum_i p_i^alpha + sum_i p_i S_alpha(rho_i).
    Coincides with renyi_entropy(post_measurement_state(...)) when the
    coarse-graining is rank-1 projective. For a projective coarse-graining
    of any rank the exact value is
    (1/(1-alpha)) log sum_i p_i^alpha exp((1-alpha) S_alpha(rho_i)), which
    differs from this one by at most max_i S_alpha(rho_i) - min_i S_alpha(rho_i).
    """
    _check_alpha(alpha)
    m = _state(cg, rho)
    return float(_mixtures(_measured([(cg.effects, cg.volumes(), m)]), alpha)[0])


def decompose_alpha_oe(cg: CoarseGraining, rho, alpha: float) -> tuple:
    """Split alpha-OE into a post-measurement term and a divergence term.

    Returns (S_alpha(rho'), sum_i p_i D_alpha(rho_i || omega_i)) for a
    projective coarse-graining. The two terms sum to alpha_oe exactly when
    every effect is rank 1 (and in special cases such as the trivial
    coarse-graining); for general ranks the sum deviates by a finite
    amount. The exact split is alpha_oe = S_alpha(rho') +
    (1/(1-alpha)) log sum_i pi_i exp((1-alpha) D_i), with
    D_i = D_alpha(rho_i || omega_i) and pi_i proportional to
    p_i^alpha exp((1-alpha) S_alpha(rho_i)).
    """
    _check_alpha(alpha)
    m = _state(cg, rho)
    if not cg.is_projective():
        raise NonProjectiveCoarseGraining("decomposition requires a projective coarse-graining")
    post_terms, div_terms = _splits(_measured([(cg.effects, cg.volumes(), m)]), alpha)
    return float(post_terms[0]), float(div_terms[0])


def coarse_grained_state(cg: CoarseGraining, rho) -> np.ndarray:
    """The coarse-grained state sum_i (p_i / V_i) Pi_i."""
    p = outcomes(cg, rho).probabilities
    return _coarse_grained(cg.effects, cg.volumes(), p)


def _coarse_grained(effects: np.ndarray, volumes: np.ndarray, p: np.ndarray) -> np.ndarray:
    """sum_i (p_i / V_i) Pi_i over the effects Pi_i of volumes V_i, for weights p."""
    return np.tensordot(p / volumes, effects, axes=1)


def is_coarse_grained(
    cg: CoarseGraining, rho, alpha: float, atol: float = tol.CG_STATE_ATOL
) -> CoarseGrainedReport:
    """Report whether rho equals its coarse-grained state.

    Runs both equality tests: max-abs matrix distance to the coarse-grained
    state, and the entropy gap |alpha_oe - renyi_entropy|. The report flags
    disagreement between the two.
    """
    _check_alpha(alpha)
    m, atol = _state(cg, rho), _real(atol, name="atol", least=0.0)
    [[report]] = _reports(_report_parts([(cg.effects, cg.volumes(), m)]), [alpha], atol)
    return report


def _report_parts(cases: list) -> list:
    """(matrix residual, (p, V) of the outcomes, m) of each (effects,
    volumes, m) case: what the reports of m under those effects read. The
    outcome probabilities come from one coarse_graining._outcomes call."""
    dists = _outcomes([((e, v), m) for e, v, m in cases])
    return [
        (float(np.max(np.abs(m - _coarse_grained(e, v, p)))), (p, v), m)
        for (e, v, m), (p, _) in zip(cases, dists)
    ]


def _reports(parts: list, alphas, atol: float = tol.CG_STATE_ATOL) -> list:
    """The is_coarse_grained reports of each part of _report_parts, one per
    order of the 1-d array alphas, from one table call for all alpha-OEs
    and one for all Renyi entropies."""
    oe = _alpha_oes([pv for _, pv, _ in parts], alphas)
    renyi = _entropies([m for _, _, m in parts], alphas)
    return [
        [
            CoarseGrainedReport(
                matrix_close=matrix_residual <= atol,
                entropy_close=entropy_residual <= atol,
                matrix_residual=matrix_residual,
                entropy_residual=entropy_residual,
            )
            for entropy_residual in row
        ]
        for (matrix_residual, _, _), row in zip(parts, np.abs(oe - renyi).tolist())
    ]
