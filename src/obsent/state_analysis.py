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
decompose_alpha_oe). Those two reject a state with a non-finite entry or
a trace that is not positive (ValidationError); the post-measurement
state and the conditional ensemble are defined for any finite operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import tolerances as tol
from .coarse_graining import (
    CoarseGraining, _alpha_oes, _lueders_roots, _state, _traces, outcomes
)
from .divergences import _check_alpha, _entropies, _nonneg_vector, _ragged, _spectral_pair
from .errors import NonProjectiveCoarseGraining
from .operators import _each, _per_dim


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
    return _Measurement(cg, _state(cg, rho, "square")).post_state


class _Measurement:
    """The alpha-independent data of measuring the complex matrix rho (of
    cg's dimension) with cg, each piece computed once on first use and
    shared by a whole alpha grid. Its parts (mixture_part, split_part) are
    the plain arrays from which _mixtures and _splits evaluate one
    measurement or many at once, for one order or a 1-d array of orders."""

    def __init__(self, cg: CoarseGraining, rho: np.ndarray):
        self.cg, self.rho = cg, rho
        [self.p] = _traces([cg.effects], [rho], _nonneg_vector)

    @cached_property
    def lueders(self) -> np.ndarray:
        """sqrt(Pi_i) rho sqrt(Pi_i) for every effect."""
        [roots] = _lueders_roots([self.cg.effects])
        return roots @ self.rho @ roots

    @cached_property
    def kept(self) -> tuple:
        """(mask, p_i, stack of rho_i, stack of omega_i) of the outcomes with
        probability above PROB_FLOOR."""
        keep = self.p > tol.PROB_FLOOR
        p = self.p[keep]
        states = self.lueders[keep] / p[:, None, None]
        flats = self.cg.effects[keep] / self.cg.volumes()[keep][:, None, None]
        return keep, p, states, flats

    @cached_property
    def ensemble(self) -> ConditionalEnsemble:
        keep, p, states, flats = self.kept
        labels = tuple(lab for lab, k in zip(self.cg.labels, keep) if k)
        return ConditionalEnsemble(labels, tuple(p.tolist()), tuple(states), tuple(flats))

    @cached_property
    def post_state(self) -> np.ndarray:
        return self.lueders.sum(axis=0)

    @property
    def mixture_part(self) -> tuple:
        """(p_i, stack of rho_i): what _mixtures reads."""
        _, p, states, _ = self.kept
        return p, states

    @property
    def split_part(self) -> tuple:
        """(p_i, post-measurement state, stack of rho_i, stack of omega_i):
        what _splits reads."""
        if not self.cg.is_projective():
            raise NonProjectiveCoarseGraining(
                "decomposition requires a projective coarse-graining"
            )
        _, p, states, flats = self.kept
        return p, self.post_state, states, flats


def _mixtures(parts: list, alpha) -> np.ndarray:
    """renyi_post_measurement of each measurement, as rows, from its
    mixture_part: S_alpha((p_i)) + sum_i p_i S_alpha(rho_i). The spectra
    of all rho_i come from one eigvalsh per dimension, and every entropy
    is one row of one _ragged call."""
    spectra = _per_dim(np.linalg.eigvalsh, [states for _, states in parts])
    rows = [row for (p, _), spectrum in zip(parts, spectra) for row in (p, *spectrum)]
    s = -_ragged(rows, 1.0, alpha)
    return np.array([head + tail for head, tail in _blocks([p for p, _ in parts], s)])


def _splits(parts: list, alpha) -> tuple:
    """decompose_alpha_oe of each measurement, as rows of two arrays
    (S_alpha(rho'), sum_i p_i D_alpha(rho_i || omega_i)), from its
    split_part. The post spectra and the Nussbaum-Szkola pairs of all
    (rho_i, omega_i) come from one batched eigendecomposition per
    dimension, and each post spectrum (against q = 1) and pair is one row
    of one _ragged call."""
    posts = _each(np.linalg.eigvalsh, [post for _, post, _, _ in parts])
    pairs = _per_dim(_spectral_pair, [s for _, _, s, _ in parts], [f for *_, f in parts])
    xs, qs = [], []
    for post, (big_p, big_q) in zip(posts, pairs):
        xs += [post, *big_p]
        qs += [np.ones(len(post)), *big_q]
    blocks = _blocks([p for p, *_ in parts], _ragged(xs, qs, alpha))
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
    """Conditional states and flat references per outcome."""
    return _Measurement(cg, _state(cg, rho, "square")).ensemble


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
    return float(_mixtures([_Measurement(cg, _state(cg, rho)).mixture_part], alpha)[0])


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
    post_terms, div_terms = _splits([_Measurement(cg, _state(cg, rho)).split_part], alpha)
    return float(post_terms[0]), float(div_terms[0])


def coarse_grained_state(cg: CoarseGraining, rho) -> np.ndarray:
    """The coarse-grained state sum_i (p_i / V_i) Pi_i."""
    return _coarse_grained(cg, outcomes(cg, rho).probabilities)


def _coarse_grained(cg: CoarseGraining, p: np.ndarray) -> np.ndarray:
    """sum_i (p_i / V_i) Pi_i over the effects of cg, for weights p."""
    return np.tensordot(p / cg.volumes(), cg.effects, axes=1)


def is_coarse_grained(
    cg: CoarseGraining, rho, alpha: float, atol: float = tol.CG_STATE_ATOL
) -> CoarseGrainedReport:
    """Report whether rho equals its coarse-grained state.

    Runs both equality tests: max-abs matrix distance to the coarse-grained
    state, and the entropy gap |alpha_oe - renyi_entropy|. The report flags
    disagreement between the two.
    """
    _check_alpha(alpha)
    [[report]] = _reports(_report_parts([(cg, _state(cg, rho))]), [alpha], atol)
    return report


def _report_parts(cases: list) -> list:
    """(matrix residual, (p, V) of the outcomes, m) of each (cg, m) case:
    what the reports of m under cg read. The outcome probabilities come
    from one einsum per dimension."""
    ps = _traces([cg.effects for cg, _ in cases], [m for _, m in cases], _nonneg_vector)
    return [
        (float(np.max(np.abs(m - _coarse_grained(cg, p)))), (p, cg.volumes()), m)
        for (cg, m), p in zip(cases, ps)
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
