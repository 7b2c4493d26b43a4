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
state and the conditional ensemble are defined for any operator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import tolerances as tol
from .coarse_graining import CoarseGraining, _alpha_oe, outcomes
from .divergences import (
    _check_alpha,
    _checked_matrix,
    _renyi_divergence,
    _renyi_entropy,
    _spectral_pair,
)
from .errors import NonProjectiveCoarseGraining
from .operators import as_matrix, op_power


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
    return _Measurement(cg, rho).post_state


class _Measurement:
    """The alpha-independent data of measuring rho with cg, each piece
    computed once on first use and shared by a whole alpha grid. The
    alpha-dependent methods take one order or a 1-d array of orders, as
    the kernel does."""

    def __init__(self, cg: CoarseGraining, rho):
        self.cg, self.rho = cg, as_matrix(rho)
        self.dist = outcomes(cg, self.rho)

    @cached_property
    def projective(self) -> bool:
        return self.cg.is_projective()

    @cached_property
    def lueders(self) -> np.ndarray:
        """sqrt(Pi_i) rho sqrt(Pi_i) for every effect."""
        roots = op_power(self.cg.effects, 0.5)
        return roots @ self.rho @ roots

    @cached_property
    def ensemble(self) -> ConditionalEnsemble:
        keep = self.dist.probabilities > tol.PROB_FLOOR
        p = self.dist.probabilities[keep]
        return ConditionalEnsemble(
            tuple(lab for lab, k in zip(self.cg.labels, keep) if k),
            tuple(p.tolist()),
            tuple(self.lueders[keep] / p[:, None, None]),
            tuple(self.cg.effects[keep] / self.dist.volumes[keep][:, None, None]),
        )

    @cached_property
    def spectra(self) -> list:
        """Eigenvalues of each conditional state rho_i."""
        return [np.linalg.eigvalsh(s) for s in self.ensemble.states]

    @cached_property
    def pairs(self) -> list:
        """Nussbaum-Szkola pair of (rho_i, omega_i) per kept outcome."""
        ens = self.ensemble
        return [_spectral_pair(s, w) for s, w in zip(ens.states, ens.flat_states)]

    @cached_property
    def post_state(self) -> np.ndarray:
        return self.lueders.sum(axis=0)

    @cached_property
    def post_spectrum(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.post_state)

    def renyi_mixture(self, alpha):
        probs = self.ensemble.probabilities
        ents = (p * _renyi_entropy(lam, alpha) for p, lam in zip(probs, self.spectra))
        return _renyi_entropy(np.array(probs), alpha) + sum(ents, 0.0)

    def decompose(self, alpha) -> tuple:
        if not self.projective:
            raise NonProjectiveCoarseGraining(
                "decomposition requires a projective coarse-graining"
            )
        post_term = _renyi_entropy(self.post_spectrum, alpha)
        probs = self.ensemble.probabilities
        terms = (p * _renyi_divergence(*pair, alpha) for p, pair in zip(probs, self.pairs))
        return post_term, sum(terms, 0.0)


def conditional_ensemble(cg: CoarseGraining, rho) -> ConditionalEnsemble:
    """Conditional states and flat references per outcome."""
    return _Measurement(cg, rho).ensemble


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
    return _Measurement(cg, _checked_matrix(rho)).renyi_mixture(alpha)


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
    return _Measurement(cg, _checked_matrix(rho)).decompose(alpha)


def coarse_grained_state(cg: CoarseGraining, rho) -> np.ndarray:
    """The coarse-grained state sum_i (p_i / V_i) Pi_i."""
    dist = outcomes(cg, rho)
    return np.tensordot(dist.probabilities / dist.volumes, cg.effects, axes=1)


def is_coarse_grained(
    cg: CoarseGraining, rho, alpha: float, atol: float = tol.CG_STATE_ATOL
) -> CoarseGrainedReport:
    """Report whether rho equals its coarse-grained state.

    Runs both equality tests: max-abs matrix distance to the coarse-grained
    state, and the entropy gap |alpha_oe - renyi_entropy|. The report flags
    disagreement between the two.
    """
    _check_alpha(alpha)
    [report] = _coarse_grained_reports(cg, rho, [alpha], atol)
    return report


def _coarse_grained_reports(
    cg: CoarseGraining, rho, alphas, atol: float = tol.CG_STATE_ATOL
) -> list:
    """is_coarse_grained for each order of the 1-d array alphas; the matrix
    test, the outcomes and the spectrum are computed once."""
    m = _checked_matrix(rho)
    matrix_residual = float(np.max(np.abs(m - coarse_grained_state(cg, m))))
    dist = outcomes(cg, m)
    oe = _alpha_oe(dist, alphas)
    renyi = _renyi_entropy(np.linalg.eigvalsh(m), alphas)
    return [
        CoarseGrainedReport(
            matrix_close=matrix_residual <= atol,
            entropy_close=entropy_residual <= atol,
            matrix_residual=matrix_residual,
            entropy_residual=entropy_residual,
        )
        for entropy_residual in np.abs(oe - renyi).tolist()
    ]
