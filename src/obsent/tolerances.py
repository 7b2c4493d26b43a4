"""Numerical tolerances used across the package.

All tolerances here scale with the OBSENT_TOL environment variable (a
positive finite float multiplier, default 1.0), read once at import; the
1e-9 default of CoarseGraining.is_projective does not. A caller can
override per call only SUPPORT_RTOL (op_power's support_rtol),
DEGENERACY_ATOL (spectral's degeneracy_tol) and CG_STATE_ATOL
(is_coarse_grained's atol).
"""

import math
import os

try:
    _scale = float(os.environ.get("OBSENT_TOL", "1.0"))
except ValueError:
    _scale = math.nan
if not 0 < _scale < math.inf:
    raise ValueError("OBSENT_TOL must be a positive finite float")


def scaled(x: float) -> float:
    return x * _scale


#: Max-abs deviation from the conjugate transpose, relative to max-abs entry.
HERMITICITY_RTOL = scaled(1e-9)

#: PSD rule: no eigenvalue below -PSD_EIGENVALUE_FLOOR * max(lambda_max, 1).
PSD_EIGENVALUE_FLOOR = scaled(1e-9)

#: |trace - 1| bound for density operators.
TRACE_ATOL = scaled(1e-9)

#: Eigenvalues <= SUPPORT_RTOL * lambda_max are treated as exact zeros.
SUPPORT_RTOL = scaled(1e-12)

#: Absolute gap under which eigenvalues merge into one degenerate level.
DEGENERACY_ATOL = scaled(1e-9)

#: Max-abs tolerance for a POVM's effects summing to the identity.
POVM_SUM_ATOL = scaled(1e-8)

#: Effects with trace below this are dropped at construction.
ZERO_EFFECT_TRACE = scaled(1e-12)

#: Row sums of a refinement map must be 1 within this.
STOCHASTIC_ATOL = scaled(1e-10)

#: Max-abs residual accepted by the refinement relation check.
REFINEMENT_ATOL = scaled(1e-8)

#: |alpha - 1| below this delegates to the alpha -> 1 limit formula.
ALPHA_NEAR_ONE = scaled(1e-6)

#: Probabilities above this count as nonzero outcomes.
PROB_FLOOR = scaled(1e-14)

#: Max-abs matrix distance for "state equals its coarse-grained state".
CG_STATE_ATOL = scaled(1e-8)

#: Endpoint slack of effective_beta, relative to the spectral span.
ENERGY_ENDPOINT_RTOL = scaled(1e-12)

#: Slack added to (E - origin) / delta before flooring it to a window index.
WINDOW_EDGE_SLACK = scaled(1e-12)

#: Window coordinates in (-WINDOW_ORIGIN_SLACK, 0) count as window 0.
WINDOW_ORIGIN_SLACK = scaled(1e-9)

#: |energy mismatch| accepted by effective_beta, relative to the spectral span.
BETA_ENERGY_RTOL = scaled(1e-10)
