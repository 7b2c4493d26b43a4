"""Numerical tolerances used across the package.

All tolerances scale with the OBSENT_TOL environment variable (a positive
finite float multiplier, default 1.0), read once at import. Library
functions take explicit tolerance arguments defaulting to these module
constants, so a caller can always override per call.
"""

import os

_scale = float(os.environ.get("OBSENT_TOL", "1.0"))
if not 0 < _scale < float("inf"):
    raise ValueError("OBSENT_TOL must be a positive finite float")


def scaled(x: float) -> float:
    return x * _scale


#: Max-abs deviation from the conjugate transpose, relative to max-abs entry.
HERMITICITY_RTOL = scaled(1e-9)

#: Eigenvalues below this (absolute) are still accepted for PSD / density checks.
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

#: |energy mismatch| target for the effective-temperature bisection.
BETA_ENERGY_ATOL = scaled(1e-10)

#: Bisection search interval for inverse temperatures.
BETA_RANGE = 50.0
