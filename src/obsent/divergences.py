"""Classical and quantum entropy and divergence functionals.

Everything is in nats. Divergences return math.inf (the distinguished
INFINITE value) on support violations rather than raising; callers are
expected to propagate it.
"""

from __future__ import annotations

import math

import numpy as np

from . import tolerances as tol
from .errors import DimensionMismatch, InvalidAlpha, LengthMismatch, ValidationError
from .operators import as_matrix, op_power, weight_outside_support

INFINITE = math.inf

#: Tr(rho Q_sigma) above this counts as a support violation.
_SUPPORT_LEAK_ATOL = 1e-11


def _check_alpha(alpha: float) -> None:
    if not np.isfinite(alpha) or alpha <= 0:
        raise InvalidAlpha(f"alpha must be a positive real, got {alpha}")


def _nonneg_vector(x) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise LengthMismatch(f"expected a 1-d weight vector, got shape {v.shape}")
    if v.size and float(v.min()) < -1e-12:
        raise ValidationError("negative weight", magnitude=-float(v.min()))
    return np.clip(v, 0.0, None)


def kl_divergence(x, p) -> float:
    """Kullback-Leibler divergence sum_i x_i log(x_i / p_i).

    Terms with x_i = 0 contribute 0; INFINITE when some x_i > 0 has p_i = 0.
    """
    xv, pv = _nonneg_vector(x), _nonneg_vector(p)
    if xv.shape != pv.shape:
        raise LengthMismatch(f"length mismatch {xv.shape} vs {pv.shape}")
    mask = xv > 0
    if np.any(pv[mask] == 0):
        return INFINITE
    return float(np.sum(xv[mask] * np.log(xv[mask] / pv[mask])))


def classical_petz_renyi(x, q, alpha: float) -> float:
    """Order-alpha Renyi divergence of non-negative weight vectors.

    (1/(alpha-1)) log sum_i x_i^alpha q_i^(1-alpha). Inputs need not be
    normalized. Zero x_i terms contribute 0. For alpha > 1 a nonzero x_i
    over q_i = 0 gives INFINITE; for alpha < 1 the value is INFINITE when
    the overlap sum vanishes.
    """
    _check_alpha(alpha)
    xv, qv = _nonneg_vector(x), _nonneg_vector(q)
    if xv.shape != qv.shape:
        raise LengthMismatch(f"length mismatch {xv.shape} vs {qv.shape}")
    if abs(alpha - 1.0) < tol.ALPHA_NEAR_ONE:
        return kl_divergence(xv, qv)
    mask = xv > 0
    if alpha > 1 and np.any(qv[mask] == 0):
        return INFINITE
    inner = mask & (qv > 0)
    total = float(np.sum(xv[inner] ** alpha * qv[inner] ** (1.0 - alpha)))
    if total <= 0.0:
        return INFINITE
    return math.log(total) / (alpha - 1.0)


def _support_values(lam: np.ndarray) -> np.ndarray:
    """Entries above SUPPORT_RTOL times the largest; the rest are exact zeros."""
    lam_max = float(lam.max()) if len(lam) else 0.0
    return lam[lam > tol.SUPPORT_RTOL * max(lam_max, 1e-300)]


def von_neumann(rho) -> float:
    """von Neumann entropy -Tr(rho log rho) in nats."""
    lam = _support_values(np.linalg.eigvalsh(as_matrix(rho)))
    return float(-np.sum(lam * np.log(lam)))


def renyi_entropy(rho, alpha: float) -> float:
    """Renyi entropy (1/(1-alpha)) log Tr rho^alpha in nats.

    |alpha - 1| < 1e-6 is evaluated as the von Neumann limit.
    """
    _check_alpha(alpha)
    if abs(alpha - 1.0) < tol.ALPHA_NEAR_ONE:
        return von_neumann(rho)
    lam = _support_values(np.linalg.eigvalsh(as_matrix(rho)))
    return float(math.log(float(np.sum(lam**alpha))) / (1.0 - alpha))


def umegaki(rho, sigma) -> float:
    """Quantum relative entropy Tr rho (log rho - log sigma).

    INFINITE when supp(rho) is not contained in supp(sigma).
    """
    rm, sm = as_matrix(rho), as_matrix(sigma)
    if rm.shape != sm.shape:
        raise DimensionMismatch(f"dims {rm.shape[0]} vs {sm.shape[0]}")
    if weight_outside_support(rm, sm) > _SUPPORT_LEAK_ATOL:
        return INFINITE
    lam, vec = np.linalg.eigh(rm)
    keep = lam > tol.SUPPORT_RTOL * max(float(lam[-1]), 1e-300)
    ent = float(np.sum(lam[keep] * np.log(lam[keep])))
    slam, svec = np.linalg.eigh(sm)
    skeep = slam > tol.SUPPORT_RTOL * max(float(slam[-1]), 1e-300)
    log_sigma = (svec[:, skeep] * np.log(slam[skeep])) @ svec[:, skeep].conj().T
    cross = float(np.trace(rm @ log_sigma).real)
    return ent - cross


def petz_renyi(rho, sigma, alpha: float) -> float:
    """Petz-Renyi relative entropy (1/(alpha-1)) log Tr(rho^a sigma^(1-a)).

    Delegates to umegaki for |alpha - 1| < 1e-6. For alpha > 1 a support
    violation gives INFINITE; for alpha < 1 the value is INFINITE only when
    the supports are orthogonal.
    """
    _check_alpha(alpha)
    rm, sm = as_matrix(rho), as_matrix(sigma)
    if rm.shape != sm.shape:
        raise DimensionMismatch(f"dims {rm.shape[0]} vs {sm.shape[0]}")
    if abs(alpha - 1.0) < tol.ALPHA_NEAR_ONE:
        return umegaki(rm, sm)
    if alpha > 1 and weight_outside_support(rm, sm) > _SUPPORT_LEAK_ATOL:
        return INFINITE
    overlap = float(np.trace(op_power(rm, alpha) @ op_power(sm, 1.0 - alpha)).real)
    if overlap <= 0.0:
        return INFINITE
    return math.log(overlap) / (alpha - 1.0)


def renyi_mutual_info(rho_ab, dims: tuple, alpha: float) -> float:
    """Renyi mutual information in the entropy-sum form.

    S_a(rho_A) + S_a(rho_B) - S_a(rho_AB). May be negative for some states
    and orders; the value is reported, never clamped.
    """
    from .operators import partial_trace

    m = as_matrix(rho_ab)
    d_a, d_b = dims
    if m.shape[0] != d_a * d_b:
        raise DimensionMismatch(f"operator dim {m.shape[0]} != {d_a} * {d_b}")
    rho_a = partial_trace(m, dims, "A")
    rho_b = partial_trace(m, dims, "B")
    return (
        renyi_entropy(rho_a, alpha)
        + renyi_entropy(rho_b, alpha)
        - renyi_entropy(m, alpha)
    )


def renyi_mutual_info_divergence_form(rho_ab, dims: tuple, alpha: float) -> float:
    """Diagnostic: D_alpha(rho_AB || rho_A x rho_B).

    Not asserted equal to the entropy-sum form; provided for comparison.
    """
    from .operators import partial_trace, tensor

    m = as_matrix(rho_ab)
    d_a, d_b = dims
    if m.shape[0] != d_a * d_b:
        raise DimensionMismatch(f"operator dim {m.shape[0]} != {d_a} * {d_b}")
    prod = tensor(partial_trace(m, dims, "A"), partial_trace(m, dims, "B"))
    return petz_renyi(m, prod, alpha)
