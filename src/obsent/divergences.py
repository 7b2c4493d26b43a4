"""Classical and quantum entropy and divergence functionals.

Everything is in nats. Divergences return math.inf (the distinguished
INFINITE value) on support violations rather than raising; callers are
expected to propagate it. Every entropy and divergence, alpha-OE and the
quantum ones (by their Nussbaum-Szkola pair) included, is one order-alpha
kernel over weights: entries at most SUPPORT_RTOL times the largest are
exact zeros, and a power sum that leaves the normal float range is redone
in log space.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from . import tolerances as tol
from .errors import DimensionMismatch, InvalidAlpha, LengthMismatch, ValidationError
from .operators import _check_square, _psd_eigh, as_matrix, partial_trace, tensor

INFINITE = math.inf


def _check_alpha(alpha) -> None:
    """Reject an order that is not one positive finite real number.

    The public functions take one order; only the private grid helpers
    take a 1-d array of orders.
    """
    a = np.asarray(alpha)
    if a.ndim or a.dtype.kind not in "iuf" or not 0 < a < math.inf:
        raise InvalidAlpha(f"alpha must be one positive real, got {alpha!r}")


def _nonneg_vector(x) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise LengthMismatch(f"expected a 1-d weight vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValidationError("weights must be finite")
    if v.size and float(v.min()) < -1e-12:
        raise ValidationError("negative weight", magnitude=-float(v.min()))
    return np.clip(v, 0.0, None)


def _support(x: np.ndarray) -> np.ndarray:
    """Mask of entries above SUPPORT_RTOL times the largest; the rest are zeros."""
    x_max = float(x.max()) if x.size else 0.0
    return x > tol.SUPPORT_RTOL * max(x_max, 1e-300)


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _renyi_divergence(x, q, alpha):
    """(1/(alpha-1)) log sum_i x_i^alpha q_i^(1-alpha) over the support of x.

    x and q are unnormalized weights; q may be a scalar. alpha is one order
    (the result is a float) or a 1-d array of orders (the result is an array
    with one value per order); each entry of an array result is
    bit-identical to the float result for that order. Entries x_i <=
    SUPPORT_RTOL * max x count as exact zeros. |alpha - 1| < ALPHA_NEAR_ONE
    evaluates the limit sum_i x_i log(x_i / q_i). INFINITE when a kept x_i
    has q_i = 0 (alpha > 1 and the limit) or no kept x_i has q_i > 0
    (alpha < 1). A sum whose powers or terms leave the normal float range
    is evaluated again in log space. The support and q > 0 cuts are made
    once for all orders.
    """
    orders = np.asarray(alpha, dtype=float)
    alphas = orders.ravel().tolist()
    mask, q = _support(x), np.asarray(q, dtype=float)
    x, q = x[mask], (q[mask] if q.ndim else q)
    q_gap = x.size and not q.min() > 0
    if q_gap:
        x, q = x[q > 0], q[q > 0]
    # power sum and smallest power or term of each order off the limit, from
    # one stack of rows x^alpha, q^(1-alpha) and their product; each row
    # takes a scalar exponent, as a one-order call does, since numpy's power
    # may round differently for a broadcast exponent
    powers = [a for a in alphas if abs(a - 1.0) >= tol.ALPHA_NEAR_ONE]
    sums = {}
    if powers and x.size:
        xa, qa, terms = stack = np.empty((3, len(powers), x.size))
        for row, a in enumerate(powers):
            np.power(x, a, out=xa[row])
            np.power(q, 1.0 - a, out=qa[row])
        np.multiply(xa, qa, out=terms)
        smallest = stack.min(axis=(0, 2)).tolist()
        sums = dict(zip(powers, zip(terms.sum(axis=1).tolist(), smallest)))

    def one_order(a: float) -> float:
        near_one = abs(a - 1.0) < tol.ALPHA_NEAR_ONE
        if q_gap and (a > 1 or near_one):
            return INFINITE
        if not x.size:
            return 0.0 if near_one else INFINITE
        if near_one:
            total = float((x * np.log(x / q)).sum())
            if math.isfinite(total):
                return total
            return float((x * (np.log(x) - np.log(q))).sum())
        total, lowest = sums[a]
        if total < INFINITE and lowest >= sys.float_info.min:
            return math.log(total) / (a - 1.0)
        logs = a * np.log(x) + (1.0 - a) * np.log(q)
        top = float(logs.max())
        return (top + math.log(float(np.exp(logs - top).sum()))) / (a - 1.0)

    out = [one_order(a) for a in alphas]
    return out[0] if orders.ndim == 0 else np.array(out)


def kl_divergence(x, p) -> float:
    """Kullback-Leibler divergence sum_i x_i log(x_i / p_i).

    Entries x_i <= SUPPORT_RTOL * max x count as exact zeros and contribute
    0; INFINITE when a kept x_i has p_i = 0.
    """
    xv, pv = _nonneg_vector(x), _nonneg_vector(p)
    if xv.shape != pv.shape:
        raise LengthMismatch(f"length mismatch {xv.shape} vs {pv.shape}")
    return _renyi_divergence(xv, pv, 1.0)


def classical_petz_renyi(x, q, alpha: float) -> float:
    """Order-alpha Renyi divergence of non-negative weight vectors.

    (1/(alpha-1)) log sum_i x_i^alpha q_i^(1-alpha). Inputs need not be
    normalized. Entries x_i <= SUPPORT_RTOL * max x count as exact zeros
    and contribute 0. For alpha > 1 a kept x_i over q_i = 0 gives
    INFINITE; for alpha < 1 the value is INFINITE when the overlap sum
    vanishes.
    """
    _check_alpha(alpha)
    xv, qv = _nonneg_vector(x), _nonneg_vector(q)
    if xv.shape != qv.shape:
        raise LengthMismatch(f"length mismatch {xv.shape} vs {qv.shape}")
    return _renyi_divergence(xv, qv, alpha)


def von_neumann(rho) -> float:
    """von Neumann entropy -Tr(rho log rho) in nats."""
    return renyi_entropy(rho, 1.0)


def _checked_matrix(x) -> np.ndarray:
    """x as a square complex matrix, with finite entries and positive trace."""
    m = as_matrix(x)
    _check_square(m)
    if not (np.isfinite(m).all() and np.trace(m).real > 0):
        raise ValidationError("expected finite entries and a positive trace")
    return m


def _spectral_pair(rho, sigma) -> tuple:
    """Nussbaum-Szkola pair (P, Q) of two PSD matrices, as flat vectors.

    Tr rho^alpha sigma^(1-alpha) = sum P^alpha Q^(1-alpha) and
    D(rho || sigma) = D(P || Q); see petz_renyi for P, Q and the support rule.
    """
    rm, sm = _checked_matrix(rho), _checked_matrix(sigma)
    if rm.shape != sm.shape:
        raise DimensionMismatch(f"dims {rm.shape[0]} vs {sm.shape[0]}")
    (lam, u), (mu, v) = _psd_eigh(rm), _psd_eigh(sm)
    overlap = np.abs(u.conj().T @ v) ** 2
    return (lam[:, None] * overlap).ravel(), (overlap * mu).ravel()


def renyi_entropy(rho, alpha: float) -> float:
    """Renyi entropy (1/(1-alpha)) log Tr rho^alpha in nats.

    |alpha - 1| < 1e-6 is evaluated as the von Neumann limit. Eigenvalues
    <= SUPPORT_RTOL * lambda_max count as exact zeros. A matrix with a
    non-finite entry or a trace that is not positive raises ValidationError.
    """
    _check_alpha(alpha)
    return _renyi_entropy(np.linalg.eigvalsh(_checked_matrix(rho)), alpha)


def _renyi_entropy(spectrum, alpha):
    """renyi_entropy of a spectrum, for one order or a 1-d array of orders
    (one value per order)."""
    return -_renyi_divergence(spectrum, 1.0, alpha)


def umegaki(rho, sigma) -> float:
    """Quantum relative entropy Tr rho (log rho - log sigma).

    The Nussbaum-Szkola form sum P log(P / Q) (see petz_renyi, whose
    support rule it shares): INFINITE when supp(rho) is not contained in
    supp(sigma).
    """
    return _renyi_divergence(*_spectral_pair(rho, sigma), 1.0)


def petz_renyi(rho, sigma, alpha: float) -> float:
    """Petz-Renyi relative entropy (1/(alpha-1)) log Tr(rho^a sigma^(1-a)).

    The classical order-alpha divergence of the Nussbaum-Szkola pair
    P_jk = lam_j |<u_j|v_k>|^2, Q_jk = mu_k |<u_j|v_k>|^2, with rho =
    sum_j lam_j |u_j><u_j| and sigma = sum_k mu_k |v_k><v_k|; |alpha - 1|
    < 1e-6 gives the umegaki limit. Support rule: eigenvalues <=
    SUPPORT_RTOL times the largest of their matrix, and entries P_jk <=
    SUPPORT_RTOL * max P, are exact zeros. A kept P_jk over a zero mu_k
    gives INFINITE for alpha >= 1; for alpha < 1 the value is INFINITE only
    when no kept P_jk lies over a nonzero mu_k. Indefinite arguments raise
    NotPSD.
    """
    _check_alpha(alpha)
    return _renyi_divergence(*_spectral_pair(rho, sigma), alpha)


def renyi_mutual_info(rho_ab, dims: tuple, alpha: float) -> float:
    """Renyi mutual information in the entropy-sum form.

    S_a(rho_A) + S_a(rho_B) - S_a(rho_AB). May be negative for some states
    and orders; the value is reported, never clamped.
    """
    _check_alpha(alpha)
    return _mutual_info(_checked_matrix(rho_ab), dims, alpha)


def _mutual_info(m: np.ndarray, dims: tuple, alpha):
    """renyi_mutual_info of a checked matrix, for one order or a 1-d array
    of orders (one value per order)."""
    s_a, s_b, s_ab = (
        _renyi_entropy(np.linalg.eigvalsh(part), alpha)
        for part in (partial_trace(m, dims, "A"), partial_trace(m, dims, "B"), m)
    )
    return s_a + s_b - s_ab


def renyi_mutual_info_divergence_form(rho_ab, dims: tuple, alpha: float) -> float:
    """Diagnostic: D_alpha(rho_AB || rho_A x rho_B).

    Not asserted equal to the entropy-sum form; provided for comparison.
    """
    m = as_matrix(rho_ab)
    prod = tensor(partial_trace(m, dims, "A"), partial_trace(m, dims, "B"))
    return petz_renyi(m, prod, alpha)
