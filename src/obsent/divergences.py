"""Classical and quantum entropy and divergence functionals.

Everything is in nats. Divergences return math.inf (the distinguished
INFINITE value) on support violations rather than raising; callers are
expected to propagate it. Every entropy and divergence, alpha-OE and the
quantum ones (by their Nussbaum-Szkola pair) included, is one order-alpha
kernel over weights: entries at most SUPPORT_RTOL times the largest are
exact zeros (operators._support, op_power's rule too), |alpha - 1| <
ALPHA_NEAR_ONE (_near_one) takes the alpha -> 1 limit, and a power sum
that leaves the normal float range is redone in log space. The kernel
has one input form, a same-length table whose rows are weight vectors
and a 1-d grid of orders, and gives a value per (row, order). Its entry
is _ragged, which stacks a list of vectors of any lengths into one table
per length; each quantity has one table form over it (_entropies, _petz,
_mutual_infos, coarse_graining._alpha_oes), and a public function is
that form with one case and one order. One order passes _check_alpha,
and a grid of orders _check_alphas, before any of it is evaluated.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from . import tolerances as tol
from .errors import InvalidAlpha, LengthMismatch, ValidationError
from .operators import (
    _each,
    _items,
    _matrix,
    _nonneg_vector,
    _psd_eigh,
    _real,
    _support,
    as_matrix,
    partial_trace,
    tensor,
)

INFINITE = math.inf


def _check_alpha(alpha) -> float:
    """alpha as a float when it is one positive finite real number, else
    InvalidAlpha. The public functions take one order; only the private
    grid helpers take a 1-d array of orders.
    """
    a = _real(alpha, InvalidAlpha, "alpha")
    if not a > 0:
        raise InvalidAlpha(f"alpha must be positive, got {alpha!r}")
    return a


def _check_alphas(alphas) -> list:
    """The alpha-grid gate: a non-empty sequence of orders, each through _check_alpha."""
    alphas = [_check_alpha(a) for a in _items(alphas, "alphas")]
    if not alphas:
        raise ValidationError("at least one alpha is required")
    return alphas


def _near_one(alpha: float) -> bool:
    """The alpha -> 1 rule: |alpha - 1| < ALPHA_NEAR_ONE. Where it holds,
    the kernel and jackson_check take the alpha -> 1 limit, and
    alpha_derivative and refinement_divergence_bound reject alpha."""
    return abs(alpha - 1.0) < tol.ALPHA_NEAR_ONE


@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _renyi_divergence(xs: np.ndarray, q, alphas: np.ndarray) -> np.ndarray:
    """(1/(alpha-1)) log sum_i x_i^alpha q_i^(1-alpha) over the support of x,
    for each row x of the 2-d table xs and each order of the 1-d array
    alphas: a (rows, orders) array. q is one float or a table of the shape
    of xs. Its one caller is _ragged.

    In each row, the entries operators._support cuts count as exact zeros;
    the support and q > 0 cuts are made once for all orders. Where
    _near_one(alpha), the entry is the limit sum_i x_i log(x_i / q_i).
    INFINITE when a kept x_i has q_i = 0 (alpha > 1 and the limit) or no
    kept x_i has q_i > 0 (alpha < 1). A sum whose powers or terms leave the
    normal float range is evaluated again in log space, for that row and
    order alone. Each entry depends only on its own row and order.
    """
    alphas = alphas.tolist()
    xs = np.asarray(xs, dtype=float)
    qs = np.asarray(q, dtype=float)
    keep = _support(xs)
    use = keep & (qs > 0) if qs.ndim or not float(qs) > 0 else keep
    # the test that no entry is cut by a count, which skips the ndarray
    # method wrappers, as this runs once per call of every entropy
    full = np.count_nonzero(use) == use.size
    if full:
        gap, empty = [False] * len(xs), [not xs.size] * len(xs)
    else:
        gap, empty = (keep != use).any(axis=1).tolist(), (~use.any(axis=1)).tolist()
    # per order off the limit, the power sum and smallest power or term of
    # each row, from one stack of x^alpha, q^(1-alpha) and their product;
    # each order takes a scalar exponent, since numpy's power may round
    # differently for a broadcast exponent
    near = [_near_one(a) for a in alphas]
    powers = [a for a, near_one in zip(alphas, near) if not near_one]
    sums = {}
    if powers and xs.size:
        xa, qa, terms = stack = np.empty((3, len(powers)) + xs.shape)
        for k, a in enumerate(powers):
            np.power(xs, a, out=xa[k])
            np.power(qs, 1.0 - a, out=qa[k])
        np.multiply(xa, qa, out=terms)
        if full:
            smallest = np.minimum.reduce(stack, axis=(0, 3))
        else:
            terms[:, ~use] = 0.0
            smallest = np.minimum.reduce(stack, axis=(0, 3), where=use, initial=INFINITE)
        totals = np.add.reduce(terms, axis=2)
        sums = dict(zip(powers, zip(totals.tolist(), smallest.tolist())))
    if len(powers) < len(alphas):
        terms = xs * np.log(xs / qs)
        limit = np.add.reduce(terms if full else np.where(use, terms, 0.0), axis=1).tolist()

    def kept(r: int) -> tuple:
        return xs[r][use[r]], (qs[r][use[r]] if qs.ndim else qs)

    def entry(r: int, a: float, near_one: bool) -> float:
        if gap[r] and (a > 1 or near_one):
            return INFINITE
        if empty[r]:
            return 0.0 if near_one else INFINITE
        if near_one:
            if math.isfinite(limit[r]):
                return limit[r]
            x_r, q_r = kept(r)
            return float((x_r * (np.log(x_r) - np.log(q_r))).sum())
        totals, lowest = sums[a]
        if totals[r] < INFINITE and lowest[r] >= sys.float_info.min:
            return math.log(totals[r]) / (a - 1.0)
        x_r, q_r = kept(r)
        logs = a * np.log(x_r) + (1.0 - a) * np.log(q_r)
        peak = float(logs.max())
        return (peak + math.log(float(np.exp(logs - peak).sum()))) / (a - 1.0)

    return np.array([[entry(r, a, n1) for a, n1 in zip(alphas, near)] for r in range(len(xs))])


def _ragged(xs, qs, alpha) -> np.ndarray:
    """The order-alpha divergence of each vector of the sequence xs from
    the vector of the sequence qs at the same position, or from the one
    float qs: one value per vector, or one row of values per vector for a
    1-d alpha. The entry to the kernel: the vectors of each length are
    stacked into one table and evaluated in one _renyi_divergence call, so
    a vector's values do not depend on the other vectors of the call."""
    orders = np.asarray(alpha, dtype=float).ravel()
    if isinstance(qs, float):
        rows = _each(lambda x: _renyi_divergence(x, qs, orders), xs)
    else:
        rows = _each(lambda x, q: _renyi_divergence(x, q, orders), xs, qs)
    return np.array(rows).reshape((len(xs),) + np.shape(alpha))


def _entropies(states, alpha) -> np.ndarray:
    """renyi_entropy of each matrix of the list states, shaped as _ragged's
    result: the spectra come from one eigvalsh per dimension and the
    entropies from one _ragged call."""
    return -_ragged(_each(np.linalg.eigvalsh, states), 1.0, alpha)


def _petz(rhos, sigmas, alpha) -> np.ndarray:
    """petz_renyi of each same-position (rho, sigma) of two lists of
    matrices, shaped as _ragged's result: one batched Nussbaum-Szkola pair
    per dimension and one _ragged call."""
    pairs = _each(_spectral_pair, rhos, sigmas)
    return _ragged([p for p, _ in pairs], [q for _, q in pairs], alpha)


def kl_divergence(x, p) -> float:
    """Kullback-Leibler divergence sum_i x_i log(x_i / p_i).

    Entries x_i <= SUPPORT_RTOL * max x count as exact zeros and contribute
    0; INFINITE when a kept x_i has p_i = 0.
    """
    return classical_petz_renyi(x, p, 1.0)


def classical_petz_renyi(x, q, alpha: float) -> float:
    """Order-alpha Renyi divergence of non-negative weight vectors.

    (1/(alpha-1)) log sum_i x_i^alpha q_i^(1-alpha). Inputs need not be
    normalized. Entries x_i <= SUPPORT_RTOL * max x count as exact zeros
    and contribute 0. For alpha > 1 a kept x_i over q_i = 0 gives
    INFINITE; for alpha < 1 the value is INFINITE when the overlap sum
    vanishes.
    """
    a = _check_alpha(alpha)
    xv, qv = _nonneg_vector(x), _nonneg_vector(q)
    if xv.shape != qv.shape:
        raise LengthMismatch(f"length mismatch {xv.shape} vs {qv.shape}")
    return float(_ragged([xv], [qv], a)[0])


def von_neumann(rho) -> float:
    """von Neumann entropy -Tr(rho log rho) in nats."""
    return renyi_entropy(rho, 1.0)


def _spectral_pair(rho, sigma) -> tuple:
    """Nussbaum-Szkola pair (P, Q) of two PSD matrices of one dimension
    (read as complex), as flat vectors; of two (k, d, d) stacks, as (k, d*d)
    tables with one pair per row.

    Tr rho^alpha sigma^(1-alpha) = sum P^alpha Q^(1-alpha) and
    D(rho || sigma) = D(P || Q); see petz_renyi for P, Q and the support rule.
    """
    (lam, u), (mu, v) = _psd_eigh(as_matrix(rho)), _psd_eigh(as_matrix(sigma))
    overlap = np.abs(u.conj().swapaxes(-1, -2) @ v) ** 2
    flat = lam.shape[:-1] + (-1,)
    return (
        (lam[..., None] * overlap).reshape(flat),
        (overlap * mu[..., None, :]).reshape(flat),
    )


def renyi_entropy(rho, alpha: float) -> float:
    """Renyi entropy (1/(1-alpha)) log Tr rho^alpha in nats.

    |alpha - 1| < ALPHA_NEAR_ONE is evaluated as the von Neumann limit.
    Eigenvalues <= SUPPORT_RTOL * lambda_max count as exact zeros. A matrix
    with a non-finite entry or a trace that is not positive raises
    ValidationError.
    """
    a = _check_alpha(alpha)
    return float(_entropies([_matrix(rho, "state")], a)[0])


def umegaki(rho, sigma) -> float:
    """Quantum relative entropy Tr rho (log rho - log sigma).

    The Nussbaum-Szkola form sum P log(P / Q) (see petz_renyi, whose
    support rule it shares): INFINITE when supp(rho) is not contained in
    supp(sigma).
    """
    return petz_renyi(rho, sigma, 1.0)


def petz_renyi(rho, sigma, alpha: float) -> float:
    """Petz-Renyi relative entropy (1/(alpha-1)) log Tr(rho^a sigma^(1-a)).

    The classical order-alpha divergence of the Nussbaum-Szkola pair
    P_jk = lam_j |<u_j|v_k>|^2, Q_jk = mu_k |<u_j|v_k>|^2, with rho =
    sum_j lam_j |u_j><u_j| and sigma = sum_k mu_k |v_k><v_k|; |alpha - 1|
    < ALPHA_NEAR_ONE gives the umegaki limit. Support rule: eigenvalues <=
    SUPPORT_RTOL times the largest of their matrix, and entries P_jk <=
    SUPPORT_RTOL * max P, are exact zeros. A kept P_jk over a zero mu_k
    gives INFINITE for alpha >= 1; for alpha < 1 the value is INFINITE only
    when no kept P_jk lies over a nonzero mu_k. Indefinite arguments raise
    NotPSD.
    """
    a = _check_alpha(alpha)
    rm = _matrix(rho, "state")
    return float(_petz([rm], [_matrix(sigma, "state", len(rm))], a)[0])


def renyi_mutual_info(rho_ab, dims: tuple, alpha: float) -> float:
    """Renyi mutual information in the entropy-sum form.

    S_a(rho_A) + S_a(rho_B) - S_a(rho_AB). May be negative for some states
    and orders; the value is reported, never clamped.
    """
    _check_alpha(alpha)
    return float(_mutual_infos([(_matrix(rho_ab, "state"), dims)], alpha)[0])


def _mutual_infos(cases: list, alpha) -> np.ndarray:
    """renyi_mutual_info of each (checked matrix, dims) case, for one order
    or a 1-d array of orders (rows of one value per order): the spectra of
    all reduced and joint states come from one eigvalsh per dimension and
    their entropies from one _ragged call."""
    parts = [
        part
        for m, dims in cases
        for part in (partial_trace(m, dims, "A"), partial_trace(m, dims, "B"), m)
    ]
    s = _entropies(parts, alpha)
    return s[0::3] + s[1::3] - s[2::3]


def renyi_mutual_info_divergence_form(rho_ab, dims: tuple, alpha: float) -> float:
    """Diagnostic: D_alpha(rho_AB || rho_A x rho_B).

    Not asserted equal to the entropy-sum form; provided for comparison.
    """
    m = as_matrix(rho_ab)
    prod = tensor(partial_trace(m, dims, "A"), partial_trace(m, dims, "B"))
    return petz_renyi(m, prod, alpha)
