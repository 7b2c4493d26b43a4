"""POVM coarse-grainings and alpha-observational entropy.

A coarse-graining is an ordered list of labeled PSD effects summing to the
identity, stored as one read-only complex (n, d, d) array; len, iteration
and indexing over `effects` work as on a tuple of matrices. Observational
entropy weights each outcome probability p_i = Tr(Pi_i rho) against the
volume V_i = Tr(Pi_i) of its effect; the alpha variant replaces the
log-mean with a power mean. Sequential composition uses the Luders update,
so the composed effects of a parent outcome always sum back to the parent
effect. Construction, outcomes, sequential, merge_outcomes and tensor_cg
are validated one-instance wrappers over private stack forms (_checked,
_outcomes, _sequential with _lueders_roots, _merged, _tensor), which verify
calls on many instances at once; _outcomes is also how every entropy of
this module and of state_analysis reads p. _oe_table is the entropy table
of many states over an alpha grid; obsent entropy prints one state's.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import tolerances as tol
from .divergences import _check_alpha, _entropies, _near_one, _petz, _ragged
from .errors import (
    DimensionMismatch,
    InvalidAlpha,
    InvalidPartition,
    NotARefinement,
    ShapeMismatch,
    ValidationError,
)
from .operators import (
    _hermitian, _instance, _integer, _items, _matrix, _nonneg_vector, _per_dim, _power, _psd,
    _real, _reals, _support,
)

# max |Pi_i^2 - Pi_i| up to which an effect stack is projective and its own root
_PROJECTIVE_ATOL = 1e-9


@dataclass(frozen=True)
class CoarseGraining:
    """Ordered labeled effects Pi_i >= 0 with sum_i Pi_i = I.

    `effects` is a read-only complex (n, d, d) array owned by the instance:
    construction copies the given matrices (a sequence of d x d matrices or
    an (n, d, d) array) into it and symmetrizes each one. Effects must be
    finite; those with trace below the zero-effect threshold are dropped at
    construction, so every retained volume is strictly positive.
    """

    labels: tuple
    effects: np.ndarray
    _volumes: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        labels = tuple(_items(self.labels, "labels"))
        effects = self.effects
        if not getattr(effects, "ndim", 0):  # not an array of matrices
            effects = _items(effects, "effects")
        if len(labels) != len(effects):
            raise ShapeMismatch(f"{len(labels)} labels for {len(effects)} effects")
        if not labels:
            raise ValidationError("a coarse-graining needs at least one effect")
        if not isinstance(effects, np.ndarray):
            effects = [getattr(e, "matrix", e) for e in effects]
        try:
            raw = np.asarray(effects, dtype=complex)
        except (TypeError, ValueError):  # ragged or not numeric
            raw = None
        stacked = raw is not None and raw.ndim == 3 and raw.shape[1] == raw.shape[2]
        if not (stacked and np.isfinite(raw).all()):
            # the matrix gate names the first bad effect
            dim = _matrix(effects[0], name=f"effect {labels[0]!r}").shape[0]
            for lab, e in zip(labels, effects):
                _matrix(e, dim=dim, name=f"effect {lab!r}")
        [(stack, volumes, keep)] = _checked([raw], labels)
        if not keep.all():
            labels = tuple(lab for lab, k in zip(labels, keep) if k)
        stack.flags.writeable = False
        volumes.flags.writeable = False
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "effects", stack)
        object.__setattr__(self, "_volumes", volumes)

    @property
    def dim(self) -> int:
        return self.effects.shape[1]

    def __len__(self) -> int:
        return len(self.effects)

    def volumes(self) -> np.ndarray:
        """Read-only effect volumes V_i = Tr(Pi_i)."""
        return self._volumes

    def is_projective(self, atol: float = _PROJECTIVE_ATOL) -> bool:
        e = self.effects
        return float(np.max(np.abs(e @ e - e))) <= _real(atol, name="atol", least=0.0)


def _checked(raws: list, labels: tuple = ()) -> list:
    """Construction's checks of raw (n, d, d) effect stacks, with one PSD
    gate call (operators._psd) per dimension: the Hermitian parts
    (E + E^H) / 2 must be finite and PSD (NotPSD names the effect by its
    label, else by its position among the stacks of its dimension), effects
    of trace below ZERO_EFFECT_TRACE are dropped, and each stack's kept
    effects must sum to I. (effects, volumes, kept-effect mask) per stack."""

    def hermitian_parts(raw):
        stack = np.empty(raw.shape, dtype=complex)
        np.conjugate(raw.swapaxes(1, 2), out=stack)
        with np.errstate(over="ignore", invalid="ignore"):
            stack += raw
            # inf or nan if E + E^H or its sum overflows; makes no temporary
            if not np.isfinite(stack.sum()):
                raise ValidationError("effect entries leave the float range")
        stack *= 0.5
        _psd(stack, lambda k: f"effect {(labels or range(len(raw)))[k]!r} is not PSD")
        volumes = stack.trace(axis1=1, axis2=2).real
        return stack, volumes, volumes >= tol.ZERO_EFFECT_TRACE

    out = []
    for stack, volumes, keep in _per_dim(hermitian_parts, raws):
        if not keep.all():
            if not keep.any():
                raise ValidationError("all effects have zero trace")
            stack, volumes = stack[keep], volumes[keep]
        defect = float(np.max(np.abs(stack.sum(axis=0) - np.eye(stack.shape[1]))))
        if defect > tol.POVM_SUM_ATOL:
            raise ValidationError("effects do not sum to the identity", magnitude=defect)
        out.append((stack, volumes, keep))
    return out


def identity_cg(dim: int) -> CoarseGraining:
    """The trivial single-outcome coarse-graining {I}."""
    d = _integer(dim, 1, "dimension")
    return CoarseGraining(("I",), np.eye(d, dtype=complex)[None])


def projective_cg(vectors_or_projectors, labels=None) -> CoarseGraining:
    """Build a projective coarse-graining.

    Accepts a unitary-like matrix (columns are basis vectors; one rank-1
    effect per column) or an explicit list of projector matrices.
    """
    if isinstance(vectors_or_projectors, np.ndarray) and vectors_or_projectors.ndim == 2:
        u = np.asarray(vectors_or_projectors, dtype=complex)
        effs = np.einsum("ik,jk->kij", u, u.conj())
    else:
        effs = _items(vectors_or_projectors, "projectors")
    if labels is None:
        labels = tuple(str(k) for k in range(len(effs)))
    return CoarseGraining(tuple(labels), effs)


@dataclass(frozen=True)
class OutcomeDistribution:
    """Per-outcome probabilities p_i = Tr(Pi_i rho) and volumes V_i = Tr(Pi_i)."""

    labels: tuple
    probabilities: np.ndarray
    volumes: np.ndarray

    def __post_init__(self):
        p = _nonneg_vector(self.probabilities)
        p.flags.writeable = False
        v = _reals(self.volumes, name="volumes")
        v.flags.writeable = False
        object.__setattr__(self, "probabilities", p)
        object.__setattr__(self, "volumes", v)


@dataclass(frozen=True)
class ClassicalState:
    """Image of an operator under the measurement channel: labeled weights."""

    labels: tuple
    weights: np.ndarray


@dataclass(frozen=True)
class RefinementMap:
    """Row-stochastic matrix m[i, j] sending finer outcome i to coarser j."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _reals(self.matrix, NotARefinement, "refinement map")
        if m.ndim != 2:
            raise ShapeMismatch(f"refinement map must be 2-d, got {m.shape}")
        if m.size and float(m.min()) < 0:
            raise NotARefinement(
                "refinement map has a negative entry", magnitude=-float(m.min())
            )
        rows = m.sum(axis=1)
        worst = float(np.max(np.abs(rows - 1.0))) if m.size else 0.0
        if worst > tol.STOCHASTIC_ATOL:
            raise NotARefinement("refinement map rows must sum to 1", magnitude=worst)
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


def outcomes(cg: CoarseGraining, rho) -> OutcomeDistribution:
    """Outcome probabilities and volumes of a state under a coarse-graining.
    rho is any finite Hermitian matrix (NotHermitian otherwise), of any trace."""
    m = _hermitian(_state(cg, rho, "square"), "state")
    [(p, v)] = _outcomes([((cg.effects, cg.volumes()), m)])
    return OutcomeDistribution(cg.labels, p, v)


def measurement_channel(cg: CoarseGraining, x) -> ClassicalState:
    """Apply the quantum-to-classical channel: X -> (Tr(Pi_i X))_i. X is any
    finite Hermitian matrix (NotHermitian otherwise), so the weights are real."""
    e = _instance(cg, CoarseGraining, "coarse-graining").effects
    m = _hermitian(_matrix(x, dim=cg.dim), "operator")
    return ClassicalState(cg.labels, np.einsum("kij,kji->k", e, np.broadcast_to(m, e.shape)).real)


def _outcomes(cases: list) -> list:
    """(p, V) of each ((effects, volumes, ...), m) case: p_i = Tr(Pi_i m)
    through the weight gate (operators._nonneg_vector), from one einsum
    per dimension, and the case's volumes V. Each Pi_i meets a stride-0
    view of m, which sums as a one-m einsum, as in measurement_channel."""
    stacks = [cg[0] for cg, _ in cases]
    views = [np.broadcast_to(m, e.shape) for e, (_, m) in zip(stacks, cases)]
    ps = _per_dim(lambda e, m: _nonneg_vector(np.einsum("kij,kji->k", e, m).real), stacks, views)
    return [(p, cg[1]) for (cg, _), p in zip(cases, ps)]


def _state(cg: CoarseGraining, rho, kind: str = "state") -> np.ndarray:
    """rho through the matrix gate, at the dimension of cg, which must be a
    CoarseGraining."""
    dim = _instance(cg, CoarseGraining, "coarse-graining").dim
    return _matrix(rho, kind, dim, "state")


def observational_entropy(cg: CoarseGraining, rho) -> float:
    """Observational entropy -sum_i p_i log(p_i / V_i) in nats."""
    return alpha_oe(cg, rho, 1.0)


def alpha_oe(cg: CoarseGraining, rho, alpha: float) -> float:
    """Order-alpha observational entropy.

    -(1/(alpha-1)) log sum_i p_i^alpha V_i^(1-alpha), the negated
    classical Renyi divergence of (p_i) from (V_i). Outcomes with
    p_i <= SUPPORT_RTOL * max p count as zero-probability and contribute 0,
    the cut renyi_entropy applies to eigenvalues. |alpha - 1| <
    ALPHA_NEAR_ONE evaluates the plain observational entropy (the alpha ->
    1 limit). A state with a non-finite entry or a trace that is not
    positive raises ValidationError, here and in every function of this
    module that reads entropies of rho.
    """
    a = _check_alpha(alpha)
    m = _state(cg, rho)
    return float(_alpha_oes(_outcomes([((cg.effects, cg.volumes()), m)]), a)[0])


def _alpha_oes(pairs: list, alpha) -> np.ndarray:
    """alpha_oe of each (probabilities, volumes) pair of an outcome
    distribution, shaped as _ragged's result, from one _ragged call."""
    return -_ragged([p for p, _ in pairs], [v for _, v in pairs], alpha)


def alpha_oe_divergence_form(cg: CoarseGraining, rho, alpha: float) -> float:
    """Alpha-OE computed as log d minus the outcome-distribution divergence.

    log d - D_alpha(channel(rho) || channel(I/d)); agrees with alpha_oe to
    floating-point error.
    """
    a = _check_alpha(alpha)
    m = _state(cg, rho)
    return float(_oe_table(_outcomes([((cg.effects, cg.volumes()), m)]), [m], [a])[1, 0, 0])


def alpha_oe_gap(cg: CoarseGraining, rho, alpha: float) -> float:
    """Gap between alpha-OE and the state's Renyi entropy.

    D_alpha(rho || I/d) - D_alpha(channel(rho) || channel(I/d)), which
    telescopes to alpha_oe - renyi_entropy. Non-negative by the
    data-processing inequality for measurement channels.
    """
    a = _check_alpha(alpha)
    m = _state(cg, rho)
    return float(_oe_table(_outcomes([((cg.effects, cg.volumes()), m)]), [m], [a])[3, 0, 0])


def _oe_table(dists: list, states: list, alphas) -> np.ndarray:
    """alpha_oe, alpha_oe_divergence_form, renyi_entropy and alpha_oe_gap of
    each gated state at each checked order of alphas, from the states' (p,
    V) pairs of _outcomes: one (4, states, orders) array from one call of
    each table form, so an entry depends only on its own state and order.
    alpha_oe_divergence_form and alpha_oe_gap are its one-state, one-order
    case, so both reject a state that is not PSD: ValidationError for a
    negative outcome weight, else NotPSD."""
    dims = [len(m) for m in states]
    flat = _ragged([p for p, _ in dists], [v / d for (_, v), d in zip(dists, dims)], alphas)
    quantum = _petz(states, [np.eye(d) / d for d in dims], alphas)
    log_d = np.array([math.log(d) for d in dims])[:, None]
    return np.stack([_alpha_oes(dists, alphas), log_d - flat, _entropies(states, alphas),
                     quantum - flat])


def alpha_derivative(cg: CoarseGraining, rho, alpha: float) -> float:
    """Closed-form derivative of alpha_oe with respect to alpha.

    -D(x || p) / (alpha - 1)^2 with x_i proportional to t_i^alpha V_i,
    t_i = p_i / V_i, over the outcomes alpha_oe keeps; weights that leave
    the normal float range (large alpha) are built again in log space,
    as alpha log t_i + log V_i minus its maximum. Always <= 0, which makes
    alpha_oe non-increasing in alpha.
    """
    _check_alpha(alpha)
    m = _state(cg, rho)
    [[deriv]] = _alpha_derivatives(_outcomes([((cg.effects, cg.volumes()), m)]), [alpha]).tolist()
    return deriv


@np.errstate(over="ignore")
def _alpha_derivatives(pairs: list, alphas) -> np.ndarray:
    """alpha_derivative of each (probabilities, volumes) pair of an outcome
    distribution (rows) at each order of the 1-d array alphas (columns).
    The support cut and the ratios t_i are made once per pair, and every
    D(x || p) is one row of one _ragged call. Where alpha log t_i leaves
    the float range, the escort weights are their alpha -> inf limit (the
    outcomes of largest t_i, weighted by V_i), and where (alpha - 1)^2
    does, the derivative is -0.0."""
    orders = np.asarray(alphas, dtype=float).tolist()
    if any(_near_one(a) for a in orders):
        raise InvalidAlpha(f"derivative formula needs |alpha - 1| >= {tol.ALPHA_NEAR_ONE:g}")
    xs, ps = [], []
    for p, v in pairs:
        mask = _support(p)
        p, v = p[mask], v[mask]
        t = p / v
        for a in orders:
            w = t**a * v
            if w.size and not (w.sum() < math.inf and w.max() >= np.finfo(float).tiny):
                logw = a * np.log(t) + np.log(v)
                top = logw.max()
                if math.isfinite(top):
                    w = np.exp(logw - top)
                else:  # a log t beyond the float range: the a -> inf limit
                    w = np.where(t == t.max(), v, 0.0)
            xs.append(w / w.sum())
            ps.append(p)
    kl = _ragged(xs, ps, 1.0).reshape(len(pairs), len(orders))
    # float_power rounds the square as Python's ** does; the square of ** on
    # an array (a * a) differs from it in about 1 value in 1,000
    return -kl / np.float_power(np.array(orders) - 1.0, 2)


def tensor_cg(parts) -> CoarseGraining:
    """Product coarse-graining of two or more parts.

    Effects are Kronecker products; labels are tuples of the part labels.
    """
    parts = [_instance(cg, CoarseGraining, "part") for cg in _items(parts, "parts")]
    if len(parts) < 2:
        raise ValidationError("tensor_cg needs at least two parts")
    labels = [(lab,) for lab in parts[0].labels]
    effects = parts[0].effects
    for part in parts[1:]:
        labels = [l1 + (l2,) for l1 in labels for l2 in part.labels]
        effects = _tensor(effects, part.effects)
    return CoarseGraining(tuple(labels), effects)


def _tensor(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """The Kronecker products of two effect stacks, in (i, j) order:
    tensor_cg's stack form."""
    (n1, d1, _), (n2, d2, _) = first.shape, second.shape
    product = np.einsum("aij,bkl->abikjl", first, second)
    return product.reshape(n1 * n2, d1 * d2, d1 * d2)


def sequential(cg1: CoarseGraining, cg2: CoarseGraining) -> CoarseGraining:
    """Compose two coarse-grainings with the Luders update.

    Effects Pi_ij = sqrt(Pi_i) Pi_j sqrt(Pi_i), labels (i, j). The second
    index sums back to the first coarse-graining: sum_j Pi_ij = Pi_i. A
    projector is its own square root.
    """
    for cg in (cg1, cg2):
        _instance(cg, CoarseGraining, "coarse-graining")
    if cg1.dim != cg2.dim:
        raise DimensionMismatch(f"dims {cg1.dim} vs {cg2.dim}")
    [roots] = _lueders_roots([cg1.effects])
    labels = tuple((l1, l2) for l1 in cg1.labels for l2 in cg2.labels)
    return CoarseGraining(labels, _sequential(roots, cg2.effects))


def _sequential(roots: np.ndarray, second: np.ndarray) -> np.ndarray:
    """The Luders effects sqrt(Pi_i) Q_j sqrt(Pi_i) of the roots of a first
    stage and the effect stack of a second, in (i, j) order: sequential's
    stack form."""
    d = roots.shape[-1]
    return (roots[:, None] @ second @ roots[:, None]).reshape(-1, d, d)


def _lueders_roots(stacks: list) -> list:
    """sqrt(Pi_i) for every effect of each stack: a projective stack (as
    is_projective) is its own root, and the others take one _power per
    dimension."""
    errors = _per_dim(lambda e: np.abs(e @ e - e).max(axis=(1, 2)), stacks)
    rooted = [float(err.max()) > _PROJECTIVE_ATOL for err in errors]
    roots = iter(_per_dim(lambda e: _power(e, 0.5), [*itertools.compress(stacks, rooted)]))
    return [next(roots) if r else s for s, r in zip(stacks, rooted)]


def check_refinement(
    finer: CoarseGraining, coarser: CoarseGraining, m: RefinementMap
) -> tuple:
    """Check Pi'_j = sum_i m[i, j] Pi_i for all j.

    Returns (holds, max_residual) with the max-abs residual over coarser
    effects.
    """
    for cg in (finer, coarser):
        _instance(cg, CoarseGraining, "coarse-graining")
    _instance(m, RefinementMap, "refinement map")
    if finer.dim != coarser.dim:
        raise DimensionMismatch(f"dims {finer.dim} vs {coarser.dim}")
    mm = m.matrix
    if mm.shape != (len(finer), len(coarser)):
        raise ShapeMismatch(
            f"map shape {mm.shape} != ({len(finer)}, {len(coarser)})"
        )
    built = _merged(mm, finer.effects)
    worst = float(np.max(np.abs(built - coarser.effects)))
    return worst <= tol.REFINEMENT_ATOL, worst


def merge_outcomes(cg: CoarseGraining, partition) -> tuple:
    """Merge outcome bins of a coarse-graining.

    partition is a list of label groups covering all labels disjointly.
    Returns (coarser_cg, refinement_map); the induced map is 0/1 and
    check_refinement passes by construction.
    """
    cg = _instance(cg, CoarseGraining, "coarse-graining")
    index = {lab: i for i, lab in enumerate(cg.labels)}
    seen = set()
    try:
        for group in partition:
            if not group:
                raise InvalidPartition("partition has an empty group")
            for lab in group:
                if lab not in index:
                    raise InvalidPartition(f"unknown label {lab!r}")
                if lab in seen:
                    raise InvalidPartition(f"label {lab!r} appears twice")
                seen.add(lab)
    except (TypeError, ValueError) as exc:  # a group or a label of the wrong type
        raise InvalidPartition(f"partition must be lists of labels: {exc}") from None
    if len(seen) != len(cg):
        raise InvalidPartition("partition does not cover all labels")
    m = np.zeros((len(cg), len(partition)))
    for j, group in enumerate(partition):
        m[[index[lab] for lab in group], j] = 1.0
    labels = tuple(tuple(g) if len(g) > 1 else g[0] for g in partition)
    return CoarseGraining(labels, _merged(m, cg.effects)), RefinementMap(m)


def _merged(m: np.ndarray, effects: np.ndarray) -> np.ndarray:
    """The effects sum_i m[i, j] Pi_i of the coarser coarse-graining a map
    m gives: merge_outcomes' stack form."""
    return np.tensordot(m, effects, axes=(0, 0))


def refinement_divergence_bound(
    finer: CoarseGraining,
    coarser: CoarseGraining,
    m: RefinementMap,
    rho,
    alpha: float,
) -> float:
    """Candidate divergence bound D_alpha(P || Q) for a refinement pair.

    P_i = p_i and Q_i = (sum_j m[i, j] (V_i p'_j / V'_j)^alpha)^(1/alpha).
    For the trivial coarser {I} this equals the realized entropy gap
    exactly; in general it is reported for comparison against the gap and
    can exceed it (the bound does not hold for arbitrary refinements).
    For a 0/1 merge into blocks I, with D_I the order-alpha divergence of
    (p_j / p_I) from (V_j / V_I) over j in I, the bound is exactly
    (1/(alpha-1)) log sum_I p_I exp((alpha-1) D_I), while the gap is the
    same expression with escort weights proportional to
    p_I^alpha V_I^(1-alpha). Requires alpha > 1.
    """
    a = _check_alpha(alpha)
    if a <= 1.0 or _near_one(a):
        raise InvalidAlpha(f"refinement bound needs alpha - 1 >= {tol.ALPHA_NEAR_ONE:g}")
    holds, residual = check_refinement(finer, coarser, m)
    if not holds:
        raise NotARefinement(
            "map does not reproduce the coarser effects", magnitude=residual
        )
    state = _state(finer, rho)
    fine, coarse = _outcomes([((cg.effects, cg.volumes()), state) for cg in (finer, coarser)])
    return float(_refinement_bounds([(fine, coarse, m.matrix)], a)[0])


@np.errstate(divide="ignore")
def _refinement_bounds(cases: list, alpha: float) -> np.ndarray:
    """refinement_divergence_bound of each ((p, V), (p', V'), m) case, the
    outcome probabilities and volumes of the finer and the coarser
    coarse-graining and the map's matrix, at one order, from one _ragged
    call; log Q_i is a logsumexp over j, so (V_i p'_j / V'_j)^alpha cannot
    underflow."""
    qs = []
    for (_, v), (pc, vc), m in cases:
        logs = np.log(m) + alpha * np.log(v[:, None] * pc / vc)
        top = logs.max(axis=1, keepdims=True)
        top[~np.isfinite(top)] = 0.0
        qs.append(np.exp((top[:, 0] + np.log(np.exp(logs - top).sum(axis=1))) / alpha))
    return _ragged([p for (p, _), _, _ in cases], qs, alpha)
