"""Validated dense complex-matrix primitives.

Hermiticity / PSD / density validation, spectral decomposition with
degeneracy merging, matrix powers with an explicit support convention,
tensor products, partial traces, and exact unitary propagation. All
functions are pure; validated operators are immutable value objects.

Input gates: each public function of the package checks each input once,
through one gate per kind of value, and its private helpers trust what
they are given. A matrix goes through _matrix here (one finite square
matrix; kind 'state' adds a positive trace and the Hermiticity test of
_hermitian, kind 'hermitian' that test and the Hermitian part), PSD
operators through _psd here (one rule, shared by _psd_eigh), a real
number through _real here (one finite real, with an optional lower
bound; other range tests stay with the caller), an integer with a lower
bound through _integer here, an array of real numbers through _reals
here (a weight vector through _nonneg_vector here, which adds the
shape and sign tests, and a JSON number through serialize._floats), an
object such as a CoarseGraining through _instance here, a sequence
through _items here, an alpha grid through divergences._check_alphas and
an option string through _option here. Each raises a ValidationError
subclass (or the error type its caller names). One rule, _support here,
decides which weights and eigenvalues count as exact zeros, for
op_power, the entropy kernel and alpha_derivative alike.

Conventions: hbar = 1, Boltzmann constant = 1, natural logarithms.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from . import tolerances as tol
from .errors import (
    DimensionMismatch,
    LengthMismatch,
    NotHermitian,
    NotPSD,
    NotSquare,
    TraceNotOne,
    ValidationError,
)

_PSD_CHUNK_BYTES = 2 << 20


def as_matrix(x) -> np.ndarray:
    """Coerce an operator-like object to a complex ndarray."""
    try:
        return np.asarray(getattr(x, "matrix", x), dtype=complex)
    except (TypeError, ValueError):  # not numeric, or ragged
        raise ValidationError(f"expected a numeric matrix, got {x!r:.40}") from None


def _matrix(
    x, kind: str = "square", dim: int | None = None, name: str = "matrix"
) -> np.ndarray:
    """The matrix gate: x as one complex square matrix with finite entries,
    of dimension dim when given. Kind 'state' also requires a positive
    trace, and kinds 'state' and 'hermitian' Hermiticity (_hermitian);
    'hermitian' returns a new array holding the Hermitian part. name
    starts the error messages."""
    m = as_matrix(x)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size:
        raise NotSquare(f"{name} has shape {m.shape}, expected a square matrix")
    if dim is not None and m.shape[0] != dim:
        raise DimensionMismatch(f"{name} has shape {m.shape}, expected {(dim, dim)}")
    if kind == "state":
        if not (np.isfinite(m).all() and np.trace(m).real > 0):
            raise ValidationError(f"{name} needs finite entries and a positive trace")
    elif not np.isfinite(m).all():
        raise ValidationError(f"{name} needs finite entries")
    return _hermitian(m, name, kind == "hermitian") if kind in ("state", "hermitian") else m


def _hermitian(m: np.ndarray, name: str, part: bool = False) -> np.ndarray:
    """m, a finite matrix or (..., d, d) stack, when each matrix is within
    HERMITICITY_RTOL * max(largest |entry|, 1) of its adjoint, else
    NotHermitian (an overflowing defect too, with no warning). With part,
    a new array of the Hermitian parts: m's bits, signed zeros included,
    when m is exactly Hermitian, else m / 2 + m^H / 2, which cannot overflow."""
    adjoint = m.conj().swapaxes(-1, -2)
    with np.errstate(over="ignore"):
        defect = np.max(np.abs(m - adjoint), axis=(-2, -1), initial=0.0)
    if (defect > tol.HERMITICITY_RTOL * np.max(np.abs(m), axis=(-2, -1), initial=1.0)).any():
        raise NotHermitian(f"{name} is not Hermitian", magnitude=float(np.max(defect)))
    return (0.5 * m + 0.5 * adjoint if defect.any() else m.copy()) if part else m


def _real(x, error=ValidationError, name: str = "value", least: float = -math.inf) -> float:
    """The real-number gate: x as a float when it is exactly one finite
    real number (a Python or numpy int or float, or a 0-d array) of at
    least least, else error. Other range tests stay with the caller."""
    try:
        a = np.asarray(x)
    except ValueError:  # ragged nesting
        a = np.asarray(None)
    if a.ndim or a.dtype.kind not in "iuf" or not np.isfinite(a) or a < least:
        bound = f" >= {least}" if least > -math.inf else ""
        raise error(f"{name} must be one finite real number{bound}, got {x!r:.40}")
    return float(a)


def _integer(x, least: int, name: str) -> int:
    """The integer gate: x as an int when it is one integer (a Python or
    numpy int) of at least least, else ValidationError."""
    try:
        k = operator.index(x)
    except TypeError:  # not an integer
        k = None
    if k is None or k < least:
        raise ValidationError(f"{name} must be an integer >= {least}, got {x!r:.40}")
    return k


def _reals(x, error=ValidationError, name: str = "values") -> np.ndarray:
    """The real-array gate: x as a float array of finite real numbers
    (booleans read as 0 and 1), else error. Shape tests stay with the
    caller."""
    try:
        v = np.asarray(x)
    except ValueError:  # ragged nesting
        v = np.asarray(None)
    if v.dtype.kind not in "biuf":
        raise error(f"{name} must be real numbers, got {x!r:.40}")
    v = v.astype(float, copy=False)
    if not np.isfinite(v).all():
        raise error(f"{name} must be finite")
    return v


def _nonneg_vector(x) -> np.ndarray:
    """The weight-vector gate: x through the real-array gate as a 1-d float
    array of non-negative numbers; entries down to -1e-12 are rounding and
    read as 0."""
    v = _reals(x, name="weights")
    if v.ndim != 1:
        raise LengthMismatch(f"expected a 1-d weight vector, got shape {v.shape}")
    if v.size and float(v.min()) < -1e-12:
        raise ValidationError("negative weight", magnitude=-float(v.min()))
    return np.maximum(v, 0.0)


def _instance(x, kind: type, name: str):
    """The structured-argument gate: x when it is a kind instance (a
    CoarseGraining, RefinementMap, LevelSystem, EnergyWindowing or
    DrivingProtocol), else ValidationError."""
    if not isinstance(x, kind):
        raise ValidationError(f"{name} must be a {kind.__name__}, got {x!r:.40}")
    return x


def _items(x, name: str) -> list:
    """The sequence gate: the items of x as a list when x is iterable,
    else ValidationError."""
    try:
        return list(x)
    except TypeError:  # a number or another non-iterable object
        raise ValidationError(f"{name} must be a sequence, got {x!r:.40}") from None


def _option(x, choices: tuple, name: str) -> str:
    """The option gate: x when it is one of the strings choices, else
    ValidationError."""
    if not (isinstance(x, str) and x in choices):
        raise ValidationError(f"{name} must be one of {choices}, got {x!r:.40}")
    return x


@dataclass(frozen=True)
class HermitianOperator:
    """A validated Hermitian matrix (Hamiltonians, observables)."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _matrix(self.matrix, "hermitian")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class DensityOperator(HermitianOperator):
    """A validated quantum state: Hermitian, PSD, unit trace."""

    def __post_init__(self):
        super().__post_init__()
        _psd(self.matrix[None], lambda k: "state has a negative eigenvalue")
        tr = float(np.trace(self.matrix).real)
        if abs(tr - 1.0) > tol.TRACE_ATOL:
            raise TraceNotOne("state trace differs from 1", magnitude=abs(tr - 1.0))


@dataclass(frozen=True)
class EigenSystem:
    """Spectral decomposition with degenerate levels merged.

    eigenvalues are ascending; projectors[k] spans the eigenspace of
    eigenvalues[k] and has rank multiplicities[k].
    """

    eigenvalues: np.ndarray
    projectors: list = field(default_factory=list)
    multiplicities: tuple = ()

    def reconstruct(self) -> np.ndarray:
        return sum(lam * proj for lam, proj in zip(self.eigenvalues, self.projectors))


def validate_operator(matrix, kind: str):
    """Validate a raw matrix as 'hermitian', 'psd' or 'density'.

    Returns the typed operator, or raises a ValidationError naming the
    violated invariant and its magnitude.
    """
    _option(kind, ("hermitian", "psd", "density"), "operator kind")
    op = (DensityOperator if kind == "density" else HermitianOperator)(matrix)
    if kind == "psd":
        _psd(op.matrix[None], lambda k: "matrix has a negative eigenvalue")
    return op


def _levels(lam: np.ndarray, degeneracy_tol: float = tol.DEGENERACY_ATOL) -> list:
    """(start, stop, mean) per level of ascending lam; gaps > degeneracy_tol split."""
    cuts = (np.flatnonzero(np.diff(lam) > degeneracy_tol) + 1).tolist()
    bounds = [0, *cuts, len(lam)]
    return [(a, b, float(np.mean(lam[a:b]))) for a, b in zip(bounds, bounds[1:])]


def spectral(H, degeneracy_tol: float = tol.DEGENERACY_ATOL) -> EigenSystem:
    """Eigendecompose a Hermitian matrix, merging near-degenerate levels.

    Eigenvalues within degeneracy_tol of their neighbour are grouped into a
    single projector of summed rank; the reported eigenvalue of a group is
    the rank-weighted mean.
    """
    lam, vec = np.linalg.eigh(validate_operator(H, "hermitian").matrix)
    levels = _levels(lam, _real(degeneracy_tol, name="degeneracy_tol", least=0.0))
    projectors = [vec[:, a:b] @ vec[:, a:b].conj().T for a, b, _ in levels]
    mults = tuple(b - a for a, b, _ in levels)
    return EigenSystem(np.array([v for _, _, v in levels]), projectors, mults)


def op_power(A, s: float, support_rtol: float = tol.SUPPORT_RTOL) -> np.ndarray:
    """PSD matrix power with the pseudo-power support convention.

    Eigenvalues <= support_rtol * lambda_max (_support) are treated as exact
    zeros and map to 0 for every exponent s, including negative s. Hence
    op_power(A, s) @ op_power(A, -s) is the projector onto supp(A). A may
    also be a (..., d, d) stack; each matrix is then powered on its own,
    with its own lambda_max. A matrix that is not Hermitian (_hermitian)
    raises NotHermitian, and one that breaks the PSD rule of _psd NotPSD.
    """
    m = as_matrix(A)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise NotSquare(f"expected square matrices, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValidationError("matrices need finite entries")
    rtol = _real(support_rtol, name="support_rtol", least=0.0)
    return _power(_hermitian(m, "matrix"), _real(s, name="s"), rtol)


def _power(m: np.ndarray, s: float, support_rtol: float = tol.SUPPORT_RTOL) -> np.ndarray:
    """op_power of a Hermitian matrix or stack m, with no input gate."""
    lam, vec = _psd_eigh(m, support_rtol)
    keep = lam > 0
    powered = np.where(keep, np.power(np.where(keep, lam, 1.0), s), 0.0)
    return (vec * powered[..., None, :]) @ vec.conj().swapaxes(-1, -2)


def _psd_eigh(m: np.ndarray, support_rtol: float = tol.SUPPORT_RTOL) -> tuple:
    """eigh of a PSD matrix or (..., d, d) stack, checked by _psd_rule, with
    the eigenvalues _support(., support_rtol) cuts set to 0."""
    lam, vec = np.linalg.eigh(m)
    _psd_rule(lam, lambda k: "expected a PSD matrix")
    return np.where(_support(lam, support_rtol), lam, 0.0), vec


def _support(x: np.ndarray, rtol: float = tol.SUPPORT_RTOL) -> np.ndarray:
    """The support rule: the mask of the entries of x above rtol times the
    largest entry of their last axis, or times 1e-300 where that is
    smaller; the others count as exact zeros."""
    # the maxima by the ufunc, which skips the ndarray method wrappers, as
    # this runs once per call of every entropy
    return x > rtol * np.maximum.reduce(x, -1, None, None, True, 1e-300)


def _psd_rule(lam: np.ndarray, message) -> None:
    """The PSD rule (see _psd) on the ascending eigenvalues of a matrix or
    stack: the first matrix k that breaks it raises NotPSD(message(k))."""
    low = lam[..., :1] < -tol.PSD_EIGENVALUE_FLOOR * np.maximum(lam[..., -1:], 1.0)
    if low.any():
        k = int(np.flatnonzero(low)[0])
        raise NotPSD(message(k), magnitude=-float(lam[..., 0].flat[k]))


def _psd(stack: np.ndarray, message) -> None:
    """The PSD gate on an (n, d, d) Hermitian stack. The rule: no eigenvalue
    below -PSD_EIGENVALUE_FLOOR * max(lambda_max, 1), a floor that scales
    as eigendecomposition rounding does. One Cholesky per _PSD_CHUNK_BYTES
    of matrices shifted by PSD_EIGENVALUE_FLOOR * max(largest diagonal
    entry, 1) decides it: that is at most the rule's shift, so a success is
    a pass, and only a chunk that fails is eigendecomposed (_psd_rule)."""
    step = max(1, _PSD_CHUNK_BYTES // max(stack[:1].nbytes, 1))
    for start in range(0, len(stack), step):
        chunk = stack[start : start + step]
        top = np.max(chunk.diagonal(axis1=1, axis2=2).real, axis=1, initial=1.0)
        shift = tol.PSD_EIGENVALUE_FLOOR * top[:, None, None] * np.eye(chunk.shape[-1])
        try:
            np.linalg.cholesky(chunk + shift)
        except np.linalg.LinAlgError:  # some matrix of the chunk is not positive definite
            _psd_rule(np.linalg.eigvalsh(chunk), lambda k: message(start + k))


def _per_dim(fn, *stacks) -> list:
    """fn(s, ...) for each tuple of same-position stacks (arrays of matrices
    or vectors along axis 0) of the lists stacks, split back per stack from
    one call of fn per shape on the joined stacks of that shape; fn must
    map each matrix or vector on its own to one row (of an array, or of
    each array of a tuple), as np.linalg.eigvalsh does."""
    if len(stacks[0]) == 1:
        return [fn(*(ss[0] for ss in stacks))]
    groups = {}
    for i, s in enumerate(stacks[0]):
        groups.setdefault(s.shape[1:], []).append(i)
    out = [None] * len(stacks[0])
    for idx in groups.values():
        res = fn(*(
            ss[idx[0]] if len(idx) == 1 else np.concatenate([ss[i] for i in idx])
            for ss in stacks
        ))
        bounds = [0, *itertools.accumulate(len(stacks[0][i]) for i in idx)]
        for i, a, b in zip(idx, bounds, bounds[1:]):
            out[i] = tuple(r[a:b] for r in res) if isinstance(res, tuple) else res[a:b]
    return out


def _each(fn, *mats) -> list:
    """fn(m, ...) for each tuple of same-position arrays (matrices or
    vectors) of the lists mats, through _per_dim: one call of fn per shape
    on the stack of the arrays of that shape."""
    rows = _per_dim(fn, *([np.asarray(m)[None] for m in ms] for ms in mats))
    return [tuple(r[0] for r in row) if isinstance(row, tuple) else row[0] for row in rows]


def tensor(*ops) -> np.ndarray:
    """Kronecker product of two or more operators."""
    if len(ops) < 2:
        raise ValidationError("tensor needs at least two operators")
    out = _matrix(ops[0])
    for other in ops[1:]:
        out = np.kron(out, _matrix(other))
    return out


def partial_trace(rho, dims: tuple, keep: str) -> np.ndarray:
    """Trace out one side of a bipartite operator.

    dims = (d_A, d_B) with dim(rho) = d_A * d_B; keep is 'A' or 'B'.
    """
    try:
        d_a, d_b = (operator.index(d) for d in dims)
    except (TypeError, ValueError):  # not two integers
        d_a = d_b = 0
    if min(d_a, d_b) < 1:
        raise ValidationError(f"dims must be two positive integers, got {dims!r:.40}")
    _option(keep, ("A", "B"), "keep")
    t = _matrix(rho, dim=d_a * d_b).reshape(d_a, d_b, d_a, d_b)
    return np.einsum("ikjk->ij" if keep == "A" else "kikj->ij", t)


def _phases(lam: np.ndarray, t: float) -> np.ndarray:
    """e^(-i lam t); a phase lam * t that is not a finite float raises
    ValidationError."""
    if not math.isfinite(float(t) * float(np.max(np.abs(lam)))):
        raise ValidationError(f"phase lambda * t is not finite at t = {t}")
    return np.exp(-1j * lam * t)


def _evolve(lam: np.ndarray, vec: np.ndarray, tilde: np.ndarray, t: float):
    """V (tilde * e^(-i lam t) e^(+i lam t)^T) V^H: the state with matrix
    tilde in the eigenbasis of H = V diag(lam) V^H, evolved under H for t."""
    w = vec * _phases(lam, t)
    return w @ tilde @ w.conj().T


def _populations(lam: np.ndarray, m: np.ndarray, tilde: np.ndarray, times) -> np.ndarray:
    """Re diag(A tilde A^H) with A = m diag(e^(-i lam t)) for each t of
    times, as a (len(times), rows of m) float array: with m = B^H V, row k
    holds the populations along the columns of B of the state evolved as
    in _evolve for times[k]. Each time takes one product x = A tilde; the
    real row sums of x * conj(A) are dot products of the float views (m
    must be C-contiguous), so the evolved state is never formed."""
    out = np.empty((len(times), len(m)))
    for k, t in enumerate(times):
        a = m * _phases(lam, t)
        out[k] = np.einsum("ij,ij->i", (a @ tilde).view(float), a.view(float))
    return out


def _window_probabilities(
    lam: np.ndarray, m: np.ndarray, tilde: np.ndarray, times, bins: np.ndarray, n: int
) -> np.ndarray:
    """The (len(times), n) table of the populations of _populations(lam,
    m, tilde, times) summed over the rows j of m in each window bins[j],
    through the weight gate (_nonneg_vector). For r rows of m, T times and
    d = len(lam), in d^2 multiply-adds, it takes the per-window form, r +
    n T, where 3 (r + n T) < 2 T r, else the per-time form, T r: one
    _populations product per time, then one bincount. The per-window form
    is window w's Re phi^T h_w conj(phi) with phi = e^(-i lam t) and h_w =
    tilde * (m_w^T conj(m_w)) over its rows m_w: one (T x d)(d x d) product
    for all times. With one row per window the two tie on multiply-adds and
    the per-time form runs; at T = 51 (one OpenBLAS thread, a Xeon) the
    per-window form took 1.5 times as long at d = 128, 0.65 times at d = 12."""
    n_t, r = len(times), len(m)
    if 3 * (r + n * n_t) < 2 * n_t * r:
        phi = np.array([_phases(lam, t) for t in times])
        out = np.empty((n_t, n))
        for w in range(n):
            m_w = m[bins == w]
            h = m_w.T @ m_w.conj()
            h *= tilde
            out[:, w] = np.einsum("ij,ij->i", (phi @ h).view(float), phi.view(float))
    else:
        index = (np.arange(n_t)[:, None] * n + bins).ravel()
        out = np.bincount(index, _populations(lam, m, tilde, times).ravel(), n_t * n)
    return _nonneg_vector(out.ravel()).reshape(n_t, n)


def propagate(rho, H, t: float) -> np.ndarray:
    """Evolve rho under U = exp(-i H t), computed spectrally (exact)."""
    hm = _matrix(H, "hermitian", name="Hamiltonian")
    rm = _matrix(rho, dim=len(hm), name="state")
    lam, vec = np.linalg.eigh(hm)
    return _evolve(lam, vec, vec.conj().T @ rm @ vec, _real(t, name="t"))
