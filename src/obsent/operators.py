"""Validated dense complex-matrix primitives.

Hermiticity / PSD / density validation, spectral decomposition with
degeneracy merging, matrix powers with an explicit support convention,
tensor products, partial traces, and exact unitary propagation. All
functions are pure; validated operators are immutable value objects.

Input gates: each public function of the package checks each input once,
through one gate per kind of value, and its private helpers trust what
they are given. A matrix goes through _matrix here (one finite square
matrix; kind 'state' adds a positive trace, kind 'hermitian' the
Hermiticity check and symmetrization), a real number through _real here
(one finite real; range tests stay with the caller) and a weight vector
through divergences._nonneg_vector. Each raises a ValidationError
subclass (or the error type its caller names).

Conventions: hbar = 1, Boltzmann constant = 1, natural logarithms.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from . import tolerances as tol
from .errors import (
    DimensionMismatch,
    NotHermitian,
    NotPSD,
    NotSquare,
    TraceNotOne,
    ValidationError,
)


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
    trace. Kind 'hermitian' requires Hermiticity within HERMITICITY_RTOL
    and returns the Hermitian part (m + m^H) / 2, which is m itself, bit
    for bit, when m is exactly Hermitian. name starts the error messages."""
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
    if kind == "hermitian":
        adjoint = m.conj().T
        defect = float(np.max(np.abs(m - adjoint)))
        if defect > tol.HERMITICITY_RTOL * max(float(np.max(np.abs(m))), 1.0):
            raise NotHermitian(f"{name} is not Hermitian", magnitude=defect)
        m = 0.5 * (m + adjoint)
    return m


def _real(x, error=ValidationError, name: str = "value") -> float:
    """The real-number gate: x as a float when it is exactly one finite
    real number (a Python or numpy int or float, or a 0-d array), else
    error. Range tests stay with the caller."""
    try:
        a = np.asarray(x)
    except ValueError:  # ragged nesting
        a = np.asarray(None)
    if a.ndim or a.dtype.kind not in "iuf" or not np.isfinite(a):
        raise error(f"{name} must be one finite real number, got {x!r:.40}")
    return float(a)


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
class DensityOperator:
    """A validated quantum state: Hermitian, PSD, unit trace."""

    matrix: np.ndarray

    def __post_init__(self):
        m = _matrix(self.matrix, "hermitian")
        lam_min = float(np.linalg.eigvalsh(m)[0])
        if lam_min < -tol.PSD_EIGENVALUE_FLOOR:
            raise NotPSD("state has a negative eigenvalue", magnitude=-lam_min)
        tr = float(np.trace(m).real)
        if abs(tr - 1.0) > tol.TRACE_ATOL:
            raise TraceNotOne("state trace differs from 1", magnitude=abs(tr - 1.0))
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


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
        out = np.zeros_like(self.projectors[0])
        for lam, proj in zip(self.eigenvalues, self.projectors):
            out = out + lam * proj
        return out


def validate_operator(matrix, kind: str):
    """Validate a raw matrix as 'hermitian', 'psd' or 'density'.

    Returns the typed operator, or raises a ValidationError naming the
    violated invariant and its magnitude.
    """
    if kind == "hermitian":
        return HermitianOperator(matrix)
    if kind == "psd":
        h = HermitianOperator(matrix)
        lam_min = float(np.linalg.eigvalsh(h.matrix)[0])
        if lam_min < -tol.PSD_EIGENVALUE_FLOOR:
            raise NotPSD("matrix has a negative eigenvalue", magnitude=-lam_min)
        return h
    if kind == "density":
        return DensityOperator(matrix)
    raise ValidationError(f"unknown operator kind {kind!r}")


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
    levels = _levels(lam, degeneracy_tol)
    projectors = [vec[:, a:b] @ vec[:, a:b].conj().T for a, b, _ in levels]
    mults = tuple(b - a for a, b, _ in levels)
    return EigenSystem(np.array([v for _, _, v in levels]), projectors, mults)


def op_power(A, s: float, support_rtol: float = tol.SUPPORT_RTOL) -> np.ndarray:
    """PSD matrix power with the pseudo-power support convention.

    Eigenvalues <= support_rtol * lambda_max are treated as exact zeros and
    map to 0 for every exponent s, including negative s. Hence
    op_power(A, s) @ op_power(A, -s) is the projector onto supp(A). A may
    also be a (..., d, d) stack; each matrix is then powered on its own,
    with its own lambda_max.
    """
    m = as_matrix(A)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise NotSquare(f"expected square matrices, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValidationError("matrices need finite entries")
    lam, vec = _psd_eigh(m, support_rtol)
    keep = lam > 0
    powered = np.where(keep, np.power(np.where(keep, lam, 1.0), _real(s, name="s")), 0.0)
    return (vec * powered[..., None, :]) @ vec.conj().swapaxes(-1, -2)


def _psd_eigh(m: np.ndarray, support_rtol: float = tol.SUPPORT_RTOL) -> tuple:
    """eigh of a PSD matrix or (..., d, d) stack, with eigenvalues <=
    support_rtol * lambda_max of their matrix set to exact zeros. A negative
    eigenvalue beyond the PSD floor raises NotPSD."""
    lam, vec = np.linalg.eigh(m)
    lam_max = lam[..., -1:]
    neg = -lam[..., :1]
    bad = neg > tol.PSD_EIGENVALUE_FLOOR * np.maximum(lam_max, 1.0)
    if np.any(bad):
        raise NotPSD("expected a PSD matrix", magnitude=float(neg[bad][0]))
    return np.where(lam > support_rtol * lam_max, lam, 0.0), vec


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
    if keep not in ("A", "B"):
        raise ValidationError(f"keep must be 'A' or 'B', got {keep!r:.40}")
    t = _matrix(rho, dim=d_a * d_b).reshape(d_a, d_b, d_a, d_b)
    return np.einsum("ikjk->ij" if keep == "A" else "kikj->ij", t)


def _evolve(lam: np.ndarray, vec: np.ndarray, tilde: np.ndarray, t: float):
    """V (tilde * e^(-i lam t) e^(+i lam t)^T) V^H: the state with matrix
    tilde in the eigenbasis of H = V diag(lam) V^H, evolved under H for t.
    A phase lam * t that is not a finite float raises ValidationError."""
    if not math.isfinite(float(t) * float(np.max(np.abs(lam)))):
        raise ValidationError(f"phase lambda * t is not finite at t = {t}")
    w = vec * np.exp(-1j * lam * t)
    return w @ tilde @ w.conj().T


def propagate(rho, H, t: float) -> np.ndarray:
    """Evolve rho under U = exp(-i H t), computed spectrally (exact)."""
    hm = _matrix(H, "hermitian", name="Hamiltonian")
    rm = _matrix(rho, dim=len(hm), name="state")
    lam, vec = np.linalg.eigh(hm)
    return _evolve(lam, vec, vec.conj().T @ rm @ vec, _real(t, name="t"))
