"""Validated dense complex-matrix primitives.

Hermiticity / PSD / density validation, spectral decomposition with
degeneracy merging, matrix powers with an explicit support convention,
tensor products, partial traces, and exact unitary propagation. All
functions are pure; validated operators are immutable value objects.

Conventions: hbar = 1, Boltzmann constant = 1, natural logarithms.
"""

from __future__ import annotations

import math
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
    m = getattr(x, "matrix", x)
    return np.asarray(m, dtype=complex)


def _check_square(m: np.ndarray) -> int:
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise NotSquare(f"expected a square matrix, got shape {m.shape}")
    return m.shape[0]


def hermiticity_defect(m: np.ndarray) -> float:
    """Max-abs deviation of m from its conjugate transpose."""
    return float(np.max(np.abs(m - m.conj().T))) if m.size else 0.0


def _check_hermitian(m: np.ndarray, rtol: float) -> None:
    scale = max(float(np.max(np.abs(m))), 1.0)
    defect = hermiticity_defect(m)
    if defect > rtol * scale:
        raise NotHermitian("matrix is not Hermitian", magnitude=defect)


@dataclass(frozen=True)
class HermitianOperator:
    """A validated Hermitian matrix (Hamiltonians, observables)."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        _check_square(m)
        _check_hermitian(m, tol.HERMITICITY_RTOL)
        m = 0.5 * (m + m.conj().T)  # symmetrize residual noise
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
        m = np.asarray(self.matrix, dtype=complex)
        _check_square(m)
        _check_hermitian(m, tol.HERMITICITY_RTOL)
        m = 0.5 * (m + m.conj().T)
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
    m = as_matrix(matrix)
    _check_square(m)
    if kind == "hermitian":
        return HermitianOperator(m)
    if kind == "psd":
        h = HermitianOperator(m)
        lam_min = float(np.linalg.eigvalsh(h.matrix)[0])
        if lam_min < -tol.PSD_EIGENVALUE_FLOOR:
            raise NotPSD("matrix has a negative eigenvalue", magnitude=-lam_min)
        return h
    if kind == "density":
        return DensityOperator(m)
    raise ValueError(f"unknown operator kind {kind!r}")


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
    lam, vec = _psd_eigh(m, support_rtol)
    keep = lam > 0
    powered = np.where(keep, np.power(np.where(keep, lam, 1.0), s), 0.0)
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
        raise ValueError("tensor needs at least two operators")
    out = as_matrix(ops[0])
    for other in ops[1:]:
        out = np.kron(out, as_matrix(other))
    return out


def partial_trace(rho, dims: tuple, keep: str) -> np.ndarray:
    """Trace out one side of a bipartite operator.

    dims = (d_A, d_B) with dim(rho) = d_A * d_B; keep is 'A' or 'B'.
    """
    m = as_matrix(rho)
    d_a, d_b = dims
    if m.shape[0] != d_a * d_b:
        raise DimensionMismatch(
            f"operator dim {m.shape[0]} != {d_a} * {d_b}"
        )
    t = m.reshape(d_a, d_b, d_a, d_b)
    if keep == "A":
        return np.einsum("ikjk->ij", t)
    if keep == "B":
        return np.einsum("kikj->ij", t)
    raise ValueError("keep must be 'A' or 'B'")


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
    rm = as_matrix(rho)
    hm = as_matrix(H)
    if rm.shape != hm.shape:
        raise DimensionMismatch(
            f"state dim {rm.shape[0]} != Hamiltonian dim {hm.shape[0]}"
        )
    lam, vec = np.linalg.eigh(hm)
    return _evolve(lam, vec, vec.conj().T @ rm @ vec, t)
