"""Energy-window coarse-grainings, Gibbs states, and entropy-production runs.

Closed runs drive a state exactly through piecewise-constant Hamiltonian
segments, each eigendecomposed once; its samples share the segment's energy
coarse-graining and effective temperature. Open runs evolve a
system-bath product state under a static joint Hamiltonian and track the
joint, marginal, and mutual-information terms of the outcome statistics.

Heat over temperature is accumulated through the defining relation
T dS = dQ for the fictitious Gibbs state matched to the instantaneous mean
energy, i.e. as a Renyi-entropy difference of those Gibbs states; no
quadrature is involved. Units: hbar = 1, Boltzmann constant = 1, nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from .coarse_graining import CoarseGraining, outcomes, projective_cg, tensor_cg
from .divergences import _check_alpha, _renyi_divergence
from .errors import (
    DimensionMismatch,
    EnergyOutOfRange,
    InvalidAlpha,
    InvalidTemperature,
    NoConvergence,
    ValidationError,
)
from .operators import (
    _evolve,
    _levels,
    as_matrix,
    partial_trace,
    tensor,
    validate_operator,
)
from .state_analysis import is_coarse_grained


@dataclass(frozen=True)
class EnergyWindowing:
    """Half-open energy bins [origin + k*delta, origin + (k+1)*delta).

    origin defaults to the lowest eigenvalue of the Hamiltonian being
    windowed, so bin contents are reproducible across runs.
    """

    delta: float
    origin: float | None = None

    def __post_init__(self):
        if not np.isfinite(self.delta) or self.delta <= 0:
            raise ValidationError(f"window width must be > 0, got {self.delta}")
        if self.origin is not None and not np.isfinite(self.origin):
            raise ValidationError(f"window origin must be finite, got {self.origin}")


@dataclass(frozen=True)
class DrivingProtocol:
    """Ordered piecewise-constant segments (Hamiltonian, duration)."""

    segments: tuple

    def __post_init__(self):
        segs = []
        dim = None
        for h, duration in self.segments:
            m = as_matrix(h)
            if dim is None:
                dim = m.shape[0]
            elif m.shape[0] != dim:
                raise DimensionMismatch(
                    f"segment dim {m.shape[0]} != {dim}"
                )
            if not 0 <= duration < math.inf:
                raise ValidationError(f"segment duration {duration} is not in [0, inf)")
            segs.append((m, float(duration)))
        if not segs:
            raise ValidationError("protocol needs at least one segment")
        object.__setattr__(self, "segments", tuple(segs))

    @property
    def dim(self) -> int:
        return self.segments[0][0].shape[0]

    @property
    def total_duration(self) -> float:
        return sum(d for _, d in self.segments)

    def segment_index(self, t: float) -> int:
        """Index of the segment active at time t (the last at the final instant)."""
        acc = 0.0
        for k, (_, duration) in enumerate(self.segments):
            if t < acc + duration:
                return k
            acc += duration
        return len(self.segments) - 1

    def hamiltonian_at(self, t: float) -> np.ndarray:
        """Hamiltonian active at time t (last segment at the final instant)."""
        return self.segments[self.segment_index(t)][0]


@dataclass(frozen=True)
class LevelSystem:
    """Energy levels sharing one outcome volume V."""

    energies: np.ndarray
    volume: float = 1.0

    def __post_init__(self):
        e = np.asarray(self.energies, dtype=float)
        if e.ndim != 1 or e.size == 0:
            raise ValidationError("energies must be a non-empty 1-d array")
        if not np.all(np.isfinite(e)):
            raise ValidationError("energies must be finite")
        if not np.isfinite(self.volume) or self.volume <= 0:
            raise ValidationError(f"volume must be > 0, got {self.volume}")
        e.flags.writeable = False
        object.__setattr__(self, "energies", e)


def energy_cg(H, windowing: EnergyWindowing) -> CoarseGraining:
    """Coarse-graining by energy windows of the given Hamiltonian.

    One effect per non-empty bin: the projector V_w V_w^H onto the
    eigenvectors whose (degeneracy-merged) eigenvalue lies in the bin.
    """
    lam, vec = np.linalg.eigh(validate_operator(H, "hermitian").matrix)
    return _energy_cg(lam, vec, windowing)


def _energy_cg(lam, vec, windowing: EnergyWindowing) -> CoarseGraining:
    """energy_cg from H's ascending eigenvalues lam and eigenvectors vec."""
    levels = _levels(lam)
    origin = levels[0][2] if windowing.origin is None else windowing.origin
    delta = windowing.delta
    bins: dict = {}
    for a, b, value in levels:
        x = (value - origin) / delta
        if not math.isfinite(x):
            raise ValidationError(f"energy {value} is {x} windows from the origin")
        k = math.floor(x + 1e-12)
        if k < 0 and x > -1e-9:
            k = 0
        bins.setdefault(k, []).extend(range(a, b))
    keys = sorted(bins)
    labels = [f"[{origin + k * delta:.9g},{origin + (k + 1) * delta:.9g})" for k in keys]
    effects = [vec[:, bins[k]] @ vec[:, bins[k]].conj().T for k in keys]
    return CoarseGraining(tuple(labels), effects)


def gibbs_state(H, beta: float) -> np.ndarray:
    """Thermal state exp(-beta H) / Z, computed spectrally."""
    if not np.isfinite(beta):
        raise ValidationError(f"beta must be finite, got {beta}")
    lam, vec = np.linalg.eigh(as_matrix(H))
    w = _gibbs_weights(lam, beta)
    w /= w.sum()
    return (vec * w) @ vec.conj().T


def _gibbs_weights(lam: np.ndarray, beta: float) -> np.ndarray:
    """Unnormalized exp(-beta lam), shifted so the largest weight is 1."""
    ref = lam[0] if beta >= 0 else lam[-1]
    return np.exp(-beta * (lam - ref))


def _gibbs_energy(lam: np.ndarray, beta: float) -> float:
    w = _gibbs_weights(lam, beta)
    return float(np.sum(lam * w) / np.sum(w))


def effective_beta(H, rho) -> float:
    """Inverse temperature of the Gibbs state matching Tr(H rho).

    Solved by bisection on [-BETA_RANGE, BETA_RANGE]; the Gibbs mean energy
    is strictly decreasing in beta. Negative results (population inversion)
    are returned, not rejected.
    """
    hm = as_matrix(H)
    lam = np.linalg.eigvalsh(hm)
    return _beta_for_energy(lam, float(np.trace(hm @ as_matrix(rho)).real))


def _beta_for_energy(lam: np.ndarray, target: float) -> float:
    """effective_beta for ascending spectrum lam and mean energy target."""
    span = max(float(lam[-1] - lam[0]), 1.0)
    if target <= lam[0] + 1e-12 * span or target >= lam[-1] - 1e-12 * span:
        raise EnergyOutOfRange(
            f"mean energy {target} is at or beyond the spectral endpoints "
            f"[{lam[0]}, {lam[-1]}]"
        )
    lo, hi = -tol.BETA_RANGE, tol.BETA_RANGE
    if _gibbs_energy(lam, lo) < target or _gibbs_energy(lam, hi) > target:
        raise NoConvergence(
            f"target energy {target} not bracketed by beta in [{lo}, {hi}]"
        )
    # bisect to interval exhaustion, then check the energy tolerance; this
    # pins beta itself, not just the energy mismatch
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _gibbs_energy(lam, mid) > target:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-13:
            break
    mid = 0.5 * (lo + hi)
    if abs(_gibbs_energy(lam, mid) - target) > tol.BETA_ENERGY_ATOL:
        raise NoConvergence("bisection did not reach the energy tolerance")
    return mid


@dataclass(frozen=True)
class FreeEnergyValues:
    partition: float
    partition_scaled: float
    helmholtz: float
    helmholtz_scaled: float


def free_energy(levels: LevelSystem, temperature: float) -> FreeEnergyValues:
    """Partition functions and Helmholtz free energies at a temperature.

    Z = sum_i exp(-E_i / T); the scaled variants multiply Z by the common
    outcome volume V: Z~ = V Z, A = -T log Z, A~ = -T log Z~.
    """
    if not np.isfinite(temperature) or temperature <= 0:
        raise InvalidTemperature(f"temperature must be > 0, got {temperature}")
    e = levels.energies
    ref = float(e.min())
    z = float(np.sum(np.exp(-(e - ref) / temperature)))
    log_z = math.log(z) - ref / temperature
    log_z_scaled = log_z + math.log(levels.volume)
    return FreeEnergyValues(
        partition=math.exp(log_z),
        partition_scaled=math.exp(log_z_scaled),
        helmholtz=-temperature * log_z,
        helmholtz_scaled=-temperature * log_z_scaled,
    )


def gibbs_distribution(levels: LevelSystem, temperature: float) -> np.ndarray:
    """Boltzmann weights exp(-E_i / T) / Z for a level system."""
    if not np.isfinite(temperature) or temperature <= 0:
        raise InvalidTemperature(f"temperature must be > 0, got {temperature}")
    e = levels.energies
    w = np.exp(-(e - e.min()) / temperature)
    return w / w.sum()


def jackson_check(levels: LevelSystem, t0: float, alpha: float) -> tuple:
    """Compare alpha-OE of a thermal level population with the Jackson
    difference quotient of the rescaled Helmholtz free energy.

    lhs is the alpha-OE of the constant-volume coarse-graining with
    p_i = exp(-E_i / T0) / Z(T0) and V_i = V; rhs is
    -(A~(T) - A~(T0)) / (T - T0) with T = T0 / alpha. Returns
    (lhs, rhs, lhs - rhs); the identity is exact in exact arithmetic.
    """
    _check_alpha(alpha)
    if abs(alpha - 1.0) < 1e-15:
        raise InvalidAlpha("the difference quotient needs alpha != 1")
    if not np.isfinite(t0) or t0 <= 0:
        raise InvalidTemperature(f"temperature must be > 0, got {t0}")
    p = gibbs_distribution(levels, t0)
    lhs = -_renyi_divergence(p, levels.volume, alpha)
    t_new = t0 / alpha
    a_new = free_energy(levels, t_new).helmholtz_scaled
    a_old = free_energy(levels, t0).helmholtz_scaled
    rhs = -(a_new - a_old) / (t_new - t0)
    return lhs, rhs, lhs - rhs


@dataclass(frozen=True)
class ClosedSample:
    """One (time, alpha) row of a closed-system run."""

    t: float
    alpha: float
    energy: float
    beta_eff: float
    entropy: float
    delta_entropy: float
    heat_over_t: float
    xi3: float
    gibbs_monitor_ok: bool


@dataclass(frozen=True)
class ClosedRunRecord:
    samples: tuple
    guarantee_void: bool
    findings: tuple = ()

    def min_delta_entropy(self) -> float:
        return min(s.delta_entropy for s in self.samples)


def _check_sample_times(sample_times, horizon: float | None) -> list:
    ts = [float(t) for t in sample_times]
    if not ts:
        raise ValidationError("at least one sample time is required")
    if not all(0 <= t < math.inf for t in ts):
        raise ValidationError("sample times must be finite and non-negative")
    if any(b - a <= 0 for a, b in zip(ts, ts[1:])):
        raise ValidationError("sample times must be strictly increasing")
    if horizon is not None and ts[-1] > horizon + 1e-12:
        raise ValidationError(
            f"sample time {ts[-1]} exceeds protocol duration {horizon}"
        )
    return ts


def _check_alphas(alphas) -> list:
    alphas = [float(a) for a in alphas]
    if not alphas:
        raise ValidationError("at least one alpha is required")
    for a in alphas:
        _check_alpha(a)
    return alphas


def closed_run(
    protocol: DrivingProtocol,
    rho0,
    windowing: EnergyWindowing,
    alphas,
    sample_times,
) -> ClosedRunRecord:
    """Drive a closed system and track alpha-OE entropy production.

    Each segment's Hamiltonian is eigendecomposed once. Its energy windows
    are spectral projectors of that Hamiltonian, so their probabilities stay
    those of the segment's start state: the window alpha-OEs, effective
    temperature and Gibbs entropies are computed once per segment and
    shared by its samples. When the initial state is not coarse-grained
    with respect to the initial energy windows, the run proceeds but
    carries guarantee_void=True and the entropy-production sign is no
    longer guaranteed.
    """
    rho = as_matrix(rho0)
    if rho.shape[0] != protocol.dim:
        raise DimensionMismatch(
            f"state dim {rho.shape[0]} != protocol dim {protocol.dim}"
        )
    alphas = _check_alphas(alphas)
    ts = _check_sample_times(sample_times, protocol.total_duration)

    # per segment: spectrum, and start state in its eigenbasis
    segs = []
    rho_k = rho
    for h, duration in protocol.segments:
        lam, vec = np.linalg.eigh(validate_operator(h, "hermitian").matrix)
        tilde = vec.conj().T @ rho_k @ vec
        segs.append((lam, vec, tilde))
        rho_k = _evolve(lam, vec, tilde, duration)

    def segment_terms(k):
        lam, vec, tilde = segs[k]
        energy = float(lam @ tilde.diagonal().real)
        beta = _beta_for_energy(lam, energy)
        w = _gibbs_weights(lam, beta)
        w = w / w.sum()
        cg = _energy_cg(lam, vec, windowing)
        dist = outcomes(cg, vec @ tilde @ vec.conj().T)
        p, v = dist.probabilities, dist.volumes
        oe = {a: (-_renyi_divergence(p, v, a), -_renyi_divergence(w, 1.0, a))
              for a in alphas}
        return cg, energy, beta, oe

    k_cur = protocol.segment_index(0.0)
    terms = segment_terms(k_cur)
    cg0, _, _, base = terms
    premise = is_coarse_grained(cg0, rho, alphas[0])
    guarantee_void = not premise.matrix_close

    samples, findings = [], []
    for t in ts:
        k = protocol.segment_index(t)
        if k != k_cur:
            k_cur, terms = k, segment_terms(k)
        _, energy, beta_t, oe = terms
        for a in alphas:
            s_oe, s_gibbs = oe[a]
            base_oe, base_renyi = base[a]
            heat = s_gibbs - base_renyi
            xi3 = s_oe - s_gibbs + heat
            monitor_ok = s_oe <= s_gibbs + 1e-9
            if not monitor_ok:
                findings.append(
                    {
                        "type": "gibbs_max_violation",
                        "t": t,
                        "alpha": a,
                        "margin": s_oe - s_gibbs,
                    }
                )
            samples.append(
                ClosedSample(
                    t=t,
                    alpha=a,
                    energy=energy,
                    beta_eff=beta_t,
                    entropy=s_oe,
                    delta_entropy=s_oe - base_oe,
                    heat_over_t=heat,
                    xi3=xi3,
                    gibbs_monitor_ok=monitor_ok,
                )
            )
    return ClosedRunRecord(tuple(samples), guarantee_void, tuple(findings))


@dataclass(frozen=True)
class OpenSample:
    """One (time, alpha) row of an open-system run."""

    t: float
    alpha: float
    joint_entropy: float
    system_entropy: float
    bath_entropy: float
    mutual_info: float
    xi1: float
    xi2: float
    factorization_residual: float


@dataclass(frozen=True)
class OpenRunRecord:
    samples: tuple
    guarantee_void: bool
    findings: tuple = ()
    bath_volumes: tuple = ()

    def min_xi1(self) -> float:
        return min(s.xi1 for s in self.samples)


def _classical_mutual_info(p_joint: np.ndarray, alpha: float) -> float:
    """Renyi mutual information H(p_s) + H(p_b) - H(p) of a joint outcome
    table, each H the order-alpha entropy with unit volumes."""

    def h(p):
        return -_renyi_divergence(p.ravel(), 1.0, alpha)

    return h(p_joint.sum(axis=1)) + h(p_joint.sum(axis=0)) - h(p_joint)


def open_run(
    h_s,
    h_b,
    v_sb,
    rho_s0,
    bath_beta: float,
    w_b: EnergyWindowing,
    alphas,
    sample_times,
    system_basis=None,
) -> OpenRunRecord:
    """Evolve system + bath jointly and track entropy-production terms.

    The joint state starts as rho_s0 tensor gibbs(h_b, bath_beta) and
    evolves under h_s x I + I x h_b + v_sb. The system is measured in
    system_basis (columns; default computational) with rank-1 projectors,
    the bath in energy windows of h_b. Per sample the record carries the
    joint alpha-OE, both marginal alpha-OEs, the outcome mutual
    information, xi1 (joint production), and xi2 (sum of marginal
    productions). The factorization joint = sys + bath - MI is exact when
    all bath windows share one volume; its residual is recorded.
    """
    hs = validate_operator(h_s, "hermitian").matrix
    hb = as_matrix(h_b)  # validated by energy_cg below
    ds, db = hs.shape[0], hb.shape[0]
    v = validate_operator(v_sb, "hermitian").matrix
    if v.shape[0] != ds * db:
        raise DimensionMismatch(
            f"coupling dim {v.shape[0]} != {ds} * {db}"
        )
    rho_s = as_matrix(rho_s0)
    if rho_s.shape[0] != ds:
        raise DimensionMismatch(f"system state dim {rho_s.shape[0]} != {ds}")
    alphas = _check_alphas(alphas)
    ts = _check_sample_times(sample_times, None)

    basis = np.eye(ds, dtype=complex) if system_basis is None else as_matrix(system_basis)
    cg_s = projective_cg(basis, labels=tuple(f"s{k}" for k in range(ds)))
    cg_b = energy_cg(hb, w_b)
    cg_joint = tensor_cg([cg_s, cg_b])

    h_joint = tensor(hs, np.eye(db)) + tensor(np.eye(ds), hb) + v
    rho_b = gibbs_state(hb, bath_beta)
    rho0 = tensor(rho_s, rho_b)

    premise = is_coarse_grained(cg_joint, rho0, alphas[0])
    guarantee_void = not premise.matrix_close

    n_s, n_b = len(cg_s), len(cg_b)

    def per_alpha_terms(rho_sb):
        dists = (
            outcomes(cg_joint, rho_sb),
            outcomes(cg_s, partial_trace(rho_sb, (ds, db), "A")),
            outcomes(cg_b, partial_trace(rho_sb, (ds, db), "B")),
        )
        p_joint = dists[0].probabilities.reshape(n_s, n_b)
        return {
            a: tuple(-_renyi_divergence(d.probabilities, d.volumes, a) for d in dists)
            + (_classical_mutual_info(p_joint, a),)
            for a in alphas
        }

    base = per_alpha_terms(rho0)
    lam, vec = np.linalg.eigh(h_joint)
    tilde0 = vec.conj().T @ rho0 @ vec

    samples, findings = [], []
    for t in ts:
        terms = per_alpha_terms(_evolve(lam, vec, tilde0, t))
        for a in alphas:
            s_joint, s_sys, s_bath, mi = terms[a]
            b_joint, b_sys, b_bath, _ = base[a]
            xi1 = s_joint - b_joint
            xi2 = (s_sys - b_sys) + (s_bath - b_bath)
            residual = s_joint - (s_sys + s_bath - mi)
            if mi < -1e-9:
                findings.append(
                    {"type": "negative_mutual_info", "t": t, "alpha": a, "value": mi}
                )
            if xi2 < -1e-9:
                findings.append(
                    {"type": "negative_xi2", "t": t, "alpha": a, "value": xi2}
                )
            samples.append(
                OpenSample(
                    t=t,
                    alpha=a,
                    joint_entropy=s_joint,
                    system_entropy=s_sys,
                    bath_entropy=s_bath,
                    mutual_info=mi,
                    xi1=xi1,
                    xi2=xi2,
                    factorization_residual=residual,
                )
            )
    return OpenRunRecord(
        tuple(samples),
        guarantee_void,
        tuple(findings),
        tuple(float(v) for v in cg_b.volumes()),
    )
