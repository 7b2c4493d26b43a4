"""Energy-window coarse-grainings, Gibbs states, and entropy-production runs.

An energy window is a sum of eigenprojectors of its Hamiltonian, so the
runs bin eigenbasis populations instead of forming window effects. Closed
runs drive a state exactly through piecewise-constant Hamiltonian segments,
each eigendecomposed once; its samples share the segment's window
probabilities and effective temperature. Open runs evolve a system-bath
product state under a static joint Hamiltonian; every joint window is
diagonal in system_basis x (bath eigenbasis), so a sample needs only the
populations along those columns, which operators._populations computes
with one matrix product per sample, never forming the evolved state. All
samples are binned into one (time, joint window) table, whose row and
column sums per time are the system and bath outcome probabilities. A
run's premise, that its start state equals its coarse-grained state, is a
max-abs matrix distance.

Heat over temperature is accumulated through the defining relation
T dS = dQ for the fictitious Gibbs state matched to the instantaneous mean
energy, i.e. as a Renyi-entropy difference of those Gibbs states; no
quadrature is involved. Units: hbar = 1, Boltzmann constant = 1, nats.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from . import tolerances as tol
from .coarse_graining import CoarseGraining, _alpha_oes, projective_cg
from .divergences import INFINITE, _check_alpha, _near_one, _nonneg_vector, _ragged
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
    _instance,
    _items,
    _levels,
    _matrix,
    _populations,
    _real,
    _reals,
    as_matrix,
    tensor,
    validate_operator,
)


@dataclass(frozen=True)
class EnergyWindowing:
    """Half-open energy bins [origin + k*delta, origin + (k+1)*delta).

    origin defaults to the lowest eigenvalue of the Hamiltonian being
    windowed, so bin contents are reproducible across runs.
    """

    delta: float
    origin: float | None = None

    def __post_init__(self):
        if not _real(self.delta, name="window width") > 0:
            raise ValidationError(f"window width must be > 0, got {self.delta}")
        if self.origin is not None:
            _real(self.origin, name="window origin")


@dataclass(frozen=True)
class DrivingProtocol:
    """Ordered piecewise-constant segments (Hamiltonian, duration).

    Each Hamiltonian is checked and symmetrized once, at construction.
    """

    segments: tuple

    def __post_init__(self):
        segs = []
        dim = None
        try:
            pairs = [(h, duration) for h, duration in self.segments]
        except (TypeError, ValueError):  # not a sequence of pairs
            raise ValidationError(
                f"segments must be (H, duration) pairs, got {self.segments!r:.40}"
            ) from None
        for h, duration in pairs:
            m = _matrix(h, "hermitian", dim, "segment Hamiltonian")
            m.flags.writeable = False
            dim = len(m)
            duration = _real(duration, name="segment duration")
            if not duration >= 0:
                raise ValidationError(f"segment duration {duration} is not in [0, inf)")
            segs.append((m, duration))
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
        e = _reals(self.energies, name="energies")
        if e.ndim != 1 or e.size == 0:
            raise ValidationError("energies must be a non-empty 1-d array")
        if not _real(self.volume, name="volume") > 0:
            raise ValidationError(f"volume must be > 0, got {self.volume}")
        e.flags.writeable = False
        object.__setattr__(self, "energies", e)


def energy_cg(H, windowing: EnergyWindowing) -> CoarseGraining:
    """Coarse-graining by energy windows of the given Hamiltonian.

    One effect per non-empty bin: the projector V_w V_w^H onto the
    eigenvectors whose (degeneracy-merged) eigenvalue lies in the bin.
    """
    windowing = _instance(windowing, EnergyWindowing, "windowing")
    lam, vec = np.linalg.eigh(validate_operator(H, "hermitian").matrix)
    labels, bins = _window_bins(lam, windowing)
    cols = [vec[:, bins == w] for w in range(len(labels))]
    return CoarseGraining(labels, [c @ c.conj().T for c in cols])


def _window_bins(lam: np.ndarray, windowing: EnergyWindowing) -> tuple:
    """(labels, bins) of the non-empty energy windows of ascending lam:
    labels[w] names window w, and bins[j] is the window of eigenvector j.
    Degenerate levels (operators._levels) go whole into their mean's window."""
    levels = _levels(lam)
    origin = levels[0][2] if windowing.origin is None else windowing.origin
    delta = windowing.delta
    ks = []
    for _, _, value in levels:
        x = (value - origin) / delta
        if not math.isfinite(x):
            raise ValidationError(f"energy {value} is {x} windows from the origin")
        k = math.floor(x + tol.WINDOW_EDGE_SLACK)
        ks.append(0 if k < 0 and x > -tol.WINDOW_ORIGIN_SLACK else k)
    index = {k: w for w, k in enumerate(sorted(set(ks)))}
    labels = [f"[{origin + k * delta:.9g},{origin + (k + 1) * delta:.9g})" for k in index]
    bins = np.repeat([index[k] for k in ks], [b - a for a, b, _ in levels])
    return labels, bins


def _is_coarse_grained(rho, basis, bins, p: np.ndarray, v: np.ndarray) -> bool:
    """Whether rho is within CG_STATE_ATOL (max-abs) of its coarse-grained
    state basis diag((p / V)[bins]) basis^H = sum_w (p_w / V_w) E_w, where
    E_w sums the rank-1 effects b b^H of the columns b in window w."""
    cg_state = (basis * (p / v)[bins]) @ basis.conj().T
    return float(np.max(np.abs(rho - cg_state))) <= tol.CG_STATE_ATOL


def gibbs_state(H, beta: float) -> np.ndarray:
    """Thermal state exp(-beta H) / Z, computed spectrally."""
    lam, vec = np.linalg.eigh(_matrix(H, "hermitian", name="Hamiltonian"))
    return _gibbs_state(lam, vec, _real(beta, name="beta"))


def _gibbs_state(lam: np.ndarray, vec: np.ndarray, beta: float) -> np.ndarray:
    """gibbs_state from H's ascending eigenvalues lam and eigenvectors vec."""
    w = _gibbs_weights(lam, beta)
    w /= w.sum()
    return (vec * w) @ vec.conj().T


def _gibbs_weights(lam: np.ndarray, beta: float) -> np.ndarray:
    """Unnormalized exp(-beta lam), shifted so the largest weight is 1."""
    ref = lam[0] if beta >= 0 else lam[-1]
    return np.exp(-beta * (lam - ref))


def _gibbs_moments(lam: np.ndarray, beta: float) -> tuple:
    """Mean and variance of the energy in the Gibbs state at beta."""
    w = _gibbs_weights(lam, beta)
    total = np.sum(w)
    mean = float(np.sum(lam * w) / total)
    return mean, float(np.sum((lam - mean) ** 2 * w) / total)


def effective_beta(H, rho) -> float:
    """Inverse temperature of the Gibbs state matching Tr(H rho).

    The Gibbs mean energy is strictly decreasing in beta. It is solved by
    safeguarded Newton steps whose bracket, step floor and energy
    tolerance all scale with the spectral span, so the solve works alike
    at every spectral scale. Negative results (population inversion) are
    returned, not rejected.
    """
    hm = _matrix(H, "hermitian", name="Hamiltonian")
    rm = _matrix(rho, "state", len(hm), "state")
    return _beta_for_energy(np.linalg.eigvalsh(hm), float(np.trace(hm @ rm).real))


def _beta_for_energy(lam: np.ndarray, target: float) -> float:
    """effective_beta for ascending spectrum lam and mean energy target.

    The Gibbs mean energy E falls strictly in beta, with dE/dbeta = -Var H.
    Every scale is the spectral span: a bracket doubles from [-1, 1] / span
    until it holds the root, Newton steps that leave it are replaced by
    bisection until the step is at rounding level, and |E - target| must
    then be within BETA_ENERGY_RTOL * span.
    """
    span = float(lam[-1] - lam[0])
    slack = tol.ENERGY_ENDPOINT_RTOL * span
    if not lam[0] + slack < target < lam[-1] - slack:
        raise EnergyOutOfRange(
            f"mean energy {target} is at or beyond the spectral endpoints "
            f"[{lam[0]}, {lam[-1]}]"
        )
    lo, hi = -1.0 / span, 1.0 / span
    while _gibbs_moments(lam, hi)[0] > target and hi < math.inf:
        lo, hi = hi, 2.0 * hi
    while _gibbs_moments(lam, lo)[0] < target and lo > -math.inf:
        lo, hi = 2.0 * lo, lo
    nxt = 0.5 * (lo + hi)
    for _ in range(200):
        # the energy checked below is always that of the returned beta
        beta = nxt
        energy, var = _gibbs_moments(lam, beta)
        if energy > target:
            lo = beta
        else:
            hi = beta
        step = beta + (energy - target) / var if var > 0 else lo
        nxt = step if lo < step < hi else 0.5 * (lo + hi)
        if abs(nxt - beta) <= 4 * sys.float_info.epsilon * max(abs(beta), 1 / span):
            break
    miss = abs(energy - target)
    if not miss <= tol.BETA_ENERGY_RTOL * span:
        raise NoConvergence(f"mean energy missed by {miss} at beta {beta}")
    return beta


def _temperature(t) -> float:
    t = _real(t, InvalidTemperature, "temperature")
    if not t > 0:
        raise InvalidTemperature(f"temperature must be > 0, got {t}")
    return t


@dataclass(frozen=True)
class FreeEnergyValues:
    partition: float
    partition_scaled: float
    helmholtz: float
    helmholtz_scaled: float


def free_energy(levels: LevelSystem, temperature: float) -> FreeEnergyValues:
    """Partition functions and Helmholtz free energies at a temperature.

    Z = sum_i exp(-E_i / T); the scaled variants multiply Z by the common
    outcome volume V: Z~ = V Z, A = -T log Z, A~ = -T log Z~. A partition
    function beyond the float range is INFINITE. A is evaluated as
    E_min - T log sum_i exp(-(E_i - E_min) / T), whose log sum lies in
    [0, log n], and A~ as A - T log V, so both stay finite while their
    values are in the float range, also where E_min / T is not.
    """
    temperature = _temperature(temperature)
    e = _instance(levels, LevelSystem, "levels").energies
    ref = float(e.min())
    log_sum = _log_sum(e, temperature)
    log_z = log_sum - ref / temperature
    helmholtz = ref - temperature * log_sum
    return FreeEnergyValues(
        partition=_exp(log_z),
        partition_scaled=_exp(log_z + math.log(levels.volume)),
        helmholtz=helmholtz,
        helmholtz_scaled=helmholtz - temperature * math.log(levels.volume),
    )


@np.errstate(over="ignore")
def _boltzmann(e: np.ndarray, temperature: float) -> np.ndarray:
    """exp(-(E_i - E_min) / T), largest weight 1; a level whose spread over
    T is beyond the float range weighs 0."""
    return np.exp(-(e - e.min()) / temperature)


def _log_sum(e: np.ndarray, temperature: float) -> float:
    """log sum_i exp(-(E_i - E_min) / T), in [0, log n]."""
    return math.log(float(np.sum(_boltzmann(e, temperature))))


def _exp(x: float) -> float:
    """math.exp(x), or INFINITE where that leaves the float range."""
    try:
        return math.exp(x)
    except OverflowError:
        return INFINITE


def gibbs_distribution(levels: LevelSystem, temperature: float) -> np.ndarray:
    """Boltzmann weights exp(-E_i / T) / Z for a level system."""
    temperature = _temperature(temperature)
    w = _boltzmann(_instance(levels, LevelSystem, "levels").energies, temperature)
    return w / w.sum()


def jackson_check(levels: LevelSystem, t0: float, alpha: float) -> tuple:
    """Compare alpha-OE of a thermal level population with the Jackson
    difference quotient of the rescaled Helmholtz free energy.

    lhs is the alpha-OE of the constant-volume coarse-graining with
    p_i = exp(-E_i / T0) / Z(T0) and V_i = V; rhs is
    -(A~(T) - A~(T0)) / (T - T0) with T = T0 / alpha. Returns
    (lhs, rhs, lhs - rhs); the identity is exact in exact arithmetic.
    alpha = 1 raises InvalidAlpha. Where |alpha - 1| < ALPHA_NEAR_ONE, lhs
    is the plain observational entropy (the alpha -> 1 limit of alpha-OE)
    and rhs the alpha -> 1 limit of the quotient, L + sum_i p_i (E_i -
    E_min) / T0 + log V with L = log sum_i exp(-(E_i - E_min) / T0), so
    the two agree to rounding instead of dividing it by alpha - 1.
    """
    a = _check_alpha(alpha)
    if a == 1.0:
        raise InvalidAlpha("the difference quotient needs alpha != 1")
    [row] = _jackson(_instance(levels, LevelSystem, "levels"), _temperature(t0), [a])
    return row


def _jackson(levels: LevelSystem, t0: float, alphas) -> list:
    """jackson_check for each order of alphas, as (lhs, rhs, gap) tuples:
    the thermal population and L(T0) are computed once, and every lhs in
    one kernel call.

    With A~(T) = E_min - T L(T) - T log V and L = _log_sum, the quotient
    is rhs = (L(T0 / alpha) - alpha L(T0)) / (1 - alpha) + log V, in which
    neither E_min nor T0 appears outside L, so it stays finite wherever
    T0 / alpha is a finite positive temperature, T0 near the float maximum
    included. Where _near_one(alpha), rhs is its alpha -> 1 limit
    L(T0) + sum_i p_i (E_i - E_min) / T0 + log V, summed over the levels
    with p_i > 0, whose (E_i - E_min) / T0 is below about 745.
    """
    e, p = levels.energies, gibbs_distribution(levels, t0)
    log_v, l_old = math.log(levels.volume), _log_sum(e, t0)
    lhs = -_ragged([p], float(levels.volume), alphas)[0]
    live = p > 0
    limit = l_old + float(p[live] @ ((e[live] - e.min()) / t0)) + log_v
    out = []
    for a, left in zip(alphas, lhs.tolist()):
        if _near_one(a):
            rhs = limit
        else:
            l_new = _log_sum(e, _temperature(t0 / a))
            rhs = (l_new - a * l_old) / (1.0 - a) + log_v
        out.append((left, rhs, left - rhs))
    return out


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
    ts = [_real(t, name="sample time") for t in _items(sample_times, "sample times")]
    if not ts:
        raise ValidationError("at least one sample time is required")
    if not all(t >= 0 for t in ts):
        raise ValidationError("sample times must be non-negative")
    if any(b - a <= 0 for a, b in zip(ts, ts[1:])):
        raise ValidationError("sample times must be strictly increasing")
    if horizon is not None and ts[-1] > horizon + 1e-12:
        raise ValidationError(
            f"sample time {ts[-1]} exceeds protocol duration {horizon}"
        )
    return ts


def _check_alphas(alphas) -> list:
    alphas = [_check_alpha(a) for a in _items(alphas, "alphas")]
    if not alphas:
        raise ValidationError("at least one alpha is required")
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
    are sums of its eigenprojectors, so their probabilities stay those of
    the segment's start state: its eigenbasis populations summed per
    window. The window alpha-OEs, effective temperature and Gibbs entropies
    are computed once per segment and shared by its samples. When the
    initial state is farther than CG_STATE_ATOL (max-abs) from its
    coarse-grained state for the initial energy windows, the run proceeds
    but carries guarantee_void=True and the entropy-production sign is no
    longer guaranteed.
    """
    protocol = _instance(protocol, DrivingProtocol, "protocol")
    windowing = _instance(windowing, EnergyWindowing, "windowing")
    rho = _matrix(rho0, "state", protocol.dim, "state")
    alphas = _check_alphas(alphas)
    ts = _check_sample_times(sample_times, protocol.total_duration)

    # per segment: spectrum, eigenvectors and start-state populations; the
    # state after the last segment is never read
    segs = []
    rho_k = rho
    for k, (h, duration) in enumerate(protocol.segments):
        lam, vec = np.linalg.eigh(h)
        tilde = vec.conj().T @ rho_k @ vec
        segs.append((lam, vec, tilde.diagonal().real))
        if k + 1 < len(protocol.segments):
            rho_k = _evolve(lam, vec, tilde, duration)

    def segment_terms(k):
        lam, vec, pop = segs[k]
        energy = float(lam @ pop)
        beta = _beta_for_energy(lam, energy)
        w = _gibbs_weights(lam, beta)
        w = w / w.sum()
        _, bins = _window_bins(lam, windowing)
        p, v = _nonneg_vector(np.bincount(bins, pop)), np.bincount(bins)
        # one (window alpha-OE, Gibbs Renyi entropy) pair per alpha
        oe, gibbs = _alpha_oes([(p, v)], alphas)[0], -_ragged([w], 1.0, alphas)[0]
        pairs = list(zip(oe.tolist(), gibbs.tolist()))
        return (vec, bins, p, v), energy, beta, pairs

    k_cur = protocol.segment_index(0.0)
    terms = segment_terms(k_cur)
    windows0, _, _, base = terms
    guarantee_void = not _is_coarse_grained(rho, *windows0)

    samples, findings = [], []
    for t in ts:
        k = protocol.segment_index(t)
        if k != k_cur:
            k_cur, terms = k, segment_terms(k)
        _, energy, beta_t, oe = terms
        for a, (s_oe, s_gibbs), (base_oe, base_renyi) in zip(alphas, oe, base):
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
    system_basis (columns b_i; default computational) with rank-1 effects
    b_i b_i^H, which must sum to I: an orthonormal basis or a tight frame.
    The bath is measured in energy windows of h_b. Every joint outcome is a
    set of columns of B = system_basis x (h_b eigenvectors), so the joint
    table bins the evolved populations diag(B^H rho(t) B), and its row and
    column sums are the system and bath outcome probabilities. Each
    sample's populations take one matrix product (operators._populations);
    the evolved state rho(t) is never formed, and the start and all samples
    are binned in one bincount over (time, joint window). Per sample
    the record carries the joint alpha-OE, both marginal alpha-OEs, the
    outcome mutual information, xi1 (joint production), and xi2 (sum of
    marginal productions). The factorization joint = sys + bath - MI is
    exact when all bath windows share one volume; its residual is recorded.
    The premise check is as in closed_run, for the initial joint state.
    """
    hs = _matrix(h_s, "hermitian", name="system Hamiltonian")
    hb = _matrix(h_b, "hermitian", name="bath Hamiltonian")
    ds, db = len(hs), len(hb)
    v = _matrix(v_sb, "hermitian", ds * db, "coupling")
    rho_s = _matrix(rho_s0, "state", ds, "system state")
    bath_beta = _real(bath_beta, name="bath beta")
    w_b = _instance(w_b, EnergyWindowing, "bath windowing")
    alphas = _check_alphas(alphas)
    ts = _check_sample_times(sample_times, None)

    basis = np.eye(ds, dtype=complex) if system_basis is None else as_matrix(system_basis)
    if basis.ndim != 2 or basis.shape[0] != ds:
        raise DimensionMismatch(f"system basis shape {basis.shape} != ({ds}, n)")
    vol_s = projective_cg(basis).volumes()  # checks that sum b_i b_i^H = I
    n_s = len(vol_s)
    if n_s != basis.shape[1]:
        raise ValidationError(f"system basis has {basis.shape[1] - n_s} zero columns")
    lam_b, vec_b = np.linalg.eigh(hb)
    bins_b = _window_bins(lam_b, w_b)[1]
    vol_b = np.bincount(bins_b)
    vol_joint = np.outer(vol_s, vol_b).ravel()
    # column (i, j) of b lies in joint window (i, bins_b[j]), i.e. row-major
    b = np.kron(basis, vec_b)
    joint_bins = (np.arange(n_s)[:, None] * len(vol_b) + bins_b).ravel()

    lam, vec = np.linalg.eigh(tensor(hs, np.eye(db)) + tensor(np.eye(ds), hb) + v)
    rho0 = tensor(rho_s, _gibbs_state(lam_b, vec_b, bath_beta))
    tilde0 = vec.conj().T @ rho0 @ vec
    # populations along b of the start (row 0) and each sample, binned in
    # one bincount over (time, joint window): joints[k] holds the joint
    # probabilities at time k, row-major in (system outcome, bath window)
    pops = _populations(lam, b.conj().T @ vec, tilde0, [0.0, *ts])
    n_t, n_j = len(pops), len(vol_joint)
    index = (np.arange(n_t)[:, None] * n_j + joint_bins).ravel()
    joints = _nonneg_vector(np.bincount(index, pops.ravel(), n_t * n_j)).reshape(n_t, n_j)
    guarantee_void = not _is_coarse_grained(rho0, b, joint_bins, joints[0], vol_joint)
    # the joint, system and bath probabilities of the start and each sample,
    # each against its volumes and, for the mutual information, against 1
    rows = []
    for joint in joints:
        p = joint.reshape(n_s, -1)
        rows += [joint, p.sum(axis=1), p.sum(axis=0)]
    shape = (n_t, 3, len(alphas))
    oe = -_ragged(rows, [vol_joint, vol_s, vol_b] * n_t, alphas).reshape(shape)
    unit = -_ragged(rows, 1.0, alphas).reshape(shape)
    mis = unit[:, 1] + unit[:, 2] - unit[:, 0]
    # per sample and alpha: (joint, system, bath alpha-OE, mutual information)
    base, *terms = np.concatenate([oe, mis[:, None]], axis=1).swapaxes(1, 2).tolist()

    samples, findings = [], []
    for t, row in zip(ts, terms):
        for a, (s_joint, s_sys, s_bath, mi), (b_joint, b_sys, b_bath, _) in zip(
            alphas, row, base
        ):
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
        tuple(float(v) for v in vol_b),
    )
