"""Seeded inputs for the file-driven workloads, written with plain numpy.

Nothing here imports obsent: the inputs must not change when the library's
own generators do. Every draw comes from one numpy Generator seeded by the
workload seed, and every float is written with repr precision, so one seed
always yields byte-identical files.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

ALPHAS_RUN = [0.5, 1.0 + 1e-7, 2.0, 3.0]
ALPHAS_ENTROPY = [0.3, 0.5, 0.7, 1.5, 2.0, 3.0, 5.0, 10.0]

# closed-d128: 16 eight-fold levels at 0..15, drive of spectral norm ~0.7
CLOSED_LEVELS, CLOSED_DEGENERACY = 16, 8
CLOSED_DRIVE = 0.7
CLOSED_DURATIONS = (1.0, 1.5)
CLOSED_BETA0 = 0.3
CLOSED_SAMPLES = 50

# open-b64: qubit system, 16 four-fold bath levels at spacing 0.4
OPEN_LEVELS, OPEN_DEGENERACY, OPEN_SPACING = 16, 4, 0.4
OPEN_COUPLING = 0.15
OPEN_TIMES = (0.1, 6.0, 50)

# entropy-seq512: three 8-effect POVMs on d = 24, composed sequentially
SEQ_DIM, SEQ_EFFECTS, SEQ_STAGES = 24, 8, 3


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((seed, stream)))


def haar_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def hermitian(rng: np.random.Generator, d: int, norm: float) -> np.ndarray:
    """GUE draw rescaled so its spectral norm is about `norm`."""
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = 0.5 * (a + a.conj().T)
    return h * (norm / (2.0 * np.sqrt(d)))


def rotated(levels: np.ndarray, u: np.ndarray) -> np.ndarray:
    h = (u * levels) @ u.conj().T
    return 0.5 * (h + h.conj().T)


def psd_power(m: np.ndarray, s: float) -> np.ndarray:
    lam, vec = np.linalg.eigh(m)
    lam = np.clip(lam, 0.0, None)
    return (vec * lam**s) @ vec.conj().T


def operator_json(m: np.ndarray) -> dict:
    return {
        "dim": int(m.shape[0]),
        "entries": [[[float(z.real), float(z.imag)] for z in row] for row in m],
    }


def _write(path: Path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
        fh.write("\n")


def closed_d128(seed: int, out: Path) -> list:
    """Driven closed system, d = 128; returns the CLI argv."""
    rng = _rng(seed, 1)
    d = CLOSED_LEVELS * CLOSED_DEGENERACY
    levels = np.repeat(np.arange(CLOSED_LEVELS, dtype=float), CLOSED_DEGENERACY)
    u = haar_unitary(rng, d)
    h1 = rotated(levels, u)
    h2 = h1 + hermitian(rng, d, CLOSED_DRIVE)
    w = np.exp(-CLOSED_BETA0 * levels)
    rho0 = rotated(w / w.sum(), u)
    cfg = {
        "protocol": [
            {"hamiltonian": operator_json(h1), "duration": CLOSED_DURATIONS[0]},
            {"hamiltonian": operator_json(h2), "duration": CLOSED_DURATIONS[1]},
        ],
        "initial_state": operator_json(rho0),
        "delta": 1.0,
        "origin": -0.5,
        "alphas": ALPHAS_RUN,
        "sample_times": {"count": CLOSED_SAMPLES, "horizon": sum(CLOSED_DURATIONS)},
    }
    _write(out / "closed.json", cfg)
    return ["closed-sim", "closed.json", "--out", "run.csv"]


def open_b64(seed: int, out: Path) -> list:
    """Qubit coupled to a d = 64 bath; returns the CLI argv."""
    rng = _rng(seed, 2)
    db = OPEN_LEVELS * OPEN_DEGENERACY
    levels = np.repeat(OPEN_SPACING * np.arange(OPEN_LEVELS), OPEN_DEGENERACY)
    h_b = rotated(levels, haar_unitary(rng, db))
    hop = np.eye(db, k=1) + np.eye(db, k=-1)
    sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]])
    v = OPEN_COUPLING * np.kron(sigma_x, hop + 0.5 * hermitian(rng, db, 1.0))
    cfg = {
        "system_hamiltonian": operator_json(np.diag([0.0, 1.0]).astype(complex)),
        "bath_hamiltonian": operator_json(h_b),
        "coupling": operator_json(0.5 * (v + v.conj().T)),
        "system_state": operator_json(np.diag([0.7, 0.3]).astype(complex)),
        "bath_beta": 1.0,
        "delta": OPEN_SPACING,
        "origin": -0.5 * OPEN_SPACING,
        "alphas": ALPHAS_RUN,
        "sample_times": np.linspace(*OPEN_TIMES).tolist(),
    }
    _write(out / "open.json", cfg)
    return ["open-sim", "open.json", "--out", "run.csv"]


def random_povm(rng: np.random.Generator, d: int, n: int) -> list:
    raw = []
    for _ in range(n):
        g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        raw.append((g @ g.conj().T) * rng.uniform(0.2, 1.0))
    inv_root = psd_power(sum(raw), -0.5)
    return [inv_root @ r @ inv_root for r in raw]


def entropy_seq512(seed: int, out: Path) -> list:
    """Luders composition of three 8-effect POVMs on d = 24 (512 effects)."""
    rng = _rng(seed, 3)
    d = SEQ_DIM
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    labels, effects = [""], [np.eye(d, dtype=complex)]
    for stage in range(SEQ_STAGES):
        povm = random_povm(rng, d, SEQ_EFFECTS)
        new_labels, new_effects = [], []
        for lab, e in zip(labels, effects):
            root = psd_power(e, 0.5)
            for k, f in enumerate(povm):
                new_labels.append(f"{lab}.{k}" if stage else str(k))
                composed = root @ f @ root
                new_effects.append(0.5 * (composed + composed.conj().T))
        labels, effects = new_labels, new_effects
    _write(out / "rho.json", operator_json(rho))
    _write(
        out / "cg.json",
        {
            "dim": d,
            "effects": [
                {"label": lab, "matrix": operator_json(e)}
                for lab, e in zip(labels, effects)
            ],
        },
    )
    argv = ["entropy", "rho.json", "cg.json"]
    for a in ALPHAS_ENTROPY:
        argv += ["--alpha", repr(a)]
    return argv + ["--out", "table.json"]


GENERATORS = {
    "closed-d128": closed_d128,
    "open-b64": open_b64,
    "entropy-seq512": entropy_seq512,
}
