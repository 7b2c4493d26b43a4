"""operators._window_probabilities, the joint-window table of open_run.

Window w at all sample times is Re phi^T h_w conj(phi) with phi = e^(-i
lam t) and h_w = tilde * (m_w^T conj(m_w)) over its rows m_w. The table
must give the binned diagonal of _evolve within the rounding bound below,
on random draws and on the shapes of the runs that read it: the open-b64
benchmark, a bath with one level per window, verify's canonical baths
and cold baths.

Rounding bound. With tilde PSD of unit trace, |tilde_ij|^2 <= tilde_ii
tilde_jj, so by Cauchy-Schwarz the absolute values of the terms summed
for window w add up to at most ||m_w||_F^2 (the squared norm of its rows
m_w), in the table and in the diagonal of _evolve. Each sums at most r +
2 d such terms (r rows of m, d = len(lam)), built by a few complex
products, so it lies within about (r + 2 d) eps ||m_w||_F^2 of the exact
value; the two computed values then differ by at most
WINDOW_BOUND_FACTOR (r + 2 d) eps ||m_w||_F^2.
"""

import sys

import numpy as np
import pytest

from obsent import EnergyWindowing, open_run, thermo
from obsent.errors import ValidationError
from obsent.generators import random_density
from obsent.operators import _evolve, _window_probabilities
from obsent.verify import _canonical_open_runs
from call_counts import count_calls
from conftest import PAULI_X
from random_instances import random_unitary

ALPHAS = (1.0 + 1e-7, 0.5, 2.0, 3.0)
WINDOW_BOUND_FACTOR = 4
TIMES = [0.0, 0.3, 1.7, 12.5, 40.0]


def _bound(m: np.ndarray, bins: np.ndarray, n: int) -> np.ndarray:
    """The per-window rounding bound of the module docstring."""
    r, d = m.shape
    norms = np.bincount(bins, np.sum(np.abs(m) ** 2, axis=1), n)
    return WINDOW_BOUND_FACTOR * (r + 2 * d) * sys.float_info.epsilon * norms


def _per_time(lam, m, tilde, times, bins, n) -> np.ndarray:
    """The binned diagonal of _evolve at each time."""
    return np.array(
        [np.bincount(bins, _evolve(lam, m, tilde, t).diagonal().real, n) for t in times]
    )


def _checked_table(lam, m, tilde, times, bins, n) -> tuple:
    """The table and _per_time, checked to agree within the rounding bound."""
    got = _window_probabilities(lam, m, tilde, times, bins, n)
    expected = _per_time(lam, m, tilde, times, bins, n)
    assert got.shape == (len(times), n) and got.min() >= 0.0
    assert (np.abs(got - expected) <= _bound(m, bins, n)).all()
    return got, expected


def _draw(rng, d: int, r: int, n: int) -> tuple:
    """A random spectrum, m = B^H V for a tight frame B (d rows of an r x r
    unitary) and the eigenvectors V, a random state, and bins of r rows
    into n windows, each non-empty, in shuffled order."""
    h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    lam, vec = np.linalg.eigh(h + h.conj().T)
    m = random_unitary(rng, r)[:d].conj().T @ vec
    tilde = vec.conj().T @ random_density(rng, d) @ vec
    bins = rng.permutation(np.concatenate([np.arange(n), rng.integers(0, n, r - n)]))
    return lam, m, tilde, bins


def _open_b64_shaped(rng, bath_beta=1.0, levels=16, degeneracy=4) -> tuple:
    """open_run's arguments in the shape of the open-b64 benchmark: a qubit
    coupled to a d = levels * degeneracy bath of levels 0.4 apart, each
    degeneracy-fold, windows 0.4 wide centred on the levels, and 50 sample
    times in [0.1, 6]."""
    db = levels * degeneracy
    energies = np.repeat(0.4 * np.arange(levels), degeneracy)
    u = random_unitary(rng, db)
    h_b = (u * energies) @ u.conj().T
    hop = np.eye(db, k=1) + np.eye(db, k=-1)
    return (
        np.diag([0.0, 1.0]), h_b, 0.15 * np.kron(PAULI_X, hop), np.diag([0.7, 0.3]),
        bath_beta, EnergyWindowing(0.4, -0.2), ALPHAS, np.linspace(0.1, 6.0, 50),
    )


# name -> (the open runs of that shape, the (rows of m, windows) of each call)
_SHAPES = {
    "open-b64": (lambda rng: open_run(*_open_b64_shaped(rng)), [(128, 32)]),
    "one-level-per-window": (
        lambda rng: open_run(*_open_b64_shaped(rng, levels=64, degeneracy=1)), [(128, 128)]
    ),
    # bath 1: one bath level per window; bath 2: doubly degenerate levels
    "canonical-baths": (lambda rng: _canonical_open_runs(ALPHAS), [(12, 12), (12, 6)]),
}


class TestWindowProbabilities:
    def test_equal_the_binned_evolved_diagonal(self, rng):
        # windows of one row and of many rows mixed, from one window to one
        # window per row; the times include 0
        for _ in range(40):
            d = int(rng.integers(2, 9))
            r = int(rng.integers(d, 2 * d + 1))
            n = int(rng.integers(1, r + 1))
            lam, m, tilde, bins = _draw(rng, d, r, n)
            got, _ = _checked_table(lam, m, tilde, TIMES, bins, n)
            assert got.sum(axis=1) == pytest.approx(np.ones(len(TIMES)), abs=1e-12)

    @pytest.mark.parametrize("shape", sorted(_SHAPES))
    def test_workload_shapes(self, rng, monkeypatch, shape):
        run, sizes = _SHAPES[shape]
        calls = count_calls(monkeypatch, thermo, "_window_probabilities")
        run(rng)
        assert [(len(m), n) for _, m, _, _, _, n in calls] == sizes
        for args in calls:
            _checked_table(*args)

    @pytest.mark.parametrize("bath_beta", [40.0, 200.0])
    def test_cold_baths_pass_the_weight_gate(self, rng, monkeypatch, bath_beta):
        # nearly every window holds rounding only; no binned entry falls
        # below the gate's -1e-12, and the table reads that rounding as 0
        calls = count_calls(monkeypatch, thermo, "_window_probabilities")
        record = open_run(*_open_b64_shaped(rng, bath_beta))
        assert record.min_xi1() >= -1e-9
        [args] = calls
        assert _checked_table(*args)[1].min() >= -1e-12

    def test_a_not_finite_phase_raises(self):
        # lambda * t is beyond the float range at the time 1e308
        lam, m = np.array([-2.0, 2.0]), np.eye(2, dtype=complex)
        with pytest.raises(ValidationError, match="not finite"):
            _window_probabilities(lam, m, np.eye(2) / 2, [0.0, 1.0, 1e308], np.arange(2), 2)

    def test_a_negative_weight_raises(self):
        # a negative population beyond rounding fails the weight gate
        lam, m = np.array([-2.0, 2.0]), np.eye(2, dtype=complex)
        with pytest.raises(ValidationError, match="negative weight"):
            _window_probabilities(lam, m, np.diag([0.2, -0.5]), [0.0, 1.0], np.arange(2), 2)
