"""operators._window_probabilities, the joint-window table of open_run.

It has a per-window form (one Hermitian form per window over all sample
times) and a per-time form (operators._populations, then one bincount),
and takes the one with fewer multiply-adds, with the measured margin of
its docstring. Both forms must give the binned diagonal of _evolve within
the rounding bound below; which form runs is pinned by counting
_populations calls, not by timing.

Rounding bound. With tilde PSD of unit trace, |tilde_ij|^2 <= tilde_ii
tilde_jj, so by Cauchy-Schwarz the absolute values of the terms summed
for window w add up to at most ||m_w||_F^2 (the squared norm of its rows
m_w), in either form and in the diagonal of _evolve. Each form sums at
most r + 2 d such terms (r rows of m, d = len(lam)), built by a few
complex products, so it lies within about (r + 2 d) eps ||m_w||_F^2 of the
exact value; two computed forms then differ by at most
WINDOW_BOUND_FACTOR (r + 2 d) eps ||m_w||_F^2.
"""

import sys

import numpy as np
import pytest

from obsent import EnergyWindowing, open_run, thermo
from obsent import operators
from obsent.errors import ValidationError
from obsent.generators import random_density
from obsent.operators import _evolve, _populations, _window_probabilities
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


def _forms(monkeypatch) -> list:
    """The list of the forms _window_probabilities takes from now on:
    'window' or 'time' per call, told by whether it called _populations."""
    populations = count_calls(monkeypatch, operators, "_populations")
    table, forms = operators._window_probabilities, []

    def recording(*args):
        before = len(populations)
        out = table(*args)
        forms.append("time" if len(populations) > before else "window")
        return out

    monkeypatch.setattr(operators, "_window_probabilities", recording)
    monkeypatch.setattr(thermo, "_window_probabilities", recording)
    return forms


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


class TestWindowProbabilities:
    def test_equal_the_binned_evolved_diagonal(self, rng, monkeypatch):
        # windows of one row and of many rows mixed, from one window to one
        # window per row, so both forms run; the times include 0
        forms = _forms(monkeypatch)
        for _ in range(40):
            d = int(rng.integers(2, 9))
            r = int(rng.integers(d, 2 * d + 1))
            n = int(rng.integers(1, r + 1))
            lam, m, tilde, bins = _draw(rng, d, r, n)
            got = operators._window_probabilities(lam, m, tilde, TIMES, bins, n)
            expected = _per_time(lam, m, tilde, TIMES, bins, n)
            assert got.shape == (len(TIMES), n)
            assert (np.abs(got - expected) <= _bound(m, bins, n)).all()
            assert got.sum(axis=1) == pytest.approx(np.ones(len(TIMES)), abs=1e-12)
        assert set(forms) == {"window", "time"}

    def test_one_window_per_row_equals_populations(self, rng):
        # the per-time form: _populations' rows, reordered by window
        lam, m, tilde, bins = _draw(rng, 4, 6, 6)
        got = _window_probabilities(lam, m, tilde, TIMES, bins, 6)
        pops = _populations(lam, m, tilde, TIMES)
        np.testing.assert_array_equal(got[:, bins], np.maximum(pops, 0.0))

    @pytest.mark.parametrize("n", [1, 4])
    def test_overflow_and_negative_weights_raise_in_both_forms(self, monkeypatch, n):
        # lambda * t beyond the float range at the time 1e308; four rows in
        # one window take the per-window form, in four the per-time form
        forms = _forms(monkeypatch)
        lam, bins = np.array([-2.0, 2.0]), np.arange(4) % n
        m = np.ascontiguousarray(random_unitary(np.random.default_rng(0), 4)[:2].T)
        with pytest.raises(ValidationError, match="not finite"):
            operators._window_probabilities(lam, m, np.eye(2) / 2, [0.0, 1.0, 1e308], bins, n)
        assert not forms  # raised before the form's call returned
        operators._window_probabilities(lam, m, np.eye(2) / 2, [0.0, 1.0, 2.0], bins, n)
        assert forms == ["window" if n == 1 else "time"]
        # a negative population beyond rounding fails the weight gate
        with pytest.raises(ValidationError, match="negative weight"):
            operators._window_probabilities(lam, m, np.diag([0.2, -0.5]), [0.0, 1.0, 2.0], bins, n)

    @pytest.mark.parametrize("bath_beta", [40.0, 200.0])
    def test_cold_baths_pass_the_weight_gate(self, rng, monkeypatch, bath_beta):
        # nearly every window holds rounding only; both forms agree within
        # the bound, and no entry falls below the gate's -1e-12
        calls = []
        table = thermo._window_probabilities

        def recording(*args):
            calls.append(args)
            return table(*args)

        monkeypatch.setattr(thermo, "_window_probabilities", recording)
        record = open_run(*_open_b64_shaped(rng, bath_beta))
        assert record.min_xi1() >= -1e-9
        [(lam, m, tilde, times, bins, n)] = calls
        got = table(lam, m, tilde, times, bins, n)
        index = (np.arange(len(times))[:, None] * n + bins).ravel()
        pops = np.bincount(index, _populations(lam, m, tilde, times).ravel(), len(times) * n)
        assert pops.min() >= -1e-12 and got.min() >= 0.0  # rounding reads as 0
        assert (np.abs(got - pops.reshape(got.shape)) <= _bound(m, bins, n)).all()


class TestFormSelection:
    """Which form each workload's shape takes, by call counts."""

    def test_open_b64_shape_takes_the_window_form(self, rng, monkeypatch):
        forms = _forms(monkeypatch)
        open_run(*_open_b64_shaped(rng))
        assert forms == ["window"]

    def test_one_row_per_window_keeps_the_per_time_form(self, rng, monkeypatch):
        # a nondegenerate 64-level bath with one level per window
        forms = _forms(monkeypatch)
        open_run(*_open_b64_shaped(rng, levels=64, degeneracy=1))
        assert forms == ["time"]

    @pytest.mark.parametrize("n, form", [(4, "window"), (6, "time")])
    def test_the_margin_decides_between_the_ties(self, rng, monkeypatch, n, form):
        # 8 rows, 51 times: the per-window form runs below 2/3 of the
        # per-time multiply-adds; 6 windows need 0.77 of them, 4 windows 0.52
        forms = _forms(monkeypatch)
        lam, m, tilde, bins = _draw(rng, 3, 8, n)
        operators._window_probabilities(lam, m, tilde, np.linspace(0.0, 5.0, 51), bins, n)
        assert forms == [form]

    def test_canonical_baths(self, monkeypatch):
        # bath 1: one bath level per window, 12 rows in 12 windows; bath 2:
        # doubly degenerate levels, 12 rows in 6 windows
        forms = _forms(monkeypatch)
        _canonical_open_runs(ALPHAS)
        assert forms == ["time", "window"]
