import math

import numpy as np
import pytest

from obsent import (
    CoarseGraining,
    DensityOperator,
    HermitianOperator,
    op_power,
    partial_trace,
    propagate,
    spectral,
    tensor,
    validate_operator,
)
from obsent.errors import (
    DimensionMismatch,
    NotHermitian,
    NotPSD,
    NotSquare,
    TraceNotOne,
    ValidationError,
)
from obsent import alpha_derivative, projective_cg, renyi_entropy
from obsent import coarse_graining, operators, tolerances as tol
from obsent.generators import random_density
from obsent.operators import _evolve, _populations, _psd
from random_instances import random_unitary

from conftest import PAULI_X, bell_state, proj, KET0


class TestValidation:
    def test_identity_is_not_a_state(self):
        with pytest.raises(TraceNotOne) as err:
            validate_operator(np.eye(2), "density")
        assert err.value.magnitude == pytest.approx(1.0)

    def test_maximally_mixed_qubit(self):
        rho = validate_operator(np.diag([0.5, 0.5]), "density")
        assert isinstance(rho, DensityOperator)
        assert rho.dim == 2

    def test_negative_eigenvalue_fails_psd(self):
        # a PSD operator passes as a HermitianOperator, not as a state
        op = validate_operator(np.eye(2) / 2, "psd")
        assert type(op) is HermitianOperator
        np.testing.assert_array_equal(op.matrix, np.eye(2) / 2)
        with pytest.raises(NotPSD) as err:
            validate_operator(np.diag([1.0, -1e-3]), "psd")
        assert err.value.magnitude == pytest.approx(1e-3)

    def test_rectangular_rejected(self):
        with pytest.raises(NotSquare):
            validate_operator(np.ones((2, 3)), "hermitian")

    def test_non_hermitian_rejected(self):
        with pytest.raises(Exception, match="Hermitian"):
            validate_operator(np.array([[0, 1], [0, 0]]), "hermitian")

    def test_hermitian_part_near_the_float_range(self):
        # an exactly Hermitian matrix keeps its bits, signed zeros included
        exact = np.array([[1e308, -0.0], [-0.0, complex(1.0, -0.0)]])
        op = validate_operator(exact, "psd")
        assert op.matrix.tobytes() == exact.tobytes() and op.matrix is not exact
        # a near-Hermitian one is averaged as halves, without overflow
        near = np.array([[1.7e308, 1e308], [1e308 * (1 + 1e-12), 1.7e308]])
        part = validate_operator(near, "hermitian").matrix
        assert np.isfinite(part).all() and np.array_equal(part, part.conj().T)
        # an overflowing defect reads as NotHermitian, with no warning
        with pytest.raises(NotHermitian):
            validate_operator([[0.0, 1e308], [-1e308, 0.0]], "hermitian")


class TestPSDGate:
    # the one PSD rule: no eigenvalue below -PSD_EIGENVALUE_FLOOR * max(lambda_max, 1)

    @staticmethod
    def _rejected(lam: np.ndarray) -> bool:
        return lam[0] < -tol.PSD_EIGENVALUE_FLOOR * max(lam[-1], 1.0)

    @pytest.mark.parametrize("top", [0.5, 1.0, 1e6])
    @pytest.mark.parametrize("factor", [1 - 1e-3, 1 + 1e-3])
    def test_gate_decides_as_the_eigenvalue_rule(self, rng, top, factor):
        # lambda_min at factor times the floor; at lambda_max = 1e6 the floor
        # is 1e-3, where an absolute 1e-9 floor would reject both factors
        floor = tol.PSD_EIGENVALUE_FLOOR * max(top, 1.0)
        lam = np.array([-factor * floor, 0.25 * top, top])
        u = random_unitary(rng, 3)
        # the diagonal matrix shifts by the rule's floor; the rotated one by
        # less, as its largest diagonal entry is below lambda_max
        for m in (np.diag(lam).astype(complex), (u * lam) @ u.conj().T):
            assert self._rejected(np.linalg.eigvalsh(m)) == (factor > 1)
            if factor > 1:
                with pytest.raises(NotPSD, match="matrix has a negative") as err:
                    validate_operator(m, "psd")
                assert err.value.magnitude == pytest.approx(factor * floor, rel=1e-5)
            else:
                validate_operator(m, "psd")
        if top <= 1.0:
            # an effect of a two-outcome POVM goes through construction's gate
            effect = (u * lam) @ u.conj().T
            pair = [effect, np.eye(3) - effect]
            if factor > 1:
                with pytest.raises(NotPSD, match="effect 'a' is not PSD"):
                    CoarseGraining(("a", "b"), pair)
            else:
                assert len(CoarseGraining(("a", "b"), pair)) == 2

    def test_only_a_failing_chunk_is_eigendecomposed(self, rng, monkeypatch):
        calls, eigvalsh = [], np.linalg.eigvalsh

        def counting(a):
            calls.append(a.shape)
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        d = 16
        per_chunk = operators._PSD_CHUNK_BYTES // (16 * d * d)
        n = 2 * per_chunk + 5
        vecs = random_unitary(rng, d)[:, rng.integers(0, d, size=n)]
        stack = np.einsum("ik,jk->kij", vecs, vecs.conj()) / n
        labels = tuple(f"e{k}" for k in range(n))
        _psd(stack, str)
        assert calls == []
        # the one bad matrix is in the last chunk, which holds 5
        u = random_unitary(rng, d)
        stack[n - 2] = (u * np.r_[-1e-3, np.zeros(d - 2), 0.5]) @ u.conj().T
        with pytest.raises(NotPSD, match=f"effect 'e{n - 2}' is not PSD") as err:
            CoarseGraining(labels, stack)
        assert err.value.magnitude == pytest.approx(1e-3, rel=1e-9)
        assert calls == [(5, d, d)]

    def test_projectors_and_zero_matrices_pass(self, rng, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigvalsh", None)  # a factorization decides
        d = 5
        u = random_unitary(rng, d)
        projectors = [u[:, :r] @ u[:, :r].conj().T for r in range(d + 1)]
        _psd(np.stack(projectors + [np.zeros((d, d))]), str)
        for m in projectors + [np.zeros((d, d))]:
            validate_operator(m, "psd")
        # a zero effect passes the gate and is dropped for its zero trace
        cg = CoarseGraining(("a", "b", "z"), [projectors[2], np.eye(d) - projectors[2], 0 * u])
        assert cg.labels == ("a", "b")


class TestSpectral:
    def test_diagonal_qubit(self):
        eig = spectral(np.diag([0.75, 0.25]))
        np.testing.assert_allclose(eig.eigenvalues, [0.25, 0.75])
        assert eig.multiplicities == (1, 1)

    def test_pauli_x(self):
        eig = spectral(PAULI_X)
        np.testing.assert_allclose(eig.eigenvalues, [-1.0, 1.0], atol=1e-12)
        plus = np.array([1, 1], dtype=complex) / np.sqrt(2)
        minus = np.array([1, -1], dtype=complex) / np.sqrt(2)
        np.testing.assert_allclose(eig.projectors[1], proj(plus), atol=1e-12)
        np.testing.assert_allclose(eig.projectors[0], proj(minus), atol=1e-12)

    def test_degeneracy_merge(self):
        eig = spectral(np.diag([0.0, 0.0, 1.0]), degeneracy_tol=1e-8)
        assert eig.multiplicities == (2, 1)

    def test_reconstruction_sweep(self, rng):
        for _ in range(200):
            d = int(rng.integers(2, 9))
            h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            h = h + h.conj().T
            eig = spectral(h)
            assert np.max(np.abs(eig.reconstruct() - h)) <= 1e-8
            total = sum(eig.projectors)
            np.testing.assert_allclose(total, np.eye(d), atol=1e-9)
            for p in eig.projectors:
                np.testing.assert_allclose(p @ p, p, atol=1e-9)
            for i, p in enumerate(eig.projectors):
                for q in eig.projectors[i + 1 :]:
                    assert np.max(np.abs(p @ q)) <= 1e-9


class TestOpPower:
    def test_mixed_qubit_square(self):
        np.testing.assert_allclose(op_power(np.eye(2) / 2, 2.0), np.eye(2) / 4)

    def test_pseudo_inverse_stays_on_support(self):
        out = op_power(np.diag([1.0, 0.0]), -0.5)
        np.testing.assert_allclose(out, np.diag([1.0, 0.0]), atol=1e-12)

    def test_diagonal_square(self):
        np.testing.assert_allclose(
            op_power(np.diag([0.25, 0.75]), 2.0), np.diag([0.0625, 0.5625])
        )

    def test_rejects_non_hermitian_members(self):
        # eigh would read one triangle of each; the stack is checked per matrix
        with pytest.raises(NotHermitian):
            op_power(np.stack([np.eye(2), [[0.5, 1.0], [0.0, 0.5]]]), 0.5)
        # the test is relative: a defect of 1e-4 is rounding beside 1e6
        lopsided = np.array([[1e6, 0.0], [1e-4, 1.0]])
        np.testing.assert_allclose(op_power(lopsided, 1.0), lopsided, atol=1e-3)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPSD):
            op_power(np.diag([1.0, -0.5]), 0.5)
        # one indefinite member rejects the whole stack
        with pytest.raises(NotPSD):
            op_power(np.stack([np.eye(2), np.diag([1.0, -0.5])]), 0.5)

    def test_stack_matches_per_matrix(self, rng):
        d = 4
        stack = np.stack(
            [random_density(rng, d, rank=r) for r in (1, 2, 4)]
            + [np.zeros((d, d)), 3.0 * random_density(rng, d, rank=3)]
        )
        for s in (0.5, -0.5, 0.0):
            batched = op_power(stack, s)
            assert batched.shape == stack.shape
            for member, out in zip(stack, batched):
                np.testing.assert_allclose(out, op_power(member, s), atol=1e-12)
        np.testing.assert_array_equal(op_power(stack, 0.5)[3], 0.0)

    def test_power_cancellation_is_support_projector(self, rng):
        for _ in range(50):
            d = int(rng.integers(2, 7))
            rank = int(rng.integers(1, d + 1))
            a = random_density(rng, d, rank=rank)
            lam, vec = np.linalg.eigh(a)
            kept = vec[:, lam > 1e-12 * lam[-1]]
            prod = op_power(a, 0.7) @ op_power(a, -0.7)
            assert np.max(np.abs(prod - kept @ kept.conj().T)) <= 1e-8


_R = tol.SUPPORT_RTOL
# (spectrum, support_rtol, the entries operators._support keeps): entries
# 1e-3 above and below the cut, no positive entry, support_rtol = 0, and a
# largest entry below 1e-300, where the cut is support_rtol * 1e-300, so
# 5e-313 is an exact zero (the cut support_rtol * lambda_max kept it)
_SUPPORT_CASES = {
    "near the cut": ([1.0, (1 + 1e-3) * _R, (1 - 1e-3) * _R, 0.5], _R, [1, 1, 0, 1]),
    "all zero": ([0.0, 0.0, 0.0], _R, [0, 0, 0]),
    "tiny negative maximum": ([-2e-20, -1e-20], _R, [0, 0]),
    "support_rtol 0": ([0.5, 1e-20, 0.0], 0.0, [1, 1, 0]),
    "largest below 1e-300": ([1e-301, 5e-313], _R, [1, 0]),
}


@pytest.mark.parametrize("name", sorted(_SUPPORT_CASES))
def test_one_support_rule(monkeypatch, name):
    spectrum, rtol, expected = _SUPPORT_CASES[name]
    lam, kept = np.array(spectrum), np.array(expected, dtype=bool)
    assert operators._support(lam, rtol).tolist() == kept.tolist()
    # op_power's support projector
    assert (np.diag(op_power(np.diag(lam), 0.0, rtol)).real > 0.5).tolist() == kept.tolist()
    if rtol != _R or not lam.sum() > 0:
        return  # the entropies take the default cut and need a positive trace
    # at alpha = 1/2 every kept eigenvalue shows: 2 log sum sqrt(lambda)
    expected_s = 2 * math.log(np.sqrt(lam[kept]).sum())
    assert renyi_entropy(np.diag(lam), 0.5) == pytest.approx(expected_s, rel=1e-12)
    # the outcomes of the basis that diagonalizes the state have p = lambda
    seen, ragged = [], coarse_graining._ragged

    def spy(xs, ps, alpha):
        seen.extend(ps)
        return ragged(xs, ps, alpha)

    monkeypatch.setattr(coarse_graining, "_ragged", spy)
    alpha_derivative(projective_cg(np.eye(len(lam))), np.diag(lam), 0.5)
    assert [p.tolist() for p in seen] == [lam[kept].tolist()]


class TestTensorAndPartialTrace:
    def test_product_marginal(self):
        rho = tensor(np.diag([1.0, 0.0]), np.eye(2) / 2)
        np.testing.assert_allclose(
            partial_trace(rho, (2, 2), "A"), np.diag([1.0, 0.0]), atol=1e-12
        )

    def test_bell_marginals(self):
        rho = bell_state()
        np.testing.assert_allclose(partial_trace(rho, (2, 2), "A"), np.eye(2) / 2, atol=1e-12)
        np.testing.assert_allclose(partial_trace(rho, (2, 2), "B"), np.eye(2) / 2, atol=1e-12)

    def test_trace_preserved(self, rng):
        rho = random_density(rng, 6)
        for keep in ("A", "B"):
            out = partial_trace(rho, (2, 3), keep)
            assert abs(np.trace(out).real - 1.0) <= 1e-10

    def test_round_trip_identity(self, rng):
        rho_a, rho_b = random_density(rng, 3), random_density(rng, 2)
        joint = tensor(rho_a, rho_b)
        assert np.max(np.abs(partial_trace(joint, (3, 2), "A") - rho_a)) <= 1e-10
        assert np.max(np.abs(partial_trace(joint, (3, 2), "B") - rho_b)) <= 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            partial_trace(np.eye(6) / 6, (2, 2), "A")


class TestPropagate:
    def test_commuting_hamiltonian_is_stationary(self):
        rho = np.diag([0.7, 0.3]).astype(complex)
        out = propagate(rho, np.diag([0.0, 2.0]), 3.7)
        np.testing.assert_allclose(out, rho, atol=1e-12)

    def test_pauli_x_half_period_flips(self):
        # analytic propagator cos(t) I - i sin(t) X sends |0> to |1> at t = pi/2
        out = propagate(proj(KET0), PAULI_X, np.pi / 2)
        np.testing.assert_allclose(out, np.diag([0.0, 1.0]), atol=1e-12)

    def test_zero_time_identity(self, rng):
        rho = random_density(rng, 4)
        h = rng.normal(size=(4, 4))
        np.testing.assert_allclose(propagate(rho, h + h.T, 0.0), rho, atol=1e-12)

    def test_spectrum_and_purity_preserved(self, rng):
        for _ in range(50):
            d = int(rng.integers(2, 7))
            rho = random_density(rng, d)
            h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            h = h + h.conj().T
            out = propagate(rho, h, float(rng.uniform(0.0, 5.0)))
            np.testing.assert_allclose(
                np.linalg.eigvalsh(out), np.linalg.eigvalsh(rho), atol=1e-9
            )
            purity_in = float(np.trace(rho @ rho).real)
            purity_out = float(np.trace(out @ out).real)
            assert abs(purity_in - purity_out) <= 1e-9

    def test_overflowing_phase_raises(self):
        # 2 * 1e308 is beyond the float range: numpy would warn and return nan
        with pytest.raises(ValidationError, match="not finite"):
            propagate(np.diag([0.6, 0.4]), 2 * PAULI_X, 1e308)


class TestPopulations:
    def test_equal_the_evolved_diagonal(self, rng):
        # m = B^H V for a tight frame B (d rows of an n x n unitary, n >= d)
        # and the eigenvectors V of a random Hermitian H; the times include 0
        times = [0.0, 0.3, 1.7, 12.5]
        for _ in range(20):
            d = int(rng.integers(2, 9))
            n = int(rng.integers(d, 2 * d + 1))
            h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            lam, vec = np.linalg.eigh(h + h.conj().T)
            frame = random_unitary(rng, n)[:d]
            m = frame.conj().T @ vec
            tilde = vec.conj().T @ random_density(rng, d) @ vec
            pops = _populations(lam, m, tilde, times)
            assert pops.shape == (len(times), n)
            for row, t in zip(pops, times):
                expected = _evolve(lam, m, tilde, t).diagonal().real
                np.testing.assert_allclose(row, expected, rtol=0, atol=1e-13)
            assert pops.sum(axis=1) == pytest.approx(np.ones(len(times)), abs=1e-12)

    def test_overflowing_phase_raises(self):
        lam, m = np.array([-2.0, 2.0]), np.eye(2, dtype=complex)
        with pytest.raises(ValidationError, match="not finite"):
            _populations(lam, m, np.eye(2) / 2, [0.0, 1e308])
