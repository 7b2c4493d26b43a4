import dataclasses
import json
import math
import warnings

import numpy as np
import pytest

from obsent import (
    DrivingProtocol,
    EnergyWindowing,
    LevelSystem,
    closed_run,
    effective_beta,
    energy_cg,
    free_energy,
    gibbs_state,
    jackson_check,
    open_run,
)
from obsent.cli import main
from obsent.coarse_graining import alpha_oe, outcomes, projective_cg, tensor_cg
from obsent.divergences import classical_petz_renyi, renyi_entropy
from obsent.errors import (
    EnergyOutOfRange,
    InvalidAlpha,
    InvalidTemperature,
    NotHermitian,
    ValidationError,
)
from obsent.operators import partial_trace, spectral
from obsent.state_analysis import is_coarse_grained
from conftest import PAULI_X

ALPHAS = (1.0 + 1e-7, 0.5, 2.0, 3.0)


class TestEnergyCg:
    def test_binning_rule(self):
        cg = energy_cg(np.diag([0.0, 0.1, 1.0]), EnergyWindowing(0.5))
        np.testing.assert_allclose(sorted(cg.volumes()), [1.0, 2.0])

    def test_wide_window_is_trivial(self):
        cg = energy_cg(np.diag([0.0, 0.1, 1.0]), EnergyWindowing(5.0))
        assert len(cg) == 1
        np.testing.assert_allclose(cg.effects[0], np.eye(3), atol=1e-12)

    def test_fine_window_resolves_levels(self):
        cg = energy_cg(np.diag([0.0, 0.1, 1.0]), EnergyWindowing(0.05))
        np.testing.assert_allclose(cg.volumes(), [1.0, 1.0, 1.0])

    def test_degenerate_levels_stay_together(self):
        cg = energy_cg(np.diag([0.0, 0.0, 1.0]), EnergyWindowing(0.4))
        np.testing.assert_allclose(sorted(cg.volumes()), [1.0, 2.0])

    def test_rejects_nonpositive_width(self):
        with pytest.raises(ValidationError):
            EnergyWindowing(0.0)

    @pytest.mark.parametrize("origin", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_origin(self, origin):
        with pytest.raises(ValidationError, match="origin"):
            energy_cg(np.diag([0.0, 1.0]), EnergyWindowing(0.5, origin))

    def test_rejects_window_index_beyond_float_range(self):
        with pytest.raises(ValidationError, match="windows from the origin"):
            energy_cg(np.diag([0.0, 1.0]), EnergyWindowing(1e-10, 1e308))

    def test_windows_sum_the_merged_level_projectors(self, rng):
        # reference: one spectral projector per merged level, summed per bin
        levels = np.repeat([0.0, 0.3, 0.3 + 1e-11, 1.1, 2.0], [2, 1, 1, 3, 1])
        q, _ = np.linalg.qr(rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8)))
        h = (q * levels) @ q.conj().T
        for windowing in (EnergyWindowing(0.5), EnergyWindowing(0.7, origin=-0.2)):
            eig = spectral(h)
            origin = windowing.origin
            if origin is None:
                origin = float(eig.eigenvalues[0])
            bins = {}
            for lam, proj in zip(eig.eigenvalues, eig.projectors):
                k = math.floor((lam - origin) / windowing.delta + 1e-12)
                bins.setdefault(k, []).append(proj)
            cg = energy_cg(h, windowing)
            assert cg.labels == tuple(
                f"[{origin + k * windowing.delta:.9g},"
                f"{origin + (k + 1) * windowing.delta:.9g})"
                for k in sorted(bins)
            )
            expected = np.array([sum(bins[k]) for k in sorted(bins)])
            np.testing.assert_allclose(cg.effects, expected, atol=1e-12)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            energy_cg(np.array([[0.0, 1.0], [0.0, 1.0]]), EnergyWindowing(0.5))


class TestGibbsAndBeta:
    def test_infinite_temperature(self):
        np.testing.assert_allclose(
            gibbs_state(np.diag([0.0, 1.0]), 0.0), np.eye(2) / 2, atol=1e-12
        )

    def test_worked_two_level(self):
        np.testing.assert_allclose(
            gibbs_state(np.diag([0.0, 1.0]), math.log(3)),
            np.diag([0.75, 0.25]),
            atol=1e-12,
        )

    def test_cold_limit_projects_on_ground_space(self):
        out = gibbs_state(np.diag([0.0, 1.0, 1.5]), 50.0)
        np.testing.assert_allclose(out, np.diag([1.0, 0.0, 0.0]), atol=1e-9)

    def test_effective_beta_fixed_point(self, rng):
        for _ in range(20):
            d = int(rng.integers(2, 6))
            h = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            h = h + h.conj().T
            beta = float(rng.uniform(-2.0, 2.0))
            assert effective_beta(h, gibbs_state(h, beta)) == pytest.approx(
                beta, abs=1e-8
            )

    def test_worked_quarter_energy(self):
        # Tr(H rho) = 0.25 on diag(0, 1) pins beta = log 3
        rho = np.diag([0.75, 0.25])
        assert effective_beta(np.diag([0.0, 1.0]), rho) == pytest.approx(
            math.log(3), abs=1e-8
        )

    def test_mid_spectrum_is_infinite_temperature(self):
        assert effective_beta(np.diag([0.0, 1.0]), np.eye(2) / 2) == pytest.approx(
            0.0, abs=1e-8
        )

    def test_energy_out_of_range(self):
        with pytest.raises(EnergyOutOfRange):
            effective_beta(np.diag([0.0, 1.0]), np.diag([1.0, 0.0]))

    @pytest.mark.parametrize("scale", [-1e8, 1e-8, 1.0, 1e8])
    def test_one_level_spectrum_gives_zero(self, rng, scale):
        # every beta gives the Gibbs state I / d; a rotated multiple of I is
        # one level split only by rounding, and the split is relative
        rho = np.diag([0.5, 0.3, 0.2])
        assert effective_beta(scale * np.eye(3), np.eye(3) / 3) == 0.0
        assert effective_beta(np.zeros((3, 3)), rho) == 0.0
        splits = 0
        for _ in range(10):
            q, _ = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
            h = (q * scale) @ q.conj().T
            lam = np.linalg.eigvalsh(0.5 * h + 0.5 * h.conj().T)
            splits += lam[-1] > lam[0]
            assert effective_beta(h, rho) == 0.0
        assert splits

    @pytest.mark.parametrize("scale", [1e-3, 1e3])
    def test_effective_beta_at_small_and_large_spectral_scales(self, scale):
        # the energy 0.1 * scale of diag(0, scale) pins beta = log 9 / scale
        beta = effective_beta(np.diag([0.0, scale]), np.diag([0.9, 0.1]))
        assert beta * scale == pytest.approx(math.log(9), rel=1e-12)


class TestFreeEnergy:
    def test_single_level(self):
        fe = free_energy(LevelSystem(np.array([0.0]), 1.0), 2.0)
        assert fe.partition == pytest.approx(1.0)
        assert fe.helmholtz == pytest.approx(0.0)

    def test_worked_two_level(self):
        fe = free_energy(LevelSystem(np.array([0.0, 1.0]), 1.0), 1.0)
        assert fe.partition == pytest.approx(1 + math.exp(-1), abs=1e-12)
        assert fe.helmholtz == pytest.approx(-math.log(1 + math.exp(-1)), abs=1e-12)

    def test_volume_scaling_law(self):
        levels = LevelSystem(np.array([0.0, 1.0]), 2.0)
        fe = free_energy(levels, 1.3)
        base = free_energy(LevelSystem(np.array([0.0, 1.0]), 1.0), 1.3)
        assert fe.helmholtz_scaled == pytest.approx(
            base.helmholtz - 1.3 * math.log(2), abs=1e-12
        )

    def test_rejects_nonpositive_temperature(self):
        with pytest.raises(InvalidTemperature):
            free_energy(LevelSystem(np.array([0.0]), 1.0), 0.0)


class TestJackson:
    def test_worked_qubit_case(self):
        # independent closed form: -log(p0^2 + p1^2) with p = Gibbs(T0=1)
        z = 1 + math.exp(-1.0)
        expected = -math.log((1 / z) ** 2 + (math.exp(-1.0) / z) ** 2)
        lhs, rhs, gap = jackson_check(LevelSystem(np.array([0.0, 1.0]), 1.0), 1.0, 2.0)
        assert lhs == pytest.approx(expected, abs=1e-12)
        assert lhs == pytest.approx(0.49959536399347315, abs=1e-12)
        assert abs(gap) <= 1e-12
        assert rhs == pytest.approx(lhs, abs=1e-12)

    def test_alpha_near_one_matches_plain_oe(self):
        levels = LevelSystem(np.array([0.0, 0.4, 1.1]), 2.0)
        p = np.exp(-levels.energies / 1.5)
        p /= p.sum()
        oe = float(-np.sum(p * np.log(p / 2.0)))
        lhs, _, _ = jackson_check(levels, 1.5, 1 + 1e-6)
        assert lhs == pytest.approx(oe, abs=1e-5)

    def test_rhs_takes_the_limit_near_alpha_one(self):
        # within ALPHA_NEAR_ONE of 1 lhs is the plain OE and rhs the limit
        # of the quotient; the quotient itself divides its rounding error
        # by alpha - 1
        systems = (
            LevelSystem([0.0, 1.0, 2.0], 2.0),
            LevelSystem([-0.3, 0.4, 1.1, 2.5]),
            LevelSystem([0.0, 0.0, 5.0], 0.5),
        )
        for levels in systems:
            for a in (1 + 1e-14, 1 - 1e-14, 1 + 1e-9, 1 - 1e-9, 1 + 5e-7):
                _, _, gap = jackson_check(levels, 1.0, a)
                assert abs(gap) <= 1e-12, (levels, a, gap)

    def test_single_level_gives_log_volume(self):
        lhs, rhs, gap = jackson_check(LevelSystem(np.array([0.7]), 3.0), 1.0, 2.0)
        assert lhs == pytest.approx(math.log(3.0), abs=1e-12)
        assert abs(gap) <= 1e-12

    def test_random_sweep_is_exact(self, rng):
        for _ in range(50):
            levels = LevelSystem(
                np.sort(rng.uniform(-1, 2, size=int(rng.integers(1, 7)))),
                float(rng.uniform(0.5, 4.0)),
            )
            t0 = float(rng.uniform(0.2, 3.0))
            for a in (0.5, 2.0, 3.0, 5.0):
                _, _, gap = jackson_check(levels, t0, a)
                assert abs(gap) <= 1e-9

    def test_rejects_bad_alpha(self):
        with pytest.raises(InvalidAlpha):
            jackson_check(LevelSystem(np.array([0.0]), 1.0), 1.0, 1.0)

    @pytest.mark.parametrize("t0, a", [(5e-324, 2.0), (1e308, 1e-10)])
    def test_t0_over_alpha_beyond_the_float_range_is_named(self, tmp_path, capsys, t0, a):
        # T0 is a valid temperature; T0 / alpha underflows to 0 or overflows
        levels = LevelSystem(np.array([0.0, 1.0]))
        with pytest.raises(InvalidTemperature, match=r"T0 / alpha .*T0 = .*alpha = "):
            jackson_check(levels, t0, a)
        path = tmp_path / "levels.json"
        path.write_text(json.dumps({"energies": [0, 1]}))
        assert main(["free-energy", str(path), "--t0", repr(t0), "--alpha", repr(a)]) == 1
        assert "T0 / alpha" in capsys.readouterr().err

    def test_rhs_stays_finite_far_from_the_origin(self, tmp_path, capsys):
        # A~(T0) leaves the float range at T0 = 1.7e308, and E_min / T0 is
        # far beyond the levels' spread at E_min = -1e300; both sides are
        # log 3 in exact arithmetic
        cases = (([0.0, 1.0, 2.0], 1.0, 1.7e308, 2.0), ([-1e300, 0.0, 2.0], 3.0, 1.0, 3.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for energies, volume, t0, a in cases:
                lhs, rhs, gap = jackson_check(LevelSystem(energies, volume), t0, a)
                assert lhs == pytest.approx(math.log(3.0), abs=1e-12)
                assert rhs == pytest.approx(lhs, abs=1e-12) and abs(gap) <= 1e-12
            levels, out = tmp_path / "levels.json", tmp_path / "table.json"
            levels.write_text(json.dumps({"energies": [0, 1, 2]}))
            argv = ["free-energy", str(levels), "--t0", "1.7e308", "--alpha", "2"]
            assert main(argv + ["--out", str(out)]) == 0
        [row] = json.loads(out.read_text())["rows"]
        assert row["rhs"] == pytest.approx(math.log(3.0), abs=1e-12)
        assert abs(row["gap"]) <= 1e-12
        assert "inf" not in capsys.readouterr().out.split("units=nats")[1]


def _qubit_quench():
    h1 = np.diag([0.0, 1.0]).astype(complex)
    return DrivingProtocol(((h1, 1.2), (PAULI_X.astype(complex), 1.3)))


class TestClosedRun:
    def test_stationary_state_produces_nothing(self):
        h = np.diag([0.0, 1.0]).astype(complex)
        protocol = DrivingProtocol(((h, 2.0),))
        rho0 = gibbs_state(h, 1.0)
        record = closed_run(
            protocol, rho0, EnergyWindowing(0.4), (2.0,), np.linspace(0.2, 2.0, 10)
        )
        assert not record.guarantee_void
        for s in record.samples:
            assert abs(s.delta_entropy) <= 1e-10
            assert abs(s.xi3) <= 1e-9

    def test_qubit_quench_second_law(self):
        protocol = _qubit_quench()
        rho0 = gibbs_state(protocol.segments[0][0], 1.0)
        times = np.linspace(0.05, protocol.total_duration, 50)
        record = closed_run(protocol, rho0, EnergyWindowing(0.4), ALPHAS, times)
        assert not record.guarantee_void
        assert record.min_delta_entropy() >= -1e-9

    def test_maximally_mixed_pins_log_d(self):
        protocol = _qubit_quench()
        record = closed_run(
            protocol,
            np.eye(2) / 2,
            EnergyWindowing(0.4),
            (2.0,),
            np.linspace(0.1, 2.0, 8),
        )
        for s in record.samples:
            assert s.entropy == pytest.approx(math.log(2), abs=1e-10)
            assert abs(s.delta_entropy) <= 1e-10

    def test_guarantee_void_flag(self):
        protocol = _qubit_quench()
        rho0 = np.array([[0.5, 0.4], [0.4, 0.5]], dtype=complex)  # coherent
        record = closed_run(
            protocol, rho0, EnergyWindowing(0.4), (2.0,), [0.5, 1.0]
        )
        assert record.guarantee_void

    def test_sample_time_validation(self):
        protocol = _qubit_quench()
        rho0 = gibbs_state(protocol.segments[0][0], 1.0)
        with pytest.raises(ValidationError):
            closed_run(protocol, rho0, EnergyWindowing(0.4), (2.0,), [0.5, 0.5])
        with pytest.raises(ValidationError):
            closed_run(protocol, rho0, EnergyWindowing(0.4), (2.0,), [5.0])

    def test_sample_time_at_a_long_protocols_end(self):
        # the durations sum to 20685.399999999998; an absolute slack of 1e-12
        # is below half an ulp there, so the end 20685.4 read as past it
        h = np.diag([0.0, 1.0]).astype(complex)
        protocol = DrivingProtocol(((h, 6318.9), (PAULI_X, 8153.7), (h, 6212.8)))
        assert protocol.total_duration < 20685.4
        rho0 = gibbs_state(h, 1.0)
        record = closed_run(protocol, rho0, EnergyWindowing(0.4), (2.0,), [20685.4])
        assert [s.t for s in record.samples] == [20685.4]
        with pytest.raises(ValidationError, match="exceeds protocol duration"):
            closed_run(protocol, rho0, EnergyWindowing(0.4), (2.0,), [20685.41])

    @pytest.mark.parametrize("times", [[math.nan], [0.5, math.nan], [math.inf]])
    def test_non_finite_sample_times_rejected(self, times):
        protocol = _qubit_quench()
        rho0 = gibbs_state(protocol.segments[0][0], 1.0)
        with pytest.raises(ValidationError, match="finite"):
            closed_run(protocol, rho0, EnergyWindowing(0.4), (2.0,), times)

    @pytest.mark.parametrize("duration", [-1.0, math.nan, math.inf])
    def test_segment_duration_must_be_finite_and_non_negative(self, duration):
        with pytest.raises(ValidationError, match="duration"):
            DrivingProtocol(((np.diag([0.0, 1.0]), duration),))

    def test_heat_integral_telescopes(self):
        protocol = _qubit_quench()
        rho0 = gibbs_state(protocol.segments[0][0], 1.0)
        record = closed_run(
            protocol, rho0, EnergyWindowing(0.4), (2.0,), [0.3, 0.9, 1.8]
        )
        # xi3 = S_oe - S_renyi(gamma_t) + heat, with heat anchored at t = 0
        for s in record.samples:
            assert s.xi3 == pytest.approx(s.delta_entropy, abs=1e-9)


def _propagator(h, t):
    lam, vec = np.linalg.eigh(h)
    return (vec * np.exp(-1j * lam * t)) @ vec.conj().T


def _per_sample_closed_run(protocol, rho0, windowing, alphas, ts):
    """Closed run rebuilt from scratch at every sample: dense propagators,
    energy_cg, effective_beta and renyi_entropy(gibbs_state(...)) from the
    instantaneous Hamiltonian. Returns one dict of ClosedSample fields per
    row."""
    h0 = protocol.hamiltonian_at(0.0)
    cg0 = energy_cg(h0, windowing)
    gamma0 = gibbs_state(h0, effective_beta(h0, rho0))
    base_oe = {a: alpha_oe(cg0, rho0, a) for a in alphas}
    base_renyi = {a: renyi_entropy(gamma0, a) for a in alphas}
    starts, states = [0.0], [rho0]
    for h, duration in protocol.segments:
        u = _propagator(h, duration)
        states.append(u @ states[-1] @ u.conj().T)
        starts.append(starts[-1] + duration)
    rows = []
    for t in ts:
        k = 0
        while k + 1 < len(protocol.segments) and t >= starts[k + 1]:
            k += 1
        u = _propagator(protocol.segments[k][0], t - starts[k])
        rho_t = u @ states[k] @ u.conj().T
        h = protocol.hamiltonian_at(t)
        cg = energy_cg(h, windowing)
        beta = effective_beta(h, rho_t)
        gamma = gibbs_state(h, beta)
        for a in alphas:
            s_oe = alpha_oe(cg, rho_t, a)
            s_gibbs = renyi_entropy(gamma, a)
            heat = s_gibbs - base_renyi[a]
            rows.append(
                {
                    "t": t,
                    "alpha": a,
                    "energy": float(np.trace(h @ rho_t).real),
                    "beta_eff": beta,
                    "entropy": s_oe,
                    "delta_entropy": s_oe - base_oe[a],
                    "heat_over_t": heat,
                    "xi3": s_oe - s_gibbs + heat,
                    "gibbs_monitor_ok": s_oe <= s_gibbs + 1e-9,
                }
            )
    return rows


class TestClosedRunSegments:
    def _protocol(self, rng):
        # degenerate static levels, a zero-duration kick, then a driven segment
        q, _ = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
        h1 = (q * np.array([0.0, 0.0, 0.6, 0.6, 1.5])) @ q.conj().T
        g = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        h2 = 0.5 * (g + g.conj().T)
        h3 = h1 + 0.2 * h2
        protocol = DrivingProtocol(((h1, 1.0), (h2, 0.0), (h3, 1.5)))
        # rank 2 and coherent across h1's levels, so the state entering the
        # driven segment depends on the first segment's evolution; every
        # window stays populated, so no outcome probability is pure rounding
        # noise (which alpha < 1 would amplify)
        a = (q[:, 0] + q[:, 2] + q[:, 4]) / np.sqrt(3)
        b = (q[:, 1] - q[:, 4]) / np.sqrt(2)
        rho0 = 0.6 * np.outer(a, a.conj()) + 0.4 * np.outer(b, b.conj())
        return protocol, rho0

    def test_matches_per_sample_algorithm(self, rng):
        protocol, rho0 = self._protocol(rng)
        windowing = EnergyWindowing(0.5)
        ts = [0.0, 0.4, 1.0, 1.3, 2.0, 2.5]  # 1.0: boundary after the kick
        assert protocol.segment_index(1.0) == 2
        record = closed_run(protocol, rho0, windowing, ALPHAS, ts)
        assert record.guarantee_void  # coherent across windows
        expected = _per_sample_closed_run(protocol, rho0, windowing, ALPHAS, ts)
        assert len(record.samples) == len(expected)
        for sample, row in zip(record.samples, expected):
            got = dataclasses.asdict(sample)
            assert set(got) == set(row)
            assert got["gibbs_monitor_ok"] == row["gibbs_monitor_ok"]
            for name in set(row) - {"gibbs_monitor_ok"}:
                assert got[name] == pytest.approx(row[name], abs=1e-12), name

    def test_segment_proportional_to_identity_runs(self, rng):
        # one level: beta_eff is 0, and the one window holds the whole state
        protocol, rho0 = self._protocol(rng)
        segments = protocol.segments[:1] + ((0.7 * np.eye(5), 1.0),)
        record = closed_run(
            DrivingProtocol(segments), rho0, EnergyWindowing(0.5), ALPHAS, [0.5, 1.5]
        )
        flat = record.samples[len(ALPHAS) :]
        assert [s.beta_eff for s in flat] == [0.0] * len(ALPHAS)
        for s in flat:
            assert s.entropy == pytest.approx(math.log(5), abs=1e-12)

    def test_non_hermitian_segment_raises(self, rng):
        protocol, rho0 = self._protocol(rng)
        bad = np.triu(np.ones((5, 5), dtype=complex))
        segments = protocol.segments[:1] + ((bad, 1.0),)
        with pytest.raises(NotHermitian):
            closed_run(
                DrivingProtocol(segments),
                rho0,
                EnergyWindowing(0.5),
                (2.0,),
                [0.5, 1.5],
            )

    def test_empty_alphas_rejected(self, rng):
        protocol, rho0 = self._protocol(rng)
        with pytest.raises(ValidationError):
            closed_run(protocol, rho0, EnergyWindowing(0.5), [], [0.5])

    def test_overflowing_phase_after_a_segment_raises(self):
        # lambda * t = 2e308 is beyond the float range
        long_first = DrivingProtocol(((np.diag([0.0, 2.0]), 1e308), (PAULI_X, 1.0)))
        with pytest.raises(ValidationError, match="not finite"):
            closed_run(long_first, np.diag([0.6, 0.4]), EnergyWindowing(0.5), (2.0,), [1.0])

    def test_last_segment_is_not_evolved(self):
        # the state after the last segment is never read, so its phases
        # cannot overflow
        protocol = DrivingProtocol(((np.diag([0.0, 2.0]), 1e308),))
        record = closed_run(protocol, np.diag([0.6, 0.4]), EnergyWindowing(0.5), (2.0,), [1.0])
        assert record.samples[0].energy == pytest.approx(0.8, abs=1e-12)
        assert record.samples[0].delta_entropy == 0.0


def _bath_setup():
    h_s = np.diag([0.0, 1.0]).astype(complex)
    h_b = np.diag([0.0, 0.35, 0.8, 1.3, 1.95, 2.6]).astype(complex)
    x_b = np.zeros((6, 6), dtype=complex)
    for k in range(5):
        x_b[k, k + 1] = x_b[k + 1, k] = 1.0
    v = 0.15 * np.kron(PAULI_X, x_b)
    return h_s, h_b, v


def _per_sample_open_run(h_s, h_b, v_sb, rho_s0, bath_beta, w_b, alphas, ts, basis):
    """Open run through the coarse-graining layer at every sample: a
    tensor_cg joint stack, partial_trace plus outcomes for each marginal,
    a dense propagator, and is_coarse_grained for the premise. Returns the
    OpenSample fields per row, the bath volumes and guarantee_void."""
    ds, db = h_s.shape[0], h_b.shape[0]
    cg_s, cg_b = projective_cg(basis), energy_cg(h_b, w_b)
    cg_joint = tensor_cg([cg_s, cg_b])
    h = np.kron(h_s, np.eye(db)) + np.kron(np.eye(ds), h_b) + v_sb
    rho0 = np.kron(rho_s0, gibbs_state(h_b, bath_beta))

    def entropy(p, a):
        return -classical_petz_renyi(p, np.ones_like(p), a)

    def terms(rho, a):
        marginals = partial_trace(rho, (ds, db), "A"), partial_trace(rho, (ds, db), "B")
        p = outcomes(cg_joint, rho).probabilities
        p_s, p_b = (outcomes(cg, m).probabilities for cg, m in zip((cg_s, cg_b), marginals))
        return (
            alpha_oe(cg_joint, rho, a),
            alpha_oe(cg_s, marginals[0], a),
            alpha_oe(cg_b, marginals[1], a),
            entropy(p_s, a) + entropy(p_b, a) - entropy(p, a),
        )

    rows = []
    for t in ts:
        u = _propagator(h, t)
        rho_t = u @ rho0 @ u.conj().T
        for a in alphas:
            s_joint, s_sys, s_bath, mi = terms(rho_t, a)
            b_joint, b_sys, b_bath, _ = terms(rho0, a)
            rows.append(
                {
                    "t": t,
                    "alpha": a,
                    "joint_entropy": s_joint,
                    "system_entropy": s_sys,
                    "bath_entropy": s_bath,
                    "mutual_info": mi,
                    "xi1": s_joint - b_joint,
                    "xi2": (s_sys - b_sys) + (s_bath - b_bath),
                    "factorization_residual": s_joint - (s_sys + s_bath - mi),
                }
            )
    void = not is_coarse_grained(cg_joint, rho0, alphas[0]).matrix_close
    return rows, tuple(cg_b.volumes()), void


class TestOpenRunReference:
    HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2)
    # three real unit vectors 120 degrees apart, scaled so b b^H sums to I
    TRINE = np.sqrt(2 / 3) * np.array(
        [np.cos(2 * np.pi * np.arange(3) / 3), np.sin(2 * np.pi * np.arange(3) / 3)],
        dtype=complex,
    )

    def _setup(self, rng):
        # a Haar-rotated bath with doubly degenerate levels, a random coupling
        q, _ = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
        h_b = (q * np.repeat([0.0, 0.45, 1.0], 2)) @ q.conj().T
        g = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        v = 0.05 * (g + g.conj().T)
        return np.diag([0.0, 1.0]).astype(complex), h_b, v

    @pytest.mark.parametrize(
        "case, void",
        [
            # |+><+| in the Hadamard basis: the joint windows of the second
            # basis vector start empty; one degenerate level per window
            ("empty_windows", False),
            # diag(.7, .3) is coherent in the Hadamard basis
            ("coherent", True),
            # width 0.5 puts the levels 0 and 0.45, with different Gibbs
            # weights, in one window
            ("computational_basis", True),
            # a tight frame of three rank-1 effects of volume 2/3
            ("trine_frame", True),
        ],
    )
    def test_matches_per_sample_algorithm(self, rng, case, void):
        h_s, h_b, v = self._setup(rng)
        plus = self.HADAMARD[:, :1]
        rho_s, basis, windowing = {
            "empty_windows": (plus @ plus.conj().T, self.HADAMARD, EnergyWindowing(0.3)),
            "coherent": (np.diag([0.7, 0.3]), self.HADAMARD, EnergyWindowing(0.5)),
            "computational_basis": (np.diag([0.6, 0.4]), None, EnergyWindowing(0.5)),
            "trine_frame": (np.diag([0.7, 0.3]), self.TRINE, EnergyWindowing(0.3)),
        }[case]
        ts = [0.0, 0.6, 1.5, 3.0]
        record = open_run(h_s, h_b, v, rho_s, 0.8, windowing, ALPHAS, ts, basis)
        expected, bath_volumes, expected_void = _per_sample_open_run(
            h_s, h_b, v, rho_s, 0.8, windowing, ALPHAS, ts,
            np.eye(2, dtype=complex) if basis is None else basis,
        )
        assert record.guarantee_void == expected_void == void
        np.testing.assert_allclose(record.bath_volumes, bath_volumes, rtol=0, atol=1e-12)
        assert len(record.samples) == len(expected)
        for sample, row in zip(record.samples, expected):
            got = dataclasses.asdict(sample)
            assert set(got) == set(row)
            for name in row:
                assert got[name] == pytest.approx(row[name], abs=1e-12), name

    def test_overflowing_phase_raises(self):
        # lambda * t beyond the float range at the sample time 1e308
        x_b = np.eye(3, k=1) + np.eye(3, k=-1)
        with pytest.raises(ValidationError, match="not finite"):
            open_run(
                np.diag([0.0, 1.0]),
                np.diag([0.0, 0.35, 0.8]),
                0.15 * np.kron(PAULI_X, x_b),
                np.diag([0.6, 0.4]),
                1.0,
                EnergyWindowing(0.3),
                (2.0,),
                [1e308],
            )


class TestOpenRun:
    def test_zero_coupling_produces_nothing(self):
        h_s, h_b, _ = _bath_setup()
        record = open_run(
            h_s,
            h_b,
            np.zeros((12, 12), dtype=complex),
            np.diag([0.7, 0.3]).astype(complex),
            1.0,
            EnergyWindowing(0.3),
            (2.0,),
            np.linspace(0.5, 4.0, 8),
        )
        assert not record.guarantee_void
        for s in record.samples:
            assert abs(s.xi1) <= 1e-10
            assert abs(s.xi2) <= 1e-10
            assert abs(s.mutual_info) <= 1e-10

    def test_weak_coupling_xi1_nonnegative(self):
        h_s, h_b, v = _bath_setup()
        record = open_run(
            h_s,
            h_b,
            v,
            np.diag([0.7, 0.3]).astype(complex),
            1.0,
            EnergyWindowing(0.3),
            ALPHAS,
            np.linspace(0.1, 6.0, 50),
        )
        assert not record.guarantee_void
        assert record.min_xi1() >= -1e-9

    def test_initial_sample_is_additive(self):
        h_s, h_b, v = _bath_setup()
        record = open_run(
            h_s,
            h_b,
            v,
            np.diag([0.7, 0.3]).astype(complex),
            1.0,
            EnergyWindowing(0.3),
            (2.0,),
            [0.0, 1.0],
        )
        first = record.samples[0]
        assert first.t == 0.0
        assert abs(first.mutual_info) <= 1e-12
        assert first.joint_entropy == pytest.approx(
            first.system_entropy + first.bath_entropy, abs=1e-9
        )
        assert abs(first.xi1) <= 1e-9 and abs(first.xi2) <= 1e-9

    def test_factorization_exact_for_constant_volumes(self):
        h_s, h_b, v = _bath_setup()
        record = open_run(
            h_s,
            h_b,
            v,
            np.diag([0.7, 0.3]).astype(complex),
            1.0,
            EnergyWindowing(0.3),
            ALPHAS,
            np.linspace(0.1, 6.0, 20),
        )
        assert set(record.bath_volumes) == {1.0}
        for s in record.samples:
            assert abs(s.factorization_residual) <= 1e-9

    def test_degenerate_window_volumes_also_exact(self):
        h_s = np.diag([0.0, 1.0]).astype(complex)
        h_b = np.diag([0.0, 0.0, 1.0, 1.0, 2.0, 2.0]).astype(complex)
        _, _, v = _bath_setup()
        record = open_run(
            h_s,
            h_b,
            v,
            np.diag([0.6, 0.4]).astype(complex),
            0.7,
            EnergyWindowing(0.5),
            (2.0, 3.0),
            np.linspace(0.2, 5.0, 15),
        )
        assert set(record.bath_volumes) == {2.0}
        assert not record.guarantee_void
        for s in record.samples:
            assert abs(s.factorization_residual) <= 1e-9
        assert record.min_xi1() >= -1e-9

    def test_empty_alphas_rejected(self):
        h_s, h_b, v = _bath_setup()
        with pytest.raises(ValidationError):
            open_run(
                h_s,
                h_b,
                v,
                np.diag([0.7, 0.3]).astype(complex),
                1.0,
                EnergyWindowing(0.3),
                [],
                [0.5],
            )

    def test_classical_regime_signs_at_alpha_one(self):
        h_s, h_b, v = _bath_setup()
        record = open_run(
            h_s,
            h_b,
            v,
            np.diag([0.7, 0.3]).astype(complex),
            1.0,
            EnergyWindowing(0.3),
            (1.0 + 1e-7,),
            np.linspace(0.1, 6.0, 25),
        )
        for s in record.samples:
            assert s.mutual_info >= -1e-9
            assert s.xi2 >= -1e-9

    def _run(self, h_s, h_b, v, times=(0.5, 1.0)):
        return open_run(
            h_s,
            h_b,
            v,
            np.diag([0.7, 0.3]).astype(complex),
            1.0,
            EnergyWindowing(0.3),
            (2.0,),
            times,
        )

    def test_non_hermitian_system_hamiltonian_raises(self):
        h_s, h_b, v = _bath_setup()
        h_s[0, 1] = 0.5
        with pytest.raises(NotHermitian):
            self._run(h_s, h_b, v)

    def test_non_hermitian_coupling_raises(self):
        # eigh reads one triangle only: unchecked, this upper-triangle change
        # would leave every xi1 as it was
        h_s, h_b, v = _bath_setup()
        v[0, 1] += 0.5
        with pytest.raises(NotHermitian):
            self._run(h_s, h_b, v)

    def test_non_hermitian_bath_hamiltonian_raises(self):
        h_s, h_b, v = _bath_setup()
        h_b[0, 1] = 0.5
        with pytest.raises(NotHermitian):
            self._run(h_s, h_b, v)

    @pytest.mark.parametrize("times", [[math.nan], [0.5, math.inf]])
    def test_non_finite_sample_times_rejected(self, times):
        with pytest.raises(ValidationError, match="finite"):
            self._run(*_bath_setup(), times=times)

    @pytest.mark.parametrize(
        "basis",
        [
            np.eye(3),  # three rows for a qubit
            np.ones(2),  # not a matrix
            np.eye(2)[:, :1],  # b b^H does not sum to I
            np.eye(2, 3),  # a zero column, whose effect would be dropped
        ],
    )
    def test_bad_system_basis_rejected(self, basis):
        with pytest.raises(ValidationError):
            open_run(
                *_bath_setup(),
                np.diag([0.7, 0.3]),
                1.0,
                EnergyWindowing(0.3),
                (2.0,),
                [0.5],
                system_basis=basis,
            )
