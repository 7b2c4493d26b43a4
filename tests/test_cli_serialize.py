import argparse
import contextlib
import errno
import functools
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obsent import (
    LevelSystem,
    alpha_oe,
    alpha_oe_divergence_form,
    alpha_oe_gap,
    cli,
    coarse_graining,
    jackson_check,
    observational_entropy,
    operators,
    projective_cg,
    renyi_entropy,
    validate_operator,
)
from obsent.cli import _build_parser, _sample_times, main
from obsent.errors import ObsentError, SchemaError, ValidationError
from obsent.generators import random_density
from obsent.serialize import (
    CSV_COLUMNS,
    coarse_graining_from_json,
    coarse_graining_to_json,
    dump_json,
    format_float,
    operator_from_json,
    operator_to_json,
)
from obsent.report import SUITES, PropertyResult, VerificationReport
from obsent.verify import _SUITES, _at, run_suite
from call_counts import count_imported
from random_instances import random_povm

from conftest import KET_PLUS, proj


class TestOperatorJson:
    def test_round_trip_exact(self, rng):
        rho = random_density(rng, 4)
        back = operator_from_json(operator_to_json(rho))
        assert np.max(np.abs(back - rho)) <= 1e-12

    def test_rejects_non_finite(self):
        obj = operator_to_json(np.eye(2))
        obj["entries"][0][0][0] = float("nan")
        with pytest.raises(SchemaError, match="finite"):
            operator_from_json(obj)

    def test_rejects_ragged_grid(self):
        with pytest.raises(SchemaError):
            operator_from_json({"dim": 2, "entries": [[[1.0, 0.0]]]})

    def test_rejects_bad_cell(self):
        with pytest.raises(SchemaError):
            operator_from_json({"dim": 1, "entries": [[[1.0]]]})

    @pytest.mark.parametrize(
        "first_cell",
        [[0.0], [1, "x"], [1, None], [10**400, 0], [[1, 0], [0, 0]], {"re": 1}],
    )
    def test_rejects_malformed_cell(self, first_cell):
        entries = [[first_cell, [0, 0]], [[0, 0], [1, 0]]]
        with pytest.raises(SchemaError):
            operator_from_json({"dim": 2, "entries": entries})

    @pytest.mark.parametrize("entries", ["ab", 5, {"re": 1}, None])
    def test_rejects_non_grid_entries(self, entries):
        with pytest.raises(SchemaError):
            operator_from_json({"dim": 2, "entries": entries})

    def test_bitwise_equal_to_per_cell_read(self, rng):
        def per_cell(obj):
            out = np.empty((obj["dim"], obj["dim"]), dtype=complex)
            for i, row in enumerate(obj["entries"]):
                for j, (re, im) in enumerate(row):
                    out[i, j] = complex(float(re), float(im))
            return out

        m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        m[0, :] = [0.0, -0.0, complex(-0.0, -0.0), complex(0.0, -0.0), 5e-324]
        obj = operator_to_json(m)
        obj["entries"][1][0] = [True, 3]  # booleans read as 0/1, ints as floats
        obj["entries"][1][1] = [False, -(2**60) + 1]
        got, want = operator_from_json(obj), per_cell(obj)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()
        assert np.signbit(got[0, 1].real) and np.signbit(got[0, 2].imag)


class TestCoarseGrainingJson:
    def test_round_trip(self, rng):
        cg = random_povm(rng, 3)
        back = coarse_graining_from_json(coarse_graining_to_json(cg))
        assert back.labels == cg.labels
        for a, b in zip(back.effects, cg.effects):
            assert np.max(np.abs(a - b)) <= 1e-12

    def test_dim_consistency_checked(self):
        obj = coarse_graining_to_json(projective_cg(np.eye(2, dtype=complex)))
        obj["dim"] = 3
        with pytest.raises(SchemaError):
            coarse_graining_from_json(obj)


class TestCsvFormat:
    def test_header_is_exact(self):
        assert ",".join(CSV_COLUMNS) == "t,alpha,S_oe,dS,beta_eff,xi1,xi2,xi3,mi,heat_over_T"

    def test_seventeen_significant_digits(self):
        assert format_float(1 / 3) == "0.33333333333333331"
        assert float(format_float(math.pi)) == math.pi


def _write_state(path, matrix):
    path.write_text(json.dumps(operator_to_json(matrix)))


def _write_cg(path, cg):
    path.write_text(json.dumps(coarse_graining_to_json(cg)))


def _z_basis():
    return projective_cg(np.eye(2, dtype=complex), labels=("z0", "z1"))


class TestEntropyCommand:
    def test_maximally_mixed_all_log2(self, tmp_path, capsys):
        _write_state(tmp_path / "rho.json", np.eye(2) / 2)
        _write_cg(tmp_path / "cg.json", _z_basis())
        out_file = tmp_path / "table.json"
        code = main(
            [
                "entropy",
                str(tmp_path / "rho.json"),
                str(tmp_path / "cg.json"),
                "--alpha",
                "2",
                "--out",
                str(out_file),
            ]
        )
        assert code == 0
        table = json.loads(out_file.read_text())
        row = table["rows"][0]
        for key in ("alpha_oe", "divergence_form", "renyi"):
            assert row[key] == pytest.approx(math.log(2), abs=1e-10)
        assert row["gap"] == pytest.approx(0.0, abs=1e-10)

    def test_diagonal_state_closes_gap(self, tmp_path):
        _write_state(tmp_path / "rho.json", np.diag([0.75, 0.25]))
        _write_cg(tmp_path / "cg.json", _z_basis())
        out_file = tmp_path / "t.json"
        assert (
            main(
                [
                    "entropy",
                    str(tmp_path / "rho.json"),
                    str(tmp_path / "cg.json"),
                    "--alpha",
                    "2",
                    "--out",
                    str(out_file),
                ]
            )
            == 0
        )
        row = json.loads(out_file.read_text())["rows"][0]
        assert row["alpha_oe"] == pytest.approx(0.4700036292457356, abs=1e-10)
        assert row["renyi"] == pytest.approx(0.4700036292457356, abs=1e-10)
        assert row["gap"] == pytest.approx(0.0, abs=1e-10)

    def test_plus_state_gap_is_log2(self, tmp_path):
        _write_state(tmp_path / "rho.json", proj(KET_PLUS))
        _write_cg(tmp_path / "cg.json", _z_basis())
        out_file = tmp_path / "t.json"
        main(
            [
                "entropy",
                str(tmp_path / "rho.json"),
                str(tmp_path / "cg.json"),
                "--alpha",
                "2",
                "--out",
                str(out_file),
            ]
        )
        row = json.loads(out_file.read_text())["rows"][0]
        assert row["alpha_oe"] == pytest.approx(math.log(2), abs=1e-10)
        assert row["renyi"] == pytest.approx(0.0, abs=1e-9)
        assert row["gap"] == pytest.approx(math.log(2), abs=1e-9)

    def test_bits_flag_rescales(self, tmp_path):
        _write_state(tmp_path / "rho.json", np.eye(2) / 2)
        _write_cg(tmp_path / "cg.json", _z_basis())
        out_file = tmp_path / "t.json"
        main(
            [
                "entropy",
                str(tmp_path / "rho.json"),
                str(tmp_path / "cg.json"),
                "--alpha",
                "2",
                "--bits",
                "--out",
                str(out_file),
            ]
        )
        row = json.loads(out_file.read_text())["rows"][0]
        assert row["alpha_oe"] == pytest.approx(1.0, abs=1e-10)

    def test_schema_error_exits_one(self, tmp_path, capsys):
        (tmp_path / "bad.json").write_text("{\"dim\": 2}")
        _write_cg(tmp_path / "cg.json", _z_basis())
        code = main(
            ["entropy", str(tmp_path / "bad.json"), str(tmp_path / "cg.json")]
        )
        assert code == 1

    def test_invalid_state_exits_one(self, tmp_path):
        _write_state(tmp_path / "rho.json", np.eye(2))  # trace 2
        _write_cg(tmp_path / "cg.json", _z_basis())
        assert (
            main(["entropy", str(tmp_path / "rho.json"), str(tmp_path / "cg.json")])
            == 1
        )

    def test_effects_beyond_the_float_range_exit_one(self, tmp_path, capsys):
        _write_state(tmp_path / "rho.json", np.eye(2) / 2)
        effects = [np.diag([1e308, 0.0]), np.diag([-1e308, 1.0])]
        cg = {"dim": 2, "effects": [
            {"label": lab, "matrix": operator_to_json(e)} for lab, e in zip("ab", effects)
        ]}
        (tmp_path / "cg.json").write_text(json.dumps(cg))
        code = main(["entropy", str(tmp_path / "rho.json"), str(tmp_path / "cg.json")])
        err = capsys.readouterr().err
        assert code == 1
        assert err == "obsent: ValidationError: effect entries leave the float range\n"

    def test_missing_file_exits_one(self, tmp_path):
        _write_cg(tmp_path / "cg.json", _z_basis())
        assert (
            main(["entropy", str(tmp_path / "no.json"), str(tmp_path / "cg.json")])
            == 1
        )


class TestVerifyCommand:
    def test_small_suite_passes(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            [
                "verify",
                "--suite",
                "oe-core",
                "--seed",
                "7",
                "--n",
                "10",
                "--dim",
                "4",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["suite"] == "oe-core"
        assert report["hard_failures"] == 0
        for prop in report["properties"]:
            assert prop["passes"] + prop["fails"] == prop["instances"]

    def test_injected_invalid_map_exits_two(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(
            [
                "verify",
                "--suite",
                "refinement",
                "--seed",
                "3",
                "--n",
                "5",
                "--dim",
                "4",
                "--inject-invalid",
                "--out",
                str(out),
            ]
        )
        assert code == 2
        report = json.loads(out.read_text())
        names = {p["name"]: p for p in report["properties"]}
        injected = names["injected_invalid_map"]
        assert injected["fails"] == 1
        assert "NotARefinement" in json.dumps(injected["violations"])

    def test_suite_choices_follow_registry(self):
        parser = _build_parser()
        verify_cmd = next(
            a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
        ).choices["verify"]
        suite = next(a for a in verify_cmd._actions if a.dest == "suite")
        assert suite.choices == list(SUITES) + ["all"] == list(_SUITES) + ["all"]
        expected = []
        for name in _SUITES:
            expected += [p.name for p in run_suite(name, n=1, dim_max=2).properties]
        assert [p.name for p in run_suite("all", n=1, dim_max=2).properties] == expected

    def test_violation_matrices_serialized_in_report(self, rng):
        rho = random_density(rng, 3)
        prop = PropertyResult("p", "survey", 0.0)
        prop.record(-1.0, lambda k: {"state": rho, "alpha": 2.0, "dims": [3]})
        prop.record(1.0, lambda k: {"state": rho})
        (violation,) = prop.to_json()["violations"]
        assert violation == {
            "state": operator_to_json(rho), "alpha": 2.0, "dims": [3], "margin": -1.0
        }
        json.dumps(prop.to_json())

    @pytest.mark.parametrize("table, mask", [
        # more than three violations, one of them masked out
        ([[0.2, -0.5, -3.0], [-2.0, 0.0, -1.0]], [[True, True, False], [True, True, True]]),
        # signed zeros and nans, a nan first; np.min would give nan or either zero
        ([[np.nan, -0.0, 0.0], [0.0, np.nan, -0.0]], None),
        ([[0.0, -0.0, np.nan], [np.nan, -0.0, 0.0]], None),
    ])
    def test_margin_table_equals_scalar_fold(self, rng, table, mask):
        states, alphas = [random_density(rng, 2), random_density(rng, 3)], (0.5, 2.0, 3.0)
        table = np.array(table)
        mask = None if mask is None else np.array(mask)
        # the reference: one scalar record per margin in row-major order,
        # folded as a sequence of two-value mins, except that a nan, once
        # met, is the worst margin (min(nan, x) keeps the nan)
        instances = passes = fails = 0
        worst, violations = math.inf, []
        for (i, j), margin in np.ndenumerate(table):
            if mask is not None and not mask[i, j]:
                continue
            margin = float(margin)
            instances = instances + 1
            worst = margin if math.isnan(margin) else min(worst, margin)
            if margin >= 0.0:
                passes += 1
                continue
            fails += 1
            if len(violations) < 3:
                violations.append(
                    {"state": operator_to_json(states[i]), "alpha": alphas[j], "margin": margin}
                )
        built = []
        at = _at(states, alphas, mask)
        prop = PropertyResult("p", "survey", 0.0)
        margins = table if mask is None else table[mask]
        prop.record(margins, lambda k: built.append(k) or at(k))
        assert (prop.instances, prop.passes, prop.fails) == (instances, passes, fails)
        assert repr(prop.worst_margin) == repr(worst)  # the sign of a zero too
        # nan != nan, so the violations are compared as JSON text
        assert json.dumps(prop.violations) == json.dumps(violations)
        assert len(built) == min(fails, 3)  # instances are built for kept violations only

    def test_infinite_worst_margin_keeps_its_sign(self, capsys):
        prop = PropertyResult("p", "hard", 0.0)
        prop.record(-math.inf)
        assert (prop.fails, prop.to_json()["worst_margin"]) == (1, "-INFINITE")
        cli._print_report(VerificationReport("s", 0, 1, 2, [prop]))
        assert "fails=1     worst_margin=-INFINITE\n" in capsys.readouterr().out
        assert PropertyResult("q", "hard", 0.0).to_json()["worst_margin"] == "INFINITE"

    def test_nan_margin_is_the_worst_and_written_nan(self, tmp_path, capsys):
        prop = PropertyResult("p", "hard", 0.0)
        prop.record([1.0, math.nan, -2.0], lambda k: {"k": k})
        prop.record(-3.0)
        assert (prop.fails, math.isnan(prop.worst_margin)) == (3, True)
        report = VerificationReport("s", 0, 1, 2, [prop])
        dump_json(report.to_json(), tmp_path / "report.json")
        written = json.loads((tmp_path / "report.json").read_text())["properties"][0]
        assert written["worst_margin"] == "NAN"
        assert [v["margin"] for v in written["violations"]] == ["NAN", -2.0]
        cli._print_report(report)
        assert "fails=3     worst_margin=NAN\n" in capsys.readouterr().out

    def test_reports_are_deterministic(self, tmp_path, capsys):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        args = ["verify", "--suite", "divergences", "--seed", "11", "--n", "8",
                "--dim", "4"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestVerifyWorkers:
    # the suites of `verify --suite all` run in forked workers, two here on
    # any host, so the forked path is the one under test; after each case
    # no child is left to reap

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 2)
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("seed", [0, 5])
    def test_report_and_printout_equal_in_process_run(self, tmp_path, capsys, seed):
        out, expected = tmp_path / "report.json", tmp_path / "expected.json"
        argv = ["verify", "--suite", "all", "--seed", str(seed), "--n", "4", "--out", str(out)]
        assert main(argv) == 0
        printed = capsys.readouterr().out
        report = run_suite("all", seed, 4, 6)
        dump_json(report.to_json(), expected)
        cli._print_report(report)
        assert out.read_bytes() == expected.read_bytes()
        assert printed == capsys.readouterr().out

    def test_workers_need_no_multiprocessing(self):
        # the suites are compiled, and their draws made, in the workers only
        unloaded = ("multiprocessing", "concurrent.futures", "obsent.verify",
                    "obsent.generators", "numpy.ma")
        code = (
            "import sys; from obsent import cli; cli._usable_cpus = lambda: 2; "
            "code = cli.main(['verify', '--suite', 'all', '--n', '2', '--dim', '3']); "
            f"print(code, sorted(set({unloaded!r}) & set(sys.modules)))"
        )
        assert _fresh(code) == "0 []"

    def test_worker_error_gives_the_in_process_line(self, capsys, monkeypatch):
        def fail(seed, n, dim_max):
            raise ValidationError(f"suite failed at seed {seed}", magnitude=2.0)

        monkeypatch.setitem(_SUITES, "sequential", fail)
        with pytest.raises(ObsentError) as caught:
            run_suite("all", 3, 2, 3)
        line = f"obsent: {type(caught.value).__name__}: {caught.value}\n"
        assert main(["verify", "--seed", "3", "--n", "2", "--dim", "3"]) == 1
        assert capsys.readouterr().err == line

    def test_first_failing_suite_in_order_is_reported(self, capsys, monkeypatch):
        # the later suite may fail first, in the child whose pipe is read first
        for name in ("oe-core", "decomposition"):
            monkeypatch.setitem(_SUITES, name, functools.partial(_fail_suite, name))
        assert main(["verify", "--n", "2", "--dim", "3"]) == 1
        assert capsys.readouterr().err == "obsent: ValidationError: oe-core failed\n"

    def test_failed_fork_closes_its_pipe(self, capsys, monkeypatch):
        # the second fork fails; the first child is reaped (fixture) and the
        # failed worker's result pipe leaves no descriptor open
        fork, forks = os.fork, []

        def failing_fork():
            forks.append(None)
            if len(forks) == 2:
                raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
            return fork()

        monkeypatch.setattr(os, "fork", failing_fork)
        has_fds = os.path.isdir("/proc/self/fd")
        before = len(os.listdir("/proc/self/fd")) if has_fds else 0
        assert main(["verify", "--suite", "all", "--n", "2", "--dim", "3"]) == 1
        assert capsys.readouterr().err.count("\n") == 1
        if has_fds:
            assert len(os.listdir("/proc/self/fd")) == before

    def test_killed_worker_exits_one_with_one_line(self, capsys, monkeypatch):
        monkeypatch.setitem(_SUITES, "thermo", lambda *args: os._exit(3))
        assert main(["verify", "--n", "2", "--dim", "3"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("obsent: ObsentError: no worker finished ") and err.count("\n") == 1


def _fail_suite(name, seed, n, dim_max):
    raise ValidationError(f"{name} failed")


def _fresh(code: str) -> str:
    """The last stdout line of code run by a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True, timeout=120)
    return proc.stdout.splitlines()[-1]


def test_cli_import_leaves_the_suites_uncompiled():
    code = (
        "import sys, obsent, obsent.cli; "
        "print(sorted({'obsent.verify', 'obsent.generators'} & set(sys.modules)))"
    )
    assert _fresh(code) == "[]"


def test_refinement_draws_leave_numpy_ma_unimported():
    # np.unique imports numpy.ma on its first call
    code = (
        "import sys; from obsent.verify import run_suite; "
        "run_suite('refinement', 0, 2, 3); print('numpy.ma' in sys.modules)"
    )
    assert _fresh(code) == "False"


def _closed_config(tmp_path, **overrides):
    h1 = operator_to_json(np.diag([0.0, 1.0]))
    h2 = operator_to_json(np.array([[0.0, 1.0], [1.0, 0.0]]))
    z = 1 + math.exp(-1.0)
    rho = operator_to_json(np.diag([1 / z, math.exp(-1.0) / z]))
    cfg = {
        "protocol": [
            {"hamiltonian": h1, "duration": 1.2},
            {"hamiltonian": h2, "duration": 1.3},
        ],
        "initial_state": rho,
        "delta": 0.4,
        "alphas": [2.0],
        "sample_times": {"count": 20},
        **overrides,
    }
    path = tmp_path / "closed.json"
    path.write_text(json.dumps(cfg))
    return path


class TestSimCommands:
    def test_closed_sim_csv(self, tmp_path, capsys):
        cfg = _closed_config(tmp_path)
        out = tmp_path / "run.csv"
        assert main(["closed-sim", str(cfg), "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "t,alpha,S_oe,dS,beta_eff,xi1,xi2,xi3,mi,heat_over_T"
        assert len(lines) == 21
        cells = lines[1].split(",")
        # closed runs leave xi1, xi2, mi empty
        assert cells[5] == "" and cells[6] == "" and cells[8] == ""
        assert float(cells[3]) >= -1e-9
        err = capsys.readouterr().err
        assert "min dS=" in err

    def test_closed_sim_monotone_summary(self, tmp_path, capsys):
        cfg = _closed_config(tmp_path)
        assert main(["closed-sim", str(cfg), "--out", str(tmp_path / "o.csv")]) == 0
        err = capsys.readouterr().err
        min_ds = float(err.split("min dS=")[1].split()[0])
        assert min_ds >= -1e-9

    def test_open_sim_zero_coupling(self, tmp_path, capsys):
        dim = 12
        cfg = {
            "system_hamiltonian": operator_to_json(np.diag([0.0, 1.0])),
            "bath_hamiltonian": operator_to_json(
                np.diag([0.0, 0.35, 0.8, 1.3, 1.95, 2.6])
            ),
            "coupling": operator_to_json(np.zeros((dim, dim))),
            "system_state": operator_to_json(np.diag([0.7, 0.3])),
            "bath_beta": 1.0,
            "delta": 0.3,
            "alphas": [2.0],
            "sample_times": [0.5, 1.0, 2.0],
        }
        path = tmp_path / "open.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "run.csv"
        assert main(["open-sim", str(path), "--out", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "t,alpha,S_oe,dS,beta_eff,xi1,xi2,xi3,mi,heat_over_T"
        for line in lines[1:]:
            cells = line.split(",")
            assert abs(float(cells[5])) <= 1e-10  # xi1
            assert abs(float(cells[6])) <= 1e-10  # xi2
            assert abs(float(cells[8])) <= 1e-10  # mi
            assert cells[4] == "" and cells[7] == "" and cells[9] == ""

    @pytest.mark.parametrize("count", [0, -2])
    def test_nonpositive_sample_count_is_schema_error(self, count):
        with pytest.raises(SchemaError):
            _sample_times({"count": count, "horizon": 1.0}, None)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"alphas": []},
            {"sample_times": {"count": 0}},
            {"sample_times": {"count": -2}},
        ],
    )
    def test_closed_sim_empty_inputs_exit_one(self, tmp_path, capsys, overrides):
        cfg = _closed_config(tmp_path, **overrides)
        assert main(["closed-sim", str(cfg), "--out", str(tmp_path / "o.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("obsent: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_open_sim_empty_alphas_exit_one(self, tmp_path, capsys):
        cfg = {
            "system_hamiltonian": operator_to_json(np.diag([0.0, 1.0])),
            "bath_hamiltonian": operator_to_json(np.diag([0.0, 0.5])),
            "coupling": operator_to_json(np.zeros((4, 4))),
            "system_state": operator_to_json(np.diag([0.7, 0.3])),
            "bath_beta": 1.0,
            "delta": 0.3,
            "alphas": [],
            "sample_times": [0.5],
        }
        path = tmp_path / "open.json"
        path.write_text(json.dumps(cfg))
        assert main(["open-sim", str(path), "--out", str(tmp_path / "o.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("obsent: ValidationError") and err.count("\n") == 1

    def test_free_energy_table(self, tmp_path, capsys):
        path = tmp_path / "levels.json"
        path.write_text(json.dumps({"energies": [0.0, 1.0], "volume": 1.0}))
        out = tmp_path / "fe.json"
        code = main(
            ["free-energy", str(path), "--t0", "1.0", "--alpha", "2", "--out", str(out)]
        )
        assert code == 0
        table = json.loads(out.read_text())
        row = table["rows"][0]
        assert row["lhs"] == pytest.approx(0.49959536399347315, abs=1e-12)
        assert abs(row["gap"]) <= 1e-9

    @pytest.mark.parametrize(
        "energies, t0, key, value",
        [
            # Z = e^1000 is beyond the float range
            ([-1000, 0], "1", "partition", "INFINITE"),
            # A = -T log 3 at T = 1.7e308 is below it
            ([0, 1, 2], "1.7e308", "helmholtz", "-INFINITE"),
        ],
    )
    def test_free_energy_out_is_strict_json(self, tmp_path, energies, t0, key, value):
        path = tmp_path / "levels.json"
        path.write_text(json.dumps({"energies": energies}))
        out = tmp_path / "fe.json"
        assert main(["free-energy", str(path), "--t0", t0, "--out", str(out)]) == 0

        def refuse(constant):
            raise ValueError(f"non-strict JSON constant {constant}")

        table = json.loads(out.read_text(), parse_constant=refuse)
        assert table[key] == table[key + "_scaled"] == value

    def test_usage_error_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["entropy"])  # missing positional arguments
        assert exc.value.code == 1


def _open_config(**overrides):
    x_b = np.eye(3, k=1) + np.eye(3, k=-1)
    return {
        "system_hamiltonian": operator_to_json(np.diag([0.0, 1.0])),
        "bath_hamiltonian": operator_to_json(np.diag([0.0, 0.35, 0.8])),
        "coupling": operator_to_json(0.15 * np.kron(np.array([[0, 1], [1, 0]]), x_b)),
        "system_state": operator_to_json(np.diag([0.7, 0.3])),
        "system_basis": operator_to_json(np.eye(2)),
        "bath_beta": 1.0,
        "delta": 0.3,
        "origin": -0.1,
        "alphas": [2.0],
        "sample_times": [0.5, 1.0],
        **overrides,
    }


def _argv(tmp_path, command, payload):
    """CLI argv running command on payload; entropy payloads are coarse-grainings."""
    path = tmp_path / "input.json"
    path.write_text(json.dumps(payload))
    if command == "entropy":
        _write_state(tmp_path / "rho.json", np.eye(2) / 2)
        return ["entropy", str(tmp_path / "rho.json"), str(path)]
    if command == "free-energy":
        return ["free-energy", str(path), "--t0", "1.0"]
    return [command, str(path), "--out", str(tmp_path / "run.csv")]


def _closed_dict(**overrides):
    h = operator_to_json(np.diag([0.0, 1.0]))
    return {
        "protocol": [{"hamiltonian": h, "duration": 1.2}],
        "initial_state": operator_to_json(np.eye(2) / 2),
        "delta": 0.4,
        "origin": 0.0,
        "alphas": [2.0],
        "sample_times": {"count": 3, "horizon": 1.0},
        **overrides,
    }


_BAD_INPUTS = {
    "duration-string": ("closed-sim", _closed_dict(protocol=[{"duration": "x"}])),
    "segment-without-hamiltonian": (
        "closed-sim",
        _closed_dict(protocol=[{"duration": 1.0}]),
    ),
    "protocol-number": ("closed-sim", _closed_dict(protocol=5)),
    "alphas-number": ("closed-sim", _closed_dict(alphas=5)),
    "alphas-strings": ("closed-sim", _closed_dict(alphas=["x"])),
    "origin-string": ("closed-sim", _closed_dict(origin="x")),
    "origin-nan": ("closed-sim", _closed_dict(origin=math.nan)),
    "count-string": ("closed-sim", _closed_dict(sample_times={"count": "x"})),
    "count-fraction": ("closed-sim", _closed_dict(sample_times={"count": 2.5})),
    "sample-time-nan": ("closed-sim", _closed_dict(sample_times=[math.nan])),
    "entries-number": ("closed-sim", _closed_dict(initial_state={"dim": 2, "entries": 5})),
    "path-number": ("closed-sim", _closed_dict(initial_state={"path": 5})),
    "config-not-object": ("closed-sim", [1, 2]),
    "open-coupling-not-hermitian": (
        "open-sim",
        _open_config(coupling=operator_to_json(np.triu(np.ones((6, 6))))),
    ),
    "open-sample-time-inf": ("open-sim", _open_config(sample_times=[0.5, math.inf])),
    "effects-number": ("entropy", {"dim": 2, "effects": 5}),
    "effect-number": ("entropy", {"effects": [5]}),
    "energies-string": ("free-energy", {"energies": "ab"}),
}


@pytest.mark.parametrize("case", sorted(_BAD_INPUTS))
def test_malformed_input_exits_one_with_one_line(tmp_path, capsys, case):
    command, payload = _BAD_INPUTS[case]
    assert main(_argv(tmp_path, command, payload)) == 1
    err = capsys.readouterr().err
    assert err.startswith("obsent: ") and err.count("\n") == 1
    assert "Traceback" not in err


# argv -> exit code; "LEVELS" names a level file whose partition function
# e^1000 is beyond the float range
_EXIT_CODES = {
    "verify-n-0": (["verify", "--suite", "all", "--n", "0"], 0),
    "verify-n-negative": (["verify", "--n", "-1"], 1),
    "verify-dim-1": (["verify", "--dim", "1"], 1),
    "verify-seed-negative": (["verify", "--seed", "-1"], 1),
    "free-energy-overflow": (["free-energy", "LEVELS", "--t0", "1"], 0),
}


@pytest.mark.parametrize("case", sorted(_EXIT_CODES))
def test_exit_code_without_traceback(tmp_path, capsys, case):
    argv, code = _EXIT_CODES[case]
    levels = tmp_path / "levels.json"
    levels.write_text(json.dumps({"energies": [-1000, 0]}))
    assert main([str(levels) if a == "LEVELS" else a for a in argv]) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err and err.count("\n") == code


@pytest.mark.parametrize(
    "content", [b'{"energies": [0, 1\xff]}', b"[" * 100_000], ids=["non-utf8", "deep"]
)
def test_unreadable_json_exits_one(tmp_path, capsys, content):
    (tmp_path / "levels.json").write_bytes(content)
    assert main(["free-energy", str(tmp_path / "levels.json"), "--t0", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("obsent: SchemaError") and err.count("\n") == 1


@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1", "abc", ""])
def test_obsent_tol_must_be_positive_and_finite(value):
    env = {**os.environ, "OBSENT_TOL": value, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run(
        [sys.executable, "-c", "import obsent"], env=env, capture_output=True, text=True
    )
    assert proc.returncode != 0
    assert "OBSENT_TOL must be a positive finite float" in proc.stderr


def test_alpha_near_one_messages_state_the_scaled_threshold():
    # OBSENT_TOL = 10 scales ALPHA_NEAR_ONE to 1e-5; both orders are inside it
    code = (
        "import numpy as np; from obsent import *; from obsent.errors import InvalidAlpha\n"
        "cg, rho = projective_cg(np.eye(2)), np.diag([0.7, 0.3])\n"
        "coarse, m = merge_outcomes(cg, [['0', '1']])\n"
        "for call in (lambda: alpha_derivative(cg, rho, 1 + 5e-6),\n"
        "             lambda: refinement_divergence_bound(cg, coarse, m, rho, 1 + 5e-7)):\n"
        "    try: call()\n"
        "    except InvalidAlpha as exc: print(exc)\n"
    )
    env = {**os.environ, "OBSENT_TOL": "10", "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    assert proc.stdout.splitlines() == [
        "derivative formula needs |alpha - 1| >= 1e-05",
        "refinement bound needs alpha - 1 >= 1e-05",
    ]


# Field values a config may hold: numbers, non-finite numbers, strings,
# booleans, null, lists and objects.
_POOL = [
    0, -1, 0.5, 3, 2.5, 1e300, -1e300, math.nan, math.inf, -math.inf,
    "x", "", True, False, None, [], [2.0], ["x"], [1.0, math.nan], [[1.0]],
    {}, {"count": 2}, {"count": 2.5}, {"dim": 2}, {"path": 5}, {"path": "no.json"},
]


def _fields(cfg, prefix=()):
    """Paths to every field of nested dicts and the first list item."""
    for key, value in cfg.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from _fields(value, prefix + (key,))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            yield from _fields(value[0], prefix + (key, 0))


def _replace(cfg, path, value):
    node = cfg
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value


_VALID = {
    "closed-sim": _closed_dict(),
    "open-sim": _open_config(),
    "free-energy": {"energies": [0.0, 1.0, 2.5], "volume": 2.0},
}
_TARGETS = [
    (command, path)
    for command, cfg in _VALID.items()
    for path in _fields(cfg)
    if "entries" not in path  # the operator reader has its own tests
]


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(
    replacements=st.lists(
        st.tuples(st.sampled_from(_TARGETS), st.sampled_from(_POOL)), min_size=1, max_size=2
    )
)
def test_fuzzed_configs_exit_zero_or_one(replacements):
    command = replacements[0][0][0]
    cfg = json.loads(json.dumps(_VALID[command]))
    for (cmd, path), value in replacements:
        if cmd == command:
            with contextlib.suppress(KeyError, IndexError, TypeError):
                _replace(cfg, path, value)
    with tempfile.TemporaryDirectory() as tmp:
        argv = _argv(Path(tmp), command, cfg)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1)
    if code == 1:
        assert err.getvalue().startswith("obsent: ")


# The entropy and free-energy tables: each alpha grid passes one gate before
# any output, and each column is one table-form pass over the whole grid.

# the orders of the bit-identity tests: both ends, the alpha -> 1 band, 2
_TABLE_ORDERS = (1e-3, 0.3, 1.0, 1 + 1e-7, 1 - 1e-7, 2.0, 1e4)


def _alpha_argv(orders) -> list:
    return [arg for a in orders for arg in ("--alpha", repr(a))]


def _entropy_argv(tmp_path, dim: int = 4, cg_dim: int | None = None) -> list:
    """entropy argv over a random full-rank state and a 5-effect POVM."""
    rng = np.random.default_rng(11)
    _write_state(tmp_path / "rho.json", random_density(rng, dim))
    _write_cg(tmp_path / "cg.json", random_povm(rng, cg_dim or dim, 5))
    return ["entropy", str(tmp_path / "rho.json"), str(tmp_path / "cg.json")]


def _levels_argv(tmp_path) -> list:
    path = tmp_path / "levels.json"
    path.write_text(json.dumps({"energies": [-0.4, 0.0, 0.3, 1.1, 2.5], "volume": 1.7}))
    return ["free-energy", str(path), "--t0", "0.8"]


def test_entropy_rows_equal_one_order_functions(tmp_path):
    out = tmp_path / "table.json"
    argv = _entropy_argv(tmp_path)
    assert main([*argv, *_alpha_argv(_TABLE_ORDERS), "--out", str(out)]) == 0
    rho = validate_operator(operator_from_json(json.loads(Path(argv[1]).read_text())), "density")
    cg = coarse_graining_from_json(json.loads(Path(argv[2]).read_text()))
    table = json.loads(out.read_text())
    assert table["observational_entropy"] == observational_entropy(cg, rho)
    assert [row["alpha"] for row in table["rows"]] == list(_TABLE_ORDERS)
    for a, row in zip(_TABLE_ORDERS, table["rows"]):
        assert row["alpha_oe"] == alpha_oe(cg, rho, a)
        assert row["divergence_form"] == alpha_oe_divergence_form(cg, rho, a)
        assert row["renyi"] == renyi_entropy(rho, a)
        assert row["gap"] == alpha_oe_gap(cg, rho, a)


def test_free_energy_rows_equal_jackson_check(tmp_path):
    # the difference quotient needs alpha != 1
    orders = [a for a in _TABLE_ORDERS if a != 1.0]
    out = tmp_path / "fe.json"
    assert main([*_levels_argv(tmp_path), *_alpha_argv(orders), "--out", str(out)]) == 0
    levels = LevelSystem(np.array([-0.4, 0.0, 0.3, 1.1, 2.5]), 1.7)
    rows = json.loads(out.read_text())["rows"]
    assert [row["alpha"] for row in rows] == orders
    for a, row in zip(orders, rows):
        lhs, rhs, gap = jackson_check(levels, 0.8, a)
        assert (row["lhs"], row["rhs"], row["gap"]) == (lhs, rhs, gap)


@pytest.mark.parametrize("orders", [(2.0,), (0.3, 0.5, 0.7, 1.5, 2.0, 3.0, 5.0, 10.0)])
def test_entropy_table_reads_the_state_once_per_grid(tmp_path, monkeypatch, capsys, orders):
    argv = [*_entropy_argv(tmp_path), *_alpha_argv(orders)]
    owners = {"_hermitian": operators, "_outcomes": coarse_graining}
    owners |= {"eigvalsh": np.linalg, "eigh": np.linalg}
    calls = {name: count_imported(monkeypatch, owner, name) for name, owner in owners.items()}
    assert main(argv) == 0
    # the gated state, its p, its spectrum and its Nussbaum-Szkola pair
    # serve the whole grid; the density gate and the public alpha_oe of the
    # alpha = 1 line each test Hermiticity once
    assert len(calls["_hermitian"]) == 2 and len(calls["_outcomes"]) <= 2
    assert (len(calls["eigvalsh"]), len(calls["eigh"])) == (1, 2)


# argv tail -> error type of a table whose grid or inputs fail
_FAILING_TABLES = {
    "entropy-negative-alpha": ("entropy", ["--alpha", "2", "--alpha", "-1"], "InvalidAlpha"),
    "entropy-nan-alpha": ("entropy", ["--alpha", "2", "--alpha", "nan"], "InvalidAlpha"),
    "entropy-dimension": ("entropy-3", ["--alpha", "2"], "DimensionMismatch"),
    "free-energy-alpha-one": ("free-energy", ["--alpha", "2", "--alpha", "1"], "InvalidAlpha"),
}


@pytest.mark.parametrize("case", sorted(_FAILING_TABLES))
def test_failing_table_prints_no_partial_output(tmp_path, capsys, case):
    command, tail, error = _FAILING_TABLES[case]
    if command == "free-energy":
        argv = _levels_argv(tmp_path)
    else:
        argv = _entropy_argv(tmp_path, 2, 3 if command == "entropy-3" else None)
    out = tmp_path / "table.json"
    assert main([*argv, *tail, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"obsent: {error}: ") and captured.err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"energies": [0, 1], "volume": NaN}', "'volume' must be finite"),
        ('{"energies": [0, Infinity]}', "'energies' must be finite"),
        ('{"energies": [0, 1], "volume": -Infinity}', "'volume' must be finite"),
    ],
)
def test_json_non_finite_literals_are_schema_errors(tmp_path, capsys, text, message):
    # Python's json reads these literals; the real-array gate refuses them
    path = tmp_path / "levels.json"
    path.write_text(text)
    assert main(["free-energy", str(path), "--t0", "1"]) == 1
    assert capsys.readouterr().err == f"obsent: SchemaError: {message}\n"
