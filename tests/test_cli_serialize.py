import argparse
import json
import math

import numpy as np
import pytest

from obsent import projective_cg
from obsent.cli import _build_parser, _sample_times, main
from obsent.errors import SchemaError
from obsent.generators import random_density, random_povm
from obsent.serialize import (
    CSV_COLUMNS,
    coarse_graining_from_json,
    coarse_graining_to_json,
    format_float,
    operator_from_json,
    operator_to_json,
)
from obsent.verify import _SUITES, PropertyResult, run_suite

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
        assert suite.choices == list(_SUITES) + ["all"]
        expected = []
        for name in _SUITES:
            expected += [p.name for p in run_suite(name, n=1, dim_max=2).properties]
        assert [p.name for p in run_suite("all", n=1, dim_max=2).properties] == expected

    def test_violation_matrices_serialized_in_report(self, rng):
        rho = random_density(rng, 3)
        prop = PropertyResult("p", "survey", 0.0)
        prop.record(-1.0, {"state": rho, "alpha": 2.0, "dims": [3]})
        prop.record(1.0, {"state": rho})
        (violation,) = prop.to_json()["violations"]
        assert violation == {
            "state": operator_to_json(rho), "alpha": 2.0, "dims": [3], "margin": -1.0
        }
        json.dumps(prop.to_json())

    def test_reports_are_deterministic(self, tmp_path, capsys):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        args = ["verify", "--suite", "divergences", "--seed", "11", "--n", "8",
                "--dim", "4"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


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

    def test_usage_error_exits_one(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["entropy"])  # missing positional arguments
        assert exc.value.code == 1
