"""Each output check accepts the reference output and rejects a perturbed one."""

import json
import math

import pytest

from perfbench import checks, inputs

HEADER = checks.CSV_HEADER


def _output(tmp_path, exit_code=0, error=None, stderr=""):
    return checks.OpOutput(exit_code, error, stderr, tmp_path)


def _write_csv(tmp_path, text):
    (tmp_path / "run.csv").write_text(text, encoding="utf-8")


def _edit_row(text, row, column, value):
    lines = text.splitlines()
    cols = HEADER.split(",")
    cells = lines[row + 1].split(",")
    cells[cols.index(column)] = value
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


RUN_CASES = [("closed-d128", checks.check_closed, "dS"), ("open-b64", checks.check_open, "xi1")]


@pytest.mark.parametrize("workload,check,floor_col", RUN_CASES)
def test_run_checks(workload, check, floor_col, tmp_path):
    ref = checks.read_reference(workload)
    _write_csv(tmp_path, ref)
    assert check(_output(tmp_path), ref, exact=True) == []
    assert check(_output(tmp_path, exit_code=1), ref, exact=True)
    assert check(_output(tmp_path, exit_code=None, error="Traceback\nValueError: x"), ref, True)

    _write_csv(tmp_path, "\n".join(ref.splitlines()[:-1]) + "\n")
    assert check(_output(tmp_path), ref, exact=False)

    _write_csv(tmp_path, _edit_row(ref, 17, floor_col, "-1e-6"))
    assert check(_output(tmp_path), ref, exact=False)

    s_oe = float(ref.splitlines()[4].split(",")[2])
    _write_csv(tmp_path, _edit_row(ref, 3, "S_oe", repr(s_oe * (1 + 1e-7))))
    assert check(_output(tmp_path), ref, exact=False) == []
    assert check(_output(tmp_path), ref, exact=True)

    (tmp_path / "run.csv").unlink()
    assert check(_output(tmp_path), ref, exact=False)


def test_closed_rejects_void_guarantee(tmp_path):
    ref = checks.read_reference("closed-d128")
    _write_csv(tmp_path, ref)
    stderr = "warning: initial state is not coarse-grained; entropy-production guarantee void\n"
    assert checks.check_closed(_output(tmp_path, stderr=stderr), ref, exact=False)


def _entropy(tmp_path, table):
    (tmp_path / "table.json").write_text(json.dumps(table), encoding="utf-8")
    ref = checks.read_reference("entropy-seq512")
    return checks.check_entropy(
        _output(tmp_path), ref, True, inputs.SEQ_DIM, inputs.ALPHAS_ENTROPY
    )


@pytest.mark.parametrize(
    "key,change",
    [
        ("divergence_form", lambda r: r["divergence_form"] + 1e-8),
        ("gap", lambda r: -1e-9),
        ("alpha_oe", lambda r: math.log(inputs.SEQ_DIM) + 1e-6),
        ("alpha_oe", lambda r: r["renyi"] - 1e-6),
        ("renyi", lambda r: r["renyi"] * (1 + 1e-8)),
    ],
)
def test_entropy_check(key, change, tmp_path):
    ref = checks.read_reference("entropy-seq512")
    assert _entropy(tmp_path, ref) == []
    bad = json.loads(json.dumps(ref))
    row = bad["rows"][4]
    row[key] = change(row)
    assert _entropy(tmp_path, bad)


def _verify(tmp_path, report, exact=True, exit_code=0):
    (tmp_path / "report.json").write_text(json.dumps(report), encoding="utf-8")
    ref = checks.read_reference("verify-all")
    return checks.check_verify(_output(tmp_path, exit_code=exit_code), ref, exact)


def _report():
    ref = checks.read_reference("verify-all")
    props = [dict(p, tolerance=1e-10, violations=[]) for p in ref["properties"]]
    return {"hard_failures": 0, "exit_code": 0, "properties": props}


def test_verify_check(tmp_path):
    assert _verify(tmp_path, _report()) == []
    assert _verify(tmp_path, _report(), exit_code=2)

    bad = _report()
    bad["hard_failures"] = 1
    assert _verify(tmp_path, bad, exact=False)

    bad = _report()
    bad["properties"][3]["name"] = "renamed"
    assert _verify(tmp_path, bad, exact=False)

    bad = _report()
    bad["properties"][0]["mode"] = "survey"
    assert _verify(tmp_path, bad, exact=False)

    bad = _report()
    bad["properties"][2]["fails"] += 1
    assert _verify(tmp_path, bad, exact=False) == []
    assert _verify(tmp_path, bad, exact=True)

    bad = _report()
    margin = next(p for p in bad["properties"] if isinstance(p["worst_margin"], float))
    margin["worst_margin"] += 1e-6
    assert _verify(tmp_path, bad, exact=True)


def test_malformed_output_is_a_failure_not_a_crash(tmp_path):
    from perfbench import run

    ref = checks.read_reference("closed-d128")
    _write_csv(tmp_path, _edit_row(ref, 5, "dS", ""))
    problems = run.check("closed-d128", _output(tmp_path), exact=False)
    assert problems and problems[0].startswith("malformed output")
