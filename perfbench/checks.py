"""Output checks for one CLI invocation of each workload.

A check returns a list of problems; an empty list means the invocation
passed. Every check rejects a nonzero exit or an exception. With
`exact=True` (inputs from the default seed) the output must also match the
committed reference in reference/ to REF_TOL, relative to max(1, |value|).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

REF_TOL = 1e-9
SIGN_TOL = 1e-9  # dS and xi1 floors
ENTROPY_TOL = 1e-10  # form agreement, gap sign and bounds in the entropy table
RUN_ROWS = 200
CSV_HEADER = "t,alpha,S_oe,dS,beta_eff,xi1,xi2,xi3,mi,heat_over_T"
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REFERENCE_FILES = {
    "verify-all": "verify-all.json",
    "closed-d128": "closed-d128.csv",
    "open-b64": "open-b64.csv",
    "entropy-seq512": "entropy-seq512.json",
}


@dataclass
class OpOutput:
    """What one invocation left behind: exit status, stderr and its files."""

    exit_code: int | None
    error: str | None
    stderr: str
    workdir: Path


def close(a: float, b: float, tol: float = REF_TOL) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= tol * max(1.0, abs(b))


def read_reference(workload: str):
    path = REFERENCE_DIR / REFERENCE_FILES[workload]
    text = path.read_text(encoding="utf-8")
    return text if path.suffix == ".csv" else json.loads(text)


def _status(out: OpOutput) -> list:
    if out.error is not None:
        return [f"exception: {out.error.strip().splitlines()[-1]}"]
    if out.exit_code != 0:
        return [f"exit code {out.exit_code}"]
    return []


def _read(out: OpOutput, name: str):
    path = out.workdir / name
    if not path.exists():
        return None
    return path.read_text(encoding="utf-8")


def verify_summary(report: dict) -> list:
    """The reference-comparable part of a verify report."""
    return [
        {k: p[k] for k in ("name", "mode", "instances", "passes", "fails", "worst_margin")}
        for p in report["properties"]
    ]


def check_verify(out: OpOutput, reference, exact: bool) -> list:
    problems = _status(out)
    text = _read(out, "report.json")
    if text is None:
        return problems + ["no report.json"]
    report = json.loads(text)
    if report["hard_failures"] != 0:
        problems.append(f"hard_failures = {report['hard_failures']}")
    got = verify_summary(report)
    want = reference["properties"]
    if [(p["name"], p["mode"]) for p in got] != [(p["name"], p["mode"]) for p in want]:
        problems.append("property names or modes differ from the reference")
    elif exact:
        for g, w in zip(got, want):
            for key in ("instances", "passes", "fails"):
                if g[key] != w[key]:
                    problems.append(f"{g['name']}.{key} = {g[key]}, reference {w[key]}")
            gm, wm = g["worst_margin"], w["worst_margin"]
            if isinstance(gm, str) or isinstance(wm, str):
                same = gm == wm
            else:
                same = close(gm, wm)
            if not same:
                problems.append(f"{g['name']}.worst_margin = {gm}, reference {wm}")
    return problems


def parse_csv(text: str) -> tuple:
    lines = text.splitlines()
    header = lines[0].split(",") if lines else []
    return lines[0] if lines else "", [dict(zip(header, ln.split(","))) for ln in lines[1:]]


def _compare_csv(rows: list, reference: str) -> list:
    _, ref_rows = parse_csv(reference)
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows, reference {len(ref_rows)}"]
    for k, (row, ref) in enumerate(zip(rows, ref_rows)):
        for col, want in ref.items():
            got = row.get(col, "")
            if (got == "") != (want == "") or (want and not close(float(got), float(want))):
                return [f"row {k} {col} = {got!r}, reference {want!r}"]
    return []


def _check_run(out: OpOutput, reference, exact: bool, floor_col: str) -> list:
    problems = _status(out)
    text = _read(out, "run.csv")
    if text is None:
        return problems + ["no run.csv"]
    header, rows = parse_csv(text)
    if header != CSV_HEADER:
        return problems + [f"CSV header {header!r}"]
    if len(rows) != RUN_ROWS:
        problems.append(f"{len(rows)} rows, expected {RUN_ROWS}")
    low = [r for r in rows if float(r[floor_col]) < -SIGN_TOL]
    if low:
        problems.append(f"{len(low)} rows with {floor_col} < -{SIGN_TOL:g}")
    if exact and not problems:
        problems += _compare_csv(rows, reference)
    return problems


def check_closed(out: OpOutput, reference, exact: bool) -> list:
    problems = _check_run(out, reference, exact, "dS")
    if "guarantee void" in out.stderr:
        problems.append("guarantee_void warning")
    return problems


def check_open(out: OpOutput, reference, exact: bool) -> list:
    return _check_run(out, reference, exact, "xi1")


def check_entropy(out: OpOutput, reference, exact: bool, dim: int, alphas) -> list:
    problems = _status(out)
    text = _read(out, "table.json")
    if text is None:
        return problems + ["no table.json"]
    table = json.loads(text)
    rows = table["rows"]
    if [r["alpha"] for r in rows] != list(alphas):
        return problems + ["alphas differ from the requested ones"]
    log_d = math.log(dim)
    for r in rows:
        a, oe = r["alpha"], r["alpha_oe"]
        if abs(r["divergence_form"] - oe) > ENTROPY_TOL:
            problems.append(f"alpha={a}: divergence_form differs from alpha_oe")
        if r["gap"] < -ENTROPY_TOL:
            problems.append(f"alpha={a}: negative gap {r['gap']}")
        if not (r["renyi"] - ENTROPY_TOL <= oe <= log_d + ENTROPY_TOL):
            problems.append(f"alpha={a}: alpha_oe {oe} outside [renyi, log d]")
    if exact and not problems:
        if not close(table["observational_entropy"], reference["observational_entropy"]):
            problems.append("observational_entropy differs from the reference")
        for r, w in zip(rows, reference["rows"]):
            for key, want in w.items():
                if not close(r[key], want):
                    problems.append(f"alpha={r['alpha']}: {key} differs from the reference")
    return problems
