"""The README's library quickstart runs as written, without a warning,
and every value its comments state holds."""

import ast
import math
import warnings
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"

# each commented statement of the quickstart (whitespace collapsed) and the
# check of its comment, given its value and the namespace after the block
STATED = {
    "ob.observational_entropy(z, rho)": lambda v, ns: repr(v).startswith("0.5623"),
    "ob.alpha_oe(z, rho, 2.0)": lambda v, ns: repr(v).startswith("0.4700"),
    "ob.alpha_oe_gap(z, rho, 2.0)": lambda v, ns: v == 0.0,
    "ob.alpha_oe(seq, rho, 2.0)": lambda v, ns: v == pytest.approx(
        ns["ob"].alpha_oe(ns["z"], ns["rho"], 2.0), abs=1e-12
    ),
    "seq.effects.shape": lambda v, ns: v == (4, 2, 2) and not ns["seq"].effects.flags.writeable,
    "beta = ob.effective_beta(np.diag([0.0, 1.0]), rho)": lambda v, ns: v == pytest.approx(
        math.log(3), abs=1e-12
    ),
    "ob.effective_beta(np.eye(3), np.eye(3) / 3)": lambda v, ns: v == 0.0,
}


def _quickstart() -> str:
    text = README.read_text(encoding="utf-8")
    return text.split("## Library quickstart", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]


def test_quickstart_runs_and_states_its_values():
    source = _quickstart()
    lines = source.splitlines()
    ns, seen = {}, {}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for stmt in ast.parse(source).body:
            code = ast.get_source_segment(source, stmt)
            if isinstance(stmt, ast.Expr):
                value = eval(code, ns)
            else:
                exec(code, ns)
                value = ns[stmt.targets[0].id] if isinstance(stmt, ast.Assign) else None
            if "#" in lines[stmt.end_lineno - 1]:
                seen[" ".join(code.split())] = value
    assert seen.keys() == STATED.keys()
    for code, check in STATED.items():
        assert check(seen[code], ns), f"{code} gave {seen[code]!r}"
