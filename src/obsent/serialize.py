"""JSON and CSV encodings for operators, coarse-grainings, and runs.

Operator JSON: {"dim": n, "entries": [[[re, im], ...], ...]} row-major.
Coarse-graining JSON: {"dim": n, "effects": [{"label": str, "matrix": ...}]}
with the operator encoding in "matrix". Readers reject non-finite values
by the finite rule of operators._reals, through which every number is read.

Run CSV: one row per (t, alpha) with the fixed header
t,alpha,S_oe,dS,beta_eff,xi1,xi2,xi3,mi,heat_over_T; one table,
_CSV_FIELDS, names the sample field behind each column of each record
type, and a column a record type does not fill is left empty; floats carry
17 significant digits, locale-independent.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .coarse_graining import CoarseGraining
from .errors import SchemaError, ValidationError
from .operators import _reals, as_matrix
from .thermo import ClosedRunRecord, OpenRunRecord

CSV_COLUMNS = (
    "t",
    "alpha",
    "S_oe",
    "dS",
    "beta_eff",
    "xi1",
    "xi2",
    "xi3",
    "mi",
    "heat_over_T",
)

# per run record type, the sample field that fills each CSV column it writes
_CSV_FIELDS = {
    ClosedRunRecord: {"t": "t", "alpha": "alpha", "S_oe": "entropy", "dS": "delta_entropy",
                      "beta_eff": "beta_eff", "xi3": "xi3", "heat_over_T": "heat_over_t"},
    OpenRunRecord: {"t": "t", "alpha": "alpha", "S_oe": "joint_entropy", "dS": "xi1",
                    "xi1": "xi1", "xi2": "xi2", "mi": "mutual_info"},
}


def format_float(x: float) -> str:
    """17-significant-digit, locale-independent float rendering."""
    return "%.17g" % x


def operator_to_json(matrix) -> dict:
    m = as_matrix(matrix)
    return {"dim": int(m.shape[0]), "entries": np.stack([m.real, m.imag], -1).tolist()}


def _floats(value, name: str, ndim: int) -> np.ndarray:
    """A JSON number (ndim 0) or ndim-deep nested lists of numbers as a float
    array, through the real-array gate as SchemaError (booleans read as 0, 1)."""
    arr = _reals(value, SchemaError, repr(name))
    if arr.ndim != ndim:
        what = {0: "a number", 1: "a list of numbers"}.get(ndim, f"{ndim}-deep lists")
        raise SchemaError(f"{name!r} must be {what}, got {value!r:.40}")
    return arr


def operator_from_json(obj) -> np.ndarray:
    if not isinstance(obj, dict) or "dim" not in obj or "entries" not in obj:
        raise SchemaError("operator object needs 'dim' and 'entries'")
    dim = obj["dim"]
    if not isinstance(dim, int) or dim <= 0:
        raise SchemaError(f"'dim' must be a positive integer, got {dim!r}")
    grid = _floats(obj["entries"], "entries", 3)
    if grid.shape != (dim, dim, 2):
        raise SchemaError(f"'entries' is not a {dim} x {dim} grid of [re, im] pairs")
    # the view keeps each part's bits, signed zeros included
    return grid.view(complex)[..., 0]


def coarse_graining_to_json(cg: CoarseGraining) -> dict:
    return {
        "dim": cg.dim,
        "effects": [
            {"label": str(lab), "matrix": operator_to_json(e)}
            for lab, e in zip(cg.labels, cg.effects)
        ],
    }


def coarse_graining_from_json(obj) -> CoarseGraining:
    if not isinstance(obj, dict) or "effects" not in obj:
        raise SchemaError("coarse-graining object needs 'effects'")
    if not isinstance(obj["effects"], list):
        raise SchemaError("'effects' must be a list")
    labels, effects = [], []
    for k, item in enumerate(obj["effects"]):
        if not isinstance(item, dict):
            raise SchemaError(f"effect {k} is not an object")
        if "matrix" not in item:
            raise SchemaError(f"effect {k} has no 'matrix'")
        labels.append(item.get("label", str(k)))
        effects.append(operator_from_json(item["matrix"]))
    if "dim" in obj and effects and effects[0].shape[0] != obj["dim"]:
        raise SchemaError(
            f"declared dim {obj['dim']} != matrix dim {effects[0].shape[0]}"
        )
    return CoarseGraining(tuple(labels), tuple(effects))


def load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: UTF-8, JSON
        raise SchemaError(f"cannot read JSON from {path}: {exc}") from exc


def dump_json(obj, path) -> None:
    """Write obj as strict JSON. An infinite float is written as the string
    "INFINITE" ("-INFINITE" below zero), as in verify reports; a nan
    raises SchemaError."""
    try:
        text = json.dumps(_finite(obj), indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:  # a nan
        raise SchemaError(f"cannot write strict JSON: {exc}") from None
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _finite(obj):
    """obj with each infinite float replaced by "INFINITE" or "-INFINITE"."""
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    if isinstance(obj, float) and math.isinf(obj):
        return "INFINITE" if obj > 0 else "-INFINITE"
    return obj


def resolve_operator(node, base_dir: Path) -> np.ndarray:
    """Resolve an inline operator object or a {"path": ...} file reference."""
    if isinstance(node, dict) and "path" in node:
        if not isinstance(node["path"], str):
            raise SchemaError(f"'path' must be a string, got {node['path']!r:.40}")
        return operator_from_json(load_json(base_dir / node["path"]))
    return operator_from_json(node)


def run_to_csv(record) -> str:
    """The run CSV of a closed or an open run record, from _CSV_FIELDS."""
    fields = _CSV_FIELDS.get(type(record))
    if fields is None:
        raise ValidationError(
            f"expected a ClosedRunRecord or an OpenRunRecord, got {type(record).__name__}"
        )
    lines = [",".join(CSV_COLUMNS)]
    for s in record.samples:
        cells = (format_float(getattr(s, fields[c])) if c in fields else "" for c in CSV_COLUMNS)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
