"""Out-of-tree tracing of the obsent layers.

install() wraps every public function of every obsent module, the
CoarseGraining constructor and numpy.linalg.eigh/eigvalsh. A wrapped function
is replaced in every obsent namespace that holds a reference to it (from
`from .x import y` copies and from dispatch dicts such as the verify suite
table), so calls through any import path are seen. Each call records a span
(name, start, end, parent) in flat in-memory arrays; nothing is written until
the run ends. A span's self time is its duration minus the union of its
children's intervals. Bookkeeping done by the hooks (hashing inputs for the
repeat shares) runs inside a `tracer.hooks` span, so it is charged to no layer:
it is no span's self time, and inclusive totals leave out the hook spans
nested below them.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import math
import os
import sys
import time
import weakref
from array import array

import numpy as np

PACKAGE = "obsent"
HOOKS = "tracer.hooks"  # span name of the hooks' own bookkeeping
SUITES = ("divergences", "oe-core", "sequential", "refinement", "decomposition", "thermo")

# (layer, function) pairs reported with .calls and .self_s
_CALLS_AND_SELF = (
    ("operators", "op_power"),
    ("operators", "spectral"),
    ("operators", "partial_trace"),
    ("operators", "validate_operator"),
    ("operators", "weight_outside_support"),
    ("coarse_graining", "alpha_oe"),
    ("coarse_graining", "sequential"),
    ("coarse_graining", "merge_outcomes"),
    ("coarse_graining", "check_refinement"),
    ("coarse_graining", "measurement_channel"),
    ("divergences", "renyi_entropy"),
    ("divergences", "petz_renyi"),
    ("divergences", "classical_petz_renyi"),
    ("state_analysis", "post_measurement_state"),
    ("state_analysis", "conditional_ensemble"),
    ("state_analysis", "decompose_alpha_oe"),
    ("state_analysis", "is_coarse_grained"),
    ("state_analysis", "coarse_grained_state"),
    ("thermo", "effective_beta"),
    ("thermo", "gibbs_state"),
    ("serialize", "operator_from_json"),
    ("serialize", "operator_to_json"),
)


_OTHER_UNITS = {
    "linalg.eigh.calls": "count",
    "linalg.eigvalsh.calls": "count",
    "linalg.self_s": "s",
    "linalg.eig_work_n3": "n3-computed",
    "coarse_graining.construct.calls": "count",
    "coarse_graining.construct.effects": "count",
    "coarse_graining.construct.self_s": "s",
    "coarse_graining.outcomes.calls": "count",
    "coarse_graining.outcomes.effects": "count",
    "coarse_graining.outcomes.self_s": "s",
    "coarse_graining.outcomes.repeat_share": "fraction",
    "divergences.infinite_returns": "count",
    "thermo.energy_cg.calls": "count",
    "thermo.energy_cg.self_s": "s",
    "thermo.energy_cg.repeat_share": "fraction",
    "thermo.closed_run.self_s": "s",
    "thermo.open_run.self_s": "s",
    "generators.calls": "count",
    "generators.self_s": "s",
    **{f"verify.suite.{suite}.wall_s": "s" for suite in SUITES},
    "verify.self_s": "s",
    "serialize.load_json.calls": "count",
    "serialize.load_json.self_s": "s",
    "serialize.load_json.bytes": "B",
    "serialize.coarse_graining_from_json.self_s": "s",
    "serialize.run_to_csv.self_s": "s",
    "serialize.dump_json.self_s": "s",
    "serialize.dump_json.bytes": "B",
    "cli.main.wall_s": "s",
    "cli.self_s": "s",
    "process.cpu_s": "s",
    "process.tracing_overhead": "ratio",
}


def metric_units() -> dict:
    """Every per-layer metric name mapped to its unit, in report order."""
    units = {}
    for layer, fn in _CALLS_AND_SELF:
        units[f"{layer}.{fn}.calls"] = "count"
        units[f"{layer}.{fn}.self_s"] = "s"
    units.update(_OTHER_UNITS)
    return units


class SpanStore:
    """Flat span arrays plus named counters, kept in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self.counters: dict = {}
        self._seen: dict = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(math.nan)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._stack.pop()

    def count(self, key: str, amount=1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def seen_before(self, key: str, item) -> bool:
        """Record `item` under `key`; True when it was recorded already."""
        seen = self._seen.setdefault(key, set())
        if item in seen:
            return True
        seen.add(item)
        return False

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.int32),
        )


def self_times(start, end, parent) -> np.ndarray:
    """Duration of each span minus the union of its children's intervals.

    Child intervals are clipped to the parent's, so overlapping children
    and children outliving the parent are not double-counted.
    """
    n = len(start)
    children: dict = {}
    for i in range(n):
        p = parent[i]
        if p >= 0:
            children.setdefault(p, []).append(i)
    covered = np.zeros(n)
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        total, cur_lo, cur_hi = 0.0, None, None
        for s, e in sorted((max(start[k], lo), min(end[k], hi)) for k in kids):
            if e <= s:
                continue
            if cur_hi is None or s > cur_hi:
                if cur_hi is not None:
                    total += cur_hi - cur_lo
                cur_lo, cur_hi = s, e
            else:
                cur_hi = max(cur_hi, e)
        if cur_hi is not None:
            total += cur_hi - cur_lo
        covered[p] = total
    return np.asarray(end) - np.asarray(start) - covered


def hook_time_below(duration, parent, is_hook) -> np.ndarray:
    """Per span, the summed duration of the hook spans nested below it."""
    below = np.zeros(len(duration))
    for i in range(len(duration) - 1, -1, -1):  # a child opens after its parent
        p = parent[i]
        if p >= 0:
            below[p] += duration[i] if is_hook[i] else below[i]
    return below


def aggregate(store: SpanStore) -> dict:
    """Per span name: calls, total (inclusive, hook spans left out) seconds
    and self seconds."""
    name = np.frombuffer(store.name, dtype=np.int32)
    start, end = np.frombuffer(store.start), np.frombuffer(store.end)
    parent = np.frombuffer(store.parent, dtype=np.int32)
    own = self_times(start, end, parent)
    hook = store._ids.get(HOOKS, -1)
    inclusive = end - start - hook_time_below(end - start, parent, name == hook)
    k = len(store.names)
    calls = np.bincount(name, minlength=k)
    total = np.bincount(name, weights=inclusive, minlength=k)
    self_s = np.bincount(name, weights=own, minlength=k)
    return {
        nm: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(self_s[i])}
        for i, nm in enumerate(store.names)
    }


def layer_metrics(store: SpanStore) -> dict:
    """The per-layer table of metric_units(), without the process.* rows."""
    agg = aggregate(store)
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

    def span(name):
        return agg.get(name, zero)

    def layer(prefix, stat):
        return sum(v[stat] for k, v in agg.items() if k.startswith(prefix + "."))

    def share(key, calls):
        return store.counters.get(key, 0) / calls if calls else 0.0

    c = store.counters
    out = {}
    for layer_name, fn in _CALLS_AND_SELF:
        s = span(f"{layer_name}.{fn}")
        out[f"{layer_name}.{fn}.calls"] = s["calls"]
        out[f"{layer_name}.{fn}.self_s"] = s["self_s"]
    out["linalg.eigh.calls"] = span("linalg.eigh")["calls"]
    out["linalg.eigvalsh.calls"] = span("linalg.eigvalsh")["calls"]
    out["linalg.self_s"] = layer("linalg", "self_s")
    out["linalg.eig_work_n3"] = c.get("linalg.eig_work_n3", 0)
    construct = span("coarse_graining.construct")
    out["coarse_graining.construct.calls"] = construct["calls"]
    out["coarse_graining.construct.effects"] = c.get("coarse_graining.construct.effects", 0)
    out["coarse_graining.construct.self_s"] = construct["self_s"]
    oc = span("coarse_graining.outcomes")
    out["coarse_graining.outcomes.calls"] = oc["calls"]
    out["coarse_graining.outcomes.effects"] = c.get("coarse_graining.outcomes.effects", 0)
    out["coarse_graining.outcomes.self_s"] = oc["self_s"]
    out["coarse_graining.outcomes.repeat_share"] = share(
        "coarse_graining.outcomes.repeats", oc["calls"]
    )
    out["divergences.infinite_returns"] = c.get("divergences.infinite_returns", 0)
    ecg = span("thermo.energy_cg")
    out["thermo.energy_cg.calls"] = ecg["calls"]
    out["thermo.energy_cg.self_s"] = ecg["self_s"]
    out["thermo.energy_cg.repeat_share"] = share("thermo.energy_cg.repeats", ecg["calls"])
    out["thermo.closed_run.self_s"] = span("thermo.closed_run")["self_s"]
    out["thermo.open_run.self_s"] = span("thermo.open_run")["self_s"]
    out["generators.calls"] = layer("generators", "calls")
    out["generators.self_s"] = layer("generators", "self_s")
    for suite in SUITES:
        fn = "suite_" + suite.replace("-", "_")
        out[f"verify.suite.{suite}.wall_s"] = span(f"verify.{fn}")["total_s"]
    out["verify.self_s"] = layer("verify", "self_s")
    lj = span("serialize.load_json")
    out["serialize.load_json.calls"] = lj["calls"]
    out["serialize.load_json.self_s"] = lj["self_s"]
    out["serialize.load_json.bytes"] = c.get("serialize.load_json.bytes", 0)
    for fn in ("coarse_graining_from_json", "run_to_csv", "dump_json"):
        out[f"serialize.{fn}.self_s"] = span(f"serialize.{fn}")["self_s"]
    out["serialize.dump_json.bytes"] = c.get("serialize.dump_json.bytes", 0)
    out["cli.main.wall_s"] = span("cli.main")["total_s"]
    out["cli.self_s"] = layer("cli", "self_s")
    return out


def _digest(x) -> bytes:
    m = np.ascontiguousarray(np.asarray(getattr(x, "matrix", x), dtype=complex))
    return hashlib.blake2b(m.tobytes(), digest_size=16).digest() + repr(m.shape).encode()


class _CgDigests:
    """Content digest per live CoarseGraining, computed once per object."""

    def __init__(self):
        self._by_id: dict = {}

    def __call__(self, cg) -> bytes:
        key = id(cg)
        if key not in self._by_id:
            h = hashlib.blake2b(repr(cg.labels).encode(), digest_size=16)
            for e in cg.effects:
                h.update(np.ascontiguousarray(e).tobytes())
            self._by_id[key] = h.digest()
            weakref.finalize(cg, self._by_id.pop, key, None)
        return self._by_id[key]


def _wrap(store: SpanStore, name: str, fn, after=None):
    """Span-recording replacement for fn; after(args, kwargs, result) runs
    in a tracer.hooks span."""
    nid = store.name_id(name)
    hook_id = store.name_id(HOOKS)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = store.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            store.close(idx)
        if after is not None:
            hidx = store.open(hook_id)
            try:
                after(args, kwargs, result)
            finally:
                store.close(hidx)
        return result

    wrapper.__wrapped_by_tracer__ = fn
    return wrapper


def _replace_everywhere(orig, new) -> None:
    """Swap orig for new in every loaded obsent module and its dispatch dicts."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
            continue
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, new)
            elif type(val) is dict:
                for k, v in list(val.items()):
                    if v is orig:
                        val[k] = new


def _hooks(store: SpanStore) -> dict:
    cg_digest = _CgDigests()

    def eig_work(args, kwargs, result):
        a = args[0] if args else kwargs["a"]
        shape = np.shape(a)
        store.count("linalg.eig_work_n3", int(np.prod(shape[:-2], dtype=np.int64)) * shape[-1] ** 3)

    def construct(args, kwargs, result):
        store.count("coarse_graining.construct.effects", len(args[0].effects))

    def outcomes(args, kwargs, result):
        cg, rho = args[0], args[1] if len(args) > 1 else kwargs["rho"]
        store.count("coarse_graining.outcomes.effects", len(cg.effects))
        if store.seen_before("outcomes", cg_digest(cg) + _digest(rho)):
            store.count("coarse_graining.outcomes.repeats")

    def energy_cg(args, kwargs, result):
        windowing = args[1] if len(args) > 1 else kwargs["windowing"]
        if store.seen_before("energy_cg", _digest(args[0]) + repr(windowing).encode()):
            store.count("thermo.energy_cg.repeats")

    def infinite(args, kwargs, result):
        if isinstance(result, float) and math.isinf(result):
            store.count("divergences.infinite_returns")

    def load_json(args, kwargs, result):
        store.count("serialize.load_json.bytes", os.path.getsize(args[0]))

    def dump_json(args, kwargs, result):
        store.count("serialize.dump_json.bytes", os.path.getsize(args[1]))

    return {
        "linalg.eigh": eig_work,
        "linalg.eigvalsh": eig_work,
        "coarse_graining.construct": construct,
        "coarse_graining.outcomes": outcomes,
        "thermo.energy_cg": energy_cg,
        "serialize.load_json": load_json,
        "serialize.dump_json": dump_json,
        "divergences.*": infinite,
    }


def install():
    """Wrap the already-imported obsent package; returns (store, restore)."""
    store = SpanStore()
    hooks = _hooks(store)
    undo = []
    for mod_name, mod in sorted(sys.modules.items()):
        if mod is None or not mod_name.startswith(PACKAGE + "."):
            continue
        layer = mod_name[len(PACKAGE) + 1 :]
        for attr, fn in sorted(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod_name:
                continue
            name = f"{layer}.{attr}"
            after = hooks.get(name) or hooks.get(f"{layer}.*")
            new = _wrap(store, name, fn, after)
            _replace_everywhere(fn, new)
            undo.append((fn, new))
    cls = sys.modules[f"{PACKAGE}.coarse_graining"].CoarseGraining
    post_init = cls.__post_init__
    cls.__post_init__ = _wrap(
        store, "coarse_graining.construct", post_init, hooks["coarse_graining.construct"]
    )
    for fn_name in ("eigh", "eigvalsh"):
        orig = getattr(np.linalg, fn_name)
        setattr(np.linalg, fn_name, _wrap(store, f"linalg.{fn_name}", orig, hooks[f"linalg.{fn_name}"]))

    def restore():
        for fn, new in undo:
            _replace_everywhere(new, fn)
        cls.__post_init__ = post_init
        for fn_name in ("eigh", "eigvalsh"):
            wrapped = getattr(np.linalg, fn_name)
            setattr(np.linalg, fn_name, wrapped.__wrapped_by_tracer__)

    return store, restore
