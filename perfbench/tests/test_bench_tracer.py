"""Self-time arithmetic, namespace patching and the per-layer table."""

import contextlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from perfbench import run, tracer

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def test_self_times_on_synthetic_tree():
    # root [0, 10] with children [1, 3] and [2, 5] (overlapping) and
    # [8, 12] (outlives the root); [1.5, 2] nests under [1, 3]
    start = [0.0, 1.0, 2.0, 8.0, 1.5]
    end = [10.0, 3.0, 5.0, 12.0, 2.0]
    parent = [-1, 0, 0, 0, 1]
    own = tracer.self_times(start, end, parent)
    np.testing.assert_allclose(own, [10 - 4 - 2, 2 - 0.5, 3.0, 4.0, 0.5])


def test_store_nesting_and_aggregate():
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 9.0])
    store = tracer.SpanStore(clock=lambda: next(ticks))
    outer, inner = store.name_id("a.outer"), store.name_id("a.inner")
    o = store.open(outer)  # 0
    i1 = store.open(inner)  # 1
    store.close(i1)  # 2
    i2 = store.open(inner)  # 4
    store.close(i2)  # 5
    store.close(o)  # 9
    assert list(store.parent) == [-1, 0, 0]
    agg = tracer.aggregate(store)
    assert agg["a.outer"] == {"calls": 1, "total_s": 9.0, "self_s": 7.0}
    assert agg["a.inner"] == {"calls": 2, "total_s": 2.0, "self_s": 2.0}


def test_totals_leave_out_nested_hook_spans():
    # outer [0, 10] > inner [1, 4] > hook [2, 3]; hook [5, 7] under outer
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 7.0, 10.0])
    store = tracer.SpanStore(clock=lambda: next(ticks))
    outer, inner, hook = (store.name_id(n) for n in ("a.outer", "a.inner", tracer.HOOKS))
    o = store.open(outer)
    i = store.open(inner)
    store.close(store.open(hook))
    store.close(i)
    store.close(store.open(hook))
    store.close(o)
    agg = tracer.aggregate(store)
    assert agg["a.outer"] == {"calls": 1, "total_s": 7.0, "self_s": 5.0}
    assert agg["a.inner"] == {"calls": 1, "total_s": 2.0, "self_s": 2.0}
    assert agg[tracer.HOOKS] == {"calls": 2, "total_s": 3.0, "self_s": 3.0}


@pytest.fixture
def traced():
    import obsent
    import obsent.cli  # noqa: F401

    store, restore = tracer.install()
    try:
        yield obsent, store
    finally:
        restore()


def test_install_patches_every_namespace(traced):
    obsent, store = traced
    import obsent.cli as cli
    import obsent.coarse_graining as cgm
    import obsent.verify as verify

    assert obsent.alpha_oe is cgm.alpha_oe is cli.alpha_oe is verify.alpha_oe
    assert obsent.alpha_oe.__wrapped_by_tracer__ is not None
    assert all(hasattr(fn, "__wrapped_by_tracer__") for fn in verify._SUITES.values())
    rho = np.diag([0.75, 0.25]).astype(complex)
    obsent.alpha_oe(obsent.identity_cg(2), rho, 2.0)
    agg = tracer.aggregate(store)
    assert agg["coarse_graining.alpha_oe"]["calls"] == 1
    assert agg["coarse_graining.outcomes"]["calls"] == 1
    assert agg["coarse_graining.construct"]["calls"] == 1
    assert agg["linalg.eigvalsh"]["calls"] == 1
    alpha_oe = list(store.names).index("coarse_graining.alpha_oe")
    outcomes = list(store.names).index("coarse_graining.outcomes")
    child = list(store.name).index(outcomes)
    assert store.name[store.parent[child]] == alpha_oe


def test_restore_puts_originals_back():
    import obsent.cli as cli
    import obsent.verify as verify

    before = (cli.alpha_oe, dict(verify._SUITES), np.linalg.eigh)
    _, restore = tracer.install()
    assert cli.alpha_oe is not before[0]
    restore()
    assert (cli.alpha_oe, dict(verify._SUITES), np.linalg.eigh) == before


def _traced_counts():
    import obsent.cli

    store, restore = tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = obsent.cli.main(["verify", "--suite", "thermo", "--seed", "1", "--n", "2"])
    finally:
        restore()
    assert code == 0
    units = tracer.metric_units()
    return {k: v for k, v in tracer.layer_metrics(store).items() if units[k] != "s"}


def test_counts_repeat_exactly():
    first, second = _traced_counts(), _traced_counts()
    assert first == second
    assert first["thermo.energy_cg.calls"] > 0
    assert first["linalg.eigh.calls"] > 0


def test_benchmark_json_names_match_the_code():
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.metric_units()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    store = tracer.SpanStore()
    table = tracer.layer_metrics(store)
    assert set(table) | {"process.cpu_s", "process.tracing_overhead"} == set(
        tracer.metric_units()
    )
