"""Tests of the benchmark itself: span arithmetic, oracles, seeding, tracer.

    python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

from run import failures  # noqa: E402
from tracer import Tracer, install  # noqa: E402
from workloads import (  # noqa: E402
    HAAR_SEEDS, WORKLOADS, Item, check_item, items_for, load_reference, run_item,
)


def test_self_time_subtracts_child_spans():
    # outer [0,10] holds a [1,4] (holding b [2,3]) and c [5,9] (holding c [6,7])
    tracer = Tracer(clock=iter([0, 1, 2, 3, 4, 5, 6, 7, 9, 10]).__next__)
    b = tracer.wrap("b", lambda: None)
    a = tracer.wrap("a", lambda: b())
    c = tracer.wrap("c", lambda inner: c(False) if inner else None)
    outer = tracer.wrap("outer", lambda: (a(), c(True)))
    outer()
    assert tracer.self_s == {"b": 1, "a": 2, "c": 4, "outer": 3}
    # the c nested directly in c is part of the same operation
    assert tracer.calls == {"b": 1, "a": 1, "c": 1, "outer": 1}


def test_wrong_reference_value_counts_as_failed():
    item = Item("fidelity", 2, 3, 2, protocol="std-pbtc")
    passes = [{"items": [{"name": item.name, "seconds": 0.0, "values": run_item(item), "error": None}]}]
    reference = load_reference()
    assert failures(passes, {item.name: item}, reference) == []
    wrong = dict(reference, **{item.name: reference[item.name] + 1e-6})
    assert len(failures(passes, {item.name: item}, wrong)) == 1


def test_seed_fixes_items_and_their_order():
    for name, workload in WORKLOADS.items():
        items = items_for(name, 7)
        assert items == items_for(name, 7)
        assert sorted(i.name for i in items) == sorted(i.name for i in workload.items)
    assert items_for("dense-grid", 7) != items_for("dense-grid", 8)
    draws = {i.haar_seed for seed in range(20) for i in items_for("certify", seed) if i.kind == "haar"}
    assert len(draws) > 1 and draws <= set(HAAR_SEEDS)


def test_every_haar_draw_passes_its_oracle():
    reference = load_reference()
    for haar_seed in HAAR_SEEDS:
        item = Item("haar", 2, 3, 2, protocol="std-pbtc", samples=1000, haar_seed=haar_seed)
        assert check_item(item, run_item(item), reference) is None


def test_check_refused_by_dimension_cap_fails_suite_item(monkeypatch):
    reference = load_reference()
    item = Item("suite", 2, 3, 2)
    values = run_item(item)  # "no disjoint pair" is a structural skip here
    assert values["skipped"] and check_item(item, values, reference) is None
    monkeypatch.setenv("PORTCLONE_DIM_CAP", "8")
    capped = run_item(item)
    assert capped["passed"]  # run_suite itself still reports a pass
    assert "check refused" in check_item(item, capped, reference)


def test_tracer_keeps_results_and_cache_methods():
    from portclone import channels, states

    item = Item("fidelity", 2, 4, 2, protocol="clone-mpbt")
    plain = run_item(item)
    original = states.pbtc_signal
    tracer = Tracer()
    present, restore = install(tracer)
    try:
        assert channels.pbtc_signal is states.pbtc_signal is not original
        states.pbtc_signal.cache_clear()
        assert states.pbtc_signal.cache_info().currsize == 0
        assert run_item(item) == plain
    finally:
        restore()
    assert channels.pbtc_signal is states.pbtc_signal is original
    metrics, absent = tracer.metrics(present)
    assert absent == []
    assert metrics["cloning.adjoint_calls"] > 0 and metrics["tensor_core.matmul_calls"] > 0
