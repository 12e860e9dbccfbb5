"""Tests of the benchmark's own parts: tracer, oracle, generators, metric names.

Run with the package on the path: ``PYTHONPATH=src python -m pytest bench``.
"""

import importlib
import json
import os
import threading

import numpy as np
import pytest

import generators as gen
import oracle
import run
import tracer
import workloads

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def spec():
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def span(sid, start, end, parent=None, name="x"):
    return tracer.Span(sid, name, start, end, parent, 0)


def test_self_time_subtracts_union_of_children():
    spans = [
        span(0, 0.0, 10.0),
        span(1, 1.0, 4.0, parent=0),  # overlaps span 2, as on two pool threads
        span(2, 3.0, 6.0, parent=0),
        span(3, 2.0, 3.0, parent=1),  # grandchild: not subtracted from the root
        span(4, 8.0, 12.0, parent=0),  # clipped at the root's end
    ]
    own = tracer.self_times(spans)
    assert own == pytest.approx({0: 3.0, 1: 2.0, 2: 3.0, 3: 1.0, 4: 4.0})


def test_layer_totals_sum_calls_and_self_time():
    spans = [
        span(0, 0.0, 5.0, name="cli.main"),
        span(1, 1.0, 2.0, parent=0, name="btc.btc_classify"),
        span(2, 2.5, 3.0, parent=0, name="btc.btc_classify"),
    ]
    totals = tracer.layer_totals(spans)
    assert set(tracer.LAYER_NAMES) <= set(totals)
    assert totals["cli.main"] == (1, pytest.approx(3.5))
    assert totals["btc.btc_classify"] == (2, pytest.approx(1.5))
    assert totals["kbtc.kbtc_classify"] == (0, 0.0)


def test_span_on_idle_thread_takes_the_open_root_as_parent():
    t = tracer.Tracer()
    inner = t._wrap("inner", lambda: None)

    def outer():
        worker = threading.Thread(target=inner)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()

    t._wrap("outer", outer)()
    by_name = {s.name: s for s in t.spans}
    assert by_name["outer"].parent is None
    assert by_name["inner"].parent == by_name["outer"].sid


def snapshot():
    import btckit.cli  # noqa: F401  (loads every btckit module)

    state = {(m.__name__, k): v for m in tracer.btckit_modules() for k, v in vars(m).items()}
    data = importlib.import_module("btckit.data")
    state.update({("ScalingParams", k): v for k, v in vars(data.ScalingParams).items()})
    return state


def test_install_wraps_every_binding_and_restore_puts_back_the_originals():
    before = snapshot()
    btc = importlib.import_module("btckit.btc")
    cli = importlib.import_module("btckit.cli")
    spatial = importlib.import_module("btckit.spatial")
    t = tracer.Tracer()
    t.install()
    try:
        for module in (btc, cli, spatial):
            assert module.btc_classify is not before[(module.__name__, "btc_classify")]
        data = importlib.import_module("btckit.data")
        assert vars(data.ScalingParams)["apply"] is not before[("ScalingParams", "apply")]
        d = data.build_dictionary(np.eye(3), np.array([1, 2, 3]))
        cli.btc_classify(d, np.array([1.0, 0.2, 0.0]), btc.BtcParams(m=2, alpha=0.01))
    finally:
        t.restore()
    after = snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    by_sid = {s.sid: s for s in t.spans}
    names = {s.name: s for s in t.spans}
    assert by_sid[names["linalg.solve_spd_regularized"].parent].name == "btc.btc_classify"
    assert by_sid[names["linalg.top_m_select"].parent].name == "btc.btc_classify"


def fake_passes(workload, traced_seconds, untraced_seconds):
    n = len(workload.calls)
    layers = {name: (7, 0.25) for name in tracer.LAYER_NAMES}
    traced = {
        "traced": True,
        "calls": [{"rc": 0, "s": traced_seconds / n, "cpu": 0}] * n,
        "layers": {"pass": layers, "per_call": [layers] * n},
    }
    untraced = {"traced": False, "calls": [{"rc": 0, "s": untraced_seconds / n, "cpu": 0}] * n}
    return [untraced, traced]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_workload_reports_the_declared_metrics(name, tmp_path):
    workload = workloads.WORKLOADS[name](str(tmp_path), seed=3)
    declared = spec()

    metrics = run.layer_metrics(workload, fake_passes(workload, 11.0, 10.0))
    assert set(metrics) == {m["name"] for m in declared["per_layer"]}
    assert metrics["trace.overhead"]["value"] == pytest.approx(0.1)

    untraced = fake_passes(workload, 11.0, 10.0)[:1]
    metrics = run.end_to_end_metrics(0.5, 2048, untraced)
    assert set(metrics) == {m["name"] for m in declared["end_to_end"]}
    assert all(m["value"] > 0 for m in metrics.values())
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    assert all(units[k] == v["unit"] for k, v in metrics.items())


def test_pass_seconds_weighs_cpus_equally_and_reads_a_partial_last_pass():
    def untraced(p, *secs):
        return {"traced": False, "calls": [{"rc": 0, "s": s, "cpu": (p + i) % 2} for i, s in enumerate(secs)]}

    passes = [untraced(0, 1.0, 10.0), untraced(1, 3.0, 14.0), untraced(2, 2.0, 12.0), untraced(3, 9.0)]
    # call 0: cpu 0 ran 1.0 and 2.0 (median 1.5), cpu 1 ran 3.0 and 9.0 (median 6.0)
    assert run.call_seconds(passes, 0) == pytest.approx(3.75)
    # call 1: cpu 1 ran 10.0 and 12.0 (median 11.0), cpu 0 ran 14.0
    assert run.call_seconds(passes, 1) == pytest.approx(12.5)
    assert run.pass_seconds(passes) == pytest.approx(16.25)


def test_generators_repeat_for_a_seed():
    a = gen.make_blocky_scene(5, 20, 24, 8, 4, 0.1, 6)
    b = gen.make_blocky_scene(5, 20, 24, 8, 4, 0.1, 6)
    c = gen.make_blocky_scene(6, 20, 24, 8, 4, 0.1, 6)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    assert not np.array_equal(a[0], c[0])
    assert (a[1][5] == 0).all() and set(np.unique(a[1][a[1] > 0])) == {1, 2, 3, 4}
    mask = gen.make_train_mask(a[1], 3, 1)
    assert all((mask == k).sum() == 3 for k in (1, 2, 3, 4))
    assert np.array_equal(gen.make_rings(10, 5, 0.05, 2)[0], gen.make_rings(10, 5, 0.05, 2)[0])


def test_oracle_matches_btckit_on_a_small_problem():
    from btckit import (
        BtcParams, KbtcParams, KernelSpec, btc_beta_average, btc_classify, build_dictionary,
        kbtc_beta_average_m, kbtc_classify, kernel_cache,
    )
    from btckit.data import NORM_RANGE

    x, y, centers = gen.make_blobs(8, 3, 12, 1.0, 1)
    xt, _ = gen.sample_blobs(centers, 4, 1.0, 2)
    d = build_dictionary(x, y)
    got = [btc_classify(d, s, BtcParams(m=5, alpha=0.01))[0].predicted_class for s in xt]
    assert np.array_equal(oracle.btc_labels(x, y, xt, 5, 0.01), got)
    assert oracle.btc_beta(x, y, 4, 0.01) == pytest.approx(btc_beta_average(d, 4, 0.01), abs=1e-12)

    dr = build_dictionary(x, y, NORM_RANGE)
    params = KbtcParams(m=5, alpha=0.01, spec=KernelSpec(gamma=0.5))
    cache = kernel_cache(dr, params.spec)
    got = [kbtc_classify(dr, s, params, cache)[0].predicted_class for s in dr.scaling.apply(xt)]
    assert np.array_equal(oracle.kbtc_labels(x, y, xt, 5, 0.01, 0.5), got)
    ref = kbtc_beta_average_m(dr, cache, 4, 0.01)
    assert oracle.kbtc_beta(x, y, 4, 0.01, 0.5) == pytest.approx(ref, abs=1e-12)
