"""Self-tests of the benchmark harness (not of the system under test).

Outside tier-1 ``testpaths``; run with ``python -m pytest benchmarks/e2e -q``
from the repository root.
"""

from __future__ import annotations

import importlib
import os
import sys
import threading

import pytest

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
for _path in (os.path.join(_ROOT, "src"), _ROOT):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from benchmarks.e2e import compare as C  # noqa: E402
from benchmarks.e2e import harness, metrics  # noqa: E402
from benchmarks.e2e.spans import (  # noqa: E402
    LAYERS,
    Span,
    Tracer,
    layer_totals,
    self_times,
)
from benchmarks.e2e.timing import (  # noqa: E402
    REF_NOMINAL_MS,
    SPREAD_BLOCKS,
    ReferenceKernel,
    normalise,
    quartiles,
    summary,
)


# -- normaliser ---------------------------------------------------------------

def test_normalise_is_identity_on_a_nominal_host():
    assert normalise(80.0, [REF_NOMINAL_MS, REF_NOMINAL_MS]) == 80.0


def test_normalise_cancels_a_uniform_slowdown():
    fast = normalise(80.0, [3.0, 4.0, 5.0])
    slow = normalise(160.0, [6.0, 8.0, 10.0])
    assert fast == pytest.approx(slow)
    assert fast == pytest.approx(80.0 * REF_NOMINAL_MS / 4.0)


def test_reference_kernel_samples_at_least_once_and_until_the_budget():
    kernel = ReferenceKernel()
    assert len(kernel.sample(0.0)) == 1
    runs = kernel.sample(30.0)
    assert sum(runs) >= 30.0 > sum(runs[:-1])


def test_quartiles_and_summary():
    assert quartiles([5.0]) == (5.0, 5.0, 5.0)
    assert quartiles([]) == (0.0, 0.0, 0.0)
    record = summary([1.0, 2.0, 3.0, 4.0, 5.0], "ms")
    assert record["value"] == 3.0 and record["n"] == 5
    assert record["q1"] < record["value"] < record["q3"]
    assert record["unit"] == "ms" and record["spread"] == 0.0


def test_summary_spread_follows_the_block_medians_not_the_samples():
    # every block of 4 has the same median, however wild its samples
    steady = [10.0, 50.0, 90.0, 50.0] * SPREAD_BLOCKS
    assert summary(steady, "ms")["spread"] == 0.0
    # the run drifts: later blocks are slower
    drifting = [100.0 + 10.0 * (i // 4) for i in range(4 * SPREAD_BLOCKS)]
    # block medians 100..170: quartiles 112.5 and 157.5 around a median of 135
    assert summary(drifting, "ms")["spread"] == pytest.approx(45.0 / 135.0)


# -- span self time -------------------------------------------------------------

def _span(sid, layer, start, end, parent=None):
    return Span(sid, layer, layer, start, end, parent, 0)


def test_self_time_nested_and_siblings():
    spans = [
        _span(0, "root", 0.0, 10.0),
        _span(1, "a", 1.0, 4.0, parent=0),
        _span(2, "b", 5.0, 9.0, parent=0),
        _span(3, "c", 6.0, 7.0, parent=2),
    ]
    selfs = self_times(spans)
    assert selfs == {0: pytest.approx(3.0), 1: pytest.approx(3.0),
                     2: pytest.approx(3.0), 3: pytest.approx(1.0)}
    # self times partition the root's interval
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_self_time_cross_thread_children_are_clipped_and_merged():
    spans = [
        _span(0, "submit", 0.0, 2.0),
        # two workers, overlapping each other and outliving the parent
        _span(1, "execute", 1.0, 5.0, parent=0),
        _span(2, "execute", 1.5, 6.0, parent=0),
        # a child that starts after the parent ended covers nothing
        _span(3, "execute", 3.0, 4.0, parent=0),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(1.0)
    assert selfs[1] == pytest.approx(4.0)


def test_layer_totals_do_not_double_count_reentry():
    spans = [
        _span(0, "plan.lower", 0.0, 10.0),
        _span(1, "plan.opt", 2.0, 3.0, parent=0),
        _span(2, "plan.lower", 4.0, 8.0, parent=0),
    ]
    totals = layer_totals(spans)
    assert totals["plan.lower"]["calls"] == 2
    assert totals["plan.lower"]["total_ms"] == pytest.approx(10_000.0)
    assert totals["plan.lower"]["self_ms"] == pytest.approx(9_000.0)
    assert totals["plan.opt"]["total_ms"] == pytest.approx(1_000.0)


# -- wrapper install / uninstall ------------------------------------------------

def _bindings():
    """Every (module, global) pair in repro and this package, by identity."""
    for targets in LAYERS.values():  # install() imports these lazily
        for modname, _attr in targets:
            importlib.import_module(modname)
    return {(name, key): id(value)
            for name, module in list(sys.modules.items())
            if module is not None
            and name.startswith(("repro", "benchmarks.e2e"))
            for key, value in list(vars(module).items())}


def _methods():
    import repro.machine.simulator as simulator
    import repro.serve.service as service

    return {"Machine.run": simulator.Machine.__dict__["run"],
            "Service.submit": service.Service.__dict__["submit"]}


def test_install_rebinds_and_uninstall_restores_everything():
    import repro.scl.compile as scl_compile

    before, methods = _bindings(), _methods()
    original = scl_compile.run_expression
    tracer = Tracer()
    tracer.install()
    try:
        assert scl_compile.run_expression is not original
        assert scl_compile.run_expression.__wrapped__ is original
        # names imported *from* the defining module are rebound too
        from benchmarks.e2e import workloads
        assert workloads.run_expression is scl_compile.run_expression
        assert _methods()["Machine.run"] is not methods["Machine.run"]
    finally:
        tracer.uninstall()
    assert _bindings() == before
    assert all(_methods()[k] is v for k, v in methods.items())
    assert not tracer.absent


def test_install_tolerates_an_absent_attribute():
    layers = dict(LAYERS)
    layers["plan.lower"] = (("repro.plan.lower", "lower"),
                            ("repro.plan.lower", "deleted_in_a_later_pr"))
    layers["gone"] = (("repro.plan.no_such_module", "f"),
                      ("repro.plan.vexec", "NoSuchClass.method"))
    before = _bindings()
    with Tracer(layers) as tracer:
        assert tracer.absent == {"gone"}
    assert _bindings() == before


def test_wrappers_record_parents_and_threads():
    import repro.machine.cost as cost

    with Tracer({"outer": (("repro.machine.cost", "estimate_nbytes"),)}) as tracer:
        tracer.ident = 7
        cost.estimate_nbytes([1.0, 2.0])
        worker = threading.Thread(target=cost.estimate_nbytes, args=(3.0,))
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        spans, _probed = tracer.drain()
    assert [s.layer for s in spans] == ["outer", "outer"]
    assert all(s.parent is None and s.ident == 7 and s.end >= s.start
               for s in spans)


# -- compare ----------------------------------------------------------------------

def _result(**workloads):
    return {"workloads": {
        name: {"metrics": {metric: {"value": v, "q1": v, "q3": v, "n": 9,
                                    "spread": spread}
                           for metric, (v, spread) in recs.items()}}
        for name, recs in workloads.items()}}


def _verdicts(base, new):
    return {(r.metric, r.workload): r.verdict for r in C.compare(base, new)}


def test_compare_verdicts():
    base = _result(
        sort_warm={"iter_ms": (100.0, 0.02), "makespan_s": (0.5, 0.0),
                   "failed_share": (0.0, 0.0)},
        gauss_warm={"iter_ms": (100.0, 0.02)},
        tune_cold={"iter_ms": (100.0, 0.02)},
        engine_raw={"iter_ms": (100.0, 0.20)},
        sort_traced={"iter_ms": (100.0, 0.20)},
        serve_burst={"burst_rps": (1000.0, 0.02)})
    new = _result(
        sort_warm={"iter_ms": (110.0, 0.02),         # inside the 15% bound
                   "makespan_s": (0.5000000001, 0.0),  # exact: any rise
                   "failed_share": (0.0, 0.0)},
        gauss_warm={"iter_ms": (120.0, 0.02)},       # past the bound
        tune_cold={"iter_ms": (80.0, 0.02)},         # better by more
        engine_raw={"iter_ms": (120.0, 0.20)},       # too noisy to say
        sort_traced={"iter_ms": (40.0, 0.20)},       # noisy, but far apart
        serve_burst={"burst_rps": (800.0, 0.02)})    # higher is better
    verdicts = _verdicts(base, new)
    assert verdicts == {
        ("iter_ms", "sort_warm"): "unchanged",
        ("iter_ms", "gauss_warm"): "regressed",
        ("iter_ms", "tune_cold"): "improved",
        ("iter_ms", "engine_raw"): "unresolved",
        ("iter_ms", "sort_traced"): "improved",
        ("burst_rps", "serve_burst"): "regressed",
        ("makespan_s", "sort_warm"): "regressed",
        ("failed_share", "sort_warm"): "unchanged",
    }
    assert C.failed(C.compare(base, new))
    assert not C.failed(C.compare(base, base))
    assert "regressed" in C.render(C.compare(base, new), "a", "b")


def test_compare_fails_on_any_rise_in_failed_share():
    base = _result(sort_warm={"failed_share": (0.0, 0.0)})
    new = _result(sort_warm={"failed_share": (0.01, 0.0)})
    assert C.failed(C.compare(base, new))


# -- the workloads themselves -----------------------------------------------------

@pytest.mark.parametrize("name", metrics.ALL)
def test_workload_reports_every_metric_and_passes(name):
    workload = harness.ready(name, metrics.DEFAULT_SEED)
    try:
        untraced = harness.measure(workload, seconds=0, iterations=2)
        e2e = harness.end_to_end(workload, untraced, [0.5])
        tracer = Tracer()
        with tracer:
            traced = harness.measure(workload, seconds=0, iterations=2,
                                     tracer=tracer)
        layers = harness.per_layer(workload, traced, untraced,
                                   harness.count_pycalls(workload))
    finally:
        workload.close()
    expected = {m.name for m in metrics.END_TO_END if name in m.workloads}
    assert expected <= set(e2e)
    assert set(metrics.DRIVER_END_TO_END) <= set(e2e)
    assert all(e2e[m]["value"] > 0 for m in metrics.DRIVER_END_TO_END)
    assert e2e["failed_share"]["value"] == 0
    assert untraced.iterations == traced.iterations == 2
    assert e2e["makespan_s"]["value"] > 0 and e2e["messages"]["value"] > 0
    assert set(layers) == set(metrics.PER_LAYER)
    assert layers["machine.calls"] > 0 and layers["machine.self_ms"] > 0
    assert layers["failed_share"] == 0
    assert layers["makespan_s"] == e2e["makespan_s"]["value"]
    if workload.single_threaded:
        assert layers["pycalls.total"] > 0
    assert not tracer.absent


def test_a_wrong_output_is_counted_as_failed():
    workload = harness.ready("gauss_warm", metrics.DEFAULT_SEED)
    good = workload.iterate

    def wrong():
        x, result = good()
        return x + 1.0, result

    workload.iterate = wrong
    m = harness.measure(workload, seconds=0, iterations=3)
    assert (m.attempted, m.failed) == (3, 3)
    assert harness.end_to_end(workload, m, [0.5])["failed_share"]["value"] == 1


def test_an_iteration_that_raises_is_counted_as_failed():
    workload = harness.ready("gauss_warm", metrics.DEFAULT_SEED)

    def broken():
        raise RuntimeError("boom")

    workload.iterate = broken
    m = harness.measure(workload, seconds=0, iterations=2)
    assert (m.attempted, m.failed, m.iterations) == (2, 2, 2)
