"""The traced walk against the traced interpreter, event by event.

On a traced, fault-free, multi-port machine ``run_expression``'s plan is
walked (:func:`repro.plan.vexec.precompute` on a
:class:`~repro.machine.lockstep.Lockstep` timeline that carries the run's
trace) instead of interpreted by p generators on the per-event engine.
The oracle is that engine: the same program on ``Machine(record_trace=True,
batch=False)``.  Per processor the two traces must be equal — kind,
start, end, detail and span of every event, in order — and so must the
trace's length, the values, every ``ProcStats`` field, ``events`` and the
makespan.  The one permitted difference is the global interleaving of the
events, which decides the order a streaming sink sees them in and which
events a ring buffer keeps; the last tests pin what that does and does
not change for the sinks and for :mod:`repro.obs.analyze`.
"""

from __future__ import annotations

import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pararray import ParArray
from repro.core.partition import Block
from repro.machine import AP1000, Machine
from repro.machine.topology import FullyConnected, Hypercube
from repro.obs import analyze
from repro.obs.sinks import MemorySink
from repro.plan import ir
from repro.plan.lower import clear_plan_cache, lower
from repro.plan.opt import OptConfig
from repro.scl import (
    ApplyBrdcast,
    Brdcast,
    Combine,
    Fold,
    IMap,
    IterFor,
    Map,
    Rotate,
    Scan,
    Split,
    compose_nodes,
)
from repro.scl.compile import run_expression
from tests.plan.test_opt_properties import _collapse, _dbl, _inc
from tests.plan.test_vexec import (
    CASES,
    TOPOLOGIES,
    _gauss_jordan,
    _hyperquicksort,
    assert_identical_runs,
    walks_recorded,
)


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


def run_traced(expr, pa, topology, **machine_kw):
    """``(walk run, interpreter run)`` of ``expr`` on fresh traced
    machines, having checked that the first was walked to the end."""
    with walks_recorded() as outcomes:
        runs = [run_expression(expr, pa, Machine(topology(pa.size),
                                                 spec=AP1000, **kw))[1]
                for kw in ({"record_trace": True, **machine_kw},
                           {"record_trace": True, "batch": False,
                            **machine_kw})]
    assert len(outcomes) == 1 and outcomes[0] is not None
    return runs


def assert_identical_traces(res_walk, res_interp) -> None:
    """Everything ``assert_identical_runs`` checks, plus each processor's
    event sequence."""
    assert_identical_runs(res_walk, res_interp)
    assert len(res_walk.trace) == len(res_interp.trace) == res_walk.events
    for pid in range(res_walk.nprocs):
        assert res_walk.trace.events(pid=pid) \
            == res_interp.trace.events(pid=pid), pid


# -- the oracle -----------------------------------------------------------------

@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
@pytest.mark.parametrize("case", CASES)
def test_traced_walk_records_the_interpreters_events(case, topology):
    expr, pa = CASES[case]()
    res_walk, res_interp = run_traced(expr, pa, TOPOLOGIES[topology])
    assert res_walk.total_messages > 0
    assert_identical_traces(res_walk, res_interp)


def _loop_body(i):
    # two maps that plan.opt fuses into one kernel, then a rotate
    return compose_nodes(Map(_dbl), Map(_inc), Rotate(i + 1))


@st.composite
def traced_programs(draw):
    """Flat chains over every collective kind at any p up to 8 (most of
    them not powers of two), with fused kernels inside loops."""
    p = draw(st.integers(2, 8))
    leaf = st.one_of(
        st.sampled_from([Map(_inc), compose_nodes(Map(_inc), Map(_dbl)),
                         IMap(lambda i, x: x + i),
                         compose_nodes(Map(_collapse), Brdcast(17.0)),
                         Scan(operator.add)]),
        st.integers(0, p - 1).map(lambda root: compose_nodes(
            Map(_collapse), ApplyBrdcast(_dbl, root))),
        st.integers(-4, 4).map(Rotate),
        st.integers(1, 3).map(lambda k: IterFor(k, _loop_body)),
    )
    steps = draw(st.lists(leaf, min_size=1, max_size=4))
    if draw(st.booleans()):
        steps.insert(0, Fold(operator.add))
    return p, compose_nodes(*steps)


@settings(max_examples=60, deadline=None)
@given(prog=traced_programs(), topology=st.sampled_from(["full", "ring"]))
def test_random_flat_plans_trace_identically(prog, topology):
    p, expr = prog
    clear_plan_cache()
    pa = ParArray([float(3 * r + 1) for r in range(p)])
    assert_identical_traces(*run_traced(expr, pa, TOPOLOGIES[topology]))


def test_a_fused_kernel_in_a_loop_is_one_compute_event_per_iteration():
    p, k = 6, 3
    expr = IterFor(k, _loop_body)
    plan = lower(expr, p, opt=OptConfig.for_machine(
        Machine(FullyConnected(p), spec=AP1000)))
    (loop,) = plan.instrs
    applies = [[i for i in body if isinstance(i, ir.LocalApply)]
               for body in loop.bodies]
    assert all(len(a) == 1 and isinstance(a[0].fn, ir.FusedKernel)
               for a in applies)
    pa = ParArray([float(r) for r in range(p)])
    res_walk, res_interp = run_traced(expr, pa, FullyConnected)
    assert_identical_traces(res_walk, res_interp)
    computes = res_walk.trace.events(pid=0, kind="compute")
    assert [(e.span.label, e.span.parent.label, e.span.root.label)
            for e in computes] \
        == [(ir.instr_title(a), f"iter {it}", "program")
            for it, (a,) in enumerate(applies)]


# -- sinks, the ring buffer and the decline path --------------------------------

def test_a_memory_sink_sees_each_event_of_a_traced_walk_once():
    expr, pa = _hyperquicksort(3)
    sinks = [MemorySink(), MemorySink()]
    res_walk, res_interp = [
        run_expression(expr, pa, Machine(Hypercube.of_size(pa.size),
                                         spec=AP1000, trace_sink=sink, **kw))[1]
        for sink, kw in zip(sinks, ({}, {"batch": False}))]
    assert_identical_traces(res_walk, res_interp)
    walked, interpreted = sinks
    assert walked.events == list(res_walk.trace)
    # the same events per processor, in another global order
    for pid in range(pa.size):
        assert [e for e in walked.events if e.pid == pid] \
            == [e for e in interpreted.events if e.pid == pid]


@pytest.mark.parametrize("limit", [1, 50, 10**6])
def test_a_ring_buffer_drops_as_many_events_as_the_interpreters(limit):
    expr, pa = _hyperquicksort(3)
    res_walk, res_interp = run_traced(expr, pa, Hypercube.of_size,
                                      trace_limit=limit)
    assert_identical_runs(res_walk, res_interp)
    assert len(res_walk.trace) == len(res_interp.trace) \
        == min(limit, res_walk.events)
    assert res_walk.trace.dropped == res_interp.trace.dropped \
        == max(0, res_walk.events - limit)


def test_a_declined_group_plan_emits_each_event_once():
    expr = compose_nodes(Combine(), Map(compose_nodes(Map(_inc), Rotate(1))),
                         Split(Block(2)))
    pa = ParArray([float(r) for r in range(8)])
    assert any(isinstance(i, ir.GroupSplit) for i in lower(expr, 8).instrs)
    sink, oracle = MemorySink(), MemorySink()
    with walks_recorded() as outcomes:
        _, res = run_expression(expr, pa, Machine(FullyConnected(8),
                                                  spec=AP1000, trace_sink=sink))
    assert outcomes == [None]  # offered, declined, interpreted
    _, want = run_expression(expr, pa, Machine(
        FullyConnected(8), spec=AP1000, trace_sink=oracle, batch=False))
    assert sink.events == list(res.trace) == oracle.events
    assert len(sink.events) == res.events > 0


# -- what obs.analyze makes of the two traces -----------------------------------

def _rollups_agree(got, want) -> None:
    """Rollups equal but for their float sums of durations, which add in
    record order and so may differ in the last bits."""
    assert got.keys() == want.keys()
    for key in got:
        a, b = got[key], want[key]
        assert (a.label, a.events, a.messages, a.bytes, a.t_start, a.t_end) \
            == (b.label, b.events, b.messages, b.bytes, b.t_start, b.t_end)
        assert a.seconds == pytest.approx(b.seconds, rel=1e-12)
        assert a.seconds_by_kind.keys() == b.seconds_by_kind.keys()
        for kind in a.seconds_by_kind:
            assert a.seconds_by_kind[kind] \
                == pytest.approx(b.seconds_by_kind[kind], rel=1e-12)


ANALYSED = {
    "hyperquicksort-d2": lambda: _hyperquicksort(2),
    "hyperquicksort-d4": lambda: _hyperquicksort(4),
    "hyperquicksort-d6": lambda: _hyperquicksort(6, nkeys=4096),
    "gauss-jordan": _gauss_jordan,
}


@pytest.mark.parametrize("case", ANALYSED)
def test_analysis_of_the_walks_trace_agrees(case):
    expr, pa = ANALYSED[case]()
    res_walk, res_interp = run_traced(expr, pa, Hypercube.of_size)
    assert_identical_traces(res_walk, res_interp)
    got, want = res_walk.trace, res_interp.trace
    cp_got = analyze.critical_path(got, spec=AP1000)
    cp_want = analyze.critical_path(want, spec=AP1000)
    assert cp_got.steps == cp_want.steps
    assert cp_got.by_category() == cp_want.by_category()
    assert cp_got.length == res_walk.makespan
    _rollups_agree(analyze.by_instruction(got), analyze.by_instruction(want))
    _rollups_agree(analyze.by_iteration(got), analyze.by_iteration(want))
    assert analyze.idle_attribution(got, spec=AP1000) \
        == analyze.idle_attribution(want, spec=AP1000)
