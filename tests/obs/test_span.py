"""Span attribution: every traced event names the plan instruction behind it."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.sort import hyperquicksort_expression, seq_quicksort
from repro.core import parmap, partition
from repro.core.partition import Block
from repro.machine import AP1000, Hypercube, Machine
from repro.machine.trace import Span
from repro.obs.analyze import top_instruction_frame
from repro.scl.compile import run_expression


def traced_hyperquicksort(d=2, n=256, **machine_kw):
    p = 1 << d
    expr = hyperquicksort_expression(d)
    rng = np.random.default_rng(7)
    values = rng.integers(0, 2**31, size=n).astype(np.int32)
    blocks = parmap(seq_quicksort, partition(Block(p), values))
    machine = Machine(Hypercube(d), spec=AP1000, record_trace=True,
                      **machine_kw)
    out, res = run_expression(expr, blocks, machine, label="hyperquicksort")
    merged = np.concatenate([np.asarray(b) for b in out])
    assert np.array_equal(merged, np.sort(values))
    return res


class TestSpan:
    def test_frames_root_first(self):
        root = Span("prog")
        mid = Span("loop", instr=0, parent=root)
        leaf = Span("iter 1", iteration=1, parent=mid)
        assert [f.label for f in leaf.frames()] == ["prog", "loop", "iter 1"]
        assert leaf.root is root
        assert leaf.path() == "prog/loop/iter 1"
        assert str(leaf) == "prog/loop/iter 1"

    def test_single_frame(self):
        s = Span("only")
        assert s.frames() == (s,)
        assert s.root is s


class TestCompiledAttribution:
    def test_every_event_carries_an_instruction_span(self):
        res = traced_hyperquicksort()
        events = res.trace.events()
        assert events, "traced run recorded no events"
        for e in events:
            assert e.span is not None, f"unattributed event {e}"
            assert e.span.root.label == "hyperquicksort"
            frame = top_instruction_frame(e.span)
            assert frame is not None, f"no instruction frame on {e}"
            assert frame.instr is not None

    def test_loop_iterations_attributed(self):
        res = traced_hyperquicksort(d=2)
        iters = {f.iteration
                 for e in res.trace.events()
                 for f in e.span.frames() if f.iteration is not None}
        assert iters == {0, 1}  # d=2 -> two merge-split rounds

    def test_untraced_run_has_no_span_machinery(self):
        p = 4
        machine = Machine(Hypercube(2), spec=AP1000)

        def prog(env):
            assert not env.tracing
            with env.span("ignored"):  # no-op scope on untraced machines
                yield env.work(ops=10)
            return env.pid

        res = machine.run(prog)
        assert res.values == list(range(p))
        assert res.trace is None

    def test_env_span_on_raw_program(self):
        machine = Machine(2, spec=AP1000, record_trace=True)

        def prog(env):
            assert env.tracing
            with env.span("phase-a"):
                yield env.work(ops=10)
            with env.span("phase-b", instr=7):
                yield env.work(ops=10)
            return None

        res = machine.run(prog)
        for pid in (0, 1):
            computes = res.trace.events(pid=pid, kind="compute")
            assert [e.span.label for e in computes] == ["phase-a", "phase-b"]
            assert computes[1].span.instr == 7

    def test_span_restored_after_scope(self):
        machine = Machine(1, spec=AP1000, record_trace=True)

        def prog(env):
            with env.span("outer"):
                with env.span("inner"):
                    yield env.work(ops=1)
                yield env.work(ops=1)
            yield env.work(ops=1)
            return None

        res = machine.run(prog)
        paths = [e.span.path() if e.span else None
                 for e in res.trace.events(kind="compute")]
        assert paths == ["outer/inner", "outer", None]

    def test_tracing_identical_virtual_results(self):
        # span bookkeeping must not perturb the simulation itself
        res_traced = traced_hyperquicksort(d=2)
        p = 4
        expr = hyperquicksort_expression(2)
        rng = np.random.default_rng(7)
        values = rng.integers(0, 2**31, size=256).astype(np.int32)
        blocks = parmap(seq_quicksort, partition(Block(p), values))
        machine = Machine(Hypercube(2), spec=AP1000)
        _out, res_plain = run_expression(expr, blocks, machine,
                                         label="hyperquicksort")
        assert res_plain.makespan == res_traced.makespan
        assert res_plain.total_messages == res_traced.total_messages


class TestFaultTolerantAttribution:
    def test_ft_execution_tags_drain_and_instructions(self):
        from repro.faults.models import FaultInjector, FaultSpec
        from repro.faults.plan_exec import run_expression_ft

        d, n = 2, 256
        p = 1 << d
        expr = hyperquicksort_expression(d)
        rng = np.random.default_rng(7)
        values = rng.integers(0, 2**31, size=n).astype(np.int32)
        blocks = parmap(seq_quicksort, partition(Block(p), values))
        machine = Machine(Hypercube(d), spec=AP1000, record_trace=True,
                          faults=FaultInjector(FaultSpec(seed=5,
                                                         drop_rate=0.05)))
        out, res = run_expression_ft(expr, blocks, machine,
                                     label="hyperquicksort")
        merged = np.concatenate([np.asarray(b) for b in out])
        assert np.array_equal(merged, np.sort(values))
        roots = {e.span.root.label for e in res.trace.events()
                 if e.span is not None}
        assert roots <= {"hyperquicksort", "drain"}
        assert "hyperquicksort" in roots
        # fault-layer events (retransmit/timeout/drop) are attributed too
        for e in res.trace.events():
            if e.kind in ("retransmit", "timeout"):
                assert e.span is not None

    def test_nested_group_spans_match_the_direct_transport(self):
        # a SubPlan inside a Loop (and a Loop inside that SubPlan): both
        # transports ride one walker, so the span paths are the same set
        from repro.core.pararray import ParArray
        from repro.faults.models import FaultInjector, FaultSpec
        from repro.faults.plan_exec import run_expression_ft
        from repro.machine.topology import FullyConnected
        from repro.scl import (Combine, IterFor, Map, Rotate, Split,
                               compose_nodes)

        inner = IterFor(2, lambda j: compose_nodes(Map(lambda x: x + 1),
                                                   Rotate(j + 1)))
        expr = IterFor(2, lambda i: compose_nodes(Combine(), Map(inner),
                                                  Split(Block(2))))
        pa = ParArray(list(range(8)))

        def span_paths(run, **machine_kw):
            machine = Machine(FullyConnected(8), spec=AP1000,
                              record_trace=True, **machine_kw)
            out, res = run(expr, pa, machine, label="nest")
            events = res.trace.events()
            assert all(e.span is not None for e in events)
            return list(out), {
                tuple((f.label, f.instr, f.iteration)
                      for f in e.span.frames()) for e in events}

        want, direct = span_paths(run_expression)
        got, reliable = span_paths(run_expression_ft,
                                   faults=FaultInjector(FaultSpec()))
        assert got == want
        assert reliable == direct | {(("drain", None, None),)}
        # the nesting really is label → loop → iter → subplan → loop → iter
        assert max(len(path) for path in direct) == 7
        assert any(f[0] == "subplan" for path in direct for f in path)
