"""Regression guard: simulation results are a pure function of the input.

Two runs of the same program on the same machine must agree bit-for-bit —
values, stats, makespan and the full trace — even when the program contains
ANY-wildcard races whose outcome a real machine would leave to chance.
The simulator resolves those races deterministically (earliest delivered
candidate, ties by send sequence), so any run-to-run divergence means
hidden mutable state leaked into the engine.
"""

from __future__ import annotations

import numpy as np

from repro.machine import AP1000, Machine
from repro.machine.events import ANY
from repro.machine.topology import FullyConnected, Hypercube, Ring


def _racy_funnel(env):
    """All-to-one ANY/ANY traffic with arrival-order inversions."""
    if env.pid == 0:
        out = []
        for _ in range(2 * (env.nprocs - 1)):
            msg = yield env.recv(ANY, tag=ANY)
            out.append((msg.src, msg.tag, msg.seq))
        return out
    yield env.work(ops=37 * env.pid)
    yield env.send(0, "bulk", tag=1, nbytes=50_000)
    yield env.send(0, "probe", tag=2, nbytes=2)
    return None


def _run_twice(machine_factory, program):
    r1 = machine_factory().run(program)
    r2 = machine_factory().run(program)
    assert r1.makespan == r2.makespan
    assert r1.values == r2.values
    assert r1.stats == r2.stats
    t1 = None if r1.trace is None else list(r1.trace)
    t2 = None if r2.trace is None else list(r2.trace)
    assert t1 == t2
    return r1


class TestDeterminism:
    def test_wildcard_races_with_trace(self):
        res = _run_twice(
            lambda: Machine(FullyConnected(9), spec=AP1000, record_trace=True),
            _racy_funnel)
        # the ANY/ANY drain really did see interleaved sources
        assert len(res.values[0]) == 16

    def test_wildcard_races_single_port(self):
        _run_twice(
            lambda: Machine(FullyConnected(6), spec=AP1000, single_port=True,
                            record_trace=True),
            _racy_funnel)

    def test_ring_sweep_double_run(self):
        p, rounds = 32, 30

        def sweep(env):
            right = (env.pid + 1) % env.nprocs
            left = (env.pid - 1) % env.nprocs
            for r in range(rounds):
                yield env.work(ops=50)
                yield env.send(right, r, tag=1, nbytes=64)
                yield env.recv(left, tag=1)
            return None

        res = _run_twice(lambda: Machine(Ring(p), spec=AP1000), sweep)
        # every processor sends and receives one message per round
        assert res.total_messages == p * rounds
        assert sum(s.msgs_received for s in res.stats) == p * rounds

    def test_hyperquicksort_double_run(self):
        from repro.apps.sort import hyperquicksort_machine

        values = np.random.default_rng(23).integers(0, 5_000, size=2_000)
        out1, res1 = hyperquicksort_machine(values, 4, record_trace=True)
        out2, res2 = hyperquicksort_machine(values, 4, record_trace=True)
        assert np.array_equal(out1, out2)
        assert res1.makespan == res2.makespan
        assert res1.stats == res2.stats
        assert list(res1.trace) == list(res2.trace)

    def test_fresh_machine_instances_agree(self):
        """Same topology parameters on fresh objects give identical runs
        (guards the shared hop-row caches against cross-run leakage)."""

        def program(env):
            dst = (env.pid + 3) % env.nprocs
            src = (env.pid - 3) % env.nprocs
            yield env.send(dst, env.pid, tag=1, nbytes=64)
            msg = yield env.recv(src, tag=1)
            return msg.payload

        r1 = Machine(Hypercube(4), spec=AP1000).run(program)
        r2 = Machine(Hypercube(4), spec=AP1000).run(program)
        assert r1.makespan == r2.makespan
        assert r1.values == r2.values
        assert r1.stats == r2.stats
