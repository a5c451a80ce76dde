"""Tests for the single-port contention model.

With ``single_port=True`` each processor transmits one message at a time
and receives one at a time — the standard one-port full-duplex model of
collective-algorithm analysis.  These tests check the phenomena the model
exists to expose: serialisation at hot receivers/senders, the linear-vs-
tree broadcast gap, and that the Table 1 shape survives contention.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from repro.errors import MachineError
from repro.faults import FaultInjector, FaultSpec
from repro.machine import (AP1000, Comm, FullyConnected, Hypercube, Machine,
                           MachineSpec, collectives as C)
from repro.machine.plan_exec import execute_plan
from repro.plan import ir, vexec
from repro.scl.compile import base_fragment

BW_SPEC = MachineSpec(name="bw", flop_time=1e-7, latency=1e-6,
                      bandwidth=1e6, per_hop_latency=0.0,
                      send_overhead=0.0, recv_overhead=0.0, word_bytes=8)
NBYTES = 100_000  # 0.1 s of wire time on BW_SPEC


class TestSenderSerialisation:
    def test_fan_out_serialises_on_sender_port(self):
        """p0 sending to 4 receivers back-to-back: with one port the last
        arrival is ~4 wire-times; without, all overlap."""

        def prog(env):
            if env.pid == 0:
                for dst in range(1, 5):
                    yield env.send(dst, None, nbytes=NBYTES)
                return None
            msg = yield env.recv(0)
            return env.now

        wire = NBYTES / BW_SPEC.bandwidth
        free = Machine(5, spec=BW_SPEC).run(prog)
        port = Machine(5, spec=BW_SPEC, single_port=True).run(prog)
        assert free.makespan == pytest.approx(wire, rel=0.01)
        assert port.makespan == pytest.approx(4 * wire, rel=0.01)


class TestNegativeSize:
    @pytest.mark.parametrize("single_port", [False, True])
    @pytest.mark.parametrize("injector", [None, "zero-rate"])
    def test_negative_nbytes_is_rejected_on_every_port_model(
            self, single_port, injector):
        """A negative wire size is an error before any port is reserved —
        not a message that arrives before it was sent."""

        def prog(env):
            if env.pid == 0:
                yield env.send(1, "x", nbytes=-4000)
            else:
                yield env.recv(0)

        faults = None if injector is None else FaultInjector(FaultSpec())
        machine = Machine(Hypercube(1), spec=AP1000, single_port=single_port,
                          faults=faults)
        with pytest.raises(MachineError, match="nbytes must be non-negative"):
            machine.run(prog)


class TestReceiverSerialisation:
    def test_fan_in_serialises_on_receiver_port(self):
        def prog(env):
            if env.pid == 0:
                for _ in range(1, env.nprocs):
                    yield env.recv()
                return env.now
            yield env.send(0, None, nbytes=NBYTES)
            return None

        wire = NBYTES / BW_SPEC.bandwidth
        free = Machine(5, spec=BW_SPEC).run(prog)
        port = Machine(5, spec=BW_SPEC, single_port=True).run(prog)
        assert free.values[0] == pytest.approx(wire, rel=0.01)
        assert port.values[0] == pytest.approx(4 * wire, rel=0.01)


class TestBroadcastAlgorithms:
    def _linear(self, env):
        comm = Comm.world(env)
        if comm.rank == 0:
            for dst in range(1, comm.size):
                yield comm.send(dst, "v", nbytes=NBYTES)
            return "v"
        msg = yield comm.recv(0)
        return msg.payload

    def _tree(self, env):
        comm = Comm.world(env)
        v = yield from C.bcast(comm, "v" if comm.rank == 0 else None,
                               nbytes=NBYTES)
        return v

    def test_tree_beats_linear_under_contention(self):
        p = 8
        linear = Machine(p, spec=BW_SPEC, single_port=True).run(self._linear)
        tree = Machine(p, spec=BW_SPEC, single_port=True).run(self._tree)
        assert all(v == "v" for v in linear.values)
        assert all(v == "v" for v in tree.values)
        assert tree.makespan < linear.makespan
        # linear is ~(p-1) serial wires; tree is ~log2(p) rounds
        wire = NBYTES / BW_SPEC.bandwidth
        assert linear.makespan == pytest.approx(7 * wire, rel=0.05)
        assert tree.makespan < 4 * wire * 1.1

    def test_models_agree_without_contention_pressure(self):
        """A single small message: both models give the same timing."""

        def prog(env):
            if env.pid == 0:
                yield env.send(1, "x", nbytes=8)
            else:
                yield env.recv(0)

        free = Machine(2, spec=AP1000).run(prog)
        port = Machine(2, spec=AP1000, single_port=True).run(prog)
        assert free.makespan == pytest.approx(port.makespan)


class TestContentionNeverSpeedsUp:
    @pytest.mark.parametrize("nprocs", [2, 4, 8])
    def test_single_port_makespan_dominates(self, nprocs, rng):
        """For any exchange pattern, contention can only add time."""
        payloads = rng.integers(1, 50_000, size=8).tolist()

        def prog(env):
            comm = Comm.world(env)
            for t, nb in enumerate(payloads):
                dst = (comm.rank + t + 1) % comm.size
                src = (comm.rank - t - 1) % comm.size
                if dst == comm.rank:
                    continue
                yield comm.send(dst, None, tag=t, nbytes=int(nb))
                yield comm.recv(src, tag=t)
            return None

        free = Machine(nprocs, spec=BW_SPEC).run(prog)
        port = Machine(nprocs, spec=BW_SPEC, single_port=True).run(prog)
        assert port.makespan >= free.makespan - 1e-12


class TestTable1UnderContention:
    def test_shape_survives_single_port(self, rng):
        from repro.apps.sort import hyperquicksort_machine

        vals = rng.integers(0, 2**31, size=8192).astype(np.int32)
        expected = np.sort(vals)
        times = {}
        for d in (1, 3, 5):
            out, res = hyperquicksort_machine(vals, d, spec=AP1000,
                                              single_port=True)
            assert np.array_equal(out, expected)
            times[d] = res.makespan
        assert times[1] > times[3] > times[5]

    def test_contention_adds_time_to_the_sort(self, rng):
        from repro.apps.sort import hyperquicksort_machine

        vals = rng.integers(0, 2**31, size=8192).astype(np.int32)
        _o1, free = hyperquicksort_machine(vals, 4, spec=AP1000)
        _o2, port = hyperquicksort_machine(vals, 4, spec=AP1000,
                                           single_port=True)
        assert port.makespan >= free.makespan


@base_fragment(ops=lambda block: 5000.0 if block[0] == 0 else 0.0)
def _slow_on_rank_0(block):
    return block


class TestPortsAreReservedInEngineOrder:
    """The smallest plan on which reserving ports in instruction order is
    wrong, and why a single-port walk only *records* its requests.

    Three ranks.  ``[0]`` charges rank 0 2 ms and the others nothing;
    ``[1]`` sends rank 0's block to rank 2; ``[2]`` sends rank 1's block to
    rank 2.  Rank 1 has nothing to do in ``[1]``, so it issues its ``[2]``
    send at 25 µs, long before rank 0 issues its ``[1]`` send at 2.025 ms.
    The engine reserves rank 2's receive port in that global order: rank
    1's block arrives at 0.285 ms, rank 0's at 2.285 ms, and rank 2 is done
    at 2.335 ms.  Reserving in instruction order would queue rank 1's block
    behind rank 0's on that port — arrival 2.445 ms, makespan 2.47 ms.  A
    walk visits instructions in order, so port reservation stays in the
    engine, and the walk hands it each rank's requests to time.
    """

    PLAN = ir.Plan((
        ir.LocalApply(_slow_on_rank_0),
        ir.Exchange("replace", ((2,), (), ()), ((0,), (1,), (0,))),
        ir.Exchange("replace", ((), (2,), ()), ((0,), (1,), (1,))),
    ), 3)

    def _run(self, **kw):
        values = [np.full(1000, r, dtype=np.int32) for r in range(3)]
        machine = Machine(FullyConnected(3), spec=AP1000, single_port=True,
                          **kw)
        return machine.run(
            lambda env: execute_plan(self.PLAN, env, Comm.world(env),
                                     values[env.pid]),
            walk=functools.partial(vexec.precompute, self.PLAN, values))

    @pytest.mark.parametrize("kw", [{}, {"batch": False},
                                    {"record_trace": True}],
                             ids=["walked", "interpreted", "traced"])
    def test_the_engines_numbers(self, kw):
        # captured from the interpreter (batch=False) before single-port
        # runs were walked
        res = self._run(**kw)
        assert res.makespan == 0.0023349999999999994
        assert (res.total_messages, res.events) == (2, 7)
        assert [s.finish_time for s in res.stats] \
            == [0.002025, 2.5e-05, 0.0023349999999999994]
        assert [s.idle_seconds for s in res.stats] \
            == [0.0, 0.0, 0.0022849999999999997]
        assert [int(v[0]) for v in res.values] == [0, 1, 1]

    def test_rank_2_is_sent_the_later_instructions_block_first(self):
        sends = [(e.pid, e.span.instr)
                 for e in self._run(record_trace=True).trace
                 if e.kind == "send" and e.detail["dst"] == 2]
        # rank 1's send for [2] is issued, and its port slot reserved,
        # before rank 0's send for [1]
        assert sends == [(1, 2), (0, 1)]
