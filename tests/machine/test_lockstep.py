"""The lockstep timeline against the engines, request for request.

``Lockstep`` restates the engines' clock rules as plain arithmetic; these
tests drive it by hand with the request sequence of a small generator
program and require the ``RunResult`` the engines produce for that
program — then pin each check it owns and the ``Machine.run(walk=...)``
gateway.  The plan-level differential suite is ``tests/plan/test_vexec.py``.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.errors import DeadlockError, MachineError, TopologyError
from repro.machine import AP1000, Machine
from repro.machine.lockstep import Lockstep
from repro.machine.topology import FullyConnected, Hypercube, Ring

P = 8
TAG = 7


def _sizes(pid):
    return 100 * (pid + 1)


def ring_program(env):
    """Ragged compute, pass a token two hops around the ring (two messages
    queue up on one stream), then an unbalanced second phase."""
    pid, n = env.pid, env.nprocs
    yield env.work(1000.0 * (pid + 1))
    yield env.send((pid + 1) % n, ("a", pid), tag=TAG, nbytes=_sizes(pid))
    yield env.send((pid + 1) % n, ("b", pid), tag=TAG, nbytes=0)
    first = yield env.recv((pid - 1) % n, tag=TAG)
    yield env.compute(1e-4 * (n - pid))
    second = yield env.recv((pid - 1) % n, tag=TAG)
    if pid % 2:
        yield env.send(pid - 1, first.payload, nbytes=first.nbytes)
    else:
        third = yield env.recv(pid + 1)
        return first.payload, second.payload, third.payload
    return first.payload, second.payload


def ring_walk(timeline):
    """The same requests, per processor in the same order, sends first."""
    n = timeline.nprocs
    for pid in range(n):
        timeline.work(pid, 1000.0 * (pid + 1))
        timeline.send(pid, (pid + 1) % n, ("a", pid), TAG, _sizes(pid))
        timeline.send(pid, (pid + 1) % n, ("b", pid), TAG, 0)
    got = []
    for pid in range(n):
        first = timeline.recv(pid, (pid - 1) % n, TAG)
        timeline.compute(pid, 1e-4 * (n - pid))
        second = timeline.recv(pid, (pid - 1) % n, TAG)
        got.append((first, second))
    for pid in range(1, n, 2):
        first = got[pid][0]
        timeline.send(pid, pid - 1, first.payload, 0, first.nbytes)
    values = []
    for pid, (first, second) in enumerate(got):
        out = (first.payload, second.payload)
        if pid % 2 == 0:
            out += (timeline.recv(pid, pid + 1, 0).payload,)
        values.append(out)
    return values


@pytest.mark.parametrize("topology", [Hypercube(3), Ring(P),
                                      FullyConnected(P)], ids=repr)
@pytest.mark.parametrize("batch", [True, False], ids=["batched", "per-event"])
def test_a_hand_walk_equals_the_engines(topology, batch):
    want = Machine(topology, spec=AP1000, batch=batch).run(ring_program)
    timeline = Lockstep(Machine(topology, spec=AP1000))
    got = timeline.finish(ring_walk(timeline))
    assert got.values == want.values
    assert got.events == want.events
    assert [dataclasses.asdict(s) for s in got.stats] \
        == [dataclasses.asdict(s) for s in want.stats]
    assert got.trace is None and got.crashed == []


class TestMachineRunGateway:
    def _machine(self, **kw):
        return Machine(Hypercube(3), spec=AP1000, **kw)

    def test_plain_machines_take_the_walk(self):
        def never(env):
            raise AssertionError("the program must not run")
            yield

        res = self._machine().run(never, walk=ring_walk)
        assert res.events == self._machine().run(ring_program).events

    @pytest.mark.parametrize("kw", [
        {"batch": False}, {"single_port": True}, {"record_trace": True}],
        ids=["per-event", "single-port", "traced"])
    def test_other_machines_run_the_program(self, kw):
        def never(timeline):
            raise AssertionError("the walk must not run")

        res = self._machine(**kw).run(ring_program, walk=never)
        assert res.values == self._machine(**kw).run(ring_program).values

    def test_a_faulted_machine_runs_the_program(self):
        from repro.faults.models import FaultInjector, FaultSpec

        def never(timeline):
            raise AssertionError("the walk must not run")

        machine = self._machine(faults=FaultInjector(FaultSpec()))
        assert machine.run(ring_program, walk=never).values \
            == self._machine().run(ring_program).values

    def test_a_walk_that_declines_falls_through_to_the_program(self):
        res = self._machine().run(ring_program, walk=lambda timeline: None)
        assert res.values == self._machine().run(ring_program).values


class TestChecks:
    @pytest.fixture
    def timeline(self):
        return Lockstep(Machine(Hypercube(2), spec=AP1000))

    @pytest.mark.parametrize("dst", [4, -1, 1.0, True])
    def test_destination_must_be_a_processor(self, timeline, dst):
        with pytest.raises(TopologyError):
            timeline.send(0, dst, None)

    def test_self_send(self, timeline):
        with pytest.raises(MachineError, match="processor 2 sent a message "
                                               "to itself"):
            timeline.send(2, 2, None)

    def test_negative_size(self, timeline):
        with pytest.raises(MachineError, match="processor 1.*nbytes"):
            timeline.send(1, 0, None, 0, -8)

    @pytest.mark.parametrize("charge", ["work", "compute"])
    @pytest.mark.parametrize("amount", [-1.0, float("nan")])
    def test_negative_charge(self, timeline, charge, amount):
        with pytest.raises(MachineError, match="processor 3"):
            getattr(timeline, charge)(3, amount)

    def test_a_receive_no_send_matches_is_a_deadlock(self, timeline):
        timeline.send(0, 1, "x", TAG)
        assert timeline.poll(1, 0, 0) is None        # other tag
        assert timeline.poll(2, 0, TAG) is None      # other receiver
        with pytest.raises(DeadlockError, match="processor 1 .* from 2"):
            timeline.recv(1, 2, TAG)
        assert timeline.recv(1, 0, TAG).payload == "x"

    def test_unconsumed_messages_fail_the_run(self, timeline):
        timeline.send(0, 3, "x")
        timeline.send(1, 3, "y")
        with pytest.raises(MachineError, match="processor 3 finished with 2 "
                                               "unconsumed messages"):
            timeline.finish([None] * 4)

    def test_one_value_per_processor(self, timeline):
        with pytest.raises(MachineError, match="expected 4 final values"):
            timeline.finish([None] * 3)

    def test_unsized_payloads_are_estimated(self, timeline):
        timeline.send(0, 1, [1, 2, 3])
        msg = timeline.recv(1, 0, 0)
        assert msg.nbytes == 3 * AP1000.word_bytes
        assert msg.arrival == AP1000.send_overhead \
            + AP1000.transfer_time(msg.nbytes, 1)
