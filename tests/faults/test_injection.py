"""Simulator-level fault injection: hooks, counters, crashes, timeouts.

Also covers the two machine-layer satellites: ``Comm`` errors that name
the group / crashed peer, and ``metrics.fault_counters`` staying zero in
fault-free runs.
"""

from __future__ import annotations

import pytest

from repro.errors import MachineError
from repro.faults.models import Corrupted, FaultInjector, FaultSpec
from repro.machine import AP1000, Machine, Comm
from repro.machine.cost import PERFECT
from repro.machine.events import ANY
from repro.machine.metrics import fault_counters


def _pingpong(env):
    """p0 <-> p1 ping-pong with a trailing ANY-wildcard receive on p0."""
    if env.pid == 0:
        yield env.send(1, "ping", tag=1)
        msg = yield env.recv(1, tag=2)
        yield env.work(100)
        any_msg = yield env.recv(ANY, tag=ANY)
        return (msg.payload, any_msg.payload)
    yield env.recv(0, tag=1)
    yield env.send(0, "pong", tag=2)
    yield env.work(50)
    yield env.send(0, "tail", tag=3)
    return None


class TestZeroRateIdentity:
    @pytest.mark.parametrize("single_port", [False, True])
    def test_zero_rate_injector_is_bit_identical(self, single_port):
        plain = Machine(2, spec=AP1000, record_trace=True,
                        single_port=single_port).run(_pingpong)
        injected = Machine(2, spec=AP1000, record_trace=True,
                           single_port=single_port,
                           faults=FaultInjector(FaultSpec())).run(_pingpong)
        assert injected.makespan == plain.makespan
        assert injected.values == plain.values
        assert list(injected.trace) == list(plain.trace)
        for sa, sb in zip(injected.stats, plain.stats):
            assert sa == sb
        assert injected.crashed == []
        assert fault_counters(injected) == {"retransmits": 0, "timeouts": 0,
                                            "dropped": 0, "crashed": 0}

    def test_fault_free_counters_zero(self):
        res = Machine(2, spec=AP1000).run(_pingpong)
        assert fault_counters(res) == {"retransmits": 0, "timeouts": 0,
                                       "dropped": 0, "crashed": 0}
        for st in res.stats:
            assert st.retransmits == st.timeouts == st.msgs_dropped == 0


class TestDropInjection:
    def test_certain_drop_times_out_receiver(self):
        def prog(env):
            if env.pid == 0:
                yield env.send(1, "lost", tag=1)
                return "sent"
            msg = yield env.recv(0, tag=1, timeout=0.01)
            return "got" if msg is not None else "timed-out"

        res = Machine(2, spec=AP1000, record_trace=True,
                      faults=FaultInjector(FaultSpec(drop_rate=1.0))
                      ).run(prog)
        assert res.values == ["sent", "timed-out"]
        assert res.stats[0].msgs_dropped == 1
        assert res.stats[1].timeouts == 1
        kinds = [ev.kind for ev in res.trace]
        assert "drop" in kinds and "timeout" in kinds

    def test_duplicate_delivery(self):
        def prog(env):
            if env.pid == 0:
                yield env.send(1, "x", tag=1)
                return None
            a = yield env.recv(0, tag=1)
            b = yield env.recv(0, tag=1)
            return (a.payload, b.payload)

        res = Machine(2, spec=AP1000,
                      faults=FaultInjector(FaultSpec(dup_rate=1.0,
                                                     delay_seconds=0.001))
                      ).run(prog)
        assert res.values[1] == ("x", "x")

    def test_corruption_wraps_payload(self):
        def prog(env):
            if env.pid == 0:
                yield env.send(1, [1, 2], tag=1)
                return None
            msg = yield env.recv(0, tag=1)
            return msg.payload

        res = Machine(2, spec=AP1000,
                      faults=FaultInjector(FaultSpec(corrupt_rate=1.0))
                      ).run(prog)
        assert isinstance(res.values[1], Corrupted)
        assert res.values[1].original == [1, 2]


class TestDegradation:
    def test_slow_node_stretches_compute(self):
        def prog(env):
            yield env.compute(0.1)
            return None

        base = Machine(2, spec=AP1000).run(prog)
        slow = Machine(2, spec=AP1000,
                       faults=FaultInjector(FaultSpec(slow_nodes={1: 3.0}))
                       ).run(prog)
        assert slow.stats[0].compute_seconds == base.stats[0].compute_seconds
        assert slow.stats[1].compute_seconds == pytest.approx(0.3)

    def test_link_slowdown_stretches_wire_time(self):
        def prog(env):
            if env.pid == 0:
                yield env.send(1, b"x" * 100_000, tag=1)
                return None
            yield env.recv(0, tag=1)
            return None

        base = Machine(2, spec=AP1000).run(prog)
        slow = Machine(2, spec=AP1000,
                       faults=FaultInjector(FaultSpec(link_slowdown=4.0))
                       ).run(prog)
        assert slow.makespan > base.makespan


class TestCrash:
    def test_crash_kills_processor_at_time(self):
        def prog(env):
            for _ in range(100):
                yield env.compute(0.01)
            return "finished"

        res = Machine(2, spec=AP1000, record_trace=True,
                      faults=FaultInjector(FaultSpec(crash_at={1: 0.105}))
                      ).run(prog)
        assert res.crashed == [1]
        assert res.survivors == [0]
        assert res.values[0] == "finished"
        assert res.values[1] is None
        assert res.stats[1].finish_time == pytest.approx(0.105)
        assert any(ev.kind == "crash" and ev.pid == 1 for ev in res.trace)

    def test_send_to_crashed_peer_is_dropped(self):
        def prog(env):
            if env.pid == 0:
                yield env.compute(0.2)   # outlive the peer
                yield env.send(1, "into the void", tag=1)
                return env.crashed_pids
            while True:
                yield env.compute(0.01)

        res = Machine(2, spec=AP1000, record_trace=True,
                      faults=FaultInjector(FaultSpec(crash_at={1: 0.05}))
                      ).run(prog)
        assert res.values[0] == frozenset({1})
        assert res.stats[0].msgs_dropped == 1
        assert any(ev.kind == "drop" for ev in res.trace)

    def test_crash_while_blocked_in_recv(self):
        def prog(env):
            if env.pid == 0:
                yield env.recv(1, tag=1)    # never satisfied
                return "unreachable"
            yield env.compute(0.5)
            yield env.send(0, "late", tag=1)
            return "sent"

        res = Machine(2, spec=AP1000,
                      faults=FaultInjector(FaultSpec(crash_at={0: 0.1}))
                      ).run(prog)
        assert res.crashed == [0]
        assert res.values[1] == "sent"   # send to the corpse is swallowed


class TestRecvTimeoutWithoutFaults:
    def test_timeout_fires_in_fault_free_engine(self):
        def prog(env):
            if env.pid == 0:
                msg = yield env.recv(1, tag=1, timeout=0.05)
                return "none" if msg is None else msg.payload
            yield env.compute(0.2)
            return None

        res = Machine(2, spec=AP1000).run(prog)
        assert res.values[0] == "none"
        assert res.stats[0].timeouts == 1
        assert res.stats[0].idle_seconds == pytest.approx(0.05)

    def test_message_beats_timeout(self):
        def prog(env):
            if env.pid == 0:
                msg = yield env.recv(1, tag=1, timeout=10.0)
                return "none" if msg is None else msg.payload
            yield env.send(0, "quick", tag=1)
            return None

        res = Machine(2, spec=AP1000).run(prog)
        assert res.values[0] == "quick"
        assert res.stats[0].timeouts == 0


class TestCommSatellite:
    def test_out_of_range_rank_names_group(self):
        def prog(env):
            comm = Comm.world(env)
            with pytest.raises(MachineError, match=r"members"):
                comm.send(5, "x")
            yield env.compute(0)
            return None

        Machine(2, spec=PERFECT).run(prog)

    def test_send_to_crashed_rank_is_clear(self):
        def prog(env):
            comm = Comm.world(env)
            if env.pid == 0:
                yield env.compute(0.2)
                with pytest.raises(MachineError, match=r"crashed"):
                    comm.send(1, "x")
                return "checked"
            while True:
                yield env.compute(0.01)

        res = Machine(2, spec=AP1000,
                      faults=FaultInjector(FaultSpec(crash_at={1: 0.05}))
                      ).run(prog)
        assert res.values[0] == "checked"
