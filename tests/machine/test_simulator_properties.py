"""Property-based stress tests of the discrete-event simulator.

Random *structurally deadlock-free* programs (every send is matched by the
partner's receive in the same round) are generated and the simulator's
global invariants checked:

* determinism: identical program → identical timings and results,
* conservation: messages sent == messages received,
* causality: every receive completes at or after the matching send,
* accounting: per-processor compute+overhead+idle never exceeds its
  finish time; makespan == max finish time,
* engine equality: the default machine, the per-event engine
  (``batch=False``) and — where it supports the program — the seed
  ``ReferenceMachine`` return ``==`` results.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.machine import AP1000, Machine
from repro.machine._reference import ReferenceMachine
from repro.machine.cost import MachineSpec
from repro.machine.events import ANY


def make_round_robin_program(schedule):
    """Build an SPMD program from a per-round schedule.

    ``schedule`` is a list of rounds; each round is ``("compute", seconds)``
    or ``("exchange", distance, nbytes, mode, timeout)`` — every processor
    sends to ``(pid + distance) % n`` and receives from
    ``(pid - distance) % n``, which is always deadlock-free with
    asynchronous sends.  ``mode`` is how the receive is posted:
    ``"concrete"``; ``"any"`` — ``ANY`` source on the round's tag, which
    is unique, so it still matches exactly one message; or ``"timed"`` —
    a receive with ``timeout``, then a blocking one if it returned
    ``None`` (the rounds that timed out are part of the return value).
    """

    def program(env):
        n = env.nprocs
        received = 0
        timed_out = []
        for tag, step in enumerate(schedule):
            if step[0] == "compute":
                yield env.compute(step[1] * (1 + env.pid % 3))
            else:
                _kind, dist, nbytes, mode, timeout = step
                dist = dist % n
                if dist == 0:
                    continue
                src = (env.pid - dist) % n
                yield env.send((env.pid + dist) % n, env.pid, tag=tag,
                               nbytes=nbytes)
                if mode == "any":
                    msg = yield env.recv(ANY, tag=tag)
                elif mode == "timed":
                    msg = yield env.recv(src, tag=tag, timeout=timeout)
                    if msg is None:
                        timed_out.append(tag)
                        msg = yield env.recv(src, tag=tag)
                else:
                    msg = yield env.recv(src, tag=tag)
                received += 1
                assert msg.payload == src
        return received, timed_out

    return program


seconds = st.floats(0, 1e-3, allow_nan=False, allow_infinity=False)
recv_modes = st.one_of(
    st.tuples(st.just("concrete"), st.none()),
    st.tuples(st.just("any"), st.none()),
    st.tuples(st.just("timed"), seconds),
)
steps = st.lists(
    st.one_of(
        st.tuples(st.just("compute"), seconds),
        st.builds(lambda dist, nbytes, mode: ("exchange", dist, nbytes, *mode),
                  st.integers(1, 7), st.integers(1, 4096), recv_modes),
    ),
    min_size=1, max_size=12,
)


class TestSimulatorInvariants:
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 9), schedule=steps)
    def test_determinism(self, n, schedule):
        prog = make_round_robin_program(schedule)
        m = Machine(n, spec=AP1000)
        r1 = m.run(prog)
        r2 = m.run(prog)
        assert r1.values == r2.values
        assert [s.finish_time for s in r1.stats] == \
            [s.finish_time for s in r2.stats]

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 9), schedule=steps)
    def test_every_engine_returns_the_same_result(self, n, schedule):
        """The bit-identity contract on hand-written programs: values,
        every ``ProcStats`` field (virtual times included), makespan and
        event count are ``==`` between the default machine and the
        per-event engine, whichever of the two ends up serving the run."""
        prog = make_round_robin_program(schedule)
        default = Machine(n, spec=AP1000).run(prog)
        per_event = Machine(n, spec=AP1000, batch=False).run(prog)
        assert default.values == per_event.values
        assert default.stats == per_event.stats
        assert default.makespan == per_event.makespan
        assert default.events == per_event.events
        if all(step[0] == "compute" or step[3] != "timed"
               for step in schedule):
            # The seed engine has no timeouts and counts no events.
            seed = ReferenceMachine(n, spec=AP1000).run(prog)
            assert seed.values == default.values
            assert seed.stats == default.stats
            assert seed.makespan == default.makespan

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 9), schedule=steps)
    def test_message_conservation(self, n, schedule):
        res = Machine(n, spec=AP1000).run(make_round_robin_program(schedule))
        sent = sum(s.msgs_sent for s in res.stats)
        received = sum(s.msgs_received for s in res.stats)
        assert sent == received
        assert sum(s.bytes_sent for s in res.stats) == \
            sum(s.bytes_received for s in res.stats)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 9), schedule=steps)
    def test_accounting_bounds(self, n, schedule):
        res = Machine(n, spec=AP1000).run(make_round_robin_program(schedule))
        for s in res.stats:
            assert s.compute_seconds >= 0
            assert s.overhead_seconds >= 0
            assert s.idle_seconds >= -1e-12
            total = s.compute_seconds + s.overhead_seconds + s.idle_seconds
            assert total <= s.finish_time + 1e-9
        assert res.makespan == max(s.finish_time for s in res.stats)

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 9), schedule=steps)
    def test_causality_via_trace(self, n, schedule):
        m = Machine(n, spec=AP1000, record_trace=True)
        res = m.run(make_round_robin_program(schedule))
        sends = res.trace.events(kind="send")
        recvs = res.trace.events(kind="recv")
        # every receive ends no earlier than the earliest possible wire time
        min_wire = AP1000.latency
        for r in recvs:
            matching = [s for s in sends
                        if s.detail.get("dst") == r.pid
                        and s.detail.get("tag") == r.detail.get("tag")
                        and s.pid == r.detail.get("src")]
            assert matching, "receive without a matching send"
            earliest = min(s.start for s in matching)
            assert r.end >= earliest + min_wire - 1e-12

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 8), schedule=steps,
           flop=st.floats(1e-9, 1e-5), latency=st.floats(0, 1e-2))
    def test_invariants_across_machine_specs(self, n, schedule, flop, latency):
        spec = MachineSpec(flop_time=flop, latency=latency)
        res = Machine(n, spec=spec).run(make_round_robin_program(schedule))
        assert res.makespan >= 0
        assert res.total_messages == sum(s.msgs_received for s in res.stats)

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(2, 8), schedule=steps)
    def test_slower_machine_never_faster(self, n, schedule):
        """Scaling all cost constants up cannot reduce the makespan."""
        prog = make_round_robin_program(schedule)
        fast = Machine(n, spec=AP1000).run(prog)
        slow_spec = AP1000.replace(
            flop_time=AP1000.flop_time * 10,
            latency=AP1000.latency * 10,
            bandwidth=AP1000.bandwidth / 10,
            send_overhead=AP1000.send_overhead * 10,
            recv_overhead=AP1000.recv_overhead * 10,
        )
        slow = Machine(n, spec=slow_spec).run(prog)
        assert slow.makespan >= fast.makespan - 1e-12
