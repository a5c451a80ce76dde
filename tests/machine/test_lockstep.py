"""The lockstep timeline against the engines, request for request.

``Lockstep`` restates the engines' clock rules as plain arithmetic; these
tests drive it by hand with the request sequence of a small generator
program and require the ``RunResult`` the engines produce for that
program — then pin each check it owns and the ``Machine.run(walk=...)``
gateway.  The per-request methods are in turn the reference for the two
whole-instruction steps — clocks, statistics and, on a traced timeline,
events (``TestBulkSteps``) — and for the static matching
they follow (``TestWiring``).  The plan-level differential suite is
``tests/plan/test_vexec.py``.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DeadlockError, MachineError, TopologyError
from repro.machine import AP1000, MODERN_CLUSTER, PERFECT, Machine
from repro.machine.lockstep import Lockstep, Recorder, wire
from repro.machine.topology import FullyConnected, Hypercube, Ring
from repro.machine.trace import Span, Trace
from repro.plan import ir

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
        {"batch": False}, {"single_port": True}],
        ids=["per-event", "single-port"])
    def test_other_machines_run_the_program(self, kw):
        """``batch=False`` runs the program and never the walk.  A
        single-port machine runs the walk on a request recorder instead
        of the program, and the engine times the recorded requests: the
        run equals the program's."""
        def never_walk(timeline):
            raise AssertionError("the walk must not run")

        def never_run(env):
            raise AssertionError("the program must not run")
            yield

        want = self._machine(**kw).run(ring_program)
        if kw.get("single_port"):
            got = self._machine(**kw).run(never_run, walk=ring_walk)
        else:
            got = self._machine(**kw).run(ring_program, walk=never_walk)
        assert got.values == want.values and got.events == want.events
        assert [dataclasses.asdict(s) for s in got.stats] \
            == [dataclasses.asdict(s) for s in want.stats]

    def test_traced_machines_take_the_walk(self):
        """A hand-written walk on a traced machine records, request by
        request, the events the per-event engine records for the program:
        per processor equal in kind, start, end, detail and span."""
        def never(env):
            raise AssertionError("the program must not run")
            yield

        got = self._machine(record_trace=True).run(never, walk=ring_walk)
        want = self._machine(record_trace=True, batch=False).run(ring_program)
        assert got.values == want.values and got.events == want.events
        assert [dataclasses.asdict(s) for s in got.stats] \
            == [dataclasses.asdict(s) for s in want.stats]
        assert len(got.trace) == len(want.trace) == 7 * P
        for pid in range(P):
            assert got.trace.events(pid=pid) == want.trace.events(pid=pid)

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


# -- the whole-instruction steps against the per-request rules ------------------

@st.composite
def patterns(draw, p):
    """Matched ``(sends, recvs)`` tables over ``p`` ranks: any multiset of
    messages (fan-out, fan-in, the same ``(src, dst)`` pair repeated), each
    rank receiving its arrivals in any order with "take the local value"
    entries mixed in."""
    ranks = st.integers(0, p - 1)
    messages = draw(st.lists(
        st.tuples(ranks, ranks).filter(lambda m: m[0] != m[1]), max_size=3 * p)
        if p > 1 else st.just([]))
    sends = [[] for _ in range(p)]
    arrivals = [[r] * draw(st.integers(0, 2)) for r in range(p)]
    for src, dst in messages:
        sends[src].append(dst)
        arrivals[dst].append(src)
    return (tuple(map(tuple, sends)),
            tuple(tuple(draw(st.permutations(row))) for row in arrivals))


@st.composite
def bulk_programs(draw):
    """``(machine, steps)``: each step ``("work", ops)`` or
    ``("exchange", sends, recvs, sizes)``."""
    p = draw(st.integers(1, 17))
    shapes = [Ring, FullyConnected]
    if p & (p - 1) == 0:
        shapes.append(Hypercube.of_size)
    machine = Machine(draw(st.sampled_from(shapes))(p),
                      spec=draw(st.sampled_from(
                          [AP1000, MODERN_CLUSTER, PERFECT])))
    work = st.tuples(st.just("work"), st.lists(
        st.floats(0.0, 1e9) | st.integers(0, 10**6), min_size=p, max_size=p))
    sizes = st.lists(st.sampled_from([0, 1, 8, 4096]) | st.integers(0, 10**12),
                     min_size=p, max_size=p)
    exchange = st.tuples(st.just("exchange"), patterns(p), sizes).map(
        lambda step: (step[0], *step[1], step[2]))
    return machine, draw(st.lists(work | exchange, max_size=8))


def drive(steps, bulk, ref):
    """Make each step on ``bulk`` as one bulk call and on ``ref`` as the
    same requests one by one, yielding after each step."""
    p = bulk.nprocs
    for i, (kind, *step) in enumerate(steps):
        bulk.span = ref.span = Span(f"step {i}", instr=i)
        if kind == "work":
            (ops,) = step
            bulk.work_all(ops)
            for pid in range(p):
                ref.work(pid, ops[pid])
        else:
            sends, recvs, sizes = step
            bulk.exchange(sends, wire(sends, recvs), sizes, TAG)
            for pid in range(p):
                for dst in sends[pid]:
                    ref.send(pid, dst, None, TAG, sizes[pid])
            for pid in range(p):
                for src in recvs[pid]:
                    if src != pid:
                        ref.recv(pid, src, TAG)
        yield


class _Copy:
    """Copy ``c`` of a timeline over ``Machine.copies``, seen as a machine
    of its own: processor ``j`` is the timeline's ``c·m + j``."""

    def __init__(self, timeline, c, m):
        self.nprocs, self._t, self._first = m, timeline, c * m

    def work(self, pid, ops):
        self._t.work(self._first + pid, ops)

    def compute(self, pid, seconds):
        self._t.compute(self._first + pid, seconds)

    def send(self, pid, dst, payload, tag, nbytes):
        self._t.send(self._first + pid, self._first + dst, payload, tag,
                     nbytes)

    def recv(self, pid, src, tag):
        return self._t.recv(self._first + pid, self._first + src, tag)


class TestCopies:
    """One ``Lockstep`` over :meth:`Machine.copies`: each copy routes on
    the base topology's own hop rows at its offset, and no route joins
    two copies."""

    @pytest.mark.parametrize("topology", [Hypercube(3), Ring(P)], ids=repr)
    def test_a_hand_walk_on_copies_is_the_solo_walks(self, topology):
        k = 3
        machine = Machine(topology, spec=AP1000)
        solo = Lockstep(machine)
        want = solo.finish(ring_walk(solo))
        timeline = Lockstep(machine.copies(k))
        values = [v for c in range(k) for v in ring_walk(_Copy(timeline, c, P))]
        for got in timeline.finish(values).split(k):
            assert got.values == want.values
            assert got.events == want.events
            assert [dataclasses.asdict(st) for st in got.stats] \
                == [dataclasses.asdict(st) for st in want.stats]

    def test_no_route_joins_two_copies(self):
        timeline = Lockstep(Machine(Ring(4), spec=AP1000).copies(2))
        with pytest.raises(TopologyError, match="different copies"):
            timeline.send(3, 4, "x", TAG, 8)
        assert timeline.clock == [0.0] * 8


class TestBulkSteps:
    @staticmethod
    def replay(steps, bulk, ref):
        """:func:`drive` two timelines, their clocks equal after every
        step; return both results."""
        p = bulk.nprocs
        for _ in drive(steps, bulk, ref):
            assert bulk.clock == ref.clock
        got, want = bulk.finish([None] * p), ref.finish([None] * p)
        assert got.events == want.events
        assert [dataclasses.asdict(s) for s in got.stats] \
            == [dataclasses.asdict(s) for s in want.stats]
        return got, want

    @settings(max_examples=150, deadline=None)
    @given(bulk_programs())
    def test_bulk_steps_equal_the_same_requests_one_by_one(self, program):
        machine, steps = program
        got, _ = self.replay(steps, Lockstep(machine), Lockstep(machine))
        assert got.trace is None

    @settings(max_examples=100, deadline=None)
    @given(bulk_programs())
    def test_traced_bulk_steps_record_the_same_events(self, program):
        machine, steps = program
        got, want = self.replay(steps, Lockstep(machine, Trace()),
                                Lockstep(machine, Trace()))
        assert len(got.trace) == len(want.trace) == got.events
        for pid in range(machine.nprocs):
            assert got.trace.events(pid=pid) == want.trace.events(pid=pid)

    def test_work_all_names_the_first_negative_rank(self):
        timeline = Lockstep(Machine(Hypercube(2), spec=AP1000))
        with pytest.raises(MachineError, match="processor 1: ops must be "
                                               "non-negative"):
            timeline.work_all([1.0, -2.0, float("nan"), 3.0])

    def test_exchange_rejects_a_negative_size(self):
        timeline = Lockstep(Machine(Hypercube(2), spec=AP1000))
        sends, recvs = ((1,), (), (), ()), ((), (0,), (), ())
        with pytest.raises(MachineError, match="processor 0.*nbytes"):
            timeline.exchange(sends, wire(sends, recvs), [-8, 0, 0, 0])


class TestRecorder:
    """The single-port timeline: the walk's requests, recorded per
    processor in its order and timed afterwards by the per-event engine."""

    @staticmethod
    def _timelines():
        machine = Machine(Hypercube(2), spec=AP1000, single_port=True)
        return Lockstep(machine), Recorder(machine)

    @pytest.mark.parametrize("request_", [
        ("send", 0, 4, None), ("send", 0, -1, None), ("send", 0, 1.0, None),
        ("send", 2, 2, None), ("send", 1, 0, None, 0, -8),
        ("work", 3, -1.0), ("work", 3, float("nan")),
        ("compute", 3, -1.0), ("compute", 3, float("nan")),
    ], ids=["too-large", "negative", "not-an-int", "self-send",
            "negative-size", "negative-ops", "nan-ops", "negative-seconds",
            "nan-seconds"])
    def test_a_bad_request_raises_what_the_timeline_raises(self, request_):
        """Raised as the request is recorded, before any engine runs."""
        name, *call = request_
        errors = []
        for timeline in self._timelines():
            with pytest.raises((MachineError, TopologyError)) as err:
                getattr(timeline, name)(*call)
            errors.append((type(err.value), str(err.value)))
        assert errors[0] == errors[1]

    @pytest.mark.parametrize("request_", [
        (0, 4, None), (0, -1, None), (0, 1.0, None), (2, 2, None),
        (1, 0, -8), (1, 0, -8.0),
    ], ids=["too-large", "negative", "not-an-int", "self-send",
            "negative-size", "float-negative-size"])
    def test_a_bad_send_raises_what_the_per_event_engine_raises(self,
                                                                request_):
        """One function states the send checks and their messages for
        both timelines and the per-event engine's ``Send`` arm; the
        batched engine's inlined copy raises the same."""
        pid, dst, nbytes = request_

        def program(env):
            if env.pid == pid:
                yield env.send(dst, "x", nbytes=nbytes)

        errors = []
        for timeline in self._timelines():
            with pytest.raises((MachineError, TopologyError)) as err:
                timeline.send(pid, dst, "x", 0, nbytes)
            errors.append((type(err.value), str(err.value)))
        for batch in (False, True):
            with pytest.raises((MachineError, TopologyError)) as err:
                Machine(Hypercube(2), spec=AP1000, batch=batch).run(program)
            errors.append((type(err.value), str(err.value)))
        assert errors[0] == errors[1] == errors[2] == errors[3]

    def test_bulk_checks_raise_what_the_timeline_raises(self):
        sends, recvs = ((1,), (), (), ()), ((), (0,), (), ())
        for timeline in self._timelines():
            with pytest.raises(MachineError, match="processor 1: ops must "
                                                   "be non-negative"):
                timeline.work_all([1.0, -2.0, float("nan"), 3.0])
            with pytest.raises(MachineError, match="processor 0.*nbytes"):
                timeline.exchange(sends, wire(sends, recvs), [-8, 0, 0, 0])

    @settings(max_examples=100, deadline=None)
    @given(bulk_programs(), st.booleans())
    def test_bulk_steps_record_the_same_requests_one_by_one(self, program,
                                                            traced):
        machine, steps = program
        machine.record_trace = traced
        bulk, ref = Recorder(machine), Recorder(machine)
        for _ in drive(steps, bulk, ref):
            pass
        p = machine.nprocs
        assert bulk.finish([None] * p) == ref.finish([None] * p)

    def test_a_received_message_carries_its_payload_and_no_time(self):
        recorder = Recorder(Machine(Hypercube(2), spec=AP1000,
                                    single_port=True))
        recorder.send(0, 1, [1, 2, 3], TAG)
        assert recorder.poll(1, 0, 0) is None        # other tag
        with pytest.raises(DeadlockError, match="processor 1 .* from 2"):
            recorder.recv(1, 2, TAG)
        msg = recorder.recv(1, 0, TAG)
        assert (msg.payload, msg.nbytes) == ([1, 2, 3], 3 * AP1000.word_bytes)
        assert msg.arrival != msg.arrival and msg.sent_at != msg.sent_at
        assert not hasattr(recorder, "clock")
        ((sent, _, _), (got, _, _), *_) = recorder.finish([None] * 4)
        assert [type(r).__name__ for r in sent + got] == ["Send", "Recv"]

    def test_one_value_per_processor(self):
        recorder = Recorder(Machine(Hypercube(2), spec=AP1000))
        with pytest.raises(MachineError, match="expected 4 final values"):
            recorder.finish([None] * 3)

    @pytest.mark.parametrize("topology", [Hypercube(3), Ring(P),
                                          FullyConnected(P)], ids=repr)
    @pytest.mark.parametrize("traced", [False, True],
                             ids=["untraced", "traced"])
    def test_a_recorded_hand_walk_is_the_programs_run(self, topology, traced):
        """Per-request calls record too, so a hand-written walk runs on a
        single-port machine, and its run — traced, the whole event list in
        global order — is the program's on the per-event engine."""
        def never(env):
            raise AssertionError("the program must not run")
            yield

        def machine():
            return Machine(topology, spec=AP1000, single_port=True,
                           record_trace=traced)

        got = machine().run(never, walk=ring_walk)
        want = machine().run(ring_program)
        assert got.values == want.values and got.events == want.events
        assert [dataclasses.asdict(s) for s in got.stats] \
            == [dataclasses.asdict(s) for s in want.stats]
        if traced:
            assert list(got.trace) == list(want.trace)
            assert len(got.trace) == 7 * P


class TestWiring:
    @staticmethod
    def assert_wired(sends, recvs, slots):
        """Every send consumed by exactly one receive of its own
        ``(src, dst)`` pair, first sent first received."""
        flat = [(src, dst) for src, dsts in enumerate(sends) for dst in dsts]
        taken = []
        for dst, (srcs, row) in enumerate(zip(recvs, slots, strict=True)):
            for src, slot in zip(srcs, row, strict=True):
                if slot == -1:
                    assert src == dst
                else:
                    assert flat[slot] == (src, dst)
                    taken.append(slot)
            per_source = {}
            for src, slot in zip(srcs, row):
                per_source.setdefault(src, []).append(slot)
            assert all(q == sorted(q) for q in per_source.values())
        assert sorted(taken) == list(range(len(flat)))

    def test_slots_number_the_sends_in_table_order(self):
        sends = ((1, 2, 1), (0,), ())
        recvs = ((1, 0), (0, 1, 0), (0,))
        assert wire(sends, recvs) == ((3, -1), (0, -1, 2), (1,))

    @given(st.integers(1, 17).flatmap(patterns))
    def test_any_matched_pattern_is_wired(self, tables):
        sends, recvs = tables
        self.assert_wired(sends, recvs, wire(sends, recvs))

    @pytest.mark.parametrize("sends, recvs", [
        (((4,), (), (), ()), ((), (), (), ())),
        (((-1,), (), (), ()), ((), (), (), ())),
        (((True,), (), (), ()), ((), (0,), (), ())),
        (((), (), (), ()), ((7,), (), (), ())),
        (((), (1,), (), ()), ((), (1,), (), ())),
        (((), (3,), (), ()), ((), (), (), ())),
        (((), (), (), ()), ((), (), (0,), ())),
        (((1, 1), (), (), ()), ((), (0,), (), ())),
        (((1,), (), (), ()), ((), (0, 0), (), ())),
        (((1,), (), (), ()), ((), (0,), ())),
    ], ids=["destination-too-large", "destination-negative",
            "destination-not-an-int", "source-out-of-range", "self-send",
            "dangling-send", "unmatched-receive", "second-copy-dangling",
            "second-receive-unmatched", "row-count-mismatch"])
    def test_unmatched_tables_are_not_wired(self, sends, recvs):
        assert wire(sends, recvs) is None

    @given(st.integers(1, 17).flatmap(lambda p: st.lists(
        st.integers(0, p - 1), min_size=p, max_size=p)))
    def test_from_sources_is_always_wired(self, srcs):
        ex = ir.Exchange.from_sources("replace", srcs)
        self.assert_wired(ex.sends, ex.recvs, ex.wiring)

    @given(st.integers(1, 17).flatmap(lambda p: st.lists(
        st.lists(st.integers(0, p - 1), max_size=4), min_size=p, max_size=p)))
    def test_from_destinations_is_always_wired(self, dsts):
        ex = ir.Exchange.from_destinations("collect", dsts)
        self.assert_wired(ex.sends, ex.recvs, ex.wiring)

    def test_wiring_is_cached_beside_the_tables_not_in_them(self):
        ex = ir.Exchange.from_sources("pair", [1, 2, 0])
        twin = ir.Exchange.from_sources("pair", [1, 2, 0])
        assert ex.wiring is ex.wiring
        assert ex == twin and hash(ex) == hash(twin)  # twin has no cache yet
        moved = dataclasses.replace(ex, recvs=((2,), (0,), (1,)))
        assert moved.wiring is None  # recomputed for the new tables
