"""Batch-engine edge conditions: epochs, wildcards, fallback, faults.

The batched drive-order engine (:mod:`repro.machine.batch`) must be
observationally identical to the per-event engine it accelerates —
``Machine(..., batch=False)`` runs the same program through the retained
per-event core, so every test here is a paired run.  The cases target
exactly the places where batching could diverge: ANY-wildcard arrival
ordering *inside one flush epoch*, zero-latency machines (the PERFECT
spec collapses all arrivals onto the send clock), and the transparent
per-event fallback — for the shapes the engine declines at first sight
(timed receives, two or more processors blocked at once, a
non-monotone wildcard drain), for crash-fault runs and for
desynchronised (non-yielding) programs.  ``TestWhoServesWhat`` pins
which engine ends up serving each shape.
"""

from __future__ import annotations

import operator

import numpy as np
import pytest

import repro.machine.batch as batch_mod
from repro.errors import DeadlockError, MachineError
from repro.faults import FaultInjector, FaultSpec
from repro.machine import AP1000, Comm, Machine, ReliableChannel, collectives
from repro.machine.cost import PERFECT
from repro.machine.events import ANY, Recv
from repro.machine.topology import FullyConnected, Hypercube, Ring


def _paired(program, topo_factory, *, spec=AP1000, **kw):
    """Run ``program`` on the batched and the per-event engine; both must
    agree on values, stats (bit-exact virtual times included), makespan
    and event count."""
    res_b = Machine(topo_factory(), spec=spec, **kw).run(program)
    res_e = Machine(topo_factory(), spec=spec, batch=False, **kw).run(program)
    assert res_b.makespan == res_e.makespan
    assert res_b.values == res_e.values
    assert res_b.stats == res_e.stats
    assert res_b.events == res_e.events
    assert res_b.crashed == res_e.crashed
    return res_b


class TestWildcardEpochOrdering:
    def test_any_ordering_inside_one_epoch(self):
        """All senders flush in one epoch; the drain's ANY picks must
        follow arrival order (with send-key tie-breaks), not flush order.

        ``msg.seq`` is deliberately not compared across engines: it is an
        engine-internal ordering token (per-event core: global send order;
        batched core: delivery order — see DESIGN.md), so the contract is
        its *invariants* — unique, 1..n, consistent with arrival order —
        checked separately below."""

        def program(env):
            p = env.nprocs
            if env.pid == 0:
                out = []
                for _ in range(3 * (p - 1)):
                    msg = yield env.recv(ANY, tag=ANY)
                    out.append((msg.src, msg.tag, msg.arrival))
                return out
            # Big first, small later: the later sends overtake on the wire,
            # so arrival order inverts program order inside the epoch.
            yield env.send(0, "big", tag=1, nbytes=200_000)
            yield env.send(0, "mid", tag=2, nbytes=5_000)
            yield env.send(0, "small", tag=3, nbytes=1)
            return None

        res = _paired(program, lambda: FullyConnected(9))
        got = res.values[0]
        # Every send is drained exactly once.  (Pick *order* is the
        # engines' business — the first pick is a direct hand-off of the
        # earliest *delivered* message, which the later small sends
        # overtake on the wire — and _paired above proved both engines
        # agree on it bit-exactly, arrivals included.)
        assert len(got) == 24 == len(set(got))
        assert {tag for (_, tag, _) in got} == {1, 2, 3}
        assert {src for (src, _, _) in got} == set(range(1, 9))

        def seq_program(env):
            p = env.nprocs
            if env.pid == 0:
                seqs = []
                for _ in range(3 * (p - 1)):
                    msg = yield env.recv(ANY, tag=ANY)
                    seqs.append(msg.seq)
                return seqs
            yield env.send(0, "big", tag=1, nbytes=200_000)
            yield env.send(0, "mid", tag=2, nbytes=5_000)
            yield env.send(0, "small", tag=3, nbytes=1)
            return None

        for batch in (True, False):
            seqs = Machine(FullyConnected(9), spec=AP1000,
                           batch=batch).run(seq_program).values[0]
            # Every send got exactly one token and the drain saw each once.
            assert sorted(seqs) == list(range(1, len(seqs) + 1))

    def test_mixed_patterns_after_wildcard_takes(self):
        """``(ANY, tag)`` takes, then ``(src, ANY)`` takes of what they
        left behind.  The small second message of each sender overtakes
        its big first one, so the drain is non-monotone and the per-event
        engine serves it through the decline."""

        def program(env):
            p = env.nprocs
            if env.pid == 0:
                out = []
                for _ in range(p - 1):
                    msg = yield env.recv(ANY, tag=0)
                    out.append((msg.src, msg.payload))
                for src in range(1, p):
                    msg = yield env.recv(src, tag=ANY)
                    out.append((msg.src, msg.payload))
                return out
            yield env.work(ops=50 * env.pid)
            yield env.send(0, ("a", env.pid), tag=0, nbytes=50_000)
            yield env.send(0, ("b", env.pid), tag=env.pid % 2 + 1, nbytes=4)
            return None

        _paired(program, lambda: FullyConnected(7))


class TestPerfectMachine:
    def test_zero_latency_wildcards(self):
        """PERFECT spec: every arrival equals its send time, so the epoch
        is one big virtual instant and ordering rests entirely on the
        (time, pid, ordinal) send-key tie-breaks."""

        def program(env):
            p = env.nprocs
            if env.pid == 0:
                out = []
                for _ in range(2 * (p - 1)):
                    msg = yield env.recv(ANY, tag=ANY)
                    out.append((msg.src, msg.tag, msg.payload))
                return out
            yield env.send(0, env.pid, tag=0, nbytes=1_000)
            yield env.send(0, -env.pid, tag=1, nbytes=1)
            return None

        res = _paired(program, lambda: FullyConnected(8), spec=PERFECT)
        # PERFECT has zero latency/overhead but finite (1e30) bandwidth,
        # so the makespan is epsilon-sized, not exactly zero.
        assert res.makespan < 1e-20

    def test_zero_latency_ring(self):
        def program(env):
            right = (env.pid + 1) % env.nprocs
            left = (env.pid - 1) % env.nprocs
            for r in range(5):
                yield env.send(right, r, tag=1)
                msg = yield env.recv(left, tag=1)
                assert msg.payload == r
            return env.pid

        _paired(program, lambda: Ring(6), spec=PERFECT)


class TestTimeouts:
    """The batched engine declines a receive that carries a timeout the
    moment it sees one, so the per-event engine serves every program
    here; the pairing checks that the hand-over is transparent."""

    def test_timed_receive_does_not_see_the_future(self):
        """Rank 2 wakes rank 0 at once; rank 1's message is four virtual
        seconds away.  By the time a drive-order schedule reaches rank
        0's timed receive, rank 1 may already have been driven to its
        send — the message is on the stream but does not exist yet in
        virtual time, and the timeout must win."""

        def program(env):
            if env.pid == 0:
                yield env.recv(2, tag=0)
                verdict = "delivered"
                msg = yield env.recv(1, tag=0, timeout=1e-6)
                if msg is None:
                    verdict = "timed out first"
                    msg = yield env.recv(1, tag=0)
                return (verdict, msg.payload)
            if env.pid == 1:
                yield env.work(ops=10_000_000)  # 4 virtual seconds on AP1000
                yield env.send(0, "late", tag=0)
            else:
                yield env.send(0, "wake", tag=0)
            return None

        res = _paired(program, lambda: FullyConnected(3))
        assert res.values[0] == ("timed out first", "late")
        assert res.stats[0].timeouts == 1

    def test_timeout_vs_late_message_race(self):
        """A timeout deadline racing a hand-off: the later sender's message
        arrives after the receiver's deadline, so the receive times out
        and the message must be drained by the follow-up receive."""

        def program(env):
            if env.pid == 0:
                first = yield env.recv(ANY, tag=ANY, timeout=1e-6)
                second = yield env.recv(ANY, tag=ANY, timeout=None)
                return (first is None, second.src)
            yield env.work(ops=10_000_000)  # 4 virtual seconds on AP1000
            yield env.send(0, "late", tag=0)
            return None

        res = _paired(program, lambda: FullyConnected(2))
        assert res.values[0] == (True, 1)

    def test_timeout_never_fires_when_message_beats_it(self):
        def program(env):
            if env.pid == 0:
                msg = yield env.recv(1, tag=7, timeout=100.0)
                return msg.payload
            yield env.send(0, "quick", tag=7)
            return None

        res = _paired(program, lambda: FullyConnected(2))
        assert res.values[0] == "quick"
        assert res.stats[0].timeouts == 0


class TestQuiescenceDecisions:
    """Only the last live processor's receive is decided natively; a
    quiescence with more than one processor blocked is declined and the
    per-event engine serves the run."""

    def test_non_solo_wildcard_decided_by_bounds(self):
        """Two receivers block at once; neither is the last live
        processor, so the solo snapshot cannot apply and the run moves to
        the per-event engine (the id predates the decline: a lookahead
        solver used to decide these picks)."""

        def program(env):
            p = env.nprocs
            if env.pid < 2:
                got = []
                for _ in range((p - 2) // 2):
                    msg = yield env.recv(ANY, tag=env.pid)
                    got.append(msg.src)
                return got
            yield env.work(ops=99 * env.pid)
            yield env.send(env.pid % 2, env.pid, tag=env.pid % 2, nbytes=16)
            return None

        _paired(program, lambda: FullyConnected(10))


class TestFallbacks:
    def test_crash_faults_take_per_event_path(self):
        """Seeded crash faults force the per-event engine; the batched
        default must transparently produce the identical faulted run."""

        def program(env):
            if env.pid == 0:
                first = yield env.recv(1, tag=0, timeout=5.0)
                second = yield env.recv(1, tag=1, timeout=0.5)
                return (first and first.payload, second and second.payload)
            yield env.send(0, "pre-crash", tag=0)
            yield env.work(ops=50_000_000)  # dies mid-compute
            yield env.send(0, "post-crash", tag=1)
            return None

        def run(batch):
            return Machine(
                FullyConnected(2), spec=AP1000, batch=batch,
                faults=FaultInjector(FaultSpec(seed=3, crash_at={1: 1.0})),
            ).run(program)

        res_b, res_e = run(True), run(False)
        assert res_b.crashed == res_e.crashed == [1]
        assert res_b.values == res_e.values
        assert res_b.values[0] == ("pre-crash", None)
        assert res_b.makespan == res_e.makespan
        assert res_b.stats == res_e.stats

    def test_desync_program_falls_back_to_per_event_semantics(self):
        """A program that calls ``env.send`` without yielding the request
        desynchronises the batch engine's immediate effects; the run must
        restart on the per-event engine, where an unyielded request is
        simply discarded (no message is ever sent)."""

        def program(env):
            if env.pid == 0:
                env.send(1, "never-yielded", tag=0)  # deliberately not yielded
                yield env.work(ops=10)
                return "sender-done"
            msg = yield env.recv(0, tag=0, timeout=1.0)
            return "got" if msg is not None else "timed-out"

        res = _paired(program, lambda: FullyConnected(2))
        assert res.values == ["sender-done", "timed-out"]

    def test_error_parity_self_send(self):
        def program(env):
            yield env.send(env.pid, "x")

        for batch in (True, False):
            with pytest.raises(MachineError, match="itself"):
                Machine(FullyConnected(2), spec=AP1000, batch=batch).run(program)

    def test_error_parity_deadlock(self):
        def program(env):
            yield env.recv(src=(env.pid + 1) % env.nprocs, tag=9)

        for batch in (True, False):
            with pytest.raises(DeadlockError):
                Machine(FullyConnected(3), spec=AP1000, batch=batch).run(program)


class TestBatchedFlushPaths:
    def test_multi_destination_vectorised_flush(self):
        """Every processor's one flush carries a message for each of the
        31 others: many ``(dst, tag)`` streams in one flush, so the
        stream lookup is never memoised across two sends (the id predates
        the removal of the vectorised flush)."""

        def program(env):
            p = env.nprocs
            for d in range(p):
                if d != env.pid:
                    yield env.send(d, (env.pid, d), tag=2, nbytes=24)
            total = 0
            for d in range(p):
                if d != env.pid:
                    msg = yield env.recv(d, tag=2)
                    total += msg.payload[0]
            return total

        _paired(program, lambda: Hypercube(5))

    def test_single_stream_bulk_flush(self):
        """All 40 sends of a flush target one ``(dst, tag)`` stream: the
        memoised single-stream run of the flush loop."""

        def program(env):
            if env.pid == 0:
                acc = 0
                for _ in range(40 * (env.nprocs - 1)):
                    msg = yield env.recv(ANY, tag=5)
                    acc += msg.payload
                return acc
            for i in range(40):
                yield env.send(0, i, tag=5, nbytes=8)
            return None

        res = _paired(program, lambda: FullyConnected(4))
        assert res.values[0] == 3 * sum(range(40))


@pytest.fixture
def verdicts(monkeypatch):
    """One entry per run that reached the batched engine: ``"served"`` if
    ``run_batched`` returned, ``"declined"`` if it raised
    ``BatchFallback``.  ``Machine.run`` imports the function at call
    time, so patching the module attribute is enough."""
    real = batch_mod.run_batched
    log = []

    def recording(machine, programs, extra):
        try:
            result = real(machine, programs, extra)
        except batch_mod.BatchFallback:
            log.append("declined")
            raise
        log.append("served")
        return result

    monkeypatch.setattr(batch_mod, "run_batched", recording)
    return log


def _ring(env):
    right = (env.pid + 1) % env.nprocs
    left = (env.pid - 1) % env.nprocs
    total = 0
    for r in range(6):
        yield env.work(ops=50)
        yield env.send(right, env.pid + r, tag=1, nbytes=64)
        msg = yield env.recv(left, tag=1)
        total += msg.payload
    return total


def _funnel(nbytes):
    def program(env):
        if env.pid == 0:
            got = []
            for _ in range(6 * (env.nprocs - 1)):
                msg = yield env.recv(ANY, tag=ANY)
                got.append((msg.src, msg.tag))
            return got
        for i in range(6):
            yield env.work(ops=20 * env.pid)
            yield env.send(0, env.pid, tag=env.pid % 5, nbytes=nbytes(i))
        return None

    return program


def _allreduce(env):
    acc = float(env.pid)
    for _ in range(3):
        acc = yield from collectives.allreduce(Comm.world(env), acc,
                                               operator.add, nbytes=8)
    return acc


def _closure_recv(env, src):
    return env.recv(src, tag=7, timeout=100.0)


def _raw_recv(env, src):
    return Recv(src, 7, 100.0)


def _timed(make_recv, sender_first):
    """One message, one timed receive that it beats.  With the sender on
    the lower pid the drive order has it on the stream before the receive
    is posted (satisfied at once); the other way round the receive is
    posted first (parked)."""
    sender, receiver = (0, 1) if sender_first else (1, 0)

    def program(env):
        if env.pid == receiver:
            msg = yield make_recv(env, sender)
            return msg.payload
        yield env.send(receiver, "quick", tag=7)
        return None

    return program


def _two_wildcard_receivers(env):
    if env.pid < 2:
        first = yield env.recv(ANY, tag=env.pid)
        second = yield env.recv(ANY, tag=env.pid)
        return (first.src, second.src)
    yield env.work(ops=99 * env.pid)
    yield env.send(0, env.pid, tag=0, nbytes=16)
    yield env.send(1, env.pid, tag=1, nbytes=16)
    return None


def _farm(env):
    """Request/reply: rank 0's next wildcard pick depends on replies it
    has not sent yet, so it blocks together with its workers."""
    if env.pid == 0:
        for _ in range(3 * (env.nprocs - 1)):
            msg = yield env.recv(ANY, tag=1)
            yield env.work(ops=10)
            yield env.send(msg.src, msg.payload, tag=2, nbytes=16)
        return None
    got = []
    for i in range(3):
        yield env.work(ops=30 * env.pid + 7 * i)
        yield env.send(0, (env.pid, i), tag=1, nbytes=16)
        got.append((yield env.recv(0, tag=2)).payload)
    return got


def _reliable_ring(env):
    chan = ReliableChannel(env)
    right = (env.pid + 1) % env.nprocs
    left = (env.pid - 1) % env.nprocs
    total = 0
    for r in range(3):
        yield from chan.send(right, env.pid + r, tag=1)
        total += yield from chan.recv(left, tag=1)
    yield from chan.drain()
    return total


class TestWhoServesWhat:
    """The batched engine keeps the shapes it wins (``engine_raw``'s four
    programs: ~2.2x over per-event, ``docs/calibration.md``) and declines
    the rest at first sight.  A change that silently moved a kept shape
    to the fallback would otherwise surface only as a 2x host timing."""

    @pytest.mark.parametrize("program, topo", [
        (_ring, lambda: Ring(8)),
        (_funnel(lambda i: 16), lambda: FullyConnected(8)),
        (_allreduce, lambda: Hypercube(3)),
    ], ids=["ring", "monotone-funnel", "allreduce"])
    def test_kept_shapes_are_served_natively(self, verdicts, program, topo):
        _paired(program, topo)
        assert verdicts == ["served"]

    def test_table1_sort_is_served_natively(self, verdicts):
        from repro.apps.sort import hyperquicksort_machine

        values = np.random.default_rng(5).integers(0, 10_000, size=1_000)
        out, _res = hyperquicksort_machine(values, 3)
        assert np.array_equal(out, np.sort(values))
        assert verdicts == ["served"]

    @pytest.mark.parametrize("program, topo", [
        (_timed(_closure_recv, sender_first=True), lambda: FullyConnected(2)),
        (_timed(_closure_recv, sender_first=False), lambda: FullyConnected(2)),
        (_timed(_raw_recv, sender_first=True), lambda: FullyConnected(2)),
        (_two_wildcard_receivers, lambda: FullyConnected(4)),
        (_farm, lambda: FullyConnected(5)),
        (_funnel(lambda i: 200_000 if i % 3 == 0 else 16),
         lambda: FullyConnected(8)),
        (_reliable_ring, lambda: Ring(4)),
    ], ids=["timed-satisfied-at-once", "timed-parked", "timed-raw-request",
            "two-blocked-wildcard-receivers", "request-reply-farm",
            "non-monotone-wildcard-drain", "reliable-channel-ring"])
    def test_declined_shapes_equal_the_per_event_engine(
            self, verdicts, program, topo):
        _paired(program, topo)
        assert verdicts == ["declined"]

    def test_a_decline_cannot_be_swallowed_by_the_program(self, verdicts):
        """The closures run in the program's frame; the decline is raised
        from the drive loop, outside any ``except`` the program wraps
        around its requests."""

        def program(env):
            if env.pid == 0:
                try:
                    msg = yield env.recv(1, tag=7, timeout=100.0)
                except Exception:  # noqa: BLE001 - the point of the test
                    return "swallowed"
                return msg.payload
            yield env.send(0, "quick", tag=7)
            return None

        res = _paired(program, lambda: FullyConnected(2))
        assert res.values[0] == "quick"
        assert verdicts == ["declined"]
