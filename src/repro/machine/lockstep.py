"""Lockstep timeline: virtual clocks driven directly by a whole-machine walk.

The engines in :mod:`repro.machine.simulator` and
:mod:`repro.machine.batch` discover a run's timing by scheduling p
generator programs.  When a program's communication structure is static —
a lowered plan: no wildcard receives, every receive a concrete
``(src, tag)`` FIFO — the schedule carries no information: each
processor's clock is a pure function of its own request order and of the
arrival times of the messages it consumes.  A *walk* that visits the
requests of all processors in any order consistent with "a message is
sent before it is received" therefore computes the same clocks by plain
arithmetic, with no generators, heap or request objects.

:class:`Lockstep` is that arithmetic, at two grains:

* **per request** — :meth:`~Lockstep.work` / :meth:`~Lockstep.compute` /
  :meth:`~Lockstep.send` / :meth:`~Lockstep.poll` / :meth:`~Lockstep.recv`:
  the send / receive / compute clock rules, the per-``(src, dst, tag)``
  FIFO mailboxes, and every check the engines make on the same requests.
  This is the API of a walk written by hand, and the reference the bulk
  steps are tested against;
* **per instruction** — :meth:`~Lockstep.work_all` and
  :meth:`~Lockstep.exchange`: one call charges every processor, or moves
  every message of a static send/receive pattern.  Which send each
  receive consumes is not rediscovered message by message: :func:`wire`
  works it out from the tables alone, once, and ``exchange`` follows it
  with no request checks, ``Message`` or mailbox.  Per processor the bulk
  steps make *exactly* the float additions the per-request rules make, in
  the same order, so the two grains agree in every clock and statistic
  with ``==`` (``tests/machine/test_lockstep.py::TestBulkSteps``).

:meth:`Machine.run <repro.machine.simulator.Machine.run>` hands a
``Lockstep`` to a program's ``walk`` on fault-free, multi-port runs and
turns the walk's final values into the
:class:`~repro.machine.simulator.RunResult` the engines would have
produced — equal in values, ``events`` and every
:class:`~repro.machine.simulator.ProcStats` field, because each
processor's float sums see the same additions in the same order.

On a traced machine the timeline carries the run's
:class:`~repro.machine.trace.Trace`, and every request — per-request or
bulk — records the event the per-event engine records for it, with the
same kind, start, end and detail, attributed to :attr:`Lockstep.span`
(which the walk sets as it goes).  Each processor's events come out in
its own program order, so per processor the two traces are equal.  What
differs is the *global* interleaving: the walk records instruction by
instruction, the engine in scheduling order.  That is the order a
streaming sink sees, and it decides which events a ring-buffered trace
(``trace_limit``) keeps; its ``dropped`` count and length are the same.
The untraced steps pick their untraced loop up front and pay nothing per
message for this.

One restriction follows from walking instead of scheduling: a receive
must find its message already sent.  A per-request receive that does not
raises :class:`~repro.errors.DeadlockError` immediately, where an engine
would have waited for a send later in some other processor's program; a
pattern :func:`wire` cannot match is not walked at all.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Sequence

from repro.errors import DeadlockError, MachineError
from repro.machine.cost import estimate_nbytes
from repro.machine.events import Message
from repro.machine.simulator import ProcStats, RunResult
from repro.machine.trace import Span, Trace

__all__ = ["Lockstep", "wire"]

# Message is a NamedTuple; the raw tuple constructor skips its Python-level
# __new__ wrapper (the same shortcut the batched engine takes per delivery).
_tnew = tuple.__new__


def wire(sends: Sequence[Sequence[int]], recvs: Sequence[Sequence[int]]
         ) -> tuple[tuple[int, ...], ...] | None:
    """Match a static pattern's receives to its sends, from the tables alone.

    ``sends[r]`` lists the destinations processor ``r`` sends to, in order;
    ``recvs[r]`` the sources it then receives from, in order, an entry
    equal to ``r`` meaning "take the local value" (no message).  Sends are
    numbered in table order — processor 0's first, then its second, …,
    then processor 1's — and the result gives, per processor, the number
    (*slot*) of the send each of its receives consumes: first-in first-out
    per repeated ``(src, dst)`` pair, ``-1`` for a local entry.  This is
    the matching a run of the same requests would discover message by
    message, and what :meth:`Lockstep.exchange` follows.

    Returns ``None`` when no such matching exists — the tables differ in
    length, a destination is not a processor, a processor sends to itself,
    a send is never received or a receive never sent — so that a caller
    can leave the pattern to a path that reports the error.
    """
    n = len(sends)
    if len(recvs) != n:
        return None
    unmatched: dict[tuple[int, int], deque[int]] = {}
    slot = 0
    for src, dsts in enumerate(sends):
        for dst in dsts:
            if dst.__class__ is not int or not 0 <= dst < n or dst == src:
                return None
            queue = unmatched.get((src, dst))
            if queue is None:
                unmatched[src, dst] = queue = deque()
            queue.append(slot)
            slot += 1
    unreceived = slot
    slots = []
    for dst, srcs in enumerate(recvs):
        row = []
        for src in srcs:
            if src == dst:
                row.append(-1)
                continue
            queue = unmatched.get((src, dst))
            if not queue:
                return None
            row.append(queue.popleft())
            unreceived -= 1
        slots.append(tuple(row))
    return tuple(slots) if unreceived == 0 else None


class Lockstep:
    """Clocks, mailboxes and accounting of all p processors of one run.

    A per-request method is one simulator request made by processor
    ``pid``; requests of one processor must be made in its program order,
    requests of different processors in any order that sends before it
    receives.  :meth:`work_all` and :meth:`exchange` are one such request
    sequence for *every* processor at once.  With a ``trace`` every
    request records its event there (see the module docstring).
    """

    __slots__ = ("spec", "clock", "trace", "span", "_topology", "_n",
                 "_stats", "_boxes", "_hop_rows", "_events", "_seq")

    def __init__(self, machine: Any, trace: Trace | None = None):
        self.spec = machine.spec
        self._topology = machine.topology
        n = self._n = machine.nprocs
        #: Per-processor virtual clocks (seconds).
        self.clock = [0.0] * n
        #: The run's trace, or ``None`` when the run records none.
        self.trace = trace
        #: The span the events recorded from now on are attributed to.
        self.span: Span | None = None
        self._stats = [ProcStats(pid=pid) for pid in range(n)]
        self._boxes: dict[tuple[int, int, Any], deque[Message]] = {}
        self._hop_rows: list[list[int] | None] = [None] * n
        self._events = 0
        self._seq = 0

    @property
    def nprocs(self) -> int:
        return self._n

    def compute(self, pid: int, seconds: float) -> None:
        """Charge ``seconds`` of CPU time (``yield env.compute(seconds)``)."""
        if not seconds >= 0:
            raise MachineError(
                f"processor {pid}: compute seconds must be non-negative, "
                f"got {seconds!r}")
        self._charge(pid, seconds)

    def work(self, pid: int, ops: float) -> None:
        """Charge ``ops`` elementary operations (``yield env.work(ops)``)."""
        if not ops >= 0:
            raise MachineError(
                f"processor {pid}: ops must be non-negative, got {ops!r}")
        self._charge(pid, ops * self.spec.flop_time)

    def _charge(self, pid: int, seconds: float) -> None:
        start = self.clock[pid]
        self.clock[pid] = end = start + seconds
        self._stats[pid].compute_seconds += seconds
        self._events += 1
        if self.trace is not None:
            self.trace.record(pid, "compute", start, end, span=self.span)

    def work_all(self, ops: Sequence[float]) -> None:
        """Charge processor ``pid`` ``ops[pid]`` elementary operations, for
        every processor: :meth:`work` in rank order."""
        if self.trace is not None:
            for pid, n in enumerate(ops):
                self.work(pid, n)
            return
        flop_time = self.spec.flop_time
        clock = self.clock
        stats = self._stats
        for pid, n in enumerate(ops):
            if not n >= 0:
                raise MachineError(
                    f"processor {pid}: ops must be non-negative, got {n!r}")
            seconds = n * flop_time
            clock[pid] += seconds
            stats[pid].compute_seconds += seconds
        self._events += len(ops)

    def send(self, pid: int, dst: int, payload: Any, tag: Any = 0,
             nbytes: int | None = None) -> None:
        """Post ``payload`` from ``pid`` to ``dst`` (``yield env.send(...)``).

        The sender pays ``send_overhead``; the message arrives
        :meth:`MachineSpec.transfer_time
        <repro.machine.cost.MachineSpec.transfer_time>` after that.
        """
        if dst.__class__ is not int or not 0 <= dst < self._n:
            self._topology.check_node(dst)
        if dst == pid:
            raise MachineError(f"processor {pid} sent a message to itself")
        spec = self.spec
        if nbytes is None:
            nbytes = estimate_nbytes(payload, spec.word_bytes)
        elif nbytes.__class__ is not int:
            nbytes = int(nbytes)
        if nbytes < 0:
            raise MachineError(
                f"processor {pid}: nbytes must be non-negative, got {nbytes}")
        clock = self.clock
        overhead = spec.send_overhead
        t0 = clock[pid]
        clock[pid] = t1 = t0 + overhead
        st = self._stats[pid]
        st.overhead_seconds += overhead
        st.msgs_sent += 1
        st.bytes_sent += nbytes
        row = self._hop_rows[pid]
        if row is None:
            row = self._hop_rows[pid] = self._topology.hop_row(pid)
        self._seq = seq = self._seq + 1
        msg = _tnew(Message, (pid, dst, tag, payload, nbytes, t0,
                              t1 + spec.transfer_time(nbytes, row[dst]), seq))
        key = (pid, dst, tag)
        box = self._boxes.get(key)
        if box is None:
            self._boxes[key] = box = deque()
        box.append(msg)
        self._events += 1
        if self.trace is not None:
            self.trace.record(pid, "send", t0, t1, span=self.span,
                              dst=dst, tag=tag, nbytes=nbytes)

    def poll(self, pid: int, src: int, tag: Any) -> Message | None:
        """Complete ``pid``'s receive on ``(src, tag)`` if its message has
        been sent — FIFO per ``(src, dst, tag)`` — else return ``None``
        and change nothing."""
        box = self._boxes.get((src, pid, tag))
        if not box:
            return None
        msg = box.popleft()
        clock = self.clock
        now = start = clock[pid]
        arrival = msg[6]
        st = self._stats[pid]
        if arrival > now:
            st.idle_seconds += arrival - now
            now = arrival
        overhead = self.spec.recv_overhead
        clock[pid] = end = now + overhead
        st.overhead_seconds += overhead
        st.msgs_received += 1
        st.bytes_received += msg[4]
        self._events += 1
        if self.trace is not None:
            self.trace.record(pid, "recv", start, end, span=self.span,
                              src=src, tag=tag, nbytes=msg[4])
        return msg

    def recv(self, pid: int, src: int, tag: Any) -> Message:
        """``pid``'s blocking receive on ``(src, tag)``
        (``msg = yield env.recv(src, tag=tag)``)."""
        msg = self.poll(pid, src, tag)
        if msg is None:
            raise DeadlockError(
                f"deadlock: processor {pid} blocked on a receive from "
                f"{src} (tag {tag}) that no send matches")
        return msg

    def exchange(self, sends: Sequence[Sequence[int]],
                 slots: Sequence[Sequence[int]],
                 sizes: Sequence[int], tag: Any = 0) -> None:
        """One static pattern for the whole machine: every processor's
        sends in table order, then every processor's receives in table
        order, all on ``tag``.

        ``sends`` is the pattern's send table and ``slots`` what
        :func:`wire` returned for it (not ``None``); processor ``pid``
        sends ``sizes[pid]`` bytes to each of its destinations (the entry
        of a processor that sends nothing is not read).  Only time and
        statistics move here — the caller knows from its receive table
        whose value each receive delivers.  Equal, in every clock,
        :class:`~repro.machine.simulator.ProcStats` field and traced
        event, to the same requests made through :meth:`send` and
        :meth:`recv`.
        """
        if self.trace is not None:
            self._exchange_traced(sends, slots, sizes, tag)
            return
        spec = self.spec
        clock = self.clock
        stats = self._stats
        hop_rows = self._hop_rows
        send_overhead = spec.send_overhead
        latency = spec.latency
        per_hop = spec.per_hop_latency
        bandwidth = spec.bandwidth
        #: per send slot: when the message arrives, and its size
        arrivals: list[float] = []
        carried: list[int] = []
        for pid, dsts in enumerate(sends):
            if not dsts:
                continue
            nbytes = sizes[pid]
            if nbytes < 0:
                raise MachineError(
                    f"processor {pid}: nbytes must be non-negative, "
                    f"got {nbytes}")
            hops = hop_rows[pid]
            if hops is None:
                hops = hop_rows[pid] = self._topology.hop_row(pid)
            wire_time = nbytes / bandwidth
            st = stats[pid]
            t = clock[pid]
            overhead = st.overhead_seconds
            for dst in dsts:
                # the per-request rule, addition for addition: pay the
                # overhead, then MachineSpec.transfer_time on top of it
                t = t + send_overhead
                overhead += send_overhead
                arrivals.append(
                    t + (latency + per_hop * (hops[dst] - 1) + wire_time))
            clock[pid] = t
            st.overhead_seconds = overhead
            st.msgs_sent += len(dsts)
            st.bytes_sent += nbytes * len(dsts)
            carried += [nbytes] * len(dsts)
        recv_overhead = spec.recv_overhead
        for pid, row in enumerate(slots):
            if not row:
                continue
            st = stats[pid]
            now = clock[pid]
            received = nbytes = 0
            for slot in row:
                if slot < 0:
                    continue
                arrival = arrivals[slot]
                if arrival > now:
                    st.idle_seconds += arrival - now
                    now = arrival
                now = now + recv_overhead
                st.overhead_seconds += recv_overhead
                received += 1
                nbytes += carried[slot]
            if received:
                clock[pid] = now
                st.msgs_received += received
                st.bytes_received += nbytes
        self._events += 2 * len(arrivals)

    def _exchange_traced(self, sends, slots, sizes, tag) -> None:
        """:meth:`exchange`'s additions, recording each message's ``send``
        and ``recv`` event as the engines do; a slot also remembers its
        sender, which the receive's event names."""
        spec = self.spec
        clock = self.clock
        stats = self._stats
        hop_rows = self._hop_rows
        record = self.trace.record
        span = self.span
        send_overhead = spec.send_overhead
        latency = spec.latency
        per_hop = spec.per_hop_latency
        #: per send slot: when the message arrives, its size and its sender
        arrivals: list[float] = []
        carried: list[int] = []
        senders: list[int] = []
        for pid, dsts in enumerate(sends):
            if not dsts:
                continue
            nbytes = sizes[pid]
            if nbytes < 0:
                raise MachineError(
                    f"processor {pid}: nbytes must be non-negative, "
                    f"got {nbytes}")
            hops = hop_rows[pid]
            if hops is None:
                hops = hop_rows[pid] = self._topology.hop_row(pid)
            wire_time = nbytes / spec.bandwidth
            st = stats[pid]
            t = clock[pid]
            for dst in dsts:
                start = t
                t = t + send_overhead
                st.overhead_seconds += send_overhead
                arrivals.append(
                    t + (latency + per_hop * (hops[dst] - 1) + wire_time))
                record(pid, "send", start, t, span=span,
                       dst=dst, tag=tag, nbytes=nbytes)
            clock[pid] = t
            st.msgs_sent += len(dsts)
            st.bytes_sent += nbytes * len(dsts)
            carried += [nbytes] * len(dsts)
            senders += [pid] * len(dsts)
        recv_overhead = spec.recv_overhead
        for pid, row in enumerate(slots):
            st = stats[pid]
            now = clock[pid]
            for slot in row:
                if slot < 0:
                    continue
                start = now
                arrival = arrivals[slot]
                if arrival > now:
                    st.idle_seconds += arrival - now
                    now = arrival
                now = now + recv_overhead
                st.overhead_seconds += recv_overhead
                st.msgs_received += 1
                st.bytes_received += carried[slot]
                record(pid, "recv", start, now, span=span,
                       src=senders[slot], tag=tag, nbytes=carried[slot])
            clock[pid] = now
        self._events += 2 * len(arrivals)

    def finish(self, values: list) -> RunResult:
        """Every processor returns: check the mailboxes are empty and
        build the run's result over the per-processor ``values``."""
        stats = self._stats
        if len(values) != self._n:
            raise MachineError(
                f"expected {self._n} final values, got {len(values)}")
        if (sum(st.msgs_sent for st in stats)
                != sum(st.msgs_received for st in stats)):
            left = [0] * self._n
            for (_src, dst, _tag), box in self._boxes.items():
                left[dst] += len(box)
            pid = next(p for p, k in enumerate(left) if k)
            raise MachineError(
                f"processor {pid} finished with {left[pid]} unconsumed "
                f"messages in its mailbox")
        for st, t in zip(stats, self.clock):
            st.finish_time = t
        return RunResult(values=values, stats=stats, trace=self.trace,
                         events=self._events)
