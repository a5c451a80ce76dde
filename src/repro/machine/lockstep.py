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

The same argument makes one ``Lockstep`` enough for ``k`` independent
runs: on :meth:`Machine.copies <repro.machine.simulator.Machine.copies>`
it spans ``k`` copies of the machine, processor ``c·m + j`` being copy
``c``'s processor ``j``.  Its hop rows are block-diagonal views of the
base topology's: processor ``c·m + j`` reads the base row of ``j``, with
the destinations of a bulk step's send table named within the sender's
copy (:meth:`~Lockstep.exchange`), so a send is priced on its own copy's
route, the copies share the base's rows (O(k·m) references, no row built
per copy) and ``k = 1`` is the ordinary machine.  No message crosses
copies, and each processor's float additions are those of its solo run
— so :meth:`RunResult.split <repro.machine.simulator.RunResult.split>`
of the finished run is ``==`` the ``k`` solo runs.

That argument needs each clock to depend only on its own processor's
requests and the arrivals it consumes.  The one-port contention model
breaks it: the engine reserves a processor's send and receive ports in
its global ``(issue time, pid)`` order, and across instructions a fast
processor's next send can take a port before a slow processor's send of
an earlier instruction.  So a single-port run's walk gets a
:class:`Recorder` instead — the same interface, with the same request
checks, timing nothing — and the engine replays and times what it
recorded.

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
Tracing is an input to the one loop of each step, not a second copy of
it: a bulk step builds its events in that loop and hands them to the
trace in one :meth:`~repro.machine.trace.Trace.extend`, and an untraced
step pays one ``add is not None`` test per message.

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
from repro.machine.events import Compute, Message, Recv, Send
from repro.machine.simulator import (ProcStats, RunResult, negative_error,
                                     send_size)
from repro.machine.topology import Copies
from repro.machine.trace import NO_DETAIL, Span, Trace, TraceEvent, frozendetail

__all__ = ["Lockstep", "Recorder", "wire"]

# Message and TraceEvent are named tuples; the raw tuple constructor skips
# their Python-level __new__ (the same shortcut the batched engine takes per
# delivery).  A bulk step's events carry an already-frozen detail.
_tnew = tuple.__new__
_NAN = float("nan")


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


class _Timeline:
    """What a walk sees of the machine, the per-``(src, dst, tag)`` FIFO
    mailboxes of its per-request sends, and the checks the engines make on
    each request, with their messages — shared by both timelines, so a
    request raises the same error whichever of them a walk drives.  A
    timeline adds ``_charge`` (a checked compute request) and ``poll``."""

    __slots__ = ("spec", "span", "_topology", "_n", "_boxes", "_seq")

    def __init__(self, machine: Any):
        self.spec = machine.spec
        self._topology = machine.topology
        self._n = machine.nprocs
        #: The span the requests made from now on are attributed to.
        self.span: Span | None = None
        self._boxes: dict[tuple[int, int, Any], deque[Message]] = {}
        self._seq = 0

    @property
    def nprocs(self) -> int:
        return self._n

    def compute(self, pid: int, seconds: float) -> None:
        """Charge ``seconds`` of CPU time (``yield env.compute(seconds)``)."""
        if not seconds >= 0:
            raise negative_error(pid, "compute seconds", seconds)
        self._charge(pid, seconds)

    def work(self, pid: int, ops: float) -> None:
        """Charge ``ops`` elementary operations (``yield env.work(ops)``)."""
        if not ops >= 0:
            raise negative_error(pid, "ops", ops)
        self._charge(pid, ops * self.spec.flop_time)

    def recv(self, pid: int, src: int, tag: Any) -> Message:
        """``pid``'s blocking receive on ``(src, tag)``
        (``msg = yield env.recv(src, tag=tag)``)."""
        msg = self.poll(pid, src, tag)
        if msg is None:
            raise DeadlockError(
                f"deadlock: processor {pid} blocked on a receive from "
                f"{src} (tag {tag}) that no send matches")
        return msg

    def _post(self, pid: int, dst: int, tag: Any, payload: Any, nbytes: int,
              sent_at: float, arrival: float) -> None:
        self._seq = seq = self._seq + 1
        key = (pid, dst, tag)
        box = self._boxes.get(key)
        if box is None:
            self._boxes[key] = box = deque()
        box.append(_tnew(Message, (pid, dst, tag, payload, nbytes, sent_at,
                                   arrival, seq)))

    def _take(self, pid: int, src: int, tag: Any) -> Message | None:
        """The oldest message from ``src`` to ``pid`` on ``tag``, if any."""
        box = self._boxes.get((src, pid, tag))
        return box.popleft() if box else None

    def _check_values(self, values: list) -> None:
        if len(values) != self._n:
            raise MachineError(
                f"expected {self._n} final values, got {len(values)}")


class Lockstep(_Timeline):
    """Clocks, mailboxes and accounting of all p processors of one run.

    A per-request method is one simulator request made by processor
    ``pid``; requests of one processor must be made in its program order,
    requests of different processors in any order that sends before it
    receives.  :meth:`work_all` and :meth:`exchange` are one such request
    sequence for *every* processor at once.  With a ``trace`` every
    request records its event there (see the module docstring).
    """

    __slots__ = ("clock", "trace", "_stats", "_hop_rows", "_routes",
                 "_block", "_events")

    def __init__(self, machine: Any, trace: Trace | None = None):
        super().__init__(machine)
        n = self._n
        #: Per-processor virtual clocks (seconds).
        self.clock = [0.0] * n
        #: The run's trace, or ``None`` when the run records none.
        self.trace = trace
        self._stats = [ProcStats(pid=pid) for pid in range(n)]
        self._hop_rows: list[list[int] | None] = [None] * n
        # on copies of a machine, processor ``pid`` routes as processor
        # ``pid % block`` of the base; an ordinary machine is its own one
        # copy
        topology = self._topology
        self._routes = topology.base if isinstance(topology, Copies) \
            else topology
        self._block = self._routes.size
        self._events = 0

    @property
    def tracing(self) -> bool:
        """True when the run records a trace."""
        return self.trace is not None

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
        flop_time = self.spec.flop_time
        clock = self.clock
        stats = self._stats
        batch: list[TraceEvent] = []
        add = None if self.trace is None else batch.append
        span = self.span
        for pid, n in enumerate(ops):
            if not n >= 0:
                raise negative_error(pid, "ops", n)
            seconds = n * flop_time
            start = clock[pid]
            clock[pid] = end = start + seconds
            stats[pid].compute_seconds += seconds
            if add is not None:
                add(_tnew(TraceEvent,
                          (pid, "compute", start, end, NO_DETAIL, span)))
        self._events += len(ops)
        if batch:
            self.trace.extend(batch)

    def send(self, pid: int, dst: int, payload: Any, tag: Any = 0,
             nbytes: int | None = None) -> None:
        """Post ``payload`` from ``pid`` to ``dst`` (``yield env.send(...)``).

        The sender pays ``send_overhead``; the message arrives
        :meth:`MachineSpec.transfer_time
        <repro.machine.cost.MachineSpec.transfer_time>` after that.
        """
        nbytes = send_size(pid, dst, payload, nbytes, self._n,
                            self._topology, self.spec.word_bytes)
        block = self._block
        within = dst - (pid - pid % block)  # dst's rank in pid's copy
        if not 0 <= within < block:
            self._topology.hops(pid, dst)  # no route: raises
        row = self._hop_rows[pid]
        if row is None:
            row = self._hop_rows[pid] = self._routes.hop_row(pid % block)
        spec = self.spec
        clock = self.clock
        overhead = spec.send_overhead
        t0 = clock[pid]
        clock[pid] = t1 = t0 + overhead
        st = self._stats[pid]
        st.overhead_seconds += overhead
        st.msgs_sent += 1
        st.bytes_sent += nbytes
        self._post(pid, dst, tag, payload, nbytes, t0,
                   t1 + spec.transfer_time(nbytes, row[within]))
        self._events += 1
        if self.trace is not None:
            self.trace.record(pid, "send", t0, t1, span=self.span,
                              dst=dst, tag=tag, nbytes=nbytes)

    def poll(self, pid: int, src: int, tag: Any) -> Message | None:
        """Complete ``pid``'s receive on ``(src, tag)`` if its message has
        been sent — FIFO per ``(src, dst, tag)`` — else return ``None``
        and change nothing."""
        msg = self._take(pid, src, tag)
        if msg is None:
            return None
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

        A destination is read for its route alone (and a traced event's
        detail): ``slots`` say which send each receive takes.  So on
        copies of a machine (:meth:`Machine.copies
        <repro.machine.simulator.Machine.copies>`) ``sends`` names each
        destination within its sender's copy, as
        :func:`repro.plan.vexec.copied` does, and the step is the
        ordinary machine's, addition for addition.
        """
        spec = self.spec
        clock = self.clock
        stats = self._stats
        hop_rows = self._hop_rows
        batch: list[TraceEvent] = []
        add = None if self.trace is None else batch.append
        span = self.span
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
                raise negative_error(pid, "nbytes", nbytes)
            hops = hop_rows[pid]
            if hops is None:
                hops = hop_rows[pid] = self._routes.hop_row(pid % self._block)
            wire_time = nbytes / bandwidth
            st = stats[pid]
            t = clock[pid]
            overhead = st.overhead_seconds
            for dst in dsts:
                # the per-request rule, addition for addition: pay the
                # overhead, then MachineSpec.transfer_time on top of it
                start = t
                t = t + send_overhead
                overhead += send_overhead
                arrivals.append(
                    t + (latency + per_hop * (hops[dst] - 1) + wire_time))
                if add is not None:
                    add(_tnew(TraceEvent, (pid, "send", start, t, frozendetail(
                        dst=dst, tag=tag, nbytes=nbytes), span)))
            clock[pid] = t
            st.overhead_seconds = overhead
            st.msgs_sent += len(dsts)
            st.bytes_sent += nbytes * len(dsts)
            carried += [nbytes] * len(dsts)
        if add is not None:
            # per send slot, the sender a traced receive's event names
            senders = [pid for pid, dsts in enumerate(sends) for _ in dsts]
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
                start = now
                arrival = arrivals[slot]
                if arrival > now:
                    st.idle_seconds += arrival - now
                    now = arrival
                now = now + recv_overhead
                st.overhead_seconds += recv_overhead
                received += 1
                nbytes += carried[slot]
                if add is not None:
                    add(_tnew(TraceEvent, (pid, "recv", start, now, frozendetail(
                        src=senders[slot], tag=tag, nbytes=carried[slot]),
                        span)))
            if received:
                clock[pid] = now
                st.msgs_received += received
                st.bytes_received += nbytes
        self._events += 2 * len(arrivals)
        if batch:
            self.trace.extend(batch)

    def finish(self, values: list) -> RunResult:
        """Every processor returns: check the mailboxes are empty and
        build the run's result over the per-processor ``values``."""
        stats = self._stats
        self._check_values(values)
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


class Recorder(_Timeline):
    """What each of the p processors of one run asks for, in its order.

    The second timeline a walk can drive: the interface of
    :class:`Lockstep` — the per-request methods and the bulk steps, with
    the same request checks and messages, raised as each request is made
    — but nothing is timed.  Each call appends the processor's
    :class:`~repro.machine.events.Compute`, ``Send`` or ``Recv`` request
    to its list, beside the :attr:`span` current at the time on a
    tracing recorder.  :meth:`finish` hands the lists to
    :meth:`Machine.run <repro.machine.simulator.Machine.run>`, which
    replays them on the per-event engine: every processor issues the
    requests the per-rank programs would have issued, in the same order,
    so clocks, statistics, ``events`` and a traced run's whole event list
    are the engine's own.  This is how a single-port machine runs a walk:
    its port reservations depend on the global ``(time, pid)`` order in
    which the engine issues sends *across* instructions, which a walk in
    instruction order does not see (``tests/machine/test_single_port.py``
    holds a counterexample), so its timing rule stays stated in the
    engine alone.

    A received :class:`~repro.machine.events.Message` carries its payload
    and size; its ``sent_at`` and ``arrival`` are NaN, and there is no
    ``clock``: a walk on a recorder reads payloads, never time.
    """

    __slots__ = ("_requests", "_spans")

    def __init__(self, machine: Any):
        super().__init__(machine)
        n = self._n
        self._requests: list[list[Any]] = [[] for _ in range(n)]
        #: per processor, the span of each request (tracing machines only)
        self._spans: list[list[Span | None]] | None = (
            [[] for _ in range(n)] if machine.record_trace else None)

    @property
    def tracing(self) -> bool:
        """True when the run records a trace (so spans are kept)."""
        return self._spans is not None

    def _add(self, pid: int, request: Any) -> None:
        self._requests[pid].append(request)
        if self._spans is not None:
            self._spans[pid].append(self.span)

    def _charge(self, pid: int, seconds: float) -> None:
        self._add(pid, Compute(float(seconds)))

    def work_all(self, ops: Sequence[float]) -> None:
        """:meth:`work` for every processor, in rank order."""
        flop_time = self.spec.flop_time
        spans = self._spans
        span = self.span
        for pid, (n, requests) in enumerate(zip(ops, self._requests)):
            if not n >= 0:
                raise negative_error(pid, "ops", n)
            requests.append(Compute(float(n * flop_time)))
            if spans is not None:
                spans[pid].append(span)

    def send(self, pid: int, dst: int, payload: Any, tag: Any = 0,
             nbytes: int | None = None) -> None:
        """Record ``pid``'s send of ``payload`` to ``dst``."""
        nbytes = send_size(pid, dst, payload, nbytes, self._n,
                            self._topology, self.spec.word_bytes)
        self._add(pid, Send(dst, None, tag, nbytes))
        self._post(pid, dst, tag, payload, nbytes, _NAN, _NAN)

    def poll(self, pid: int, src: int, tag: Any) -> Message | None:
        """Record ``pid``'s receive on ``(src, tag)`` and return its
        message if that has been sent, else return ``None`` and record
        nothing."""
        msg = self._take(pid, src, tag)
        if msg is not None:
            self._add(pid, Recv(src, tag))
        return msg

    def exchange(self, sends: Sequence[Sequence[int]],
                 slots: Sequence[Sequence[int]],
                 sizes: Sequence[int], tag: Any = 0) -> None:
        """Record one static pattern (:meth:`Lockstep.exchange`): every
        processor's sends in table order, then every processor's receives
        in table order."""
        requests = self._requests
        spans = self._spans
        span = self.span
        senders: list[int] = []
        for pid, dsts in enumerate(sends):
            if not dsts:
                continue
            nbytes = sizes[pid]
            if nbytes < 0:
                raise negative_error(pid, "nbytes", nbytes)
            requests[pid] += [Send(dst, None, tag, nbytes) for dst in dsts]
            if spans is not None:
                spans[pid] += [span] * len(dsts)
            senders += [pid] * len(dsts)
        for pid, row in enumerate(slots):
            got = [Recv(senders[slot], tag) for slot in row if slot >= 0]
            if got:
                requests[pid] += got
                if spans is not None:
                    spans[pid] += [span] * len(got)

    def finish(self, values: list) -> list[tuple]:
        """Every processor returns: per processor, ``(requests, spans,
        value)`` — its recorded requests, their spans (``None`` when the
        run records no trace) and its final value."""
        self._check_values(values)
        spans = self._spans or [None] * self._n
        return list(zip(self._requests, spans, values))
