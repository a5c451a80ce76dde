"""Execution traces for simulated runs.

When a :class:`~repro.machine.simulator.Machine` is created with
``record_trace=True`` it records one :class:`TraceEvent` per compute, send
and receive interval.  Traces power the communication-algebra benchmarks
(message counts before/after rewriting) and make Gantt-style inspection of
skeleton programs possible.

Fault-injected runs (``Machine(..., faults=...)``) add four more kinds:

* ``"retransmit"`` — a send issued by the reliable-messaging layer with
  ``Send.is_retransmit=True`` (same cost and detail as ``"send"``),
* ``"drop"`` — a message the network ate, either ``reason="injected"``
  (the fault model dropped it) or ``reason="peer-gone"`` (the destination
  had crashed or finished),
* ``"timeout"`` — a ``Recv`` whose deadline expired; spans the wait,
* ``"crash"`` — the zero-length instant a processor died.

Span attribution
----------------

Every event carries a :class:`Span` — a linked stack frame answering
"which skeleton, which plan instruction, which loop iteration produced
this interval?".  Plan executors push spans automatically (one per
instruction, one per loop iteration); raw machine programs can attribute
their own phases with the public context manager
:meth:`repro.machine.simulator.ProcEnv.span`::

    def program(env):
        with env.span("scatter"):
            local = yield from collectives.scatter(comm, blocks, root=0)

Spans are ``None`` when no frame is active (and always in runs recorded
before this layer existed), so untagged traces keep working unchanged.

Streaming and bounded traces
----------------------------

``Trace`` accepts an optional *sink* (any object with ``emit(event)`` /
``close()`` — see :mod:`repro.obs.sinks`) that observes every event as it
is recorded, enabling JSONL / Chrome-trace streaming without holding the
run in memory twice; and an optional ``max_events`` bound that turns the
in-memory store into a ring buffer (oldest events evicted, eviction count
kept in :attr:`Trace.dropped`) so million-event chaos runs cannot OOM.
"""

from __future__ import annotations

import dataclasses
from collections import Counter, deque
from typing import Any, Iterable, Iterator, Mapping, NamedTuple, Sequence

__all__ = ["Span", "TraceEvent", "Trace", "frozendetail", "NO_DETAIL"]

_tnew = tuple.__new__


@dataclasses.dataclass(frozen=True, slots=True)
class Span:
    """One frame of the span-context stack (linked via ``parent``).

    ``label`` is the human name of the frame (skeleton name, instruction
    title, ``"iter 3"``); ``instr`` the position of a plan instruction in
    its instruction sequence; ``iteration`` the loop-iteration number.
    The root frame (``parent is None``) names the program/skeleton.
    """

    label: str
    instr: int | None = None
    iteration: int | None = None
    parent: "Span | None" = None

    def frames(self) -> tuple["Span", ...]:
        """The full stack, root first."""
        out: list[Span] = []
        node: Span | None = self
        while node is not None:
            out.append(node)
            node = node.parent
        out.reverse()
        return tuple(out)

    @property
    def root(self) -> "Span":
        """The outermost frame (the skeleton/program name)."""
        node = self
        while node.parent is not None:
            node = node.parent
        return node

    def path(self) -> str:
        """Human-readable root-to-leaf path, e.g. ``hqs/[2] exchange/iter 0``."""
        return "/".join(f.label for f in self.frames())

    def __str__(self) -> str:
        return self.path()


class frozendetail(dict):
    """An immutable, hashable mapping holding a :class:`TraceEvent`'s detail.

    Construction copies the source mapping, so events never alias a
    caller's (possibly reused) dict; all mutators raise ``TypeError``.
    Pickling and (deep) copying rebuild it through the constructor, never
    through the mutators.
    """

    __slots__ = ()

    def _immutable(self, *args: Any, **kwargs: Any) -> Any:
        raise TypeError("TraceEvent.detail is immutable")

    __setitem__ = _immutable
    __delitem__ = _immutable
    clear = _immutable
    pop = _immutable
    popitem = _immutable
    setdefault = _immutable
    update = _immutable
    __ior__ = _immutable

    def __hash__(self) -> int:  # type: ignore[override]
        return hash(frozenset(self.items()))

    def __reduce__(self) -> tuple:
        return frozendetail, (dict(self),)


#: The detail of every event that has none (every ``"compute"``).
NO_DETAIL = frozendetail()


class _TraceEventFields(NamedTuple):
    pid: int
    #: "compute" | "send" | "recv", plus under fault injection
    #: "retransmit" | "drop" | "timeout" | "crash".
    kind: str
    start: float
    end: float
    detail: frozendetail
    #: Innermost span frame active when the event was recorded (or None).
    span: Span | None


class TraceEvent(_TraceEventFields):
    """One timed interval on one processor.

    A named tuple, like :class:`~repro.machine.events.Message` and for the
    same reason: a traced run builds one per request.  The constructor
    freezes (and defensively copies) ``detail`` into a
    :class:`frozendetail`, so events are hashable, shareable and never
    alias the recorder's dict; ``_replace`` and ``_make`` go through it
    too.  Recorders that already hold a frozen detail skip it with
    ``tuple.__new__(TraceEvent, (pid, kind, start, end, detail, span))``.
    Being a tuple, an event is ``==`` to the plain tuple of its fields.
    """

    __slots__ = ()

    def __new__(cls, pid: int, kind: str, start: float, end: float,
                detail: Mapping[str, Any] = NO_DETAIL,
                span: Span | None = None) -> "TraceEvent":
        if type(detail) is not frozendetail:
            detail = frozendetail(detail)
        return _tnew(cls, (pid, kind, start, end, detail, span))

    @classmethod
    def _make(cls, iterable: Iterable[Any]) -> "TraceEvent":
        return cls(*iterable)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Trace:
    """An append-only sequence of :class:`TraceEvent` with query helpers.

    ``sink`` (optional) observes every event as it is recorded; see the
    module docstring.  ``max_events`` (optional) bounds the in-memory
    store as a ring buffer — evicted-event count in :attr:`dropped` —
    while a streaming sink still sees the complete event stream.
    """

    def __init__(self, *, sink: Any = None,
                 max_events: int | None = None) -> None:
        if max_events is not None and max_events <= 0:
            raise ValueError(f"max_events must be positive, got {max_events}")
        self._events: deque[TraceEvent] | list[TraceEvent]
        if max_events is None:
            self._events = []
        else:
            self._events = deque(maxlen=max_events)
        self._maxlen = max_events
        self._sink = sink
        #: Events evicted from the ring buffer (0 in unbounded mode).
        self.dropped = 0

    def record(self, pid: int, kind: str, start: float, end: float,
               *, span: Span | None = None, **detail: Any) -> None:
        """Append one event built from its fields (a per-request recorder)."""
        event = _tnew(TraceEvent, (pid, kind, start, end,
                                   frozendetail(detail) if detail
                                   else NO_DETAIL, span))
        events = self._events
        if self._maxlen is not None and len(events) == self._maxlen:
            self.dropped += 1
        events.append(event)
        if self._sink is not None:
            self._sink.emit(event)

    def extend(self, events: Sequence[TraceEvent]) -> None:
        """Append a batch of built events in order: the same store,
        ``dropped`` count and sink emissions as recording them one at a
        time (a bulk recorder, e.g. one walked plan instruction)."""
        store = self._events
        if self._maxlen is not None:
            self.dropped += max(0, len(store) + len(events) - self._maxlen)
        store.extend(events)
        sink = self._sink
        if sink is not None:
            for event in events:
                sink.emit(event)

    def __eq__(self, other: object) -> bool:
        """Equal events, in order, under the same bound and ``dropped``
        count; the sink a trace streams to is not part of its value."""
        if not isinstance(other, Trace):
            return NotImplemented
        return (self._maxlen == other._maxlen
                and self.dropped == other.dropped
                and list(self._events) == list(other._events))

    __hash__ = None  # type: ignore[assignment]

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    def events(self, *, pid: int | None = None,
               kind: str | None = None) -> list[TraceEvent]:
        """Events filtered by processor and/or kind."""
        return [
            e for e in self._events
            if (pid is None or e.pid == pid) and (kind is None or e.kind == kind)
        ]

    def kind_counts(self) -> Counter:
        """How many events of each kind were recorded."""
        return Counter(e.kind for e in self._events)

    def message_count(self) -> int:
        """Number of sends in the trace."""
        return sum(1 for e in self._events if e.kind == "send")

    def bytes_sent(self) -> int:
        """Total payload bytes across all sends."""
        return sum(e.detail.get("nbytes", 0) for e in self._events if e.kind == "send")

    def busy_intervals(self, pid: int) -> list[tuple[float, float]]:
        """(start, end) of every non-idle interval on ``pid``, in time order."""
        spans = [(e.start, e.end) for e in self.events(pid=pid) if e.duration > 0]
        return sorted(spans)

    def gantt(self, *, width: int = 60) -> str:
        """A coarse ASCII Gantt chart of the run (one row per processor)."""
        if not self._events:
            return "(empty trace)"
        t_end = max(e.end for e in self._events)
        if t_end == 0:
            return "(zero-length trace)"
        pids = sorted({e.pid for e in self._events})
        glyph = {"compute": "#", "send": ">", "recv": "<",
                 "retransmit": "}", "drop": "x", "timeout": "~", "crash": "X"}
        rows = []
        for pid in pids:
            cells = [" "] * width
            for e in self.events(pid=pid):
                lo = int(e.start / t_end * (width - 1))
                hi = max(lo, int(e.end / t_end * (width - 1)))
                for i in range(lo, hi + 1):
                    cells[i] = glyph.get(e.kind, "?")
            rows.append(f"p{pid:<3d}|{''.join(cells)}|")
        return "\n".join(rows)
