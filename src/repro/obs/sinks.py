"""Streaming trace sinks: JSONL and Chrome trace-event exporters.

A *sink* observes every :class:`~repro.machine.trace.TraceEvent` the
instant the simulator records it (``Machine(..., trace_sink=sink)``), so
traces can be exported or bounded without a second pass over an in-memory
list.  The protocol is two methods::

    sink.emit(event)   # called once per recorded event, in record order
    sink.close()       # flush and finalise the artifact

Three implementations:

* :class:`MemorySink` — keeps the events in a list (useful to tee a run
  into analysis code while another sink streams to disk),
* :class:`JsonlSink` — one JSON object per line, the machine-readable
  interchange format (``span`` serialised as a root-to-leaf frame list),
* :class:`ChromeTraceSink` — the Chrome trace-event format (JSON Array
  Format), openable in ``chrome://tracing`` or https://ui.perfetto.dev:
  each event becomes a complete (``"ph": "X"``) slice on track
  ``tid = pid`` with timestamps in microseconds of virtual time, or an
  instant (``"ph": "i"``) mark for zero-length events such as crashes.

Both file sinks stream — events are written as they arrive, never
buffered whole — so a bounded in-memory trace
(``Machine(..., trace_limit=...)``) plus a file sink handles
million-event chaos runs in constant memory.
"""

from __future__ import annotations

import json
from typing import Any, IO, Protocol, runtime_checkable

from repro.machine.trace import Span, TraceEvent

__all__ = [
    "TraceSink",
    "MemorySink",
    "JsonlSink",
    "ChromeTraceSink",
    "event_to_dict",
    "span_to_list",
]


@runtime_checkable
class TraceSink(Protocol):
    """Structural protocol every trace sink implements."""

    def emit(self, event: TraceEvent) -> None:
        """Observe one recorded event (called in record order)."""

    def close(self) -> None:
        """Flush buffered output and finalise the artifact."""


def span_to_list(span: Span | None) -> list[dict[str, Any]] | None:
    """Serialise a span chain as a root-to-leaf list of plain frames."""
    if span is None:
        return None
    out = []
    for frame in span.frames():
        rec: dict[str, Any] = {"label": frame.label}
        if frame.instr is not None:
            rec["instr"] = frame.instr
        if frame.iteration is not None:
            rec["iter"] = frame.iteration
        out.append(rec)
    return out


def event_to_dict(event: TraceEvent) -> dict[str, Any]:
    """The JSONL record of one event (stable key order)."""
    rec: dict[str, Any] = {
        "pid": event.pid,
        "kind": event.kind,
        "start": event.start,
        "end": event.end,
    }
    if event.detail:
        rec["detail"] = dict(event.detail)
    span = span_to_list(event.span)
    if span is not None:
        rec["span"] = span
    return rec


class MemorySink:
    """Collects events in :attr:`events` (the in-memory reference sink)."""

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []
        self.closed = False

    def emit(self, event: TraceEvent) -> None:
        self.events.append(event)

    def close(self) -> None:
        self.closed = True


class _FileSink:
    """Shared open/own-or-borrow file handling for the file-based sinks."""

    def __init__(self, target: str | IO[str]):
        if isinstance(target, str):
            self._fh: IO[str] = open(target, "w", encoding="utf-8")
            self._owns = True
            self.path: str | None = target
        else:
            self._fh = target
            self._owns = False
            self.path = getattr(target, "name", None)
        self.count = 0
        self.closed = False

    def _finish(self) -> None:
        """Subclass hook: write any trailer before the file is closed."""

    def close(self) -> None:
        if self.closed:
            return
        self._finish()
        self.closed = True
        if self._owns:
            self._fh.close()
        else:
            self._fh.flush()


class JsonlSink(_FileSink):
    """Streams one JSON object per event to ``target`` (path or file).

    A non-serialisable detail value (an ndarray payload, say) is rendered
    with ``repr`` rather than failing the run — traces are diagnostics,
    and a lossy field beats a crashed export.
    """

    def emit(self, event: TraceEvent) -> None:
        self._fh.write(json.dumps(event_to_dict(event), default=repr))
        self._fh.write("\n")
        self.count += 1


# Non-timed kinds rendered as Chrome "instant" marks rather than slices.
_INSTANT_KINDS = frozenset({"crash", "drop"})


class ChromeTraceSink(_FileSink):
    """Streams the Chrome trace-event *JSON Array Format* to ``target``.

    Layout: one Chrome ``pid`` (the machine), one ``tid`` per virtual
    processor, ``ts``/``dur`` in microseconds of virtual time.  The file
    is written incrementally and closed with process/thread ``M``
    (metadata) records naming the tracks; the array is valid JSON once
    :meth:`close` runs.
    """

    #: Virtual seconds → Chrome microseconds.
    SCALE = 1e6

    def __init__(self, target: str | IO[str], *, process_name: str = "repro"):
        super().__init__(target)
        self._process_name = process_name
        self._tids: set[int] = set()
        self._fh.write("[")

    def _write(self, rec: dict[str, Any]) -> None:
        if self.count:
            self._fh.write(",\n")
        else:
            self._fh.write("\n")
        self._fh.write(json.dumps(rec, default=repr))
        self.count += 1

    def emit(self, event: TraceEvent) -> None:
        self._tids.add(event.pid)
        span = event.span
        name = span.label if span is not None else event.kind
        args: dict[str, Any] = dict(event.detail)
        if span is not None:
            args["span"] = span.path()
        rec: dict[str, Any] = {
            "name": name,
            "cat": event.kind,
            "pid": 0,
            "tid": event.pid,
            "ts": event.start * self.SCALE,
        }
        if event.kind in _INSTANT_KINDS or event.end <= event.start:
            rec["ph"] = "i"
            rec["s"] = "t"  # thread-scoped instant
        else:
            rec["ph"] = "X"
            rec["dur"] = (event.end - event.start) * self.SCALE
        if args:
            rec["args"] = args
        self._write(rec)

    def _finish(self) -> None:
        self._write({"name": "process_name", "ph": "M", "pid": 0, "tid": 0,
                     "args": {"name": self._process_name}})
        for tid in sorted(self._tids):
            self._write({"name": "thread_name", "ph": "M", "pid": 0,
                         "tid": tid, "args": {"name": f"proc {tid}"}})
        self._fh.write("\n]\n")
