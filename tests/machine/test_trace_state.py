"""A :class:`~repro.machine.trace.Trace` as a state machine: record and extend.

Hypothesis drives a ``Trace(max_events=k, sink=...)`` for ``k`` in
{None, 1, 3, 50} through random sequences of one-event ``record`` calls
and ``extend`` batches — empty ones and ones longer than the ring
included — against a plain list of every event recorded so far.  After
every step:

* the trace holds the model's last ``k`` events, in order;
* ``dropped`` counts the rest, and ``len`` the ones held;
* the sink has seen the whole model, in order.

The sink also checks, at each emission, that the trace already counts
the event it is handed: a recorder appends before it emits, in a batch
as well as one at a time.
"""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.machine.trace import Span, Trace, TraceEvent
from repro.obs.sinks import MemorySink

SPANS = [None, Span("program"), Span("iter 0", iteration=0,
                                     parent=Span("program"))]


class _AppendedFirstSink(MemorySink):
    """A memory sink that checks the trace has counted (held or evicted)
    every event by the time the sink sees it."""

    trace: Trace

    def emit(self, event: TraceEvent) -> None:
        assert len(self.events) < len(self.trace) + self.trace.dropped
        super().emit(event)


def _event(n: int) -> TraceEvent:
    """The ``n``-th event of a run: every kind of detail, varied spans."""
    pid, start = n % 5, float(n)
    if n % 3 == 0:
        return TraceEvent(pid, "compute", start, start + 0.5,
                          span=SPANS[n // 3 % 3])
    if n % 3 == 1:
        return TraceEvent(pid, "send", start, start + 0.1,
                          {"dst": (pid + 1) % 5, "tag": n, "nbytes": 8 * n},
                          SPANS[n // 3 % 3])
    return TraceEvent(pid, "recv", start, start + 0.2,
                      {"src": (pid + 4) % 5, "tag": n, "nbytes": 8 * n},
                      SPANS[n // 3 % 3])


class TraceLifecycle(RuleBasedStateMachine):
    @initialize(k=st.sampled_from([None, 1, 3, 50]))
    def start(self, k):
        self.k = k
        self.sink = _AppendedFirstSink()
        self.trace = Trace(max_events=k, sink=self.sink)
        self.sink.trace = self.trace
        self.model: list[TraceEvent] = []

    def _next(self) -> TraceEvent:
        return _event(len(self.model))

    # -- rules -------------------------------------------------------------

    @rule()
    def record(self):
        e = self._next()
        self.trace.record(e.pid, e.kind, e.start, e.end, span=e.span,
                          **e.detail)
        self.model.append(e)

    @rule(size=st.one_of(st.just(0), st.integers(1, 4), st.integers(49, 60)))
    def extend(self, size):
        batch = [_event(len(self.model) + i) for i in range(size)]
        self.trace.extend(batch)
        self.model += batch

    # -- invariants --------------------------------------------------------

    @invariant()
    def holds_the_last_k(self):
        k, model = self.k, self.model
        kept = model if k is None else model[max(0, len(model) - k):]
        assert list(self.trace) == kept
        assert len(self.trace) == len(kept) \
            == (len(model) if k is None else min(k, len(model)))

    @invariant()
    def counts_the_rest_as_dropped(self):
        k = self.k
        assert self.trace.dropped == (
            0 if k is None else max(0, len(self.model) - k))

    @invariant()
    def the_sink_saw_everything(self):
        assert self.sink.events == self.model


TraceLifecycle.TestCase.settings = settings(
    max_examples=80, stateful_step_count=20, deadline=None)
TestTraceLifecycle = TraceLifecycle.TestCase
