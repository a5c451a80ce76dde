"""Stream plans: HsSkel's ``Stream`` GADT lowered onto the Plan IR.

The seed stream layer ran opaque Python callables per item; nothing
stream-shaped touched the SCL compiler, the plan optimizer, or the
vectorized data plane.  This module rebuilds streams as *plan citizens*:
a small typed IR mirroring the HsSkel constructors
(``stGen``/``stMap``/``stChunk``/``stUnChunk``/``stStop``) whose
``MapPlan`` stage executes each chunk through the full compiled path —
``scl.compile`` → ``plan.opt`` → ``plan.vexec``/``plan_exec`` — so the
per-``(expression, nprocs, opt)`` lowering cache is amortized across the
whole stream: the first chunk of a given size lowers and optimizes the
expression once, every later chunk is a cache hit.

The five constructors:

* :class:`Source` — ``stGen``: a pure step function
  ``state -> (value, state') | None`` unfolded from an initial state
  (or any iterable via :meth:`Source.of`).  Sources may be infinite.
* :class:`Chunk` — ``stChunk``: group ``n`` consecutive elements into a
  tuple (the unit of compiled execution).  The final chunk may be
  shorter.
* :class:`UnChunk` — ``stUnChunk``: flatten chunks back to elements.
* :class:`MapPlan` — ``stMap`` with a *skeleton expression*: each chunk
  of ``m`` items becomes a ParArray over an ``m``-processor simulated
  machine and runs the compiled plan.  A reducing expression (outermost
  ``Fold``) maps each chunk to one scalar, leaving the stream
  unchunked.  :class:`MapSeq` is ``stMap`` with an opaque per-item
  callable.
* :class:`Stop` — ``stStop``: a stateful stop condition
  ``(fold, init, pred)``.  Each item is folded into the accumulator and
  emitted; the stream ends as soon as ``pred(accumulator)`` holds (the
  triggering item is the last one emitted; if ``pred(init)`` already
  holds the stream is empty).  Because the fold runs *in the stream*,
  an infinite :class:`Source` terminates deterministically — in
  threaded execution the cancellation event propagates upstream to the
  generator.

Execution comes in two semantically identical forms: :meth:`StreamPlan
.run_seq` composes the stage transforms in one thread (the reference),
and :meth:`StreamPlan.run` runs one thread per stage connected by
bounded queues (backpressure), via :mod:`repro.stream._runner`.  Both
produce bit-identical output streams; the property suite in
``tests/stream/test_plan_properties.py`` holds them to that.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.errors import SkeletonError
from repro.machine import Machine, MachineSpec, PERFECT
from repro.machine.simulator import RunResult
from repro.machine.topology import FullyConnected, Ring
from repro.scl import nodes as N
from repro.stream._runner import run_staged

__all__ = [
    "Source", "Chunk", "UnChunk", "MapSeq", "MapPlan", "Stop",
    "StreamOp", "StreamPlan", "StreamRunStats", "stream_plan",
]


@dataclasses.dataclass
class StreamRunStats:
    """Counters for one stream execution (pass to ``run``/``run_seq``).

    ``sim_events`` uses the engine-invariant definition of the perf
    harness — one event per simulated send plus one per receive — summed
    over every compiled chunk run; ``virtual_seconds`` sums the per-chunk
    makespans (chunks are independent machine runs, so this is total
    simulated compute, not a wall-clock claim).
    """

    items_in: int = 0
    items_out: int = 0
    chunks: int = 0
    plan_runs: int = 0
    sim_events: int = 0
    sim_messages: int = 0
    virtual_seconds: float = 0.0
    #: Counter children bound by :meth:`attach_metrics` (``None`` keeps
    #: every stats update registry-free).
    _m_chunks: Any = None
    _m_runs: Any = None
    _m_events: Any = None

    def attach_metrics(self, registry: Any,
                       name: str = "stream") -> "StreamRunStats":
        """Mirror chunk/run/event counts into ``registry`` as the
        ``stream_*_total{stream=name}`` counters, live (per chunk, not
        post-run).  Returns ``self`` for chaining."""
        self._m_chunks = registry.counter(
            "stream_chunks_total", "chunks formed by stream plans",
            ("stream",)).labels(name)
        self._m_runs = registry.counter(
            "stream_plan_runs_total", "compiled chunk executions",
            ("stream",)).labels(name)
        self._m_events = registry.counter(
            "stream_sim_events_total",
            "simulated events across compiled chunk runs",
            ("stream",)).labels(name)
        return self

    def tick_chunk(self) -> None:
        self.chunks += 1
        if self._m_chunks is not None:
            self._m_chunks.inc()

    def observe_run(self, result: RunResult) -> None:
        self.plan_runs += 1
        self.sim_messages += result.total_messages
        events = result.total_messages + sum(
            s.msgs_received for s in result.stats)
        self.sim_events += events
        self.virtual_seconds += result.makespan
        if self._m_runs is not None:
            self._m_runs.inc()
            self._m_events.inc(events)


class StreamOp:
    """Base class of stream-plan stages (everything but the source)."""

    __slots__ = ()


@dataclasses.dataclass(frozen=True)
class Source:
    """``stGen``: unfold a stream from a step function and initial state.

    ``step(state)`` returns ``(value, next_state)`` or ``None`` to end
    the stream.  :meth:`of` wraps a concrete iterable instead (it must
    be re-iterable — a sequence, not a generator — if the plan is run
    more than once).
    """

    step: Callable[[Any], "tuple[Any, Any] | None"] | None
    init: Any = None
    iterable: Iterable[Any] | None = None

    @classmethod
    def of(cls, iterable: Iterable[Any]) -> "Source":
        """A source over a concrete iterable."""
        return cls(step=None, iterable=iterable)

    @classmethod
    def count(cls, start: int = 0) -> "Source":
        """The infinite stream ``start, start+1, ...`` (use with
        :class:`Stop`)."""
        return cls(step=lambda i: (i, i + 1), init=start)

    def items(self) -> Iterator[Any]:
        if self.iterable is not None:
            yield from self.iterable
            return
        assert self.step is not None
        state = self.init
        while True:
            nxt = self.step(state)
            if nxt is None:
                return
            value, state = nxt
            yield value


@dataclasses.dataclass(frozen=True)
class Chunk(StreamOp):
    """``stChunk``: group ``n`` consecutive elements into a tuple."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise SkeletonError(f"Chunk size must be >= 1, got {self.n}")


@dataclasses.dataclass(frozen=True)
class UnChunk(StreamOp):
    """``stUnChunk``: flatten a stream of chunks back to elements."""


@dataclasses.dataclass(frozen=True)
class MapSeq(StreamOp):
    """``stMap`` with an opaque base-language callable (per item)."""

    fn: Callable[[Any], Any]


@dataclasses.dataclass(frozen=True)
class MapPlan(StreamOp):
    """``stMap`` with a compiled skeleton expression (per chunk).

    Each chunk of ``m`` items becomes a 1-D ParArray over an
    ``m``-processor machine (``topology`` rings or fully connects it)
    and executes through the SCL compiler — optimizer passes and the
    vectorized data plane included, per ``opt``.  Machines are created
    once per chunk size and reused; plans are cached per
    ``(expression, m, opt)`` by :mod:`repro.plan.lower`, so a stream of
    equal-size chunks lowers exactly once.
    """

    expr: N.Node
    spec: MachineSpec = PERFECT
    opt: Any = "auto"
    topology: str = "ring"
    label: str = "stream"

    def __post_init__(self) -> None:
        if not isinstance(self.expr, N.Node):
            raise SkeletonError(
                f"MapPlan takes a skeleton expression, got {self.expr!r}")
        if self.topology not in ("ring", "full"):
            raise SkeletonError(
                f"MapPlan topology must be 'ring' or 'full', got "
                f"{self.topology!r}")

    @property
    def reduces(self) -> bool:
        """True when the expression folds each chunk to one scalar."""
        return _reduces(self.expr)

    def _machine(self, m: int) -> Machine:
        if m == 1:
            return Machine(1, spec=self.spec)
        topo = Ring(m) if self.topology == "ring" else FullyConnected(m)
        return Machine(topo, spec=self.spec)

    def run_chunk(self, chunk: Sequence[Any], machines: dict[int, Machine],
                  stats: StreamRunStats | None) -> Any:
        """Execute one chunk; returns the output chunk (or fold scalar)."""
        from repro.core.pararray import ParArray
        from repro.scl.compile import run_expression

        m = len(chunk)
        machine = machines.get(m)
        if machine is None:
            machine = machines[m] = self._machine(m)
        out, result = run_expression(self.expr, ParArray(list(chunk)), machine,
                                     label=self.label, opt=self.opt)
        if stats is not None:
            stats.observe_run(result)
        if isinstance(out, ParArray):
            return tuple(out.to_list())
        return out  # a reducing expression: one scalar per chunk


def _reduces(expr: N.Node) -> bool:
    """Does ``expr`` reduce a ParArray to a scalar (outermost fold)?"""
    if isinstance(expr, N.Fold):
        return True
    if isinstance(expr, N.Compose) and expr.steps:
        return _reduces(expr.steps[0])
    return False


@dataclasses.dataclass(frozen=True)
class Stop(StreamOp):
    """``stStop``: stateful stop condition ``(fold, init, pred)``.

    Every item is folded into the accumulator and emitted; the stream
    ends the moment ``pred(accumulator)`` holds — the triggering item is
    the *last* one emitted (and when ``pred(init)`` already holds, the
    output is empty).  The output is always a prefix of the unstopped
    stream.
    """

    fold: Callable[[Any, Any], Any]
    init: Any
    pred: Callable[[Any], bool]


@dataclasses.dataclass(frozen=True)
class StreamPlan:
    """A source plus an ordered pipeline of stream stages.

    Build with :func:`stream_plan` and the fluent combinators::

        plan = (stream_plan(Source.count())
                .chunk(8)
                .map_plan(Scan(operator.add), spec=AP1000)
                .unchunk()
                .take(100))
        out = list(plan.run())          # threaded, backpressured
        ref = list(plan.run_seq())      # sequential reference — identical

    Shape errors (``UnChunk`` without ``Chunk``, ``MapPlan`` on an
    unchunked stream, nested ``Chunk``) are raised at construction.
    """

    source: Source
    ops: tuple[StreamOp, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.source, Source):
            raise SkeletonError(
                f"StreamPlan source must be a Source, got {self.source!r}")
        chunked = False
        for op in self.ops:
            if isinstance(op, Chunk):
                if chunked:
                    raise SkeletonError(
                        "Chunk on an already-chunked stream (nested "
                        "chunking is not supported)")
                chunked = True
            elif isinstance(op, UnChunk):
                if not chunked:
                    raise SkeletonError("UnChunk on an unchunked stream")
                chunked = False
            elif isinstance(op, MapPlan):
                if not chunked:
                    raise SkeletonError(
                        "MapPlan needs a chunked stream (insert Chunk(n) "
                        "before it)")
                if op.reduces:
                    chunked = False  # each chunk folded to one scalar
            elif not isinstance(op, (MapSeq, Stop)):
                raise SkeletonError(f"unknown stream stage {op!r}")

    # -- fluent combinators -------------------------------------------------

    def _with(self, op: StreamOp) -> "StreamPlan":
        return StreamPlan(self.source, self.ops + (op,))

    def chunk(self, n: int) -> "StreamPlan":
        return self._with(Chunk(n))

    def unchunk(self) -> "StreamPlan":
        return self._with(UnChunk())

    def map_seq(self, fn: Callable[[Any], Any]) -> "StreamPlan":
        return self._with(MapSeq(fn))

    def map_plan(self, expr: N.Node, **kwargs: Any) -> "StreamPlan":
        return self._with(MapPlan(expr, **kwargs))

    def stop(self, fold: Callable[[Any, Any], Any], init: Any,
             pred: Callable[[Any], bool]) -> "StreamPlan":
        return self._with(Stop(fold, init, pred))

    def take(self, k: int) -> "StreamPlan":
        """Keep the first ``k`` items (a counting :class:`Stop`)."""
        if k < 0:
            raise SkeletonError(f"take needs k >= 0, got {k}")
        return self.stop(lambda c, _x: c + 1, 0, lambda c: c >= k)

    # -- execution ----------------------------------------------------------

    def _transforms(self, stats: StreamRunStats | None) -> list:
        transforms = []
        first = True
        for op in self.ops:
            transforms.append(_transform(op, stats, count_in=first))
            first = False
        if first and stats is not None:
            # No stages at all: still count the pass-through items.
            def ident(it: Iterator[Any]) -> Iterator[Any]:
                for x in it:
                    stats.items_in += 1
                    stats.items_out += 1
                    yield x
            transforms.append(ident)
        elif stats is not None:
            inner = transforms[-1]

            def counted(it: Iterator[Any], _inner=inner) -> Iterator[Any]:
                for x in _inner(it):
                    stats.items_out += 1
                    yield x
            transforms[-1] = counted
        return transforms

    def run_seq(self, *, stats: StreamRunStats | None = None) -> Iterator[Any]:
        """Sequential reference execution (one thread, lazy pulls)."""
        it: Iterator[Any] = self.source.items()
        for transform in self._transforms(stats):
            it = transform(it)
        return it

    def run(self, *, buffer: int = 8,
            stats: StreamRunStats | None = None,
            metrics: Any = None, name: str = "stream") -> Iterator[Any]:
        """Threaded execution: one thread per stage, bounded queues.

        Element-wise identical to :meth:`run_seq`; a satisfied
        :class:`Stop` (or a consumer that stops early, or a stage
        failure) cancels the source, so infinite generators terminate.

        ``metrics`` (a :class:`~repro.obs.metrics.MetricsRegistry`)
        exports chunk/run/event counters via
        :meth:`StreamRunStats.attach_metrics` plus live
        ``stream_queue_depth{stream, stage}`` occupancy gauges — one
        per inter-stage queue — labelled by ``name``.
        """
        if buffer <= 0:  # here, not at the first next() of the generator
            raise SkeletonError(f"buffer must be positive, got {buffer}")
        on_depth = None
        if metrics is not None and stats is None:
            stats = StreamRunStats()
        transforms = self._transforms(stats)
        if metrics is not None:
            stats.attach_metrics(metrics, name=name)
            depth = metrics.gauge(
                "stream_queue_depth",
                "inter-stage bounded-queue occupancy",
                ("stream", "stage"))
            gauges = [depth.labels(name, str(i))
                      for i in range(len(transforms) + 1)]

            def on_depth(stage: int, size: int,
                         _g: list = gauges) -> None:
                _g[stage].set(size)

        return run_staged(self.source.items(), transforms,
                          buffer=buffer, on_depth=on_depth)


def _transform(op: StreamOp, stats: StreamRunStats | None,
               count_in: bool):
    """The generator transform of one stage (fresh closure per run)."""

    def tick_in(x: Any) -> Any:
        if stats is not None and count_in:
            stats.items_in += 1
        return x

    if isinstance(op, Chunk):
        n = op.n

        def chunk_t(it: Iterator[Any]) -> Iterator[Any]:
            buf: list[Any] = []
            for x in it:
                buf.append(tick_in(x))
                if len(buf) == n:
                    if stats is not None:
                        stats.tick_chunk()
                    yield tuple(buf)
                    buf = []
            if buf:
                if stats is not None:
                    stats.tick_chunk()
                yield tuple(buf)
        return chunk_t

    if isinstance(op, UnChunk):
        def unchunk_t(it: Iterator[Any]) -> Iterator[Any]:
            for chunk in it:
                tick_in(chunk)
                yield from chunk
        return unchunk_t

    if isinstance(op, MapSeq):
        fn = op.fn

        def map_t(it: Iterator[Any]) -> Iterator[Any]:
            for x in it:
                yield fn(tick_in(x))
        return map_t

    if isinstance(op, MapPlan):
        def plan_t(it: Iterator[Any], _op: MapPlan = op) -> Iterator[Any]:
            machines: dict[int, Machine] = {}
            for chunk in it:
                yield _op.run_chunk(tick_in(chunk), machines, stats)
        return plan_t

    if isinstance(op, Stop):
        fold, init, pred = op.fold, op.init, op.pred

        def stop_t(it: Iterator[Any]) -> Iterator[Any]:
            acc = init
            if pred(acc):
                return
            for x in it:
                acc = fold(acc, tick_in(x))
                yield x
                if pred(acc):
                    return
        return stop_t

    raise SkeletonError(f"unknown stream stage {op!r}")  # pragma: no cover


def stream_plan(source: "Source | Iterable[Any]") -> StreamPlan:
    """Start a :class:`StreamPlan` from a :class:`Source` or iterable."""
    if not isinstance(source, Source):
        source = Source.of(source)
    return StreamPlan(source)
