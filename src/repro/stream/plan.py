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
  of ``m`` items is the per-rank input of an ``m``-processor simulated
  machine running the compiled plan.  A reducing expression (outermost
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
``tests/stream/test_plan_properties.py`` holds them to that, and the
state machine in ``tests/stream/test_stream_state.py`` holds the two to
the same prefix under failures, stops and abandoning consumers.

**Several chunks, one walk.**  A stream of equal-size chunks through
``MapPlan(e)`` is the paper's ``map e`` over a nested ParArray, the
chunks its outer dimension — one SPMD program, not one per chunk.  So a
``MapPlan`` stage hands each run of equal-size chunks, at most
``buffer`` of them (``run``'s queue bound, 8 by default, which
``run_seq`` shares), to :func:`repro.scl.compile.run_expression_many`:
one lowering and one walk over that many copies of the chunk machine.
A chunk of another size (a short last chunk) starts a batch of its own.
In ``run`` a batch takes only the chunks that have already arrived —
it never waits for one — while ``run_seq`` pulls up to ``buffer``.  A
batch that raises is re-run chunk by chunk, so the chunks before the
failing one are emitted and that chunk raises its own error; an
exception upstream while a batch fills is re-raised once the chunks
already pulled have been run and emitted.

**Several streams, one walk per chunk size.**  The same holds across
streams: several streams of chunks through one ``MapPlan`` are one
nested ParArray too.  :func:`run_many` runs a Stop-free plan over
several sources stage by stage: a ``MapPlan`` stage hands every
source's chunks of one size to one walk (:meth:`MapPlan.run_streams`),
and ``Chunk``, ``UnChunk`` and ``MapSeq`` run each stream through their
own transforms.  Each stream's output and counters are its ``run_seq``
run's (``walks`` aside).  A stream endpoint of :mod:`repro.serve` runs
its queued requests this way.

**What the counters count.**  ``plan_runs``, ``sim_events``,
``sim_messages`` and ``virtual_seconds`` count the chunk runs
*performed*.  A batch may run up to ``buffer − 1`` chunks past the point
where a downstream :class:`Stop` or an early-stopping consumer ends the
stream, as ``run``'s queues already run ahead; ``items_out`` counts only
what was emitted.  With no early end every counter equals a
chunk-by-chunk run's, and ``walks`` counts the batches, so ``plan_runs /
walks`` is the batch width.  Under :func:`run_many` every counter but
``walks`` equals each stream's own ``run_seq`` run's, and ``walks``
counts the walks performed, each on the first stream it ran a chunk of:
so the ``stream_*_total`` counters of a batch of requests add up to the
sum of their solo runs, and ``stream_walks_total`` to the walks
performed.  A batch that raises counts what it performed before the
failure, and the requests a service then re-runs one by one count
again.
"""

from __future__ import annotations

import dataclasses
import numbers
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.errors import SkeletonError
from repro.machine import Machine, MachineSpec, PERFECT
from repro.machine.simulator import RunResult
from repro.machine.topology import FullyConnected, Ring
from repro.scl import nodes as N
from repro.stream._runner import run_staged

#: ``run``'s default queue bound — and every ``MapPlan`` batch's, in
#: ``run_seq`` too.
BUFFER = 8

__all__ = [
    "Source", "Chunk", "UnChunk", "MapSeq", "MapPlan", "Stop",
    "StreamOp", "StreamPlan", "StreamRunStats", "run_many", "stream_plan",
]


@dataclasses.dataclass
class StreamRunStats:
    """Counters for one stream execution (pass to ``run``/``run_seq``).

    ``sim_events`` uses the engine-invariant definition of the perf
    harness — one event per simulated send plus one per receive — summed
    over every compiled chunk run; ``virtual_seconds`` sums the per-chunk
    makespans (chunks are independent machine runs, so this is total
    simulated compute, not a wall-clock claim).

    ``plan_runs`` and the simulated counters count the chunk runs
    performed, which may run up to ``buffer − 1`` chunks past a
    downstream :class:`Stop` or an early-stopping consumer (see the
    module docstring); ``items_out`` counts only what was emitted.
    ``walks`` counts the batches ``MapPlan`` ran — a lone or short chunk
    is a batch of one — so ``plan_runs / walks`` is the batch width.
    Under :func:`run_many`, one stats per stream, every other counter
    is that stream's ``run_seq`` run's, and ``walks`` counts each walk
    performed once, on the first stream it ran a chunk of.
    """

    items_in: int = 0
    items_out: int = 0
    chunks: int = 0
    plan_runs: int = 0
    sim_events: int = 0
    sim_messages: int = 0
    virtual_seconds: float = 0.0
    walks: int = 0
    #: Counter children bound by :meth:`attach_metrics` (``None`` keeps
    #: every stats update registry-free).
    _m_chunks: Any = None
    _m_runs: Any = None
    _m_events: Any = None
    _m_walks: Any = None

    def attach_metrics(self, registry: Any,
                       name: str = "stream") -> "StreamRunStats":
        """Mirror chunk/run/event/walk counts into ``registry`` as the
        ``stream_*_total{stream=name}`` counters: the counts so far, then
        live (per chunk, not post-run).  Returns ``self`` for chaining."""
        def counter(metric: str, help_: str, count: int) -> Any:
            child = registry.counter(metric, help_, ("stream",)).labels(name)
            child.inc(count)
            return child

        self._m_chunks = counter("stream_chunks_total",
                                 "chunks formed by stream plans", self.chunks)
        self._m_runs = counter("stream_plan_runs_total",
                               "compiled chunk executions", self.plan_runs)
        self._m_events = counter(
            "stream_sim_events_total",
            "simulated events across compiled chunk runs", self.sim_events)
        self._m_walks = counter(
            "stream_walks_total",
            "batches of chunks run as one compiled walk", self.walks)
        return self

    def tick_chunk(self) -> None:
        self.chunks += 1
        if self._m_chunks is not None:
            self._m_chunks.inc()

    def tick_walk(self) -> None:
        self.walks += 1
        if self._m_walks is not None:
            self._m_walks.inc()

    def observe_run(self, result: RunResult) -> None:
        messages, events, makespan = result.tally()
        self.plan_runs += 1
        self.sim_messages += messages
        self.sim_events += events
        self.virtual_seconds += makespan
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
        object.__setattr__(self, "n", _count(self.n, "Chunk size"))
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

    Each chunk of ``m`` items is the per-rank input of an
    ``m``-processor machine (``topology`` rings or fully connects it)
    and executes through the SCL compiler — optimizer passes and the
    vectorized data plane included, per ``opt``.  Machines are created
    once per chunk size and reused; plans are cached per
    ``(expression, m, opt)`` by :mod:`repro.plan.lower`, so a stream of
    equal-size chunks lowers exactly once.  The stage runs its
    equal-size chunks in batches (:meth:`run_chunks`): each batch is one
    walk over copies of the chunk machine, each chunk's output and
    statistics ``==`` its own run's (:meth:`run_chunk`).
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
        if not isinstance(chunk, (tuple, list)):
            chunk = list(chunk)
        return self.run_chunks([chunk], machines, stats)[0]

    def run_chunks(self, chunks: Sequence[Sequence[Any]],
                   machines: dict[int, Machine],
                   stats: StreamRunStats | None) -> list[Any]:
        """Execute equal-size chunks (lists or tuples) as one batch;
        returns their outputs, each ``==`` what :meth:`run_chunk` returns
        for it."""
        runs = self._walk(chunks, machines)
        if stats is not None:
            stats.tick_walk()
            for _out, result in runs:
                stats.observe_run(result)
        return [out for out, _result in runs]

    def _walk(self, chunks: Sequence[Sequence[Any]],
              machines: dict[int, Machine]) -> list[tuple[Any, RunResult]]:
        """The output and run of each of the equal-size ``chunks``, from
        one :func:`~repro.scl.compile.run_expression_many` call."""
        from repro.scl.compile import run_expression_many

        m = len(chunks[0])
        machine = machines.get(m)
        if machine is None:
            machine = machines[m] = self._machine(m)
        # a reducing expression gives one scalar per chunk
        return [(tuple(out) if out is result.values else out, result)
                for out, result in run_expression_many(
                    self.expr, chunks, machine, label=self.label,
                    opt=self.opt)]

    def run_streams(self, streams: list[list[Any]],
                    machines: dict[int, Machine],
                    stats: Sequence[StreamRunStats | None]) -> list[list[Any]]:
        """This stage over several streams of chunks at once: the chunks
        of one size, across all the streams, run as one walk.  Returns
        each stream's outputs; they and its ``stats`` are what the stage
        gives that stream alone, except ``walks``: each walk counts once,
        on the stats of the first stream with a chunk in it.  Each stats
        observes its own chunks' runs in chunk order, so its float sums
        match.  If a walk raises, each stream runs the stage alone, as
        :meth:`StreamPlan.run_seq` runs it, and so meets its own error."""
        sized: dict[int, list[tuple[int, int, Sequence[Any]]]] = {}
        for s, chunks in enumerate(streams):
            for j, chunk in enumerate(chunks):
                if not isinstance(chunk, (tuple, list)):
                    chunk = list(chunk)
                sized.setdefault(len(chunk), []).append((s, j, chunk))
        runs: list[list[Any]] = [[None] * len(chunks) for chunks in streams]
        try:
            for batch in sized.values():
                walked = self._walk([chunk for _s, _j, chunk in batch],
                                    machines)
                for (s, j, _chunk), run in zip(batch, walked):
                    runs[s][j] = run
        except Exception:
            # a MapPlan is never a plan's first stage: it counts no items_in
            return [list(_transform(self, st, count_in=False,
                                    batch=BUFFER)(iter(chunks)))
                    for chunks, st in zip(streams, stats)]
        for batch in sized.values():
            first = stats[batch[0][0]]
            if first is not None:
                first.tick_walk()
        outputs = []
        for stream_runs, st in zip(runs, stats):
            if st is not None:
                for _out, result in stream_runs:
                    st.observe_run(result)
            outputs.append([out for out, _result in stream_runs])
        return outputs

    def _emit(self, batch: list, machines: dict[int, Machine],
              stats: StreamRunStats | None) -> Iterator[Any]:
        """Yield the outputs of ``batch``, in order.  A batch that raises
        is re-run chunk by chunk: the chunks before the failing one are
        emitted, and that one raises its own error.  A batch error that
        no chunk reproduces is a fault of the batch itself, and is raised
        after the chunks' outputs."""
        failed = None
        if len(batch) > 1:
            try:
                outs = self.run_chunks(batch, machines, stats)
            except Exception as exc:
                failed = exc
            else:
                yield from outs
                return
        for chunk in batch:
            yield self.run_chunk(chunk, machines, stats)
        if failed is not None:
            raise failed


def _count(value: Any, what: str) -> int:
    """``value`` as an int: a stream size is a count, so anything but an
    integer (``bool`` included) is a :class:`SkeletonError`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise SkeletonError(f"{what} must be an integer, got {value!r}")
    return int(value)


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
        k = _count(k, "take")
        if k < 0:
            raise SkeletonError(f"take needs k >= 0, got {k}")
        return self.stop(lambda c, _x: c + 1, 0, lambda c: c >= k)

    # -- execution ----------------------------------------------------------

    def _transforms(self, stats: StreamRunStats | None,
                    batch: int) -> list:
        transforms = []
        first = True
        for op in self.ops:
            transforms.append(_transform(op, stats, count_in=first,
                                         batch=batch))
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
        """Sequential reference execution (one thread, lazy pulls; a
        ``MapPlan`` batches up to ``run``'s default ``buffer`` chunks)."""
        it: Iterator[Any] = self.source.items()
        for transform in self._transforms(stats, BUFFER):
            it = transform(it)
        return it

    def run(self, *, buffer: int = BUFFER,
            stats: StreamRunStats | None = None,
            metrics: Any = None, name: str = "stream") -> Iterator[Any]:
        """Threaded execution: one thread per stage, bounded queues.

        Element-wise identical to :meth:`run_seq`; a satisfied
        :class:`Stop` (or a consumer that stops early, or a stage
        failure) cancels the source, so infinite generators terminate.

        ``buffer`` bounds every inter-stage queue and every ``MapPlan``
        batch.  ``metrics`` (a :class:`~repro.obs.metrics.MetricsRegistry`)
        exports chunk/run/event counters via
        :meth:`StreamRunStats.attach_metrics` plus live
        ``stream_queue_depth{stream, stage}`` occupancy gauges — one
        per inter-stage queue, reading its live size — labelled by
        ``name``.
        """
        # here, not at the first next() of the generator
        if _count(buffer, "buffer") <= 0:
            raise SkeletonError(f"buffer must be positive, got {buffer}")
        on_queues = None
        if metrics is not None and stats is None:
            stats = StreamRunStats()
        transforms = self._transforms(stats, buffer)
        if metrics is not None:
            stats.attach_metrics(metrics, name=name)
            depth = metrics.gauge(
                "stream_queue_depth",
                "inter-stage bounded-queue occupancy",
                ("stream", "stage"))

            def on_queues(queues: list) -> None:
                for i, q in enumerate(queues):
                    depth.labels(name, str(i)).set_function(q.qsize)

        return run_staged(self.source.items(), transforms,
                          buffer=buffer, on_queues=on_queues)


def _transform(op: StreamOp, stats: StreamRunStats | None,
               count_in: bool, batch: int):
    """The generator transform of one stage (fresh closure per run); a
    ``MapPlan`` runs up to ``batch`` chunks at once."""

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
            # threaded: take only the chunks that have arrived
            ready = getattr(it, "ready", None)
            pulled: list = []
            while True:
                try:
                    chunk = next(it)
                except StopIteration:
                    break
                except Exception:
                    # an upstream failure: what was pulled runs first
                    yield from _op._emit(pulled, machines, stats)
                    raise
                tick_in(chunk)
                if not isinstance(chunk, (tuple, list)):
                    chunk = list(chunk)
                if pulled and len(chunk) != len(pulled[0]):
                    yield from _op._emit(pulled, machines, stats)
                    pulled = []
                pulled.append(chunk)
                if len(pulled) == batch or (ready is not None
                                            and not ready()):
                    yield from _op._emit(pulled, machines, stats)
                    pulled = []
            yield from _op._emit(pulled, machines, stats)
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


def run_many(ops: Sequence[StreamOp], sources: Sequence[Iterable[Any]], *,
             stats: Sequence[StreamRunStats | None] | None = None,
             machines: dict[int, dict[int, Machine]] | None = None
             ) -> list[list[Any]]:
    """``[list(StreamPlan(Source.of(src), ops).run_seq(stats=st)) for src,
    st in zip(sources, stats)]`` for Stop-free ``ops``, run stage by stage
    over all the sources: each :class:`MapPlan` stage runs every source's
    chunks of one size as one walk (:meth:`MapPlan.run_streams`), and
    every other stage runs each stream through its own transform.

    Each ``stats`` (one per source, or ``None``) ends as that source's
    ``run_seq`` leaves it, except ``walks``, which counts the walks
    performed (each on the first stream it ran a chunk of).  A stream
    that raises raises the error of its earliest failing stage; ``run_seq``
    pulls lazily, and raises the error of the first item to fail.
    ``machines`` caches each ``MapPlan`` stage's chunk machines, keyed by
    the stage's index and then the chunk size, across calls.  A
    :class:`Stop` is lazy — a stage-major run would compute past it — so
    a stream with one is refused: run it through ``run_seq``.
    """
    plan = StreamPlan(Source.of(()), tuple(ops))
    if any(isinstance(op, Stop) for op in plan.ops):
        raise SkeletonError("run_many runs no Stop stage; use run_seq")
    streams = [list(source) for source in sources]
    if stats is None:
        stats = [None] * len(streams)
    if machines is None:
        machines = {}
    for i, op in enumerate(plan.ops):
        if isinstance(op, MapPlan):
            streams = op.run_streams(streams, machines.setdefault(i, {}),
                                     stats)
        else:
            streams = [list(_transform(op, st, count_in=i == 0,
                                       batch=BUFFER)(iter(items)))
                       for items, st in zip(streams, stats)]
    for items, st in zip(streams, stats):
        if st is not None:
            if not plan.ops:
                st.items_in += len(items)
            st.items_out += len(items)
    return streams


def stream_plan(source: "Source | Iterable[Any]") -> StreamPlan:
    """Start a :class:`StreamPlan` from a :class:`Source` or iterable."""
    if not isinstance(source, Source):
        source = Source.of(source)
    return StreamPlan(source)
