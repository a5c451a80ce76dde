"""The threaded stream runner as a state machine: poison, stop, abandon.

Hypothesis builds a :class:`~repro.stream.plan.StreamPlan` stage by stage
— ``Chunk``, ``UnChunk``, a chunked ``Scan`` or ``Fold`` ``MapPlan``, a
per-item stage that raises at its k-th item or a ``MapPlan`` whose
expression raises on one value, a counting ``Stop`` (``take``) — over a
finite or an infinite (``Source.count``) source, with a consumer that may
stop after a few items and a queue bound of 1–3.  A finite source may be
a live feed that blocks in ``next`` after its items: in ``run`` it stays
blocked until the run is over unless ``run_seq`` needed its end or
failed.  Each ``execute`` step
runs the plan three ways — a plain-Python model of what it means, chunk
by chunk; ``run_seq``; ``run`` (one thread per stage) — and checks:

* ``run_seq`` emits the model's items, then ends the same way, however
  its ``MapPlan`` stages batch their chunks;
* ``run`` emits the same items as ``run_seq``, then ends the same way:
  the first exception surfaces with its type.  The one licensed
  difference: a stage *above* a ``Stop`` may run ahead of it in ``run``
  and fail on an item ``run_seq`` never pulled;
* no ``MapPlan`` batch holds more than the queue bound of chunks, and
  ``run_seq`` makes one walk per bound's worth of equal-size chunks;
* every stage thread has joined by the time the consumer's iteration
  ends or its ``close()`` returns (an abandoning consumer once left two
  threads blocked on a full queue for good, and a satisfied ``Stop``
  once waited for a blocked source's end), and the source's thread
  ends once the source's ``next`` returns;
* the feeder stops pulling once the stream is cancelled: ``run``'s
  ``items_in`` exceeds what ``run_seq`` pulled for the same output by at
  most what the queues, the stages' hands and a ``MapPlan`` batch hold;
* ``items_out`` counts only what the last stage emitted — in ``run``
  at most a queue's worth more than the consumer took — and with no
  early end every counter equals ``run_seq``'s.

A run that takes longer than ``HANG_S`` is a hang and fails the test.
"""

from __future__ import annotations

import itertools
import operator
import threading

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    precondition,
    rule,
)

from repro.scl import Fold, Map, Scan, compose_nodes
from repro.stream.plan import (
    Chunk,
    MapPlan,
    MapSeq,
    Source,
    Stop,
    StreamPlan,
    StreamRunStats,
    UnChunk,
)

#: A run that takes longer than this is a hang.
HANG_S = 10.0

#: Chunks a ``MapPlan`` may hold at once: ``run``'s default queue bound,
#: which ``run_seq`` shares.
BATCH = 8

#: Counters that do not depend on how chunks were grouped into walks.
COUNTERS = ("items_in", "items_out", "chunks", "plan_runs", "sim_events",
            "sim_messages", "virtual_seconds")


class StageError(Exception):
    """What the raising stage raises."""


class RaiseAt:
    """A per-item stage that raises :class:`StageError` on the ``k``-th
    item it sees in a run (``reset`` between runs)."""

    def __init__(self, k: int):
        self.k = k
        self.seen = 0

    def reset(self) -> None:
        self.seen = 0

    def __call__(self, x):
        self.seen += 1
        if self.seen == self.k:
            raise StageError(f"item {self.k}")
        return x


class GatedFeed:
    """A finite live feed: its items, then a wait for ``gate`` before the
    end of the stream — a source blocked in ``next`` while the gate is
    shut.  ``ended`` records that an iteration asked for the end."""

    def __init__(self, items):
        self.items = items
        self.gate = threading.Event()
        self.gate.set()
        self.ended = False

    def __iter__(self):
        yield from self.items
        self.ended = True
        self.gate.wait(2 * HANG_S)  # past the hang verdict


class RaiseOn:
    """A fragment that raises :class:`StageError` on one value — a chunk
    that holds it fails however often it is run."""

    def __init__(self, value: float):
        self.value = value

    def __call__(self, x):
        if x == self.value:
            raise StageError(f"value {self.value}")
        return x


def _take(k):
    def model(it):
        if k <= 0:
            return
        for i, x in enumerate(it, 1):
            yield x
            if i >= k:
                return
    return model


def _chunked(n):
    def model(it):
        while chunk := tuple(itertools.islice(it, n)):
            yield chunk
    return model


def _map_plan(fold, fn, sizes):
    """A ``MapPlan``'s meaning; records each chunk's size in ``sizes``."""
    def model(it):
        for chunk in it:
            sizes.append(len(chunk))
            values = [fn(x) for x in chunk] if fn is not None else chunk
            # small integers: any order of additions is exact
            yield sum(values) if fold else tuple(itertools.accumulate(values))
    return model


class StreamLifecycle(RuleBasedStateMachine):
    @initialize(n=st.one_of(st.none(), st.integers(0, 30)),
                buffer=st.integers(1, 3))
    def source(self, n, buffer):
        self.infinite = n is None
        self.src = (Source.count() if n is None
                    else Source.of([float(i) for i in range(n)]))
        self.buffer = buffer
        self.ops = []
        #: per stage, the generator transform the stage means
        self.model = []
        #: per MapPlan stage, the sizes of the chunks the model mapped
        self.sizes = []
        #: source items per element of the stream as built so far
        self.width = 1
        self.chunked = False
        #: source items the queues and the stages' hands can hold
        self.capacity = buffer  # the queue feeding the first stage
        self.raiser = None
        self.take_after_raiser = False
        self.has_take = False
        self.limit = None
        self.feed = None

    def _add(self, op, model, hand):
        """Append ``op`` (meaning ``model``): a stage holding up to
        ``hand`` of its input elements, whose output queue holds up to
        ``buffer`` of its own."""
        self.capacity += hand * self.width
        self.ops.append(op)
        self.model.append(model)
        self.capacity += self.buffer * self.width

    # -- building the plan ------------------------------------------------

    @precondition(lambda self: not self.chunked)
    @rule(n=st.integers(1, 4))
    def chunk(self, n):
        self.capacity += n * self.width  # the chunk being filled
        self.width *= n
        self.chunked = True
        self.ops.append(Chunk(n))
        self.model.append(_chunked(n))
        self.capacity += self.buffer * self.width

    @precondition(lambda self: self.chunked)
    @rule()
    def unchunk(self):
        self._add(UnChunk(), itertools.chain.from_iterable, 1)
        self.width = max(1, self.width // self._chunk_size())
        self.chunked = False

    @precondition(lambda self: self.chunked)
    @rule(fold=st.booleans(), raise_on=st.one_of(st.none(),
                                                 st.integers(0, 30)))
    def map_plan(self, fold, raise_on):
        """A chunked ``Scan`` or ``Fold``; with ``raise_on`` (while no
        stage raises yet) it first maps a fragment raising on that value
        over every item, so the chunk holding it fails every time."""
        fn = None
        if raise_on is not None and self.raiser is None:
            fn = self.raiser = RaiseOn(raise_on)
            self.raiser_stage = len(self.ops)
        expr = Fold(operator.add) if fold else Scan(operator.add)
        if fn is not None:
            expr = compose_nodes(expr, Map(fn))
        self.sizes.append([])
        self._add(MapPlan(expr), _map_plan(fold, fn, self.sizes[-1]), BATCH)
        self.chunked = not fold

    @precondition(lambda self: not self.chunked)
    @rule(n=st.integers(1, 4), fold=st.booleans(),
          raise_on=st.one_of(st.none(), st.integers(0, 30)))
    def chunk_and_map_plan(self, n, fold, raise_on):
        self.chunk(n)
        self.map_plan(fold, raise_on)

    @precondition(lambda self: self.raiser is None)
    @rule(k=st.integers(1, 12))
    def raise_at(self, k):
        self.raiser = RaiseAt(k)
        self.raiser_stage = len(self.ops)
        raiser = self.raiser
        self._add(MapSeq(raiser), lambda it: map(raiser, it), 1)

    @rule(k=st.integers(0, 10))
    def take(self, k):
        self.has_take = True
        self.take_after_raiser |= self.raiser is not None
        self._add(Stop(lambda c, _x: c + 1, 0, lambda c: c >= k),
                  _take(k), 1)

    @rule(limit=st.one_of(st.none(), st.integers(0, 10)))
    def consumer_stops_after(self, limit):
        self.limit = limit

    @precondition(lambda self: not self.infinite and self.feed is None)
    @rule()
    def source_blocks_at_its_end(self):
        self.feed = GatedFeed(self.src.iterable)
        self.src = Source.of(self.feed)

    def _chunk_size(self):
        return next(op.n for op in reversed(self.ops)
                    if isinstance(op, Chunk))

    # -- running it both ways ---------------------------------------------

    def _ends(self):
        """An infinite source needs something that ends the run."""
        return (not self.infinite or self.has_take
                or self.limit is not None
                or (isinstance(self.raiser, RaiseAt)  # a value may not come
                    and not self._take_before_raiser()))

    def _take_before_raiser(self):
        return any(isinstance(op, Stop)
                   for op in self.ops[:self.raiser_stage])

    def _consume(self, stream_of):
        """Iterate one run the way the consumer does; returns ``(items,
        exception or None, stats)``."""
        if isinstance(self.raiser, RaiseAt):
            self.raiser.reset()
        stats = StreamRunStats()
        gen = stream_of(stats)
        out, exc = [], None
        while self.limit is None or len(out) < self.limit:
            try:
                out.append(next(gen))
            except StopIteration:
                break
            except StageError as err:
                exc = err
                break
        gen.close()
        return out, exc, stats

    def _meant(self):
        """The stream the plan means, stage by stage in plain Python."""
        for sizes in self.sizes:
            sizes.clear()
        it = self.src.items()
        for model in self.model:
            it = model(it)
        yield from it

    @precondition(lambda self: self.ops and self._ends())
    @rule()
    def execute(self):
        plan = StreamPlan(self.src, tuple(self.ops))
        want_out, want_exc, _ = self._consume(lambda _stats: self._meant())
        if self.feed is not None:
            self.feed.ended = False
        seq_out, seq_exc, seq = self._consume(
            lambda stats: plan.run_seq(stats=stats))
        assert seq_out == want_out
        assert type(seq_exc) is type(want_exc)
        assert str(seq_exc) == str(want_exc)
        if self.feed is not None and not self.feed.ended and seq_exc is None:
            self.feed.gate.clear()  # blocked for the whole threaded run

        before = set(threading.enumerate())
        done = {}

        def threaded():
            done["run"] = self._consume(
                lambda stats: plan.run(buffer=self.buffer, stats=stats))

        consumer = threading.Thread(target=threaded, daemon=True)
        consumer.start()
        consumer.join(HANG_S)
        assert not consumer.is_alive(), "run hung"
        run_out, run_exc, thr = done["run"]
        new = [t for t in threading.enumerate() if t not in before]
        stages = [t for t in new if t.name != "stream-source"]
        assert not [t for t in stages if t.is_alive()], stages
        if self.feed is not None:
            self.feed.gate.set()
        for t in new:  # the source thread ends once its ``next`` returns
            t.join(HANG_S)
            assert not t.is_alive(), "source thread hung"

        assert run_out == seq_out
        if seq_exc is not None:
            assert type(run_exc) is type(seq_exc)
            assert str(run_exc) == str(seq_exc)
        elif run_exc is not None:
            # work a stage above a satisfied Stop ran ahead of it
            assert self.take_after_raiser, run_exc

        assert seq.walks * BATCH >= seq.plan_runs
        assert thr.walks * self.buffer >= thr.plan_runs
        assert seq.items_out == len(seq_out)
        # the output queue, the item being put into it, and the one the
        # last stage made before it saw an abandoning consumer
        assert len(run_out) <= thr.items_out <= len(run_out) \
            + self.buffer + 2
        assert thr.items_in <= seq.items_in + self.capacity, \
            (thr.items_in, seq.items_in, self.capacity)
        early = (self.has_take or self.limit is not None
                 or seq_exc is not None or run_exc is not None)
        if not early:
            assert ([getattr(thr, f) for f in COUNTERS]
                    == [getattr(seq, f) for f in COUNTERS])
            # run_seq batches each run of equal-size chunks, BATCH at a time
            assert seq.walks == sum(
                -(-len(list(run)) // BATCH) for sizes in self.sizes
                for _, run in itertools.groupby(sizes))


StreamLifecycle.TestCase.settings = settings(max_examples=300,
                                             stateful_step_count=12,
                                             deadline=None)
TestStreamLifecycle = StreamLifecycle.TestCase
