"""Threaded stage runner of stream plans (:meth:`StreamPlan.run`).

A *staged stream* is a source iterable pushed through an ordered list of
**transforms** — generator functions ``Iterator -> Iterator`` — each
running in its own thread, connected by bounded queues (backpressure).
:func:`run_staged` is the transport; the transforms carry all semantics,
so the sequential composition of the same transforms (no threads, no
queues) is the *reference executor* and the two are element-wise
identical by construction.  The one thing a transform may ask of its
transport is whether its next input has arrived
(:meth:`_QueueIter.ready`; a plain iterator, which has no ``ready``,
always has it): that decides how many items a stage takes at once, never
what it emits.

Failure and cancellation semantics (the part the seed pipeline got
wrong):

* When a stage raises, a **poison** marker is forwarded downstream
  *immediately* — ahead of the end-of-stream sentinel — so downstream
  stages stop computing at the failure point instead of chewing through
  every in-flight item.
* The shared **cancel** event is set on any failure and on any early
  stage exit (a stop condition that truncates the stream), so the
  source stops producing: an infinite generator upstream of a failure
  or a satisfied stop condition terminates instead of being drained
  forever.
* Every stage drains its input queue to the sentinel before exiting,
  so upstream ``put`` calls can never block forever.
* A stage whose stop condition truncates the stream, and a consumer
  that stops early, **release** every queue upstream of them: puts no
  longer wait for room, and each queue gets a sentinel, so a stage
  waiting for input — behind a source blocked in ``next`` — ends at
  once.  A stage that sees the consumer's abandonment stops
  transforming.
* Every stage thread joins before the consumer's iteration ends or its
  ``close()`` returns.  The source thread is not waited for: it may be
  blocked in the source's own ``next``, and it stops as soon as that
  returns.  Once the stages have joined, every queue is emptied and
  drops what the source still puts, so the occupancy gauges of a
  truncated or abandoned stream read 0, as a finished stream's do.
* After every stage joins, the **earliest failure by stage order** is
  raised — the source counts as stage ``-1`` — not whichever thread
  happened to lose the race into a shared list.
"""

from __future__ import annotations

import queue
import sys
import threading
from typing import Any, Callable, Iterable, Iterator

__all__ = ["run_staged", "Transform"]

#: A stage body: consumes an input iterator, yields the stage's output.
Transform = Callable[[Iterator[Any]], Iterator[Any]]

_SENTINEL = object()  # clean end of stream
_POISON = object()    # a stage upstream failed; stop at this point


class _QueueIter:
    """Iterate a stage's input queue up to the sentinel (or a poison)."""

    __slots__ = ("_q", "poisoned", "_stopped", "_eos")

    def __init__(self, q: "queue.Queue[Any]") -> None:
        self._q = q
        self.poisoned = False
        self._stopped = False  # this iterator stopped yielding
        self._eos = False      # the sentinel itself was consumed

    def __iter__(self) -> "_QueueIter":
        return self

    def __next__(self) -> Any:
        if self._stopped:
            raise StopIteration
        item = self._q.get()
        if item is _SENTINEL:
            self._stopped = self._eos = True
            raise StopIteration
        if item is _POISON:
            # Stop yielding; the upstream sentinel is still in flight and
            # is collected by :meth:`drain`.
            self.poisoned = True
            self._stopped = True
            raise StopIteration
        return item

    def drain(self) -> None:
        """Consume the rest of the input (to the sentinel) so upstream
        ``put`` calls never block forever.  Poison seen while draining is
        remembered but not forwarded — the caller already decided how to
        finish."""
        self._stopped = True
        while not self._eos:
            item = self._q.get()
            if item is _SENTINEL:
                self._eos = True
            elif item is _POISON:
                self.poisoned = True

    def ready(self) -> bool:
        """True when the next item has arrived — an item, not the end of
        the stream or a poison — so that taking it will not block.  A
        stage that groups items (a ``MapPlan`` batch) takes only those,
        and never waits for one that has not arrived."""
        if self._stopped:
            return False
        with self._q.mutex:
            pending = self._q.queue
            return bool(pending) and pending[0] is not _SENTINEL \
                and pending[0] is not _POISON

    @property
    def exhausted(self) -> bool:
        return self._stopped


class _StageQueue(queue.Queue):
    """A bounded inter-stage queue that can be emptied for good."""

    discarded = False

    def _put(self, item: Any) -> None:
        if not self.discarded:
            self.queue.append(item)

    def discard(self) -> None:
        """Drop every queued item and every later put."""
        with self.mutex:
            self.discarded = True
            self.queue.clear()


def _release(q: "queue.Queue[Any]") -> None:
    """Let every put on ``q``, waiting or to come, go through at once,
    and end the stream for whoever takes from it next."""
    with q.not_full:
        q.maxsize = sys.maxsize
        q.not_full.notify_all()
    q.put(_SENTINEL)


def run_staged(source: Iterable[Any], transforms: list[Transform], *,
               buffer: int = 8,
               on_queues: Callable[[list[queue.Queue]], None] | None = None
               ) -> Iterator[Any]:
    """Run ``source`` through ``transforms``, one thread per stage.

    Yields the final stage's output in order.  Output is element-wise
    identical to composing the transforms sequentially over ``source``;
    only timing changes (stage overlap).  See the module docstring for
    the failure/cancellation contract.

    ``on_queues(queues)`` — when given — is handed the inter-stage
    queues once, before any stage starts (queue ``i`` *feeds* transform
    ``i``; the last is the output queue), so that occupancy gauges can
    read each one's live size.
    """
    if buffer <= 0:
        raise ValueError(f"buffer must be positive, got {buffer}")
    if not transforms:
        yield from source
        return

    queues = [_StageQueue(maxsize=buffer)
              for _ in range(len(transforms) + 1)]
    if on_queues is not None:
        on_queues(queues)
    cancel = threading.Event()
    abandoned = threading.Event()  # the consumer stopped iterating
    failures: dict[int, BaseException] = {}
    failures_lock = threading.Lock()

    def fail(order: int, exc: BaseException) -> None:
        with failures_lock:
            failures.setdefault(order, exc)
        cancel.set()

    def release(upto: int) -> None:
        """Stop the source, and release the queues ``[0, upto)`` so that
        no thread upstream of them waits on another."""
        cancel.set()
        for q in queues[:upto]:
            _release(q)

    def feeder() -> None:
        try:
            for x in source:
                if cancel.is_set():
                    break
                queues[0].put(x)
        except BaseException as exc:
            fail(-1, exc)
            queues[0].put(_POISON)
        finally:
            queues[0].put(_SENTINEL)

    def worker(order: int, transform: Transform) -> None:
        q_in, q_out = queues[order], queues[order + 1]
        it = _QueueIter(q_in)
        try:
            for out in transform(iter(it)):
                if it.poisoned or abandoned.is_set():
                    # The input was poisoned mid-stream: suppress trailing
                    # outputs derived from the truncated input (a partial
                    # chunk, say) — they are not a prefix of the healthy
                    # stream.  Nobody reads what follows an abandonment.
                    break
                q_out.put(out)
            if it.poisoned:
                q_out.put(_POISON)
            elif not it.exhausted:
                # The transform returned without consuming its whole
                # input — a stop condition truncated the stream.  What
                # is upstream may end without this stage.
                release(order + 1)
        except BaseException as exc:
            fail(order, exc)
            q_out.put(_POISON)
        finally:
            it.drain()
            q_out.put(_SENTINEL)

    stages = [threading.Thread(target=worker, args=(i, t),
                               name=f"stream-stage-{i}", daemon=True)
              for i, t in enumerate(transforms)]
    threading.Thread(target=feeder, name="stream-source", daemon=True).start()
    for t in stages:
        t.start()

    def finish() -> None:
        for t in stages:
            t.join()
        for q in queues:
            q.discard()

    try:
        while True:
            item = queues[-1].get()
            if item is _SENTINEL or item is _POISON:
                break
            yield item
    except GeneratorExit:
        # Consumer stopped early: stop the source and the stages.
        abandoned.set()
        release(len(queues))
        finish()
        raise
    finish()
    if failures:
        raise failures[min(failures)]
