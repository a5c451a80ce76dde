"""Threaded stage runner of stream plans (:meth:`StreamPlan.run`).

A *staged stream* is a source iterable pushed through an ordered list of
**transforms** — generator functions ``Iterator -> Iterator`` — each
running in its own thread, connected by bounded queues (backpressure).
:func:`run_staged` is the transport; the transforms carry all semantics,
so the sequential composition of the same transforms (no threads, no
queues) is the *reference executor* and the two are element-wise
identical by construction.

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
* Every stage still drains its input queue to the sentinel before
  exiting, so upstream ``put`` calls can never block forever.
* After all threads join, the **earliest failure by stage order** is
  raised — the source counts as stage ``-1`` — not whichever thread
  happened to lose the race into a shared list.
"""

from __future__ import annotations

import queue
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

    @property
    def exhausted(self) -> bool:
        return self._stopped


def run_staged(source: Iterable[Any], transforms: list[Transform], *,
               buffer: int = 8,
               on_depth: Callable[[int, int], None] | None = None
               ) -> Iterator[Any]:
    """Run ``source`` through ``transforms``, one thread per stage.

    Yields the final stage's output in order.  Output is element-wise
    identical to composing the transforms sequentially over ``source``;
    only timing changes (stage overlap).  See the module docstring for
    the failure/cancellation contract.

    ``on_depth(stage, depth)`` — when given — observes the occupancy of
    each inter-stage queue after every put into it (stage ``i`` is the
    queue *feeding* transform ``i``; ``len(transforms)`` is the output
    queue).  It runs on producer threads and must be cheap and
    exception-free; metrics gauges are the intended consumer.
    """
    if buffer <= 0:
        raise ValueError(f"buffer must be positive, got {buffer}")
    if not transforms:
        yield from source
        return

    queues: list[queue.Queue] = [queue.Queue(maxsize=buffer)
                                 for _ in range(len(transforms) + 1)]
    cancel = threading.Event()
    failures: dict[int, BaseException] = {}
    failures_lock = threading.Lock()

    def fail(order: int, exc: BaseException) -> None:
        with failures_lock:
            failures.setdefault(order, exc)
        cancel.set()

    def feeder() -> None:
        try:
            for x in source:
                if cancel.is_set():
                    break
                queues[0].put(x)
                if on_depth is not None:
                    on_depth(0, queues[0].qsize())
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
                if it.poisoned:
                    # The input was poisoned mid-stream: suppress trailing
                    # outputs derived from the truncated input (a partial
                    # chunk, say) — they are not a prefix of the healthy
                    # stream.
                    break
                q_out.put(out)
                if on_depth is not None:
                    on_depth(order + 1, q_out.qsize())
            if it.poisoned:
                q_out.put(_POISON)
            elif not it.exhausted:
                # The transform returned without consuming its whole
                # input — a stop condition truncated the stream.  Tell
                # the source to stop generating.
                cancel.set()
        except BaseException as exc:
            fail(order, exc)
            q_out.put(_POISON)
        finally:
            it.drain()
            q_out.put(_SENTINEL)

    threads = [threading.Thread(target=feeder, daemon=True)]
    threads += [threading.Thread(target=worker, args=(i, t), daemon=True)
                for i, t in enumerate(transforms)]
    for t in threads:
        t.start()

    try:
        while True:
            item = queues[-1].get()
            if item is _SENTINEL or item is _POISON:
                break
            yield item
    except GeneratorExit:
        # Consumer stopped early: stop the source; daemon threads drain.
        cancel.set()
        raise
    for t in threads:
        t.join()
    if failures:
        raise failures[min(failures)]
