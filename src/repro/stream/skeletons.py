"""Elementary skeletons over streams.

All functions are lazy: they consume their input iterable incrementally
and yield results incrementally, so unbounded streams work.  The ordered
operations are *deterministic*: with any executor, ``stream_map(f, xs)``
yields exactly ``map(f, xs)``.
"""

from __future__ import annotations

import collections
import concurrent.futures
from typing import Callable, Iterable, Iterator, TypeVar

from repro.errors import SkeletonError
from repro.runtime.executor import (Executor, ProcessExecutor, SequentialExecutor,
                                    ThreadExecutor, get_executor)

__all__ = ["stream_map", "stream_farm", "stream_filter", "stream_reduce",
           "stream_scan"]

_T = TypeVar("_T")
_U = TypeVar("_U")


def _pool_of(executor: Executor | str | None):
    """The concurrent.futures pool behind an executor, or None if serial."""
    ex = get_executor(executor)
    if isinstance(ex, SequentialExecutor):
        return None
    if isinstance(ex, (ThreadExecutor, ProcessExecutor)):
        return ex.pool
    raise SkeletonError(
        f"stream skeletons need a pool-backed or sequential executor, "
        f"got {type(ex).__name__}")


def stream_map(f: Callable[[_T], _U], items: Iterable[_T], *,
               executor: Executor | str | None = None,
               window: int = 16) -> Iterator[_U]:
    """Ordered concurrent map over a stream.

    Keeps at most ``window`` applications in flight; results are yielded
    in input order regardless of completion order.
    """
    if window <= 0:
        raise SkeletonError(f"window must be positive, got {window}")
    pool = _pool_of(executor)
    if pool is None:
        for x in items:
            yield f(x)
        return
    pending: collections.deque = collections.deque()
    it = iter(items)
    try:
        for x in it:
            pending.append(pool.submit(f, x))
            if len(pending) >= window:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        for fut in pending:
            fut.cancel()


def stream_farm(f: Callable[[_T], _U], items: Iterable[_T], *,
                executor: Executor | str | None = None,
                window: int = 16,
                ordered: bool = True) -> Iterator[_U]:
    """Farm a stream of jobs out to workers.

    ``ordered=True`` behaves like :func:`stream_map`; ``ordered=False``
    yields results as they complete (higher throughput under variable job
    sizes, order unspecified) — the task-farm semantics of P3L's ``farm``.
    """
    if ordered:
        yield from stream_map(f, items, executor=executor, window=window)
        return
    if window <= 0:
        raise SkeletonError(f"window must be positive, got {window}")
    pool = _pool_of(executor)
    if pool is None:
        for x in items:
            yield f(x)
        return
    pending: set = set()
    it = iter(items)
    exhausted = False
    try:
        while True:
            while not exhausted and len(pending) < window:
                try:
                    pending.add(pool.submit(f, next(it)))
                except StopIteration:
                    exhausted = True
            if not pending:
                return
            done, pending = concurrent.futures.wait(
                pending, return_when=concurrent.futures.FIRST_COMPLETED)
            for fut in done:
                yield fut.result()
    finally:
        for fut in pending:
            fut.cancel()


def stream_filter(pred: Callable[[_T], bool], items: Iterable[_T], *,
                  executor: Executor | str | None = None,
                  window: int = 16) -> Iterator[_T]:
    """Ordered concurrent filter: predicates evaluate in parallel, the
    surviving items come out in input order."""
    flagged = stream_map(lambda x: (pred(x), x), items,
                         executor=executor, window=window)
    return (x for keep, x in flagged if keep)


def stream_reduce(op: Callable[[_U, _T], _U], items: Iterable[_T],
                  initial: _U) -> _U:
    """Left fold of a stream (inherently sequential; constant memory)."""
    acc = initial
    for x in items:
        acc = op(acc, x)
    return acc


def stream_scan(op: Callable[[_U, _T], _U], items: Iterable[_T],
                initial: _U) -> Iterator[_U]:
    """Running left fold: yields the accumulator after every element."""
    acc = initial
    for x in items:
        acc = op(acc, x)
        yield acc
