"""Executor protocol and implementations.

An :class:`Executor` runs a function over independent items and returns the
results *in input order*.  Skeletons never depend on evaluation order, only
on result order — that is what makes them portable across backends, which is
the paper's portability claim ("specialised implementations of the
compositional operators on target architectures").
"""

from __future__ import annotations

import abc
import concurrent.futures
import os
from typing import Any, Callable, Iterable, Sequence, TypeVar

from repro.errors import SkeletonError

__all__ = [
    "Executor",
    "SequentialExecutor",
    "ThreadExecutor",
    "ProcessExecutor",
    "get_executor",
]

_T = TypeVar("_T")
_U = TypeVar("_U")


class Executor(abc.ABC):
    """Runs independent work items; results come back in input order."""

    @abc.abstractmethod
    def map(self, fn: Callable[[_T], _U], items: Iterable[_T]) -> list[_U]:
        """Apply ``fn`` to every item; return results in input order."""

    def starmap(self, fn: Callable[..., _U], items: Iterable[Sequence[Any]]) -> list[_U]:
        """Like :meth:`map` but unpacks each item as positional arguments."""
        return self.map(lambda args: fn(*args), items)

    def close(self) -> None:
        """Release backend resources (idempotent)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


class SequentialExecutor(Executor):
    """Runs everything in the calling thread, in order. The baseline."""

    def map(self, fn: Callable[[_T], _U], items: Iterable[_T]) -> list[_U]:
        return [fn(x) for x in items]

    def __repr__(self) -> str:
        return "SequentialExecutor()"


class _PoolExecutor(Executor):
    """Shared logic for the concurrent.futures-backed executors."""

    def __init__(self, max_workers: int | None = None):
        if max_workers is not None and max_workers <= 0:
            raise SkeletonError(f"max_workers must be positive, got {max_workers}")
        self.max_workers = max_workers or (os.cpu_count() or 1)
        self._pool: concurrent.futures.Executor | None = None

    @abc.abstractmethod
    def _make_pool(self) -> concurrent.futures.Executor: ...

    @property
    def pool(self) -> concurrent.futures.Executor:
        if self._pool is None:
            self._pool = self._make_pool()
        return self._pool

    def map(self, fn: Callable[[_T], _U], items: Iterable[_T]) -> list[_U]:
        return list(self.pool.map(fn, items))

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __repr__(self) -> str:
        return f"{type(self).__name__}(max_workers={self.max_workers})"


class ThreadExecutor(_PoolExecutor):
    """Thread pool.

    True speedup requires the base-language fragments to release the GIL
    (NumPy kernels do); pure-Python fragments run correctly but serially.
    """

    def _make_pool(self) -> concurrent.futures.Executor:
        return concurrent.futures.ThreadPoolExecutor(max_workers=self.max_workers)


class ProcessExecutor(_PoolExecutor):
    """Process pool. Function and items must be picklable (top-level defs)."""

    def _make_pool(self) -> concurrent.futures.Executor:
        return concurrent.futures.ProcessPoolExecutor(max_workers=self.max_workers)


def get_executor(spec: "Executor | str | None") -> Executor:
    """Coerce an executor spec to an instance.

    ``None`` or ``"sequential"`` → :class:`SequentialExecutor`;
    ``"threads"`` → :class:`ThreadExecutor`; ``"processes"`` →
    :class:`ProcessExecutor`; an :class:`Executor` instance passes through.
    """
    if spec is None or spec == "sequential":
        return SequentialExecutor()
    if isinstance(spec, Executor):
        return spec
    if spec == "threads":
        return ThreadExecutor()
    if spec == "processes":
        return ProcessExecutor()
    raise SkeletonError(f"unknown executor spec {spec!r}")
