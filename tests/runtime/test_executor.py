"""Tests for repro.runtime.executor."""

from __future__ import annotations

import threading

import pytest

from repro.errors import SkeletonError
from repro.runtime.executor import (
    Executor,
    ProcessExecutor,
    SequentialExecutor,
    ThreadExecutor,
    get_executor,
)


def square(x):
    return x * x


class TestSequentialExecutor:
    def test_map_preserves_order(self):
        ex = SequentialExecutor()
        assert ex.map(square, [3, 1, 2]) == [9, 1, 4]

    def test_starmap_unpacks(self):
        ex = SequentialExecutor()
        assert ex.starmap(lambda a, b: a - b, [(5, 2), (1, 1)]) == [3, 0]

    def test_empty_input(self):
        assert SequentialExecutor().map(square, []) == []

    def test_exceptions_propagate(self):
        with pytest.raises(ZeroDivisionError):
            SequentialExecutor().map(lambda x: 1 // x, [1, 0])

    def test_context_manager(self):
        with SequentialExecutor() as ex:
            assert ex.map(square, [2]) == [4]


def fail_on_one(x):
    if x == 1:
        raise ValueError("bad 1")
    return x


class _PoolExecutorCases:
    """What both pool-backed executors must do; subclasses set ``make``."""

    make: type

    def test_map_preserves_order(self):
        with self.make(max_workers=4) as ex:
            assert ex.map(square, range(32)) == [x * x for x in range(32)]

    def test_close_is_idempotent(self):
        ex = self.make(max_workers=1)
        ex.map(square, [1])
        ex.close()
        ex.close()

    def test_pool_recreated_after_close(self):
        ex = self.make(max_workers=1)
        assert ex.map(square, [2]) == [4]
        ex.close()
        assert ex.map(square, [3]) == [9]
        ex.close()

    def test_rejects_bad_worker_count(self):
        with pytest.raises(SkeletonError):
            self.make(max_workers=0)

    def test_worker_exception_keeps_its_type(self):
        with self.make(max_workers=2) as ex:
            with pytest.raises(ValueError, match="bad 1"):
                ex.map(fail_on_one, [0, 1, 2])


class TestThreadExecutor(_PoolExecutorCases):
    make = ThreadExecutor

    def test_actually_uses_multiple_threads(self):
        seen = set()
        barrier = threading.Barrier(2, timeout=10)

        def record(_x):
            barrier.wait()
            seen.add(threading.get_ident())
            return None

        with ThreadExecutor(max_workers=2) as ex:
            ex.map(record, [1, 2])
        assert len(seen) == 2


class TestProcessExecutor(_PoolExecutorCases):
    make = ProcessExecutor

    def test_map_with_picklable_function(self):
        with ProcessExecutor(max_workers=2) as ex:
            assert ex.map(square, [1, 2, 3]) == [1, 4, 9]


class TestGetExecutor:
    def test_none_gives_sequential(self):
        assert isinstance(get_executor(None), SequentialExecutor)

    def test_string_specs(self):
        assert isinstance(get_executor("sequential"), SequentialExecutor)
        assert isinstance(get_executor("threads"), ThreadExecutor)
        assert isinstance(get_executor("processes"), ProcessExecutor)

    def test_instance_passes_through(self):
        ex = SequentialExecutor()
        assert get_executor(ex) is ex

    def test_unknown_spec_rejected(self):
        with pytest.raises(SkeletonError):
            get_executor("gpu")

    def test_executor_is_abstract(self):
        with pytest.raises(TypeError):
            Executor()  # type: ignore[abstract]
