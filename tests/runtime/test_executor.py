"""The ``executor=`` contract: ``None`` or a stdlib pool.

``None`` runs every work item in the calling thread; a
:class:`concurrent.futures.Executor` runs them through its ``map``.
Either way results follow input order and a fragment's exception reaches
the caller with its type.  ``tests/core/test_executors.py`` checks that
every entry point computes the same result both ways.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core import ParArray, divide_and_conquer, fold, imap, parmap, scan


def square(x):
    return x * x


def fail_on_one(x):
    if x == 1:
        raise ValueError("bad 1")
    return x


class TestSequentialExecutor:
    """``executor=None``: the calling thread, in index order."""

    def test_map_preserves_order(self):
        assert parmap(square, ParArray([3, 1, 2])).to_list() == [9, 1, 4]

    def test_starmap_unpacks(self):
        out = imap(lambda i, x: x - i, ParArray([5, 2]))
        assert out.to_list() == [5, 1]

    def test_exceptions_propagate(self):
        with pytest.raises(ZeroDivisionError):
            parmap(lambda x: 1 // x, ParArray([1, 0]))


class TestThreadExecutor:
    """A ``ThreadPoolExecutor``: the pool's threads, results in index order."""

    def test_map_preserves_order(self):
        with ThreadPoolExecutor(max_workers=4) as ex:
            out = parmap(square, ParArray(range(32)), executor=ex)
        assert out.to_list() == [x * x for x in range(32)]

    def test_worker_exception_keeps_its_type(self, pool):
        with pytest.raises(ValueError, match="bad 1"):
            parmap(fail_on_one, ParArray([0, 1, 2]), executor=pool)

    def test_actually_uses_multiple_threads(self, pool):
        seen = set()
        barrier = threading.Barrier(2, timeout=10)

        def record(_x):
            barrier.wait()  # returns only once both items run at the same time
            seen.add(threading.get_ident())

        parmap(record, ParArray([1, 2]), executor=pool)
        assert len(seen) == 2


class TestGetExecutor:
    """What ``executor=`` accepts: nothing, a pool, and no spec string."""

    def test_none_gives_sequential(self):
        seen = set()
        parmap(lambda x: seen.add(threading.get_ident()), ParArray(range(8)))
        assert seen == {threading.get_ident()}

    def test_instance_passes_through(self):
        with ThreadPoolExecutor(max_workers=2,
                                thread_name_prefix="caller-pool") as ex:
            names = parmap(lambda _x: threading.current_thread().name,
                           ParArray(range(8)), executor=ex)
        assert all(n.startswith("caller-pool") for n in names.to_list())

    def test_string_specs(self):
        for skeleton in (parmap, imap, fold, scan):
            with pytest.raises(AttributeError):
                skeleton(max, ParArray([1, 2, 3]), executor="threads")

    def test_unknown_spec_rejected(self):
        with pytest.raises(AttributeError):
            divide_and_conquer(
                trivial=lambda v: len(v) <= 1, solve=sum,
                divide=lambda v: [v[:1], v[1:]], combine=sum,
                problem=[1, 2, 3], executor="gpu")
