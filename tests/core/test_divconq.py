"""Tests for repro.core.divconq — the divide-and-conquer skeleton."""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import divide_and_conquer
from repro.errors import SkeletonError


def dc_mergesort(xs, **kw):
    def merge(parts):
        a, b = parts
        out = []
        i = j = 0
        while i < len(a) and j < len(b):
            if a[i] <= b[j]:
                out.append(a[i]); i += 1
            else:
                out.append(b[j]); j += 1
        return out + a[i:] + b[j:]

    return divide_and_conquer(
        trivial=lambda v: len(v) <= 1,
        solve=lambda v: list(v),
        divide=lambda v: [v[: len(v) // 2], v[len(v) // 2:]],
        combine=merge,
        problem=list(xs),
        **kw,
    )


def dc_sum(xs, **kw):
    return divide_and_conquer(
        trivial=lambda v: len(v) <= 2,
        solve=sum,
        divide=lambda v: [v[: len(v) // 2], v[len(v) // 2:]],
        combine=sum,
        problem=list(xs),
        **kw,
    )


class TestSequential:
    def test_mergesort(self):
        assert dc_mergesort([5, 3, 8, 1]) == [1, 3, 5, 8]

    def test_empty_problem(self):
        assert dc_mergesort([]) == []

    def test_singleton(self):
        assert dc_mergesort([7]) == [7]

    def test_sum(self):
        assert dc_sum(range(100)) == 4950

    def test_non_binary_division(self):
        out = divide_and_conquer(
            trivial=lambda v: len(v) <= 1,
            solve=lambda v: v[0] if v else 0,
            divide=lambda v: [v[i::3] for i in range(3)],
            combine=sum,
            problem=list(range(20)),
        )
        assert out == sum(range(20))

    @given(st.lists(st.integers(-1000, 1000), max_size=100))
    def test_mergesort_property(self, xs):
        assert dc_mergesort(xs) == sorted(xs)


class TestParallel:
    def test_results_identical_to_sequential(self):
        xs = list(np.random.default_rng(0).integers(0, 1000, size=200))
        with ThreadPoolExecutor(max_workers=4) as ex:
            assert dc_mergesort(xs, executor=ex) == dc_mergesort(xs)

    def test_string_executor(self, pool):
        """What the ``"threads"`` spec string used to name: a stdlib pool."""
        assert dc_sum(range(64), executor=pool) == 2016

    @pytest.mark.parametrize("fork_levels", [0, 1, 2, 5])
    def test_fork_levels_do_not_change_result(self, fork_levels):
        xs = list(range(50, 0, -1))
        with ThreadPoolExecutor(max_workers=3) as ex:
            assert dc_mergesort(xs, executor=ex,
                                fork_levels=fork_levels) == sorted(xs)

    def test_frontier_actually_parallel(self):
        """With fork_levels=2 a balanced binary division yields 4 frontier
        tasks; a 4-party barrier inside solve proves they run together."""
        barrier = threading.Barrier(4, timeout=10)

        def solve(v):
            barrier.wait()
            return sum(v)

        with ThreadPoolExecutor(max_workers=4) as ex:
            out = divide_and_conquer(
                trivial=lambda v: len(v) <= 4,
                solve=solve,
                divide=lambda v: [v[: len(v) // 2], v[len(v) // 2:]],
                combine=sum,
                problem=list(range(16)),
                executor=ex,
                fork_levels=2,
            )
        assert out == sum(range(16))

    def test_no_nested_pool_starvation(self):
        """Deep recursion with a 1-worker pool must not deadlock (the
        frontier map is flat by construction)."""
        xs = list(range(64))
        with ThreadPoolExecutor(max_workers=1) as ex:
            assert dc_sum(xs, executor=ex, fork_levels=6) == sum(xs)


class TestErrors:
    def test_negative_fork_levels(self):
        with pytest.raises(SkeletonError):
            dc_sum([1], fork_levels=-1)

    def test_non_terminating_divide_detected(self):
        with pytest.raises(SkeletonError, match="max_depth"):
            divide_and_conquer(
                trivial=lambda v: False,
                solve=lambda v: v,
                divide=lambda v: [v],
                combine=lambda rs: rs[0],
                problem=[1],
                max_depth=50,
            )

    def test_empty_division_rejected(self):
        with pytest.raises(SkeletonError, match="no sub-problems"):
            divide_and_conquer(
                trivial=lambda v: False,
                solve=lambda v: v,
                divide=lambda v: [],
                combine=lambda rs: rs,
                problem=[1, 2],
            )

    def test_non_terminating_parallel_expand_detected(self, pool):
        with pytest.raises(SkeletonError, match="max_depth"):
            divide_and_conquer(
                trivial=lambda v: False,
                solve=lambda v: v,
                divide=lambda v: [v],
                combine=lambda rs: rs[0],
                problem=[1],
                executor=pool,
                fork_levels=100,
                max_depth=20,
            )


class TestHyperquicksortViaDc:
    """The paper's recursive hypersort *is* a divide-and-conquer instance."""

    def test_quicksort_as_dc(self, rng, pool):
        vals = rng.integers(0, 1000, size=300).tolist()

        def divide(v):
            pivot = v[len(v) // 2]
            return ([x for x in v if x < pivot],
                    [x for x in v if x == pivot],
                    [x for x in v if x > pivot])

        out = divide_and_conquer(
            trivial=lambda v: len(v) <= 1 or len(set(v)) == 1,
            solve=lambda v: list(v),
            divide=divide,
            combine=lambda parts: parts[0] + parts[1] + parts[2],
            problem=vals,
            executor=pool,
        )
        assert out == sorted(vals)
