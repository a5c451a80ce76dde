"""Tests for repro.core.elementary — map/imap/fold/scan semantics."""

from __future__ import annotations

import operator

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import ParArray, fold, fold_map, imap, parmap, scan, scan_seq
from repro.errors import SkeletonError


class TestParmap:
    def test_applies_to_every_component(self):
        assert parmap(lambda x: x + 1, ParArray([1, 2, 3])).to_list() == [2, 3, 4]

    def test_preserves_shape_2d(self):
        grid = ParArray([[1, 2], [3, 4]], shape=(2, 2))
        out = parmap(lambda x: -x, grid)
        assert out.shape == (2, 2) and out[(1, 1)] == -4

    def test_preserves_dist_metadata(self):
        from repro.core import Block, partition

        pa = partition(Block(2), [1, 2, 3, 4])
        assert parmap(lambda p: p, pa).dist == Block(2)

    def test_rejects_non_pararray(self):
        with pytest.raises(SkeletonError):
            parmap(lambda x: x, [1, 2])  # type: ignore[arg-type]

    def test_with_thread_executor(self, pool):
        out = parmap(lambda x: x * x, ParArray(range(64)), executor=pool)
        assert out.to_list() == [x * x for x in range(64)]

    def test_with_string_executor_spec(self):
        """A spec string is not a pool: it fails loudly instead of quietly
        running in the calling thread."""
        with pytest.raises(AttributeError):
            parmap(lambda x: x, ParArray([1]), executor="sequential")

    @given(st.lists(st.integers(), min_size=1, max_size=40))
    def test_map_fusion_semantics_property(self, xs):
        """map f . map g == map (f . g) — the law behind §4's map fusion."""
        f = lambda x: x * 3
        g = lambda x: x - 7
        pa = ParArray(xs)
        assert parmap(f, parmap(g, pa)) == parmap(lambda x: f(g(x)), pa)


class TestImap:
    def test_1d_index_is_int(self):
        out = imap(lambda i, x: (i, x), ParArray(["a", "b"]))
        assert out.to_list() == [(0, "a"), (1, "b")]

    def test_2d_index_is_tuple(self):
        grid = ParArray([[0, 0], [0, 0]], shape=(2, 2))
        out = imap(lambda idx, _x: idx, grid)
        assert out[(1, 0)] == (1, 0)

    def test_matches_paper_definition(self):
        """imap f <x0..xn> = <f 0 x0, .., f n xn>"""
        pa = ParArray([10, 20, 30])
        assert imap(operator.mul, pa).to_list() == [0, 20, 60]


class TestFold:
    def test_sum(self):
        assert fold(operator.add, ParArray([1, 2, 3, 4])) == 10

    def test_single_element(self):
        assert fold(operator.add, ParArray([42])) == 42

    def test_empty_undefined(self):
        # a ParArray always has >= 1 component, so exercise fold's empty
        # check through a zero-component view
        with pytest.raises(SkeletonError, match="empty"):
            fold(operator.add, _EmptyView())

    def test_non_commutative_preserves_order(self):
        pa = ParArray(list("parallel"))
        assert fold(operator.add, pa) == "parallel"

    def test_matrix_product_order(self):
        rng = np.random.default_rng(0)
        mats = [rng.standard_normal((2, 2)) for _ in range(7)]
        expected = mats[0]
        for m in mats[1:]:
            expected = expected @ m
        result = fold(operator.matmul, ParArray(mats))
        assert np.allclose(result, expected)

    @given(st.lists(st.integers(-100, 100), min_size=1, max_size=64))
    def test_tree_fold_matches_sequential_property(self, xs):
        assert fold(operator.add, ParArray(xs)) == sum(xs)

    @given(st.lists(st.text(max_size=4), min_size=1, max_size=40))
    def test_associative_noncommutative_property(self, xs):
        """Tree grouping must be invisible for any associative op."""
        assert fold(operator.add, ParArray(xs)) == "".join(xs)

    def test_with_executor(self, pool):
        assert fold(operator.add, ParArray(range(100)), executor=pool) == 4950


class _EmptyView(ParArray):
    """A deliberately inconsistent view used to hit fold's empty check."""

    def __init__(self):  # noqa: D401 - bypass normal construction
        object.__setattr__(self, "_shape", (1,))
        object.__setattr__(self, "_data", {})
        object.__setattr__(self, "dist", None)

    def to_list(self):
        return []


class TestScan:
    def test_inclusive_prefix(self):
        assert scan(operator.add, ParArray([1, 2, 3, 4])).to_list() == [1, 3, 6, 10]

    def test_first_element_unchanged(self):
        assert scan(operator.add, ParArray([9]))[0] == 9

    def test_matches_paper_definition(self):
        """scan + <x0,x1,..> = <x0, x0+x1, ..>"""
        pa = ParArray([5, 1, 2])
        assert scan(operator.add, pa).to_list() == [5, 6, 8]

    def test_2d_rejected(self):
        with pytest.raises(SkeletonError):
            scan(operator.add, ParArray([[1, 2]], shape=(1, 2)))

    def test_explicit_block_counts(self):
        pa = ParArray(list(range(1, 17)))
        for blocks in (1, 2, 3, 5, 16, 32):
            assert scan(operator.add, pa, blocks=blocks).to_list() == \
                scan_seq(operator.add, list(range(1, 17)))

    @given(st.lists(st.text(max_size=3), min_size=1, max_size=50),
           st.integers(1, 12))
    def test_blocked_scan_matches_sequential_property(self, xs, blocks):
        """The parallel blocked scan must equal the sequential scan for any
        associative (here: non-commutative concat) operator."""
        out = scan(operator.add, ParArray(xs), blocks=blocks)
        assert out.to_list() == scan_seq(operator.add, xs)

    def test_with_executor(self, pool):
        out = scan(operator.add, ParArray(range(32)), executor=pool)
        assert out.to_list() == scan_seq(operator.add, list(range(32)))


class TestScanSeq:
    def test_empty(self):
        assert scan_seq(operator.add, []) == []

    def test_singleton(self):
        assert scan_seq(operator.add, [3]) == [3]

    def test_running_max(self):
        assert scan_seq(max, [2, 1, 5, 3]) == [2, 2, 5, 5]


class TestFoldMap:
    def test_equals_fold_after_map(self):
        pa = ParArray([1, 2, 3])
        assert fold_map(operator.add, lambda x: x * x, pa) == 14

    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=40))
    def test_map_distribution_semantics_property(self, xs):
        """fold f . map g == the sequential foldr of the fused function —
        §4's map distribution law at the semantic level."""
        from repro.util.functional import foldr

        g = lambda x: x * 2 + 1
        pa = ParArray(xs)
        lhs = foldr(lambda x, acc: g(x) + acc, g(xs[-1]), xs[:-1])
        assert fold_map(operator.add, g, pa) == lhs
