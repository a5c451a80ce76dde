"""Tests for repro.core.pararray."""

from __future__ import annotations

import itertools
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.pararray import ParArray, normalize_index
from repro.errors import ConfigurationError


class TestConstruction:
    def test_from_sequence_1d(self):
        pa = ParArray([10, 20, 30])
        assert pa.shape == (3,)
        assert pa.to_list() == [10, 20, 30]

    def test_from_range(self):
        assert ParArray(range(4)).to_list() == [0, 1, 2, 3]

    def test_from_nested_list_2d(self):
        pa = ParArray([[1, 2, 3], [4, 5, 6]], shape=(2, 3))
        assert pa[(1, 2)] == 6
        assert pa.to_nested_list() == [[1, 2, 3], [4, 5, 6]]

    def test_from_mapping(self):
        pa = ParArray({(0, 0): "a", (0, 1): "b"}, shape=(1, 2))
        assert pa[(0, 1)] == "b"

    def test_mapping_requires_shape(self):
        with pytest.raises(ConfigurationError, match="shape"):
            ParArray({0: "a"})

    def test_mapping_with_int_keys_normalized(self):
        pa = ParArray({0: "a", 1: "b"}, shape=(2,))
        assert pa[0] == "a"

    def test_copy_constructor_shares_data(self):
        pa = ParArray([1, 2])
        pb = ParArray(pa)
        assert pb == pa and pb.dist == pa.dist

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            ParArray([[1, 2], [3]], shape=(2, 2))

    def test_missing_indices_rejected(self):
        with pytest.raises(ConfigurationError, match="missing"):
            ParArray({(0,): 1}, shape=(2,))

    def test_extra_indices_rejected(self):
        with pytest.raises(ConfigurationError, match="extra"):
            ParArray({(0,): 1, (1,): 2, (2,): 3}, shape=(2,))

    def test_invalid_shape_rejected(self):
        with pytest.raises(ConfigurationError):
            ParArray([1], shape=(0,))

    def test_3d_sequence_rejected(self):
        with pytest.raises(ConfigurationError):
            ParArray([1], shape=(1, 1, 1))


class TestConstructionChecks:
    """A plain 1-D sequence skips the index-coverage proof it cannot fail;
    every other construction keeps each check and its message."""

    @pytest.mark.parametrize("shape", [None, (3,)])
    def test_1d_sequence_equals_the_mapping_construction(self, shape):
        pa = ParArray(["a", "b", "c"], shape, dist="d")
        via_mapping = ParArray({0: "a", 1: "b", 2: "c"}, shape=(3,))
        assert pa == via_mapping
        assert pa.shape == (3,) and type(pa.shape[0]) is int
        assert list(pa.indices()) == [(0,), (1,), (2,)]
        assert pa.dist == "d"

    def test_1d_sequence_with_a_wrong_shape(self):
        with pytest.raises(ConfigurationError, match=re.escape(
                "indices do not cover shape (3,): missing [(2,)], extra []")):
            ParArray([1, 2], shape=(3,))

    @pytest.mark.parametrize("items, shape", [([], None), ([1], (0,)),
                                              ([1, 2], (2.0,))])
    def test_1d_sequence_with_an_invalid_shape(self, items, shape):
        with pytest.raises(ConfigurationError,
                           match="invalid ParArray shape"):
            ParArray(items, shape)

    def test_mapping_messages(self):
        with pytest.raises(ConfigurationError, match=re.escape(
                "mapping construction requires an explicit shape")):
            ParArray({0: "a"})
        with pytest.raises(ConfigurationError, match=re.escape(
                "indices do not cover shape (2, 2): missing [(1, 1)], "
                "extra [(2, 0)]")):
            ParArray({(0, 0): 1, (0, 1): 2, (1, 0): 3, (2, 0): 4},
                     shape=(2, 2))
        with pytest.raises(ConfigurationError, match=re.escape(
                "invalid ParArray shape (2, -1)")):
            ParArray({}, shape=(2, -1))

    def test_2d_messages(self):
        with pytest.raises(ConfigurationError, match=re.escape(
                "nested list does not match shape (2, 2)")):
            ParArray([[1, 2], [3]], shape=(2, 2))
        with pytest.raises(ConfigurationError, match=re.escape(
                "sequence construction supports 1-D/2-D shapes, got "
                "(1, 1, 1)")):
            ParArray([1], shape=(1, 1, 1))
        pa = ParArray([[1, 2], [3, 4]], shape=(2, 2))
        assert pa == ParArray({(0, 0): 1, (0, 1): 2, (1, 0): 3, (1, 1): 4},
                              shape=(2, 2))


class TestAccess:
    def test_int_and_tuple_index_equivalent(self):
        pa = ParArray([5, 6, 7])
        assert pa[1] == pa[(1,)] == 6

    def test_out_of_range_raises(self):
        with pytest.raises(ConfigurationError, match="out of range"):
            ParArray([1, 2])[5]

    def test_bad_index_type_raises(self):
        with pytest.raises(ConfigurationError):
            ParArray([1, 2])["x"]

    def test_len_is_leading_dim(self):
        assert len(ParArray([[1], [2], [3]], shape=(3, 1))) == 3

    def test_size_is_total(self):
        assert ParArray([[1, 2], [3, 4]], shape=(2, 2)).size == 4

    def test_iteration_row_major(self):
        pa = ParArray([[1, 2], [3, 4]], shape=(2, 2))
        assert list(pa) == [1, 2, 3, 4]

    def test_indices_row_major(self):
        pa = ParArray([[1, 2], [3, 4]], shape=(2, 2))
        assert list(pa.indices()) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_contains(self):
        assert 2 in ParArray([1, 2, 3])
        assert 9 not in ParArray([1, 2, 3])

    def test_contains_compares_ndarray_components_by_value(self):
        # a sort's blocks: `==` on two arrays is an array, not a bool
        pa = ParArray([np.arange(3), np.arange(3) + 1])
        assert np.arange(3) + 1 in pa
        assert np.arange(3) + 2 not in pa
        assert np.arange(4) not in pa
        assert 1 not in pa

    def test_to_nested_list_on_1d(self):
        assert ParArray([1, 2]).to_nested_list() == [1, 2]


class TestImmutability:
    def test_with_items_builds_new_array(self):
        pa = ParArray([1, 2, 3])
        pb = pa.with_items(lambda idx, v: v * 10)
        assert pb.to_list() == [10, 20, 30]
        assert pa.to_list() == [1, 2, 3]

    def test_with_items_receives_indices(self):
        pa = ParArray([[0, 0], [0, 0]], shape=(2, 2))
        pb = pa.with_items(lambda idx, _v: idx)
        assert pb[(1, 0)] == (1, 0)

    def test_replace_single_component(self):
        pa = ParArray([1, 2, 3])
        pb = pa.replace(1, 99)
        assert pb.to_list() == [1, 99, 3]
        assert pa.to_list() == [1, 2, 3]

    def test_replace_out_of_range(self):
        with pytest.raises(ConfigurationError):
            ParArray([1]).replace(4, 0)

    def test_not_hashable(self):
        with pytest.raises(TypeError):
            hash(ParArray([1]))


class TestEquality:
    def test_equal_arrays(self):
        assert ParArray([1, 2]) == ParArray([1, 2])

    def test_different_values(self):
        assert ParArray([1, 2]) != ParArray([1, 3])

    def test_different_shapes(self):
        assert ParArray([1, 2]) != ParArray([1, 2, 3])
        assert ParArray([[1], [2]], shape=(2, 1)) != ParArray([1, 2])

    def test_numpy_leaves_compared_by_value(self):
        a = ParArray([np.array([1, 2]), np.array([3])])
        b = ParArray([np.array([1, 2]), np.array([3])])
        assert a == b
        c = ParArray([np.array([1, 2]), np.array([4])])
        assert a != c

    def test_numpy_leaves_different_lengths(self):
        assert ParArray([np.array([1, 2])]) != ParArray([np.array([1, 2, 3])])

    def test_tuple_leaves_with_arrays(self):
        a = ParArray([(1, np.array([2]))])
        b = ParArray([(1, np.array([2]))])
        assert a == b

    def test_non_pararray_comparison(self):
        assert ParArray([1]) != [1]

    def test_nested_pararray_equality(self):
        a = ParArray([ParArray([1, 2]), ParArray([3])])
        b = ParArray([ParArray([1, 2]), ParArray([3])])
        assert a == b


class TestRepr:
    def test_small_1d_shows_contents(self):
        assert "10" in repr(ParArray([10, 20]))

    def test_large_shows_shape(self):
        assert "shape" in repr(ParArray(list(range(100))))


class TestNormalizeIndex:
    def test_int_becomes_tuple(self):
        assert normalize_index(3) == (3,)

    def test_tuple_passes_through(self):
        assert normalize_index((1, 2)) == (1, 2)

    def test_bool_rejected(self):
        with pytest.raises(ConfigurationError):
            normalize_index(True)


@given(st.lists(st.integers(), min_size=1, max_size=30))
def test_roundtrip_list_property(xs):
    assert ParArray(xs).to_list() == xs


@given(st.lists(st.integers(), min_size=1, max_size=30))
def test_with_items_identity_property(xs):
    pa = ParArray(xs)
    assert pa.with_items(lambda _i, v: v) == pa


def _recursive_grid(shape):
    """The definition of row-major order ``ParArray.indices`` must keep."""
    if not shape:
        yield ()
        return
    head, *rest = shape
    for i in range(head):
        for tail in _recursive_grid(rest):
            yield (i, *tail)


def test_indices_are_the_recursive_row_major_grid():
    # every shape up to 3-D with extents 1..4, the empty shape included
    for ndim in range(4):
        for shape in itertools.product(range(1, 5), repeat=ndim):
            want = list(_recursive_grid(shape))
            pa = ParArray({idx: sum(idx) for idx in want}, shape=shape)
            assert list(pa.indices()) == want
            assert [v for v in pa] == [sum(idx) for idx in want]
