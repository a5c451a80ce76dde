"""Tests for repro.machine.cost."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import MachineError
from repro.machine.cost import AP1000, MODERN_CLUSTER, PERFECT, MachineSpec, estimate_nbytes


class TestMachineSpec:
    def test_transfer_time_is_latency_plus_bandwidth_term(self):
        spec = MachineSpec(latency=1e-3, bandwidth=1e6, per_hop_latency=0.0)
        assert spec.transfer_time(1000) == pytest.approx(1e-3 + 1e-3)

    def test_per_hop_latency_charged_beyond_first_hop(self):
        spec = MachineSpec(latency=0.0, bandwidth=1e9, per_hop_latency=1e-6)
        assert spec.transfer_time(0, hops=1) == pytest.approx(0.0)
        assert spec.transfer_time(0, hops=4) == pytest.approx(3e-6)

    def test_compute_time_scales_with_ops(self):
        spec = MachineSpec(flop_time=2e-7)
        assert spec.compute_time(1e6) == pytest.approx(0.2)

    def test_words_uses_word_bytes(self):
        assert MachineSpec(word_bytes=4).words(10) == 40

    def test_replace_changes_one_field(self):
        spec = AP1000.replace(latency=1e-6)
        assert spec.latency == 1e-6
        assert spec.bandwidth == AP1000.bandwidth

    @pytest.mark.parametrize("field,value", [
        ("flop_time", -1.0),
        ("latency", float("nan")),
        ("bandwidth", 0.0),
        ("bandwidth", -5.0),
        ("word_bytes", 0),
        ("send_overhead", -1e-9),
    ])
    def test_invalid_constants_rejected(self, field, value):
        with pytest.raises(MachineError):
            MachineSpec(**{field: value})

    def test_negative_nbytes_rejected(self):
        with pytest.raises(MachineError):
            AP1000.transfer_time(-1)

    def test_zero_hops_rejected(self):
        with pytest.raises(MachineError):
            AP1000.transfer_time(10, hops=0)

    def test_negative_ops_rejected(self):
        with pytest.raises(MachineError):
            AP1000.compute_time(-1)

    @given(st.integers(0, 10**9), st.integers(1, 16))
    def test_transfer_time_monotone_in_size_and_hops(self, nbytes, hops):
        t = AP1000.transfer_time(nbytes, hops)
        assert t >= AP1000.transfer_time(nbytes, 1) or hops == 1
        assert AP1000.transfer_time(nbytes + 1024, hops) >= t


class TestPresets:
    def test_ap1000_is_slower_than_modern(self):
        assert AP1000.flop_time > MODERN_CLUSTER.flop_time
        assert AP1000.latency > MODERN_CLUSTER.latency
        assert AP1000.bandwidth < MODERN_CLUSTER.bandwidth

    def test_perfect_communication_is_free(self):
        assert PERFECT.transfer_time(10**9) == pytest.approx(0.0, abs=1e-15)
        assert PERFECT.send_overhead == 0.0

    def test_presets_are_named(self):
        assert AP1000.name == "AP1000"
        assert PERFECT.name == "perfect"


class TestEstimateNbytes:
    def test_numpy_arrays_exact(self):
        a = np.zeros(100, dtype=np.float64)
        assert estimate_nbytes(a) == 800

    def test_scalars_cost_one_word(self):
        assert estimate_nbytes(5, word_bytes=8) == 8
        assert estimate_nbytes(3.14, word_bytes=4) == 4
        assert estimate_nbytes(True) == 8
        assert estimate_nbytes(None) == 8

    def test_sequences_sum_elements(self):
        assert estimate_nbytes([1, 2, 3], word_bytes=8) == 24
        assert estimate_nbytes((1, [2, 3]), word_bytes=8) == 24

    def test_strings_by_length(self):
        assert estimate_nbytes("hello") == 5
        assert estimate_nbytes(b"") == 1

    def test_dicts_count_keys_and_values(self):
        assert estimate_nbytes({"a": 1}, word_bytes=8) == 9  # len("a") + 8

    def test_opaque_objects_cost_one_word(self):
        assert estimate_nbytes(object(), word_bytes=8) == 8

    def test_empty_list_costs_one_word(self):
        assert estimate_nbytes([], word_bytes=8) == 8


class TestEstimateNbytesBuffers:
    """The buffer-protocol payloads report their exact byte size."""

    def test_bytearray_by_length(self):
        assert estimate_nbytes(bytearray(b"\x00" * 37)) == 37
        assert estimate_nbytes(bytearray()) == 1  # floor of one byte

    def test_memoryview_by_buffer_size(self):
        assert estimate_nbytes(memoryview(b"abcdef")) == 6
        assert estimate_nbytes(memoryview(bytearray(100))) == 100
        assert estimate_nbytes(memoryview(b"")) == 1

    def test_memoryview_of_typed_array(self):
        arr = np.arange(10, dtype=np.float64)
        assert estimate_nbytes(memoryview(arr)) == 80

    def test_ndarray_exact_nbytes(self):
        assert estimate_nbytes(np.zeros((4, 4), dtype=np.int32)) == 64


class TestEstimateNbytesFlatFastPath:
    """Homogeneous flat lists/tuples are costed without per-element recursion,
    with a result identical to the recursive definition."""

    def test_flat_int_list(self):
        assert estimate_nbytes([1, 2, 3], word_bytes=8) == 24

    def test_flat_float_tuple(self):
        assert estimate_nbytes((0.5, 1.5), word_bytes=4) == 8

    def test_flat_numpy_scalar_list(self):
        xs = [np.float64(x) for x in range(5)]
        assert estimate_nbytes(xs, word_bytes=8) == 40

    def test_mixed_types_still_one_word_each(self):
        # int + float mix misses the fast path but the recursive cost agrees
        assert estimate_nbytes([1, 2.0, 3], word_bytes=8) == 24

    def test_nested_lists_recurse(self):
        assert estimate_nbytes([[1, 2], [3]], word_bytes=8) == 24

    def test_list_of_arrays_sums_buffers(self):
        payload = [np.zeros(3, dtype=np.int64), np.zeros(2, dtype=np.int64)]
        assert estimate_nbytes(payload) == 40

    def test_sets_cost_one_word_per_element(self):
        assert estimate_nbytes({1, 2, 3}, word_bytes=8) == 24
        assert estimate_nbytes(frozenset(), word_bytes=8) == 8

    @given(st.lists(st.integers(-10**6, 10**6), max_size=50),
           st.sampled_from([4, 8]))
    def test_fast_path_matches_recursive_definition(self, xs, wb):
        expected = max(wb, sum(estimate_nbytes(x, wb) for x in xs)) if xs else wb
        assert estimate_nbytes(xs, word_bytes=wb) == expected


def _reference_nbytes(payload, wb):
    """The documented recursive definition, with no fast path."""
    import numbers

    if isinstance(payload, np.ndarray):
        return int(payload.nbytes)
    if isinstance(payload, (bool, numbers.Number)) or payload is None:
        return wb
    if isinstance(payload, (str, bytes, bytearray)):
        return max(len(payload), 1)
    if isinstance(payload, (list, tuple, set, frozenset)):
        return max(wb, sum(_reference_nbytes(x, wb) for x in payload))
    if isinstance(payload, dict):
        return max(wb, sum(_reference_nbytes(k, wb) + _reference_nbytes(v, wb)
                           for k, v in payload.items()))
    return wb


_ARRAYS = st.builds(
    lambda n, dtype: np.zeros(n, dtype=dtype),
    st.integers(0, 9), st.sampled_from([np.int8, np.int32, np.float64]))
_LEAVES = st.one_of(
    _ARRAYS, st.integers(-5, 5), st.floats(allow_nan=False), st.booleans(),
    st.none(), st.text(max_size=4), st.binary(max_size=4),
    st.builds(np.float64, st.integers(0, 3)))
_PAYLOADS = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.integers(0, 5), inner, max_size=3)),
    max_leaves=12)


class TestEstimateNbytesArrayTuples:
    """A tuple directly holding an ndarray — every partner exchange of the
    compiled hyperquicksort — is summed on the spot; sizes are those of
    the recursive definition."""

    @given(_PAYLOADS, st.sampled_from([4, 8]))
    def test_every_shape_matches_the_recursive_definition(self, payload, wb):
        assert estimate_nbytes(payload, wb) == _reference_nbytes(payload, wb)

    @pytest.mark.parametrize("payload,expected", [
        ((np.zeros(3, np.int32), np.zeros(5, np.int32)), 32),
        ((np.zeros(0, np.int64), np.zeros(0, np.int64)), 4),   # floor: a word
        ((7, np.zeros(2, np.float64), "ab", None), 4 + 16 + 2 + 4),
        ((np.zeros(2, np.int8), (1, 2), [np.zeros(1, np.int8)]), 2 + 8 + 4),
    ])
    def test_pinned_sizes(self, payload, expected):
        assert estimate_nbytes(payload, 4) == expected
