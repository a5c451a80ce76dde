"""Tests for repro.apps.sort — every hyperquicksort and sample sort rendering."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.apps.bitonic import compare_split
from repro.apps.sort import (
    SortCostParams,
    hyperquicksort,
    hyperquicksort_expression,
    hyperquicksort_flat,
    hyperquicksort_machine,
    hyperquicksort_nested_expression,
    hyperquicksort_trace,
    merge_sorted,
    midvalue,
    sample_sort,
    sample_sort_compiled,
    seq_quicksort,
    sequential_sort_machine,
    split_by_pivot,
)
from repro.machine import MODERN_CLUSTER

#: Float keys whose equal-key order a sort can show: signed zeros, the
#: infinities, and NaNs with distinct payloads (quiet, signed, payload 1).
_FLOAT_EDGES = [-0.0, 0.0, np.inf, -np.inf, np.nan, -np.nan,
                float(np.array(0x7FF8000000000001).view(np.float64))]


def _merge_keys(dtype):
    if dtype == np.float64:
        return st.one_of(st.sampled_from(_FLOAT_EDGES),
                         st.floats(-4, 4, width=64))
    return hnp.from_dtype(np.dtype(dtype))


class TestBaseFragments:
    def test_seq_quicksort(self):
        assert np.array_equal(seq_quicksort(np.array([3, 1, 2])), [1, 2, 3])

    def test_midvalue_of_sorted(self):
        assert midvalue(np.array([1, 5, 9])) == 5
        assert midvalue(np.array([1, 5, 9, 12])) == 9

    def test_midvalue_empty_is_zero(self):
        assert midvalue(np.array([])) == 0.0

    def test_split_by_pivot_inclusive_left(self):
        low, high = split_by_pivot(5, np.array([1, 5, 5, 7]))
        assert list(low) == [1, 5, 5] and list(high) == [7]

    def test_split_by_pivot_all_low(self):
        low, high = split_by_pivot(99, np.array([1, 2]))
        assert list(low) == [1, 2] and high.size == 0

    def test_merge_sorted(self):
        out = merge_sorted(np.array([1, 4]), np.array([2, 3]))
        assert list(out) == [1, 2, 3, 4]

    def test_merge_with_empty(self):
        assert list(merge_sorted(np.array([]), np.array([5]))) == [5]
        assert list(merge_sorted(np.array([5]), np.array([]))) == [5]

    @given(st.lists(st.integers(-100, 100)), st.lists(st.integers(-100, 100)))
    def test_merge_property(self, a, b):
        out = merge_sorted(np.sort(np.array(a, dtype=int)),
                           np.sort(np.array(b, dtype=int)))
        assert list(out) == sorted(a + b)

    @settings(max_examples=60, deadline=None)
    @pytest.mark.parametrize("dtype", [np.int8, np.int32, np.int64,
                                       np.uint16, np.bool_, np.float64])
    @given(data=st.data())
    def test_merge_is_the_stable_sort_bytes(self, dtype, data):
        """Whatever sort ``MERGE`` takes for its keys, it returns the
        dtype and the bytes of the stable sort of the concatenation,
        and ``compare_split``'s halves are slices of it."""
        a, b = (np.sort(data.draw(hnp.arrays(
            dtype, st.integers(0, 64), elements=_merge_keys(dtype))),
            kind="stable") for _ in range(2))
        want = np.sort(np.concatenate([a, b]), kind="stable")
        got = merge_sorted(a, b)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        m = min(a.size, b.size)
        whole = merge_sorted(a[:m], b[:m])
        for keep_low, half in ((True, whole[:m]), (False, whole[m:])):
            out = compare_split(a[:m], b[:m], keep_low)
            assert out.dtype == half.dtype and out.tobytes() == half.tobytes()


class TestParArrayLevelSorts:
    @pytest.mark.parametrize("d", [0, 1, 2, 3, 4])
    def test_recursive_sorts_correctly(self, rng, d):
        vals = rng.integers(0, 1000, size=512)
        assert np.array_equal(hyperquicksort(vals, d), np.sort(vals))

    @pytest.mark.parametrize("d", [0, 1, 2, 3, 4])
    def test_flat_sorts_correctly(self, rng, d):
        vals = rng.integers(0, 1000, size=512)
        assert np.array_equal(hyperquicksort_flat(vals, d), np.sort(vals))

    @settings(max_examples=25)
    @given(st.lists(st.integers(-10**6, 10**6), max_size=300),
           st.integers(0, 3))
    def test_recursive_and_flat_agree(self, xs, d):
        """The §5 flattening transformation must not change results."""
        vals = np.array(xs, dtype=int)
        assert np.array_equal(hyperquicksort(vals, d),
                              hyperquicksort_flat(vals, d))

    def test_duplicates(self):
        vals = np.array([5] * 16 + [3] * 16)
        assert np.array_equal(hyperquicksort(vals, 2), np.sort(vals))

    def test_already_sorted(self):
        vals = np.arange(64)
        assert np.array_equal(hyperquicksort_flat(vals, 3), vals)

    def test_reverse_sorted(self):
        vals = np.arange(64)[::-1]
        assert np.array_equal(hyperquicksort_flat(vals, 3), np.arange(64))

    def test_fewer_values_than_processors(self):
        vals = np.array([3, 1])
        assert np.array_equal(hyperquicksort(vals, 3), [1, 3])

    def test_with_thread_executor(self, rng, pool):
        vals = rng.integers(0, 100, size=128)
        out = hyperquicksort(vals, 2, executor=pool)
        assert np.array_equal(out, np.sort(vals))

    def test_floats(self, rng):
        vals = rng.standard_normal(200)
        assert np.allclose(hyperquicksort_flat(vals, 2), np.sort(vals))

    @settings(max_examples=25)
    @given(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=300),
           st.integers(0, 3))
    def test_sorts_anything_property(self, xs, d):
        assert np.array_equal(hyperquicksort_flat(np.array(xs), d),
                              np.sort(np.array(xs)))


class TestMachineLevelSort:
    @pytest.mark.parametrize("d", [0, 1, 2, 3, 4, 5])
    def test_sorts_correctly(self, rng, d):
        vals = rng.integers(0, 2**31, size=2048).astype(np.int32)
        out, _res = hyperquicksort_machine(vals, d)
        assert np.array_equal(out, np.sort(vals))

    def test_runtime_decreases_with_processors(self, rng):
        """The Table 1 property: more processors, less virtual time."""
        vals = rng.integers(0, 2**31, size=8192).astype(np.int32)
        times = []
        for d in range(0, 5):
            _out, res = hyperquicksort_machine(vals, d)
            times.append(res.makespan)
        assert all(t1 > t2 for t1, t2 in zip(times, times[1:]))

    def test_speedup_is_sublinear(self, rng):
        """The Figure 3 property: below the linear diagonal."""
        vals = rng.integers(0, 2**31, size=16384).astype(np.int32)
        _s, seq = sequential_sort_machine(vals)
        _p, par = hyperquicksort_machine(vals, 4)
        speedup = seq.makespan / par.makespan
        assert 1.0 < speedup < 16.0

    def test_modern_cluster_also_sorts(self, rng):
        vals = rng.integers(0, 1000, size=1024).astype(np.int32)
        out, res = hyperquicksort_machine(vals, 3, spec=MODERN_CLUSTER)
        assert np.array_equal(out, np.sort(vals))
        assert res.makespan < 1.0  # modern machines are fast

    def test_without_distribution_phase(self, rng):
        vals = rng.integers(0, 1000, size=1024).astype(np.int32)
        out, res_no = hyperquicksort_machine(vals, 3, include_distribution=False)
        assert np.array_equal(out, np.sort(vals))
        _out2, res_with = hyperquicksort_machine(vals, 3)
        assert res_no.makespan < res_with.makespan

    def test_custom_cost_params_scale_runtime(self, rng):
        vals = rng.integers(0, 1000, size=4096).astype(np.int32)
        cheap = SortCostParams(sort_ops_per_cmp=1.0)
        dear = SortCostParams(sort_ops_per_cmp=100.0)
        _a, fast = hyperquicksort_machine(vals, 2, params=cheap)
        _b, slow = hyperquicksort_machine(vals, 2, params=dear)
        assert slow.makespan > fast.makespan

    def test_trace_recording(self, rng):
        vals = rng.integers(0, 100, size=256).astype(np.int32)
        _out, res = hyperquicksort_machine(vals, 2, record_trace=True)
        assert res.trace is not None
        assert res.trace.message_count() == res.total_messages

    def test_sequential_machine_has_no_messages(self, rng):
        vals = rng.integers(0, 100, size=128)
        _out, res = sequential_sort_machine(vals)
        assert res.total_messages == 0

    def test_deterministic_makespan(self, rng):
        vals = rng.integers(0, 1000, size=1024).astype(np.int32)
        _o1, r1 = hyperquicksort_machine(vals, 3)
        _o2, r2 = hyperquicksort_machine(vals, 3)
        assert r1.makespan == r2.makespan


class TestTrace:
    def test_figure2_stage_structure(self, rng):
        """The (a)-(h) progression of Figure 2 on the paper's exact setup:
        32 values, a 2-dimensional hypercube."""
        vals = rng.integers(0, 100, size=32)
        snaps = hyperquicksort_trace(vals, 2)
        labels = [s.label for s in snaps]
        assert labels == [
            "initial-on-p0", "distributed-sorted",
            "iter0-exchanged", "iter0-merged",
            "iter1-exchanged", "iter1-merged",
            "gathered-on-p0",
        ]

    def test_every_stage_preserves_the_multiset(self, rng):
        vals = rng.integers(0, 100, size=32)
        expected = sorted(vals.tolist())
        for snap in hyperquicksort_trace(vals, 2):
            assert sorted(x for part in snap.contents for x in part) == expected

    def test_initial_and_final_on_p0(self, rng):
        vals = rng.integers(0, 100, size=32)
        snaps = hyperquicksort_trace(vals, 2)
        assert snaps[0].sizes()[1:] == (0, 0, 0)
        assert snaps[-1].sizes()[1:] == (0, 0, 0)
        assert list(snaps[-1].contents[0]) == sorted(vals.tolist())

    def test_after_first_iteration_halves_are_separated(self, rng):
        """After iteration 0, every value in the lower half-cube must be
        <= every value in the upper half-cube (Fig. 2 (e))."""
        vals = rng.integers(0, 1000, size=64)
        snaps = hyperquicksort_trace(vals, 2)
        merged0 = next(s for s in snaps if s.label == "iter0-merged")
        low = [x for part in merged0.contents[:2] for x in part]
        high = [x for part in merged0.contents[2:] for x in part]
        assert not low or not high or max(low) <= min(high)

    def test_final_stage_locally_sorted_and_globally_ordered(self, rng):
        vals = rng.integers(0, 1000, size=64)
        snaps = hyperquicksort_trace(vals, 2)
        last_merge = next(s for s in snaps if s.label == "iter1-merged")
        flat = []
        for part in last_merge.contents:
            assert list(part) == sorted(part)
            flat.extend(part)
        assert flat == sorted(flat)


class TestSampleSort:
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 7, 8])
    def test_sorts_correctly(self, rng, p):
        vals = rng.integers(0, 10**6, size=1000)
        assert np.array_equal(sample_sort(vals, p), np.sort(vals))

    def test_empty_input(self):
        assert sample_sort(np.array([]), 4).size == 0

    def test_small_input_many_processors(self, rng):
        vals = rng.integers(0, 10, size=5)
        assert np.array_equal(sample_sort(vals, 8), np.sort(vals))

    def test_all_equal_values(self):
        vals = np.full(100, 7)
        assert np.array_equal(sample_sort(vals, 4), vals)

    def test_invalid_p(self):
        from repro.errors import SkeletonError

        with pytest.raises(SkeletonError):
            sample_sort(np.array([1]), 0)

    @settings(max_examples=20)
    @given(st.one_of(st.lists(st.integers(-1000, 1000), max_size=200),
                     st.lists(st.integers(0, 2), max_size=200)),
           st.integers(1, 6))
    def test_sorts_anything_property(self, xs, p):
        """Any input, empty and duplicate-heavy ones included."""
        out = sample_sort(np.array(xs, dtype=int), p)
        assert list(out) == sorted(xs)


class TestSampleSortMachine:
    """The sample sort expression compiled onto the machine."""

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 8, 16])
    def test_sorts_correctly(self, rng, p):
        vals = rng.integers(0, 2**31, size=4096).astype(np.int32)
        out, _res = sample_sort_compiled(vals, p)
        assert np.array_equal(out, np.sort(vals))
        assert np.array_equal(out, sample_sort(vals, p))

    def test_all_equal_values(self):
        vals = np.full(256, 7, dtype=np.int32)
        out, _res = sample_sort_compiled(vals, 4)
        assert np.array_equal(out, vals)

    def test_alltoall_message_pattern(self, rng):
        p = 6
        vals = rng.integers(0, 1000, size=600).astype(np.int32)
        _out, res = sample_sort_compiled(vals, p)
        # the bucket all-to-all (p(p-1)) plus the rotation allgather of
        # the samples (p(p-1))
        assert res.total_messages >= p * (p - 1)
        assert res.total_messages == 2 * p * (p - 1)

    def test_runtime_decreases_with_processors(self, rng):
        vals = rng.integers(0, 2**31, size=16384).astype(np.int32)
        times = []
        for p in (1, 4, 16):
            _o, res = sample_sort_compiled(vals, p)
            times.append(res.makespan)
        assert times[0] > times[1] > times[2]

    def test_invalid_p(self):
        from repro.errors import SkeletonError

        with pytest.raises(SkeletonError):
            sample_sort_compiled(np.arange(4), 0)


class TestNestedMachineSort:
    """The §3 recursion as an expression, compiled onto the machine: each
    ``split`` is a processor-group split."""

    @staticmethod
    def _run(expr, vals, d):
        from repro.core import Block, partition
        from repro.machine import Hypercube, Machine
        from repro.scl import Map, compose_nodes
        from repro.scl.compile import run_expression

        out, res = run_expression(compose_nodes(expr, Map(seq_quicksort)),
                                  partition(Block(1 << d), vals),
                                  Machine(Hypercube(d)))
        return np.concatenate([np.asarray(b) for b in out]), res

    @pytest.mark.parametrize("d", [0, 1, 2, 3, 4])
    def test_sorts_correctly(self, rng, d):
        vals = rng.integers(0, 2**31, size=2048).astype(np.int32)
        out, _res = self._run(hyperquicksort_nested_expression(d), vals, d)
        assert np.array_equal(out, np.sort(vals))

    def test_flattening_is_runtime_neutral(self, rng):
        """Nested and flat programs produce the same values, message
        pattern and virtual time: §4's flattening is a *compilation*
        enabler (flat SPMD code generation), not a runtime optimisation."""
        vals = rng.integers(0, 2**31, size=8192).astype(np.int32)
        for d in (1, 2, 3, 4):
            nested_out, nested = self._run(
                hyperquicksort_nested_expression(d), vals, d)
            flat_out, flat = self._run(hyperquicksort_expression(d), vals, d)
            assert np.array_equal(nested_out, flat_out), d
            assert nested.total_messages == flat.total_messages, d
            assert nested.makespan == flat.makespan, d

    def test_group_recursion_depth(self, rng):
        """The compiled recursion splits the cube d levels deep, and each
        level makes one partner exchange per processor."""
        from repro.plan import ir
        from repro.plan.lower import lower

        d = 3
        plan = lower(hyperquicksort_nested_expression(d), 1 << d, None)
        depth = 0
        while any(isinstance(i, ir.GroupSplit) for i in plan.instrs):
            depth += 1
            (plan,) = {sub for i in plan.instrs if isinstance(i, ir.SubPlan)
                       for sub in i.plans}
        assert depth == d
        vals = rng.integers(0, 1000, size=512).astype(np.int32)
        _out, res = self._run(hyperquicksort_nested_expression(d), vals, d)
        assert res.total_messages >= (1 << d) * d

