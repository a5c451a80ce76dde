"""Tests for repro.apps.bitonic — the hypercube baseline sort."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.bitonic import (
    bitonic_sort,
    bitonic_sort_compiled,
    bitonic_steps,
    compare_split,
)
from repro.apps.sort import hyperquicksort_machine
from repro.errors import SkeletonError
from repro.machine import AP1000, PERFECT


class TestCompareSplit:
    def test_keep_low(self):
        out = compare_split(np.array([1, 4, 9]), np.array([2, 3, 8]), True)
        assert list(out) == [1, 2, 3]

    def test_keep_high(self):
        out = compare_split(np.array([1, 4, 9]), np.array([2, 3, 8]), False)
        assert list(out) == [4, 8, 9]

    def test_halves_partition_the_union(self):
        a = np.array([1, 5, 7])
        b = np.array([2, 5, 9])
        low = compare_split(a, b, True)
        high = compare_split(a, b, False)
        assert sorted(list(low) + list(high)) == sorted(list(a) + list(b))
        assert max(low) <= min(high)

    def test_unequal_blocks_rejected(self):
        with pytest.raises(SkeletonError, match="equal"):
            compare_split(np.array([1]), np.array([1, 2]), True)

    @given(st.lists(st.integers(-100, 100), min_size=1, max_size=20),
           st.lists(st.integers(-100, 100), min_size=1, max_size=20))
    def test_split_property(self, a, b):
        if len(a) != len(b):
            b = (b * len(a))[: len(a)]
        sa, sb = np.sort(np.array(a)), np.sort(np.array(b))
        low = compare_split(sa, sb, True)
        high = compare_split(sa, sb, False)
        assert list(low) == sorted(a + list(sb))[: len(a)]
        assert list(high) == sorted(a + list(sb))[len(a):]


class TestSchedule:
    def test_step_count_is_triangular(self):
        for d in range(7):
            assert len(bitonic_steps(d)) == d * (d + 1) // 2

    def test_substeps_descend(self):
        for stage, sub in bitonic_steps(5):
            assert 0 <= sub <= stage

    def test_d0_is_empty(self):
        assert bitonic_steps(0) == []


class TestParArrayLevel:
    @pytest.mark.parametrize("d", [0, 1, 2, 3, 4])
    def test_sorts_correctly(self, rng, d):
        n = (1 << d) * 32
        vals = rng.integers(0, 10**6, size=n)
        assert np.array_equal(bitonic_sort(vals, d), np.sort(vals))

    def test_duplicates(self):
        vals = np.array([7, 7, 3, 3] * 8)
        assert np.array_equal(bitonic_sort(vals, 2), np.sort(vals))

    def test_reverse_sorted(self):
        vals = np.arange(64)[::-1]
        assert np.array_equal(bitonic_sort(vals, 3), np.arange(64))

    def test_indivisible_length_rejected(self, rng):
        with pytest.raises(SkeletonError, match="divisible"):
            bitonic_sort(rng.integers(0, 10, size=10), 2)

    @settings(max_examples=20)
    @given(st.integers(0, 3), st.integers(1, 16), st.integers(0, 10**6))
    def test_sorts_anything_property(self, d, per_proc, seed):
        r = np.random.default_rng(seed)
        vals = r.integers(-1000, 1000, size=(1 << d) * per_proc)
        assert np.array_equal(bitonic_sort(vals, d), np.sort(vals))


class TestMachineLevel:
    @pytest.mark.parametrize("d", [0, 1, 2, 3, 4, 5])
    def test_sorts_correctly(self, rng, d):
        n = (1 << d) * 64
        vals = rng.integers(0, 2**31, size=n).astype(np.int32)
        out, _res = bitonic_sort_compiled(vals, d)
        assert np.array_equal(out, np.sort(vals))

    def test_runtime_decreases_with_processors(self, rng):
        vals = rng.integers(0, 2**31, size=8192).astype(np.int32)
        times = []
        for d in (1, 2, 3, 4):
            _o, res = bitonic_sort_compiled(vals, d)
            times.append(res.makespan)
        assert all(a > b for a, b in zip(times, times[1:]))

    def test_message_count_matches_schedule(self, rng):
        d = 3
        vals = rng.integers(0, 100, size=(1 << d) * 8).astype(np.int32)
        _o, res = bitonic_sort_compiled(vals, d)
        # every processor sends one block per (stage, substep)
        assert res.total_messages == (1 << d) * len(bitonic_steps(d))

    def test_perfectly_balanced_load(self, rng):
        """Blocks never change size: busy time identical on all procs."""
        from repro.machine.metrics import load_imbalance

        vals = rng.integers(0, 10**6, size=2048).astype(np.int32)
        _o, res = bitonic_sort_compiled(vals, 3, spec=PERFECT)
        assert load_imbalance(res) == pytest.approx(1.0, abs=1e-9)

    def test_d3_run_is_pinned(self):
        """The compiled expression reproduces the hand-written
        message-passing program it replaced, figure for figure: these are
        that program's numbers on this input."""
        vals = np.random.default_rng(3).integers(0, 10**6, size=8 * 64)
        out, res = bitonic_sort_compiled(vals, 3)
        assert np.array_equal(out, np.sort(vals))
        assert res.makespan == 0.01269648
        assert res.total_messages == 48
        assert [s.bytes_sent for s in res.stats] == [3072] * 8

    def test_empty_input_sends_empty_blocks(self):
        out, res = bitonic_sort_compiled(np.array([], dtype=np.int64), 3)
        assert out.size == 0
        assert res.total_messages == 48
        assert res.total_bytes == 0


class TestBaselineComparison:
    """The 'who wins' result the baseline exists for."""

    def test_hyperquicksort_beats_bitonic_on_random_input(self, rng):
        vals = rng.integers(0, 2**31, size=32768).astype(np.int32)
        _b, bt = bitonic_sort_compiled(vals, 4, spec=AP1000)
        _h, hq = hyperquicksort_machine(vals, 4, spec=AP1000,
                                        include_distribution=False)
        assert hq.makespan < bt.makespan

    def test_gap_grows_with_processors(self, rng):
        vals = rng.integers(0, 2**31, size=32768).astype(np.int32)
        ratios = []
        for d in (2, 4):
            _b, bt = bitonic_sort_compiled(vals, d, spec=AP1000)
            _h, hq = hyperquicksort_machine(vals, d, spec=AP1000,
                                            include_distribution=False)
            ratios.append(bt.makespan / hq.makespan)
        assert ratios[1] > ratios[0]

    def test_bitonic_sends_more_data(self, rng):
        vals = rng.integers(0, 2**31, size=16384).astype(np.int32)
        _b, bt = bitonic_sort_compiled(vals, 4)
        _h, hq = hyperquicksort_machine(vals, 4, include_distribution=False)
        assert bt.total_bytes > hq.total_bytes
