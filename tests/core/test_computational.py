"""Tests for repro.core.computational — farm, SPMD, iteration skeletons."""

from __future__ import annotations


import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import (
    ParArray,
    SpmdStage,
    farm,
    imap,
    iter_for,
    iter_until,
    parmap,
    rotate,
    spmd,
)
from repro.errors import SkeletonError


class TestFarm:
    def test_matches_paper_definition(self):
        """farm f env = map (f env)"""
        pa = ParArray([1, 2, 3])
        f = lambda env, x: env * x
        assert farm(f, 10, pa) == parmap(lambda x: f(10, x), pa)

    def test_env_shared_across_jobs(self):
        env = {"offset": 5}
        out = farm(lambda e, x: x + e["offset"], env, ParArray([0, 1]))
        assert out.to_list() == [5, 6]

    def test_with_executor(self, pool):
        out = farm(lambda e, x: e + x, 1, ParArray(range(16)),
                   executor=pool)
        assert out.to_list() == list(range(1, 17))


class TestSpmd:
    def test_empty_is_identity(self):
        pa = ParArray([1, 2])
        assert spmd([])(pa) == pa

    def test_single_stage_local_then_global(self):
        prog = spmd([(lambda c: rotate(1, c), lambda _i, x: x * 2)])
        assert prog(ParArray([1, 2, 3])).to_list() == [4, 6, 2]

    def test_stage_order_first_listed_first_applied(self):
        prog = spmd([
            (None, lambda _i, x: x + "a"),
            (None, lambda _i, x: x + "b"),
        ])
        assert prog(ParArray([""])).to_list() == ["ab"]

    def test_local_receives_index(self):
        prog = spmd([(None, lambda i, x: i)])
        assert prog(ParArray([9, 9, 9])).to_list() == [0, 1, 2]

    def test_global_only_stage(self):
        prog = spmd([(lambda c: rotate(1, c), None)])
        assert prog(ParArray([1, 2])).to_list() == [2, 1]

    def test_spmdstage_objects_accepted(self):
        prog = spmd([SpmdStage(global_=None, local=lambda _i, x: -x)])
        assert prog(ParArray([1])).to_list() == [-1]

    def test_bad_stage_rejected(self):
        with pytest.raises(SkeletonError):
            spmd(["nonsense"])

    def test_bad_global_return_rejected(self):
        prog = spmd([(lambda c: "oops", None)])
        with pytest.raises(SkeletonError, match="ParArray"):
            prog(ParArray([1]))

    def test_non_pararray_input_rejected(self):
        with pytest.raises(SkeletonError):
            spmd([])( [1, 2])  # type: ignore[arg-type]

    def test_composition_recursion_matches_paper(self):
        """SPMD ((gf,lf):fs) = SPMD fs . gf . imap lf"""
        gf = lambda c: rotate(1, c)
        lf = lambda i, x: x + i
        rest = [(None, lambda _i, x: x * 10)]
        combined = spmd([(gf, lf)] + rest)
        pa = ParArray([1, 2, 3])
        assert combined(pa) == spmd(rest)(gf(imap(lf, pa)))


class TestIterUntil:
    def test_condition_checked_before_first_iteration(self):
        calls = []

        def solve(x):
            calls.append(x)
            return x + 1

        out = iter_until(solve, lambda x: x, lambda x: True, 0)
        assert out == 0 and calls == []

    def test_iterates_until_condition(self):
        out = iter_until(lambda x: x * 2, lambda x: x, lambda x: x >= 100, 1)
        assert out == 128

    def test_final_solve_applied(self):
        out = iter_until(lambda x: x + 1, lambda x: f"done:{x}",
                         lambda x: x == 3, 0)
        assert out == "done:3"

    def test_max_iterations_guard(self):
        with pytest.raises(SkeletonError, match="max_iterations"):
            iter_until(lambda x: x, lambda x: x, lambda x: False, 0,
                       max_iterations=10)

    def test_unbounded_by_default_terminates_on_condition(self):
        assert iter_until(lambda x: x - 1, lambda x: x, lambda x: x == 0, 500) == 0


class TestIterFor:
    def test_counter_passed_to_solver(self):
        assert iter_for(4, lambda i, acc: acc + [i], []) == [0, 1, 2, 3]

    def test_zero_iterations(self):
        assert iter_for(0, lambda i, x: x + 1, 7) == 7

    def test_negative_rejected(self):
        with pytest.raises(SkeletonError):
            iter_for(-1, lambda i, x: x, 0)

    def test_non_int_rejected(self):
        with pytest.raises(SkeletonError):
            iter_for(2.5, lambda i, x: x, 0)  # type: ignore[arg-type]

    @given(st.integers(0, 50), st.integers(-10, 10))
    def test_equivalent_to_python_loop_property(self, n, start):
        out = iter_for(n, lambda i, x: x + i, start)
        assert out == start + sum(range(n))

    def test_works_over_pararrays(self):
        out = iter_for(3, lambda i, pa: rotate(1, pa), ParArray([1, 2, 3, 4]))
        assert out.to_list() == [4, 1, 2, 3]
