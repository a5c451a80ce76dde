"""Lowering: expression trees become flat, statically-resolved plans.

The structural half of the Plan IR contract — index functions evaluated
once into per-rank tables, shape errors raised before anything runs, one
cached plan per ``(expr, nprocs, grid)``.  The behavioural half (lowered
plans compute what the interpreter computes) lives in
``test_crosscheck.py``.
"""

from __future__ import annotations

import dataclasses
import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.partition import Block
from repro.errors import SkeletonError
from repro.machine import AP1000, PERFECT
from repro.plan import ir
from repro.plan.cost import ExprCost, plan_cost
from repro.plan.lower import (
    clear_plan_cache,
    lower,
    lower_uncached,
    plan_cache_reset,
    plan_cache_stats,
    tuned_lower,
)
from repro.plan.opt import OptConfig, optimize_plan_report
from repro.scl import (
    AlignFetch,
    Brdcast,
    Combine,
    Fetch,
    Fold,
    Gather,
    Id,
    IMap,
    IterFor,
    Map,
    PermSend,
    Rotate,
    RotateRow,
    Scan,
    SendNode,
    Split,
    compose_nodes,
)
from tests.plan.test_opt_properties import programs


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


class TestStructure:
    def test_identity_lowers_to_the_empty_plan(self):
        plan = lower(Id(), 8)
        assert plan.instrs == ()
        assert plan.nprocs == 8

    def test_composition_reverses_into_execution_order(self):
        f, g = (lambda x: x + 1), (lambda x: x * 2)
        plan = lower(compose_nodes(Map(f), Map(g)), 4)
        # `map f . map g` applies g first
        assert [i.fn for i in plan.instrs] == [g, f]

    def test_rotate_index_arithmetic_is_pre_reduced(self):
        plan = lower(Rotate(-3), 8)
        (instr,) = plan.instrs
        assert instr is ir.rotation(5, 8) and instr.label == "rotate 5"

    def test_full_turn_rotation_is_elided(self):
        assert lower(Rotate(8), 8).instrs == ()
        assert lower(Rotate(0), 8).instrs == ()

    @pytest.mark.parametrize("p", range(1, 18))
    def test_a_rotate_lowers_to_the_tables_of_its_shift(self, p):
        for k in range(-2 * p, 2 * p + 1):
            instrs = lower(Rotate(k), p).instrs
            if k % p == 0:
                assert instrs == ()
                continue
            (shift,) = instrs
            assert shift.mode == "replace"
            assert shift.sends == tuple(((r - k) % p,) for r in range(p))
            assert shift.recvs == tuple(((r + k) % p,) for r in range(p))
            assert shift.wiring is not None and shift.traffic == (p, 1)

    def test_a_loop_of_rotates_holds_one_exchange(self):
        # one object per (k mod p, p), or 64 iterations x 4096 ranks of
        # tables are built, scanned and wired 64 times over
        (loop,) = lower(IterFor(64, lambda i: Rotate(1 + 4096 * i)),
                        4096).instrs
        assert len(loop.bodies) == 64
        first = loop.bodies[0][0]
        assert all(len(body) == 1 and body[0] is first
                   for body in loop.bodies)

    def test_fetch_tables_are_static(self):
        plan = lower(Fetch(lambda r: 0), 4)
        (instr,) = plan.instrs
        assert isinstance(instr, ir.Exchange) and instr.mode == "replace"
        assert instr.sends == ((1, 2, 3), (), (), ())
        assert instr.recvs == ((0,), (0,), (0,), (0,))

    def test_align_fetch_keeps_both_halves(self):
        plan = lower(AlignFetch(lambda r: r ^ 1), 4)
        (instr,) = plan.instrs
        assert instr.mode == "pair"
        assert instr.sends == ((1,), (0,), (3,), (2,))

    def test_send_multicast_collects_in_source_order(self):
        plan = lower(SendNode(lambda r: (0,)), 4)
        (instr,) = plan.instrs
        assert instr.mode == "collect"
        assert instr.recvs[0] == (0, 1, 2, 3)

    def test_fold_marks_the_plan_scalar(self):
        plan = lower(Fold(lambda a, b: a + b), 8)
        assert plan.returns_scalar

    def test_iterfor_expands_each_iteration(self):
        plan = lower(IterFor(3, lambda i: Rotate(i)), 8)
        (loop,) = plan.instrs
        assert isinstance(loop, ir.Loop) and len(loop.bodies) == 3
        assert loop.bodies[0] == ()  # rotate 0 elided
        assert loop.bodies[1] == (ir.rotation(1, 8),)
        assert loop.bodies[2] == (ir.rotation(2, 8),)

    def test_split_groups_and_subplans(self):
        inner = compose_nodes(Rotate(1), Map(lambda x: -x))
        plan = lower(compose_nodes(Combine(), Map(inner), Split(Block(2))), 8)
        split, sub, comb = plan.instrs
        assert isinstance(split, ir.GroupSplit)
        assert split.groups == ((0, 1, 2, 3), (4, 5, 6, 7))
        assert split.group_of == (0, 0, 0, 0, 1, 1, 1, 1)
        assert isinstance(sub, ir.SubPlan) and len(sub.plans) == 2
        assert all(p.nprocs == 4 for p in sub.plans)
        assert isinstance(comb, ir.GroupCombine)


class TestLoweringErrors:
    def test_fetch_source_out_of_range(self):
        with pytest.raises(SkeletonError, match="source 9 out of range 0..7"):
            lower(Fetch(lambda r: 9), 8)

    def test_send_must_be_a_permutation(self):
        with pytest.raises(SkeletonError, match="not a permutation"):
            lower(PermSend(lambda r: 0), 4)

    def test_flat_skeleton_inside_split(self):
        expr = compose_nodes(Combine(), Map(lambda x: x), Split(Block(2)))
        with pytest.raises(SkeletonError,
                           match="cannot be applied to a split configuration"):
            lower(expr, 8)

    def test_nested_split_rejected(self):
        expr = compose_nodes(Combine(), Split(Block(2)), Split(Block(2)))
        with pytest.raises(SkeletonError, match="`combine` first"):
            lower(expr, 8)

    def test_combine_without_split(self):
        with pytest.raises(SkeletonError, match="without a preceding split"):
            lower(Combine(), 8)

    def test_map_of_subexpression_needs_a_split(self):
        with pytest.raises(SkeletonError, match="requires a split"):
            lower(Map(Rotate(1)), 8)

    def test_grid_skeleton_without_a_grid(self):
        with pytest.raises(SkeletonError, match="2-D processor grid"):
            lower(RotateRow(lambda i: 1), 8)

    def test_flat_skeleton_on_a_grid(self):
        with pytest.raises(SkeletonError, match="1-D configuration"):
            lower(Rotate(1), 8, (2, 4))

    def test_unsupported_node(self):
        with pytest.raises(SkeletonError, match="does not support Gather"):
            lower(Gather(), 8)

    def test_errors_are_raised_at_lowering_time_not_cached(self):
        # A failing lowering must not poison the cache.
        expr = Fetch(lambda r: 99)
        for _ in range(2):
            with pytest.raises(SkeletonError):
                lower(expr, 8)
        assert plan_cache_stats()["size"] == 0


# The quadratic definitions of the communication tables and the in-line
# traffic scan of ``plan_cost`` that ``Exchange.from_sources`` /
# ``from_destinations`` / ``traffic`` replaced, kept as the reference.

def _tables_from_sources(srcs):
    p = len(srcs)
    sends = tuple(tuple(j for j in range(p) if srcs[j] == r and j != r)
                  for r in range(p))
    return sends, tuple((srcs[r],) for r in range(p))


def _tables_from_destinations(dsts):
    p = len(dsts)
    sends = tuple(tuple(d for d in dsts[r] if d != r) for r in range(p))
    recvs = tuple(tuple(k for k in range(p) for d in dsts[k] if d == r)
                  for r in range(p))
    return sends, recvs


def _scanned_traffic(instr):
    total = sum(len(s) for s in instr.sends)
    degree = max(max(len(instr.sends[r]),
                     sum(1 for s in instr.recvs[r] if s != r))
                 for r in range(len(instr.sends)))
    return total, degree


def _out_of_range(who, what, bad, p):
    return re.escape(f"{who}: {what} {bad} out of range 0..{p - 1}")


#: Rank maps over ``p`` ranks whose entries may fall one outside the range.
_rank_maps = st.integers(min_value=1, max_value=12).flatmap(
    lambda p: st.lists(st.integers(min_value=-1, max_value=p),
                       min_size=p, max_size=p))
_rank_list_maps = st.integers(min_value=1, max_value=8).flatmap(
    lambda p: st.lists(
        st.lists(st.integers(min_value=-1, max_value=p), max_size=4),
        min_size=p, max_size=p))


class TestLinearTables:
    """The one-pass builders equal the definitions they replaced, table
    for table and error for error."""

    @settings(max_examples=150, deadline=None)
    @given(srcs=_rank_maps)
    def test_fetch_family(self, srcs):
        p = len(srcs)
        bad = [s for s in srcs if not 0 <= s < p]
        for node, who, mode in ((Fetch(srcs.__getitem__), "fetch", "replace"),
                                (AlignFetch(srcs.__getitem__), "align-fetch",
                                 "pair")):
            if bad:
                with pytest.raises(SkeletonError, match=_out_of_range(
                        who, "source", bad[0], p)):
                    lower_uncached(node, p)
                continue
            (instr,) = lower_uncached(node, p).instrs
            assert (instr.mode, instr.label) == (mode, who)
            assert (instr.sends, instr.recvs) == _tables_from_sources(srcs)
            assert instr.traffic == _scanned_traffic(instr)

    @settings(max_examples=150, deadline=None)
    @given(dsts=st.one_of(
        _rank_maps,
        st.integers(min_value=1, max_value=12).flatmap(
            lambda p: st.permutations(range(p)))))
    def test_permutation_send(self, dsts):
        p = len(dsts)
        node = PermSend(dsts.__getitem__)
        bad = [d for d in dsts if not 0 <= d < p]
        counts = [sum(1 for d in dsts if d == r) for r in range(p)]
        if bad:
            error = _out_of_range("send", "destination", bad[0], p)
        elif counts != [1] * p:
            r = next(r for r in range(p) if counts[r] != 1)
            error = re.escape(f"send: index {r} receives {counts[r]} elements")
        else:
            (instr,) = lower_uncached(node, p).instrs
            assert (instr.mode, instr.label) == ("replace", "send")
            assert (instr.sends, instr.recvs) == _tables_from_destinations(
                [(d,) for d in dsts])
            assert instr.traffic == _scanned_traffic(instr)
            return
        with pytest.raises(SkeletonError, match=error):
            lower_uncached(node, p)

    @settings(max_examples=150, deadline=None)
    @given(dsts=_rank_list_maps)
    def test_multicast_send(self, dsts):
        p = len(dsts)
        node = SendNode(dsts.__getitem__)
        bad = [d for out in dsts for d in out if not 0 <= d < p]
        if bad:
            with pytest.raises(SkeletonError, match=_out_of_range(
                    "send", "destination", bad[0], p)):
                lower_uncached(node, p)
            return
        (instr,) = lower_uncached(node, p).instrs
        assert (instr.mode, instr.label) == ("collect", "send*")
        assert (instr.sends, instr.recvs) == _tables_from_destinations(dsts)
        assert instr.traffic == _scanned_traffic(instr)

    def test_fetch_id_has_no_traffic_and_costs_nothing(self):
        plan = lower_uncached(Fetch(lambda r: r), 8)
        (instr,) = plan.instrs
        assert instr.traffic == _scanned_traffic(instr) == (0, 0)
        assert plan_cost(plan, spec=AP1000) == ExprCost(0.0, 0, 0)

    def test_traffic_is_scanned_once_per_instruction(self):
        (instr,) = lower_uncached(Fetch(lambda r: 0), 8).instrs
        assert instr.traffic == (7, 7)
        assert instr.traffic is instr.traffic
        # a derived fact, not a field: equality and replace() ignore it
        assert instr == ir.Exchange(instr.mode, instr.sends, instr.recvs,
                                    instr.label)


def _unfused(instrs):
    """``instrs`` with every fused kernel (compared by identity) replaced
    by the ``LocalApply`` s it merged, so two optimized plans compare."""
    out = []
    for instr in instrs:
        if isinstance(instr, ir.Loop):
            out.append(tuple(_unfused(body) for body in instr.bodies))
        elif isinstance(instr, ir.SubPlan):
            out.append(tuple((sub.nprocs, sub.grid, _unfused(sub.instrs))
                             for sub in instr.plans))
        elif isinstance(getattr(instr, "fn", None), ir.FusedKernel):
            out.append((instr.label, instr.indexed, instr.fn.applies))
        else:
            out.append(instr)
    return tuple(out)


class TestStepReuse:
    """``lower_uncached(..., memo=)``: steps shared between a caller's
    expressions are lowered once, and the plans cannot tell."""

    @settings(max_examples=60, deadline=None)
    @given(prog=programs())
    def test_reuse_equals_lowering_each_expression_fresh(self, prog):
        p, expr = prog
        steps = expr.steps if hasattr(expr, "steps") else (expr,)
        # the expression, a second copy of it, and two rewrite-like
        # neighbours sharing most of its steps
        family = [expr, compose_nodes(*steps), compose_nodes(*steps[1:]),
                  compose_nodes(*steps, *steps[1:])]
        config = OptConfig(spec=AP1000)
        memo: dict = {}
        for e in family:
            assert lower_uncached(e, p, memo=memo) == lower_uncached(e, p)
            reused = lower_uncached(e, p, opt=config, memo=memo)
            fresh = lower_uncached(e, p, opt=config)
            assert _unfused(reused.instrs) == _unfused(fresh.instrs)
            assert dataclasses.replace(reused, instrs=()) == \
                dataclasses.replace(fresh, instrs=())

    def test_shared_steps_share_instruction_objects(self):
        calls = []

        def leader(r):
            calls.append(r)
            return r - r % 4

        fetch, f, g = Fetch(leader), Map(lambda x: x + 1), Map(lambda x: -x)
        memo: dict = {}
        a = lower_uncached(compose_nodes(f, fetch, g), 8, memo=memo)
        b = lower_uncached(compose_nodes(g, fetch), 8, memo=memo)
        assert a.instrs[1] is b.instrs[0]
        assert calls == list(range(8))  # the index function ran once per rank
        assert lower_uncached(fetch, 8).instrs[0] is not a.instrs[1]

    def test_nothing_is_recorded_while_a_split_is_open(self):
        before, after = Map(lambda x: x + 1), Map(lambda x: x * 2)
        inner = compose_nodes(Rotate(1), Map(lambda x: -x))
        expr = compose_nodes(after, Combine(), Map(inner), Map(inner),
                             Split(Block(2)), before)
        memo: dict = {}
        plan = lower_uncached(expr, 8, memo=memo)
        assert [key for key in memo if key[1:] == (8, None)] == [
            (before, 8, None), (after, 8, None)]
        assert plan == lower_uncached(expr, 8)
        # the group plan is a lowering of its own, at the group's size,
        # kept under a tagged key and shared by both maps' equal groups
        group = memo[("group", inner, 4)]
        assert plan.instrs[2].plans == plan.instrs[3].plans == (group, group)
        assert all(a is group for a in plan.instrs[2].plans)
        # an iterFor that opens and closes a split is one reusable step,
        # but the steps inside the split still are not
        loop = IterFor(2, lambda i: compose_nodes(
            Combine(), Map(inner), Split(Block(2))))
        memo.clear()
        first = lower_uncached(loop, 8, memo=memo)
        assert [key for key in memo if key[1:] == (8, None)] == [
            (loop, 8, None)]
        assert lower_uncached(loop, 8, memo=memo).instrs[0] is first.instrs[0]

    def test_the_key_includes_nprocs_and_grid(self):
        step = Map(lambda x: x)
        memo: dict = {}
        lower_uncached(step, 4, memo=memo)
        lower_uncached(step, 8, memo=memo)
        lower_uncached(step, 8, (2, 4), memo=memo)
        assert set(memo) == {(step, 4, None), (step, 8, None),
                             (step, 8, (2, 4))}

    def test_unhashable_and_failing_steps_are_never_recorded(self):
        memo: dict = {}
        plan = lower_uncached(Brdcast([1, 2, 3]), 4, memo=memo)
        assert plan.instrs[0].value == [1, 2, 3]
        calls = []

        def far(r):
            calls.append(r)
            return 99

        for _ in range(2):  # the range check fires every time
            with pytest.raises(SkeletonError, match="source 99 out of range"):
                lower_uncached(Fetch(far), 8, memo=memo)
        assert calls == [0, 0] and memo == {}


#: The coalescing guard keeps this pair apart on AP1000 (at p = 8 the
#: composition is a fan-out-7 funnel) and merges it where only message
#: counts matter.
_HOT_PAIR = (Fetch(lambda r: 4 * (r // 4)),
             Fetch(lambda r: 0 if r % 4 == 0 else r))

#: Steps that ``programs()`` never draws, each reaching a memoised path:
#: a group stage (a ``SubPlan`` of shared group plans), a loop whose bodies
#: hold routing pairs to compose — one of them spec-dependent — and the
#: hot-spot pair on its own.
_SHARED_SHAPES = (
    compose_nodes(Combine(),
                  Map(compose_nodes(Rotate(1), Map(lambda x: x + 1),
                                    Map(lambda x: x * 2))),
                  Split(Block(2))),
    IterFor(2, lambda i: compose_nodes(Map(lambda x: x - 1), Rotate(i + 1),
                                       Rotate(1), Map(lambda x: x * 3),
                                       *_HOT_PAIR)),
    *_HOT_PAIR,
)


@st.composite
def plan_families(draw):
    """``programs()`` with some of :data:`_SHARED_SHAPES` spliced in, and
    the rewrite-like neighbours :class:`TestStepReuse` lowers with one
    memo — plans whose instruction objects are shared."""
    p, expr = draw(programs())
    steps = list(expr.steps if hasattr(expr, "steps") else (expr,))
    for shape in draw(st.lists(st.sampled_from(_SHARED_SHAPES), max_size=3)):
        # after a leading Fold, which must stay the outermost step
        steps.insert(draw(st.integers(1, len(steps))), shape)
    return p, [compose_nodes(*steps), compose_nodes(*steps[1:]),
               compose_nodes(*steps, *steps[1:]), compose_nodes(*steps)]


#: Only message counts tell plans apart here, so the coalescing guard
#: merges the hot-spot pair it rejects on AP1000.
_COUNTS_ONLY = dataclasses.replace(PERFECT, flop_time=0.0,
                                   bandwidth=float("inf"))


class TestPassAndCostMemo:
    """``optimize_plan_report(..., memo=)`` and ``plan_cost(..., memo=)``
    over plans that share instruction objects: the memo's oracle is the
    same call without it.  One dict serves two specs and every pricing
    knob, so a key that left one of them out would hand a plan another
    configuration's answer."""

    @settings(max_examples=60, deadline=None)
    @given(family=plan_families())
    def test_memoised_report_and_cost_equal_fresh(self, family):
        p, exprs = family
        memo: dict = {}
        for e in exprs:
            plan = lower_uncached(e, p, memo=memo)
            for spec in (AP1000, _COUNTS_ONLY):
                config = OptConfig(spec=spec)
                got, got_notes = optimize_plan_report(plan, config, memo=memo)
                want, want_notes = optimize_plan_report(plan, config)
                assert _unfused(got.instrs) == _unfused(want.instrs)
                assert got_notes == want_notes
                for priced, fn_ops, element_bytes in itertools.product(
                        (plan, got), (1.0, 40.0), (None, 64)):
                    knobs = dict(spec=spec, fn_ops=fn_ops,
                                 element_bytes=element_bytes)
                    assert plan_cost(priced, **knobs, memo=memo) == \
                        plan_cost(priced, **knobs)


class TestPlanCache:
    def test_same_key_returns_the_same_object(self):
        expr = compose_nodes(Map(lambda x: x), Rotate(1))
        assert lower(expr, 8) is lower(expr, 8)
        stats = plan_cache_stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_different_nprocs_are_different_plans(self):
        expr = Rotate(1)
        assert lower(expr, 8) is not lower(expr, 16)
        assert plan_cache_stats()["misses"] == 2

    def test_grid_is_part_of_the_key(self):
        expr = IMap(lambda i, x: (i, x))
        assert lower(expr, 8, None) is not lower(expr, 8, (2, 4))

    def test_clear_resets_everything(self):
        lower(Rotate(1), 8)
        clear_plan_cache()
        assert plan_cache_stats() == {
            "size": 0, "tuned_size": 0, "hits": 0, "misses": 0,
            "uncachable": 0, "optimized": 0,
            "tuned_hits": 0, "tuned_misses": 0}

    def test_unhashable_expressions_still_lower(self):
        # Brdcast of an unhashable value can't key the cache but must work.
        plan = lower(Brdcast([1, 2, 3]), 4)
        assert plan.instrs[0].value == [1, 2, 3]
        stats = plan_cache_stats()
        assert stats["uncachable"] == 1 and stats["size"] == 0

    def test_scan_and_fold_cache_separately(self):
        op = lambda a, b: a + b  # noqa: E731
        assert lower(Scan(op), 8) is not lower(Fold(op), 8)

    def test_reset_zeroes_counters_but_keeps_plans(self):
        expr = Rotate(1)
        plan = lower(expr, 8)
        plan_cache_reset()
        stats = plan_cache_stats()
        assert stats["hits"] == stats["misses"] == 0
        assert stats["size"] == 1, "reset must keep the warm plans"
        # The kept plan serves the next lowering: a pure counter delta.
        assert lower(expr, 8) is plan
        assert plan_cache_stats()["hits"] == 1
        assert plan_cache_stats()["misses"] == 0


def _inc(x):
    return x + 1


def _dbl(x):
    return x * 2


class TestTunedCache:
    """The tuned tier: beam-search winners memoised above the plan cache."""

    def test_hit_returns_the_same_tuned_plan(self):
        expr = compose_nodes(Map(_inc), Map(_dbl), Rotate(1), Rotate(-1))
        first = tuned_lower(expr, 8)
        stats = plan_cache_stats()
        assert stats["tuned_misses"] == 1 and stats["tuned_hits"] == 0
        assert tuned_lower(expr, 8) is first
        stats = plan_cache_stats()
        assert stats["tuned_hits"] == 1 and stats["tuned_size"] == 1

    def test_search_found_the_rewrites(self):
        expr = compose_nodes(Map(_inc), Map(_dbl), Rotate(1), Rotate(-1))
        tuned = tuned_lower(expr, 8)
        assert tuned.improved
        rules = {s.rule for s in tuned.steps}
        assert "rotate-fusion" in rules
        assert tuned.cost_after.seconds <= tuned.cost_before.seconds

    def test_beam_is_part_of_the_key(self):
        expr = compose_nodes(Map(_inc), Rotate(1), Rotate(-1))
        tuned_lower(expr, 8, beam=1)
        tuned_lower(expr, 8, beam=2)
        assert plan_cache_stats()["tuned_misses"] == 2

    def test_opt_config_is_part_of_the_key(self):
        expr = compose_nodes(Map(_inc), Rotate(1), Rotate(-1))
        tuned_lower(expr, 8, opt=OptConfig(spec=AP1000))
        tuned_lower(expr, 8, opt=OptConfig(spec=PERFECT))
        assert plan_cache_stats()["tuned_misses"] == 2

    def test_no_config_is_the_default_config(self):
        # guard and ranking price on one spec, so the entries are shared
        expr = compose_nodes(Map(_inc), Rotate(1), Rotate(-1))
        assert tuned_lower(expr, 8).plan \
            is tuned_lower(expr, 8, opt=OptConfig(AP1000)).plan

    def test_clear_drops_the_tuned_tier(self):
        expr = compose_nodes(Map(_inc), Rotate(1), Rotate(-1))
        tuned_lower(expr, 8)
        clear_plan_cache()
        stats = plan_cache_stats()
        assert stats["tuned_size"] == 0 and stats["tuned_misses"] == 0


class TestCacheUnderThreads:
    """Serve workers and stream stages lower concurrently.  With the cap
    squeezed to two entries and the interpreter switching threads every
    microsecond, an eviction lands between a probe and its reorder within
    a fraction of a second — a cache *hit* must not raise."""

    SECONDS = 0.5

    @pytest.fixture(autouse=True)
    def squeezed(self, monkeypatch):
        import sys

        lower_mod = sys.modules["repro.plan.lower"]
        monkeypatch.setattr(lower_mod, "_CACHE_CAP", 2)
        monkeypatch.setattr(lower_mod, "_TUNED_CAP", 2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        yield
        sys.setswitchinterval(interval)

    def _hammer(self, call):
        """One thread re-lowers a hot expression while two churn twelve
        others through the two-entry cache; whatever a thread raises
        propagates."""
        import itertools
        import threading
        import time
        from concurrent.futures import ThreadPoolExecutor

        # a long composition: hashing the key is forty Python calls, so
        # the gap between probe and reorder is wide enough to land in
        hot = compose_nodes(*[Scan(lambda a, b: a + b)] * 40)
        churn = [Rotate(k) for k in range(1, 13)]
        done = threading.Event()

        def hit():
            end = time.monotonic() + self.SECONDS
            try:
                while time.monotonic() < end:
                    call(hot)
            finally:
                done.set()

        def evict():
            for expr in itertools.cycle(churn):
                if done.is_set():
                    return
                call(expr)

        with ThreadPoolExecutor(3) as pool:
            for thread in [pool.submit(hit), pool.submit(evict),
                           pool.submit(evict)]:
                thread.result()

    def test_a_hit_survives_concurrent_eviction(self):
        self._hammer(lambda e: lower(e, 8))
        assert plan_cache_stats()["size"] <= 2

    def test_a_tuned_hit_survives_concurrent_eviction(self):
        self._hammer(lambda e: tuned_lower(e, 8, beam=1))
        assert plan_cache_stats()["tuned_size"] <= 2
