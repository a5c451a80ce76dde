"""Unit tests for repro.stream.plan — the Stream IR and its executors."""

from __future__ import annotations

import itertools
import operator

import numpy as np
import pytest

from repro.errors import SkeletonError
from repro.plan.lower import plan_cache_reset, plan_cache_stats
from repro.scl import Fold, Map, Scan, compose_nodes
from repro.stream.plan import (
    Chunk,
    MapPlan,
    MapSeq,
    Source,
    Stop,
    StreamPlan,
    StreamRunStats,
    UnChunk,
    stream_plan,
)


def add(a, b):
    return a + b


class TestSource:
    def test_of_iterable(self):
        assert list(Source.of([3, 1, 2]).items()) == [3, 1, 2]

    def test_step_unfold(self):
        src = Source(step=lambda s: (s * s, s + 1) if s < 4 else None, init=1)
        assert list(src.items()) == [1, 4, 9]

    def test_count_is_infinite(self):
        assert list(itertools.islice(Source.count(5).items(), 4)) == \
            [5, 6, 7, 8]


class TestShapeValidation:
    def test_unchunk_without_chunk_rejected(self):
        with pytest.raises(SkeletonError, match="UnChunk"):
            stream_plan([1]).unchunk()

    def test_nested_chunk_rejected(self):
        with pytest.raises(SkeletonError, match="chunked"):
            stream_plan([1]).chunk(2).chunk(2)

    def test_map_plan_needs_chunked_stream(self):
        with pytest.raises(SkeletonError, match="MapPlan"):
            stream_plan([1]).map_plan(Scan(operator.add))

    def test_reducing_map_plan_unchunks(self):
        # Fold leaves scalars, so a following unchunk must be rejected.
        plan = stream_plan([1]).chunk(2).map_plan(Fold(operator.add))
        with pytest.raises(SkeletonError, match="UnChunk"):
            plan.unchunk()

    def test_chunk_size_validated(self):
        with pytest.raises(SkeletonError, match="Chunk"):
            Chunk(0)

    def test_bad_stage_rejected(self):
        with pytest.raises(SkeletonError, match="unknown"):
            StreamPlan(Source.of([1]), ("nope",))  # type: ignore[arg-type]

    def test_bad_source_rejected(self):
        with pytest.raises(SkeletonError, match="Source"):
            StreamPlan([1, 2])  # type: ignore[arg-type]

    def test_take_negative_rejected(self):
        with pytest.raises(SkeletonError, match="take"):
            stream_plan([1]).take(-1)


class TestExecution:
    def test_chunk_unchunk_identity(self):
        plan = stream_plan(range(10)).chunk(3).unchunk()
        assert list(plan.run_seq()) == list(range(10))
        assert list(plan.run()) == list(range(10))

    def test_map_seq(self):
        plan = stream_plan([1, 2, 3]).map_seq(lambda x: x * 10)
        assert list(plan.run_seq()) == [10, 20, 30]

    def test_map_plan_scan_matches_numpy(self):
        values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]
        plan = (stream_plan(values).chunk(4)
                .map_plan(Scan(operator.add)).unchunk())
        expected = list(np.cumsum(values[:4])) + list(np.cumsum(values[4:]))
        assert list(plan.run_seq()) == pytest.approx(expected)
        assert list(plan.run()) == pytest.approx(expected)

    def test_map_plan_fold_reduces_each_chunk(self):
        plan = (stream_plan([1.0, 2.0, 3.0, 4.0, 5.0]).chunk(2)
                .map_plan(Fold(operator.add)))
        assert list(plan.run_seq()) == pytest.approx([3.0, 7.0, 5.0])

    def test_map_plan_composition(self):
        expr = compose_nodes(Scan(operator.add), Map(lambda x: x * 2))
        plan = stream_plan([1.0, 2.0, 3.0]).chunk(3).map_plan(expr).unchunk()
        assert list(plan.run_seq()) == pytest.approx([2.0, 6.0, 12.0])

    def test_ragged_final_chunk(self):
        plan = (stream_plan([1.0] * 7).chunk(4)
                .map_plan(Scan(operator.add)).unchunk())
        assert list(plan.run_seq()) == pytest.approx(
            [1.0, 2.0, 3.0, 4.0, 1.0, 2.0, 3.0])

    def test_stop_truncates_infinite_source_threaded(self):
        plan = (stream_plan(Source.count(1)).chunk(4)
                .map_plan(Fold(operator.add))
                .stop(operator.add, 0.0, lambda acc: acc > 100))
        assert list(plan.run()) == list(plan.run_seq())
        out = list(plan.run())
        assert sum(out) > 100 and sum(out[:-1]) <= 100

    def test_take(self):
        plan = stream_plan(Source.count()).take(5)
        assert list(plan.run_seq()) == [0, 1, 2, 3, 4]
        assert list(plan.run()) == [0, 1, 2, 3, 4]

    def test_take_zero_is_empty(self):
        plan = stream_plan(Source.count()).take(0)
        assert list(plan.run_seq()) == []
        assert list(plan.run()) == []

    def test_stop_emits_triggering_item(self):
        plan = stream_plan([1, 2, 3, 4]).stop(
            operator.add, 0, lambda acc: acc >= 3)
        assert list(plan.run_seq()) == [1, 2]

    def test_no_stages_pass_through(self):
        stats = StreamRunStats()
        assert list(stream_plan([7, 8]).run_seq(stats=stats)) == [7, 8]
        assert stats.items_in == 2 and stats.items_out == 2

    def test_plans_are_reusable(self):
        plan = stream_plan([1, 2, 3]).map_seq(lambda x: -x)
        assert list(plan.run_seq()) == [-1, -2, -3]
        assert list(plan.run_seq()) == [-1, -2, -3]


class TestPlanCacheAmortization:
    def test_one_lowering_many_chunks(self):
        # Counter deltas only — keep any warm plans (a warm cache just
        # turns the first chunk's miss into a hit; both bounds hold).
        plan_cache_reset()
        expr = Scan(operator.add)
        plan = (stream_plan([float(i) for i in range(64)]).chunk(8)
                .map_plan(expr).unchunk())
        list(plan.run_seq())
        stats = plan_cache_stats()
        # 8 equal-size chunks: one miss (first chunk), hits after.
        assert stats["misses"] <= 2  # auto-opt may lower raw + optimized
        assert stats["hits"] >= 7

    def test_stats_counters(self):
        stats = StreamRunStats()
        plan = (stream_plan([1.0] * 10).chunk(4)
                .map_plan(Scan(operator.add)).unchunk())
        out = list(plan.run_seq(stats=stats))
        assert len(out) == 10
        assert stats.items_in == 10
        assert stats.items_out == 10
        assert stats.chunks == 3
        assert stats.plan_runs == 3
        assert stats.sim_events > 0
        assert stats.virtual_seconds > 0

    def test_threaded_stats_match_sequential(self):
        seq_stats, thr_stats = StreamRunStats(), StreamRunStats()
        mk = lambda: (stream_plan([float(i) for i in range(20)]).chunk(4)
                      .map_plan(Scan(operator.add)).unchunk())
        seq = list(mk().run_seq(stats=seq_stats))
        thr = list(mk().run(stats=thr_stats))
        assert seq == thr
        assert dataclass_tuple(seq_stats) == dataclass_tuple(thr_stats)
        assert thr_stats.chunks == thr_stats.plan_runs == 20 // 4


def dataclass_tuple(stats: StreamRunStats):
    return (stats.items_in, stats.items_out, stats.chunks, stats.plan_runs,
            stats.sim_events, stats.sim_messages, stats.virtual_seconds)


class TestMapPlanValidation:
    def test_expr_must_be_node(self):
        with pytest.raises(SkeletonError, match="expression"):
            MapPlan(lambda x: x)  # type: ignore[arg-type]

    def test_topology_validated(self):
        with pytest.raises(SkeletonError, match="topology"):
            MapPlan(Scan(operator.add), topology="torus")

    def test_reduces_detection(self):
        assert MapPlan(Fold(operator.add)).reduces
        assert MapPlan(compose_nodes(Fold(operator.add),
                                     Map(lambda x: x))).reduces
        assert not MapPlan(Scan(operator.add)).reduces
        assert not MapPlan(Map(lambda x: x)).reduces
