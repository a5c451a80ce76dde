"""Unit tests for repro.stream.plan — the Stream IR and its executors."""

from __future__ import annotations

import itertools
import operator
import threading
import time

import numpy as np
import pytest

from repro.errors import SkeletonError
from repro.obs.metrics import MetricsRegistry
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
    run_many,
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

    @pytest.mark.parametrize("size", [2.5, True, "2", None])
    def test_chunk_size_must_be_an_integer(self, size):
        # Chunk(2.5) never filled: the whole stream came out as one chunk
        with pytest.raises(SkeletonError, match="Chunk size"):
            stream_plan(range(7)).chunk(size)

    @pytest.mark.parametrize("k", [1.5, True])
    def test_take_count_must_be_an_integer(self, k):
        # take(1.5) kept two items
        with pytest.raises(SkeletonError, match="take"):
            stream_plan(range(7)).take(k)

    @pytest.mark.parametrize("buffer", [2.5, True])
    def test_buffer_must_be_an_integer(self, buffer):
        with pytest.raises(SkeletonError, match="buffer"):
            stream_plan(range(7)).map_seq(abs).run(buffer=buffer)

    def test_numpy_integers_are_sizes(self):
        n = np.int64(2)
        plan = stream_plan(range(7)).chunk(n).take(n)
        assert list(plan.run_seq()) == [(0, 1), (2, 3)]
        assert list(plan.run(buffer=n)) == [(0, 1), (2, 3)]
        assert type(plan.ops[0].n) is int

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
        # turns the first walk's miss into a hit; both bounds hold).
        plan_cache_reset()
        expr = Scan(operator.add)
        plan = (stream_plan([float(i) for i in range(64)]).chunk(8)
                .map_plan(expr).unchunk())
        run = StreamRunStats()
        list(plan.run_seq(stats=run))
        stats = plan_cache_stats()
        # 8 equal-size chunks, lowered once ...
        assert stats["misses"] <= 2  # auto-opt may lower raw + optimized
        # ... and looked up once per walk, not once per chunk (a cold
        # optimized entry also looks up the raw plan it builds on)
        assert run.plan_runs == 8 and run.walks == 1
        assert stats["hits"] + stats["misses"] \
            == run.walks + stats["optimized"]

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


class TestBatching:
    """A ``MapPlan`` runs its equal-size chunks as batches: one walk each,
    at most ``buffer`` chunks, with the stream's outputs and counters
    those of chunk-by-chunk runs."""

    @staticmethod
    def scan_plan(n_items, n=4):
        return (stream_plan([float(i) for i in range(n_items)]).chunk(n)
                .map_plan(Scan(operator.add)).unchunk())

    def test_equal_chunks_share_a_walk_and_a_short_one_runs_alone(self):
        for n_items, walks in ((32, 1), (34, 2), (36, 2), (68, 3)):
            stats = StreamRunStats()
            out = list(self.scan_plan(n_items).run_seq(stats=stats))
            assert len(out) == n_items
            assert stats.plan_runs == -(-n_items // 4)
            assert stats.walks == walks, n_items

    def test_a_batch_holds_at_most_buffer_chunks(self):
        seq, thr = StreamRunStats(), StreamRunStats()
        plan = self.scan_plan(80)
        assert list(plan.run_seq(stats=seq)) == list(plan.run(
            buffer=2, stats=thr))
        assert seq.plan_runs == thr.plan_runs == 20
        assert seq.walks == 3  # 8 + 8 + 4
        assert thr.walks >= 10  # never more than 2 chunks a walk

    def test_a_failing_batch_is_rerun_chunk_by_chunk(self):
        def poisoned(x):
            if x == 13.0:
                raise ArithmeticError("chunk 3")
            return x

        plan = (stream_plan([float(i) for i in range(32)]).chunk(4)
                .map_plan(compose_nodes(Scan(operator.add), Map(poisoned)))
                .unchunk())
        for run in (plan.run_seq, plan.run):
            stats = StreamRunStats()
            got = []
            with pytest.raises(ArithmeticError, match="chunk 3"):
                for x in run(stats=stats):
                    got.append(x)
            # the three chunks before the failing one are emitted
            assert got == [0.0, 1.0, 3.0, 6.0, 4.0, 9.0, 15.0, 22.0,
                           8.0, 17.0, 27.0, 38.0]
            assert stats.plan_runs == 3

    def test_a_batch_fault_no_chunk_reproduces_still_surfaces(
            self, monkeypatch):
        """A failure of the batch itself (its chunks all run alone) is
        raised after their outputs, not absorbed by the re-run."""
        run_chunks = MapPlan.run_chunks

        def broken_batches(self, chunks, machines, stats):
            if len(chunks) > 1:
                raise RuntimeError("the copies walk broke")
            return run_chunks(self, chunks, machines, stats)

        monkeypatch.setattr(MapPlan, "run_chunks", broken_batches)
        got = []
        with pytest.raises(RuntimeError, match="copies walk broke"):
            for x in self.scan_plan(8).run_seq():
                got.append(x)
        assert got == [0.0, 1.0, 3.0, 6.0, 4.0, 9.0, 15.0, 22.0]

    def test_an_upstream_failure_waits_for_the_pulled_chunks(self):
        def items():
            yield from (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0)
            raise LookupError("source broke")

        plan = (stream_plan(items()).chunk(2)
                .map_plan(Fold(operator.add)))
        got = []
        with pytest.raises(LookupError, match="source broke"):
            for x in plan.run_seq():
                got.append(x)
        # the three whole chunks pulled before the failure ran; the
        # partial fourth never formed
        assert got == [3.0, 7.0, 11.0]

    def test_a_threaded_batch_never_waits_for_a_chunk(self):
        """The first chunk's output reaches the consumer while the source
        is still holding back the second chunk."""
        go = threading.Event()
        waited = []

        def items():
            yield from (1.0, 2.0, 3.0, 4.0)
            waited.append(go.wait(timeout=10))
            yield from (5.0, 6.0, 7.0, 8.0)

        gen = (stream_plan(items()).chunk(4).map_plan(Scan(operator.add))
               .unchunk().run())
        assert [next(gen) for _ in range(4)] == [1.0, 3.0, 6.0, 10.0]
        go.set()
        assert list(gen) == [5.0, 11.0, 18.0, 26.0]
        assert waited == [True]

    def test_walks_are_mirrored_into_metrics(self):
        registry = MetricsRegistry()
        stats = StreamRunStats().attach_metrics(registry, name="s")
        list(self.scan_plan(36).run_seq(stats=stats))
        snap = registry.snapshot()
        assert stats.walks == 2
        assert snap.value("stream_walks_total", {"stream": "s"}) == 2
        assert snap.value("stream_plan_runs_total", {"stream": "s"}) == 9


class TestRunMany:
    """Several streams stage by stage: a ``MapPlan`` stage runs the
    chunks of one size, across all the streams, as one walk."""

    OPS = (Chunk(4), MapPlan(Scan(operator.add)), UnChunk())

    def test_each_chunk_size_is_one_walk(self):
        sources = [[float(i) for i in range(n)] for n in (8, 10, 6)]
        stats = [StreamRunStats() for _ in sources]
        machines = {}
        outs = run_many(self.OPS, sources, stats=stats, machines=machines)
        assert outs == [list(stream_plan(src).chunk(4)
                             .map_plan(Scan(operator.add)).unchunk()
                             .run_seq()) for src in sources]
        # the walk of the 4s counts on stream 0, that of the 2s on 1
        assert [s.walks for s in stats] == [1, 1, 0]
        assert [s.plan_runs for s in stats] == [2, 3, 2]
        assert list(machines) == [1] and sorted(machines[1]) == [2, 4]

    def test_a_failing_walk_reruns_each_stream_alone(self):
        def poisoned(x):
            if x == 13.0:
                raise ArithmeticError("chunk 3")
            return x

        ops = (Chunk(4), MapPlan(compose_nodes(Scan(operator.add),
                                               Map(poisoned))))
        sources = [[1.0] * 8, [float(i) for i in range(32)]]
        with pytest.raises(ArithmeticError, match="chunk 3"):
            run_many(ops, sources)
        assert run_many(ops, sources[:1]) == [[(1.0, 2.0, 3.0, 4.0)] * 2]

    def test_a_stop_is_refused(self):
        with pytest.raises(SkeletonError, match="Stop"):
            run_many(self.OPS + (Stop(add, 0, bool),), [[1.0]])

    def test_no_stages_count_what_passes_through(self):
        stats = [StreamRunStats(), StreamRunStats()]
        assert run_many((), [[1, 2], []], stats=stats) == [[1, 2], []]
        assert [(s.items_in, s.items_out) for s in stats] == [(2, 2),
                                                               (0, 0)]


def test_queue_depth_gauges_read_each_queues_live_size():
    """A finished stream's queues are empty, and its gauges say so."""
    registry = MetricsRegistry()
    out = list(stream_plan(range(20)).chunk(4).map_plan(Scan(operator.add))
               .unchunk().run(metrics=registry, name="s"))
    assert out == [v for lo in range(0, 20, 4)
                   for v in itertools.accumulate(range(lo, lo + 4))]
    snap = registry.snapshot()
    depths = [snap.value("stream_queue_depth", {"stream": "s", "stage": str(i)})
              for i in range(4)]
    assert depths == [0, 0, 0, 0]


def test_an_abandoned_streams_queue_depth_gauges_read_zero():
    """So do an abandoned stream's, though its source thread may still be
    putting when ``close()`` returns."""
    registry = MetricsRegistry()
    gen = StreamPlan(Source.count(), (Chunk(4), MapPlan(Scan(operator.add)))
                     ).run(metrics=registry)
    assert [next(gen) for _ in range(3)] == [(0, 1, 3, 6), (4, 9, 15, 22),
                                             (8, 17, 27, 38)]
    gen.close()
    for _ in range(2):
        snap = registry.snapshot()
        assert [snap.value("stream_queue_depth",
                           {"stream": "stream", "stage": str(i)})
                for i in range(3)] == [0, 0, 0]
        time.sleep(0.05)


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
