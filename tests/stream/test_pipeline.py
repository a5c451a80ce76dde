"""Thread pipelines — per-item stages as a stream plan, the only tests of
``run_staged``'s failure contract — and ``repro.stream.pipeline``'s
machine model."""

from __future__ import annotations

import time

import pytest

from repro.errors import SkeletonError
from repro.machine import AP1000, PERFECT
from repro.stream import PipelineStage, pipeline_machine, stream_plan


def pipeline(stages, buffer=8):
    """``items -> StreamPlan.run`` of one ``map_seq`` per stage function."""
    def run(items):
        plan = stream_plan(items)
        for fn in stages:
            plan = plan.map_seq(fn)
        return plan.run(buffer=buffer)
    return run


def inc(x):
    return x + 1


def dbl(x):
    return x * 2


class TestThreadPipeline:
    def test_matches_sequential_composition(self):
        run = pipeline([inc, dbl, inc])
        assert list(run(range(10))) == [dbl(inc(x)) + 1 for x in range(10)]

    def test_empty_stage_list_is_identity(self):
        assert list(pipeline([])(range(5))) == list(range(5))

    def test_single_stage(self):
        assert list(pipeline([dbl])([1, 2, 3])) == [2, 4, 6]

    def test_order_preserved(self):
        run = pipeline([inc, inc, inc, inc])
        assert list(run(range(200))) == [x + 4 for x in range(200)]

    def test_empty_stream(self):
        assert list(pipeline([inc])([])) == []

    def test_stages_overlap_in_time(self):
        """With 3 stages of ~5ms on 9 items, a pipeline takes ~(9+2)*5ms,
        far less than the sequential 27*5ms."""
        def slow(x):
            time.sleep(0.005)
            return x

        items = list(range(9))
        start = time.perf_counter()
        list(pipeline([slow, slow, slow])(items))
        piped = time.perf_counter() - start
        sequential_estimate = 27 * 0.005
        assert piped < sequential_estimate * 0.8

    def test_bad_buffer_rejected(self):
        # at the call, not at the first next() of the generator it returns
        with pytest.raises(SkeletonError):
            stream_plan([1]).map_seq(inc).run(buffer=0)

    def test_stage_exception_propagates(self):
        run = pipeline([inc, lambda x: 1 // (x - 3), inc])
        with pytest.raises(ZeroDivisionError):
            list(run(range(10)))

    def test_producer_exception_propagates(self):
        def bad_source():
            yield 1
            raise ValueError("source broke")

        with pytest.raises(ValueError, match="source broke"):
            list(pipeline([inc])(bad_source()))

    def test_backpressure_bounds_memory(self):
        """A slow consumer must throttle the producer via bounded queues."""
        produced = []

        def source():
            for i in range(1000):
                produced.append(i)
                yield i

        gen = pipeline([inc], buffer=4)(source())
        next(gen)
        time.sleep(0.02)
        # producer ran ahead only by the queue capacities, not the stream
        assert len(produced) < 50
        for _ in gen:
            pass


class TestFailureSemantics:
    """The PR-7 failure contract: poison propagates immediately, the
    earliest failure by stage order wins, and infinite inputs always
    terminate once a stage fails."""

    def test_poison_stops_downstream_promptly(self):
        """Items submitted after a mid-stream failure never reach the
        stages below it."""
        seen = []

        def record(x):
            seen.append(x)
            return x

        def boom(x):
            if x == 5:
                raise RuntimeError("boom at 5")
            time.sleep(0.001)
            return x

        with pytest.raises(RuntimeError, match="boom at 5"):
            list(pipeline([boom, record], buffer=2)(range(1000)))
        # The recorder saw at most the healthy prefix plus whatever was
        # already buffered — nowhere near the full input.
        assert len(seen) < 50

    def test_earliest_stage_failure_wins(self):
        """When two stages fail concurrently, the exception raised is the
        upstream one — deterministically, regardless of thread timing."""
        import threading

        first_failed = threading.Event()

        def early(x):
            if x == 3:
                first_failed.set()
                raise ValueError("early stage")
            return x

        def late(x):
            if x >= 1:
                # Fail only after the upstream failure has happened, so
                # both failures are in flight together.
                first_failed.wait(timeout=5)
                raise KeyError("late stage")
            return x

        for _ in range(5):
            with pytest.raises(ValueError, match="early stage"):
                list(pipeline([early, late])(range(10)))

    def test_source_failure_beats_stage_failure(self):
        def bad_source():
            yield 1
            raise OSError("source broke")

        def always_fail(x):
            raise LookupError("stage broke")

        # Both fail; the source is stage -1 and must win.
        with pytest.raises((OSError, LookupError)) as excinfo:
            list(pipeline([always_fail])(bad_source()))
        # The stage consumed item 1 before the source raised, so either
        # order is *possible* at runtime — but whenever both failures are
        # recorded, the source's must be the one raised.  Run a variant
        # where the stage failure definitely lands first:
        del excinfo

        def fail_fast(x):
            raise LookupError("stage broke first")

        def slow_bad_source():
            yield 1
            time.sleep(0.05)
            raise OSError("source broke later")

        with pytest.raises(OSError, match="source broke later"):
            list(pipeline([fail_fast])(slow_bad_source()))

    def test_infinite_input_failure_terminates(self):
        """A failing stage fed by an infinite generator must cancel the
        feeder rather than hang (the seed code deadlocked here)."""
        import itertools

        def boom(x):
            if x == 20:
                raise RuntimeError("stop")
            return x

        start = time.perf_counter()
        with pytest.raises(RuntimeError, match="stop"):
            list(pipeline([boom], buffer=4)(itertools.count()))
        assert time.perf_counter() - start < 10

    def test_consumer_abandonment_cancels_feeder(self):
        """Closing the output generator early cancels the pipeline."""
        import itertools

        gen = pipeline([inc], buffer=4)(itertools.count())
        assert next(gen) == 1
        gen.close()  # must not hang


class TestMachinePipeline:
    def test_results_match_composition(self):
        out, _res = pipeline_machine([inc, dbl], list(range(10)))
        assert out == [dbl(inc(x)) for x in range(10)]

    def test_single_stage(self):
        out, res = pipeline_machine([dbl], [1, 2, 3])
        assert out == [2, 4, 6]
        assert res.total_messages == 0

    def test_empty_stage_list_rejected(self):
        with pytest.raises(SkeletonError):
            pipeline_machine([], [1])

    def test_bad_stage_rejected(self):
        with pytest.raises(SkeletonError):
            pipeline_machine(["not callable"], [1])  # type: ignore[list-item]

    def test_message_count(self):
        s, m = 4, 10
        _out, res = pipeline_machine([PipelineStage(inc, ops=5)] * s,
                                     list(range(m)), spec=PERFECT)
        assert res.total_messages == (s - 1) * m

    def test_fill_drain_law(self):
        """T ≈ (m + s - 1) · t_stage on a zero-latency machine with equal
        stages — the textbook pipeline formula."""
        ops = 1000.0
        t_stage = PERFECT.compute_time(ops)
        for s, m in [(2, 5), (4, 10), (3, 1)]:
            stages = [PipelineStage(inc, ops=ops)] * s
            _out, res = pipeline_machine(stages, list(range(m)), spec=PERFECT)
            expected = (m + s - 1) * t_stage
            assert res.makespan == pytest.approx(expected, rel=1e-9), (s, m)

    def test_bottleneck_stage_dominates(self):
        """Throughput is set by the slowest stage."""
        m = 20
        fast = PipelineStage(inc, ops=10)
        slow = PipelineStage(inc, ops=10_000)
        _out, res = pipeline_machine([fast, slow, fast], list(range(m)),
                                     spec=PERFECT)
        t_slow = PERFECT.compute_time(10_000)
        assert res.makespan >= m * t_slow

    def test_pipeline_beats_single_processor_for_long_streams(self):
        ops = 5000.0
        stages = [PipelineStage(inc, ops=ops)] * 4
        m = 50
        _out, piped = pipeline_machine(stages, list(range(m)), spec=AP1000)
        sequential = 4 * m * AP1000.compute_time(ops)
        assert piped.makespan < sequential

    def test_ap1000_communication_charged(self):
        _out, free = pipeline_machine([inc, inc], list(range(10)), spec=PERFECT)
        _out, paid = pipeline_machine([inc, inc], list(range(10)), spec=AP1000)
        assert paid.makespan > free.makespan
