"""Property suite for stream plans (ISSUE 7 satellite).

Three law families, each over random streams and chunk sizes:

1. **Chunk/UnChunk round trip** — ``Chunk(n) . UnChunk`` is the
   identity on any stream, for any ``n``.
2. **Stop prefix laws** — the output of any ``Stop`` is a prefix of the
   unstopped stream; the triggering item is included; a pre-satisfied
   predicate yields the empty stream; ``take(k)`` is ``islice(k)``.
3. **Chunked == unchunked reference** — executing an expression through
   ``Chunk(n) . MapPlan(e) . UnChunk`` is element-wise identical to the
   per-chunk sequential reference, and the threaded executor is
   bit-identical to ``run_seq`` for every case, stop truncation
   included.
4. **Batched == per-stream reference** — ``run_many`` over several
   streams, stage by stage, gives each stream what its own ``run_seq``
   gives, outputs and every ``StreamRunStats`` counter but ``walks``.
"""

from __future__ import annotations

import dataclasses
import itertools
import operator

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scl import Fold, Map, Scan
from repro.stream.plan import (
    Chunk,
    MapPlan,
    MapSeq,
    Source,
    StreamPlan,
    StreamRunStats,
    UnChunk,
    run_many,
    stream_plan,
)

finite_floats = st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False, width=32)
streams = st.lists(finite_floats, min_size=0, max_size=40)
chunk_sizes = st.integers(min_value=1, max_value=9)


@given(streams, chunk_sizes)
@settings(max_examples=60, deadline=None)
def test_chunk_unchunk_round_trip(xs, n):
    plan = stream_plan(xs).chunk(n).unchunk()
    assert list(plan.run_seq()) == xs
    assert list(plan.run()) == xs


@given(streams, chunk_sizes)
@settings(max_examples=40, deadline=None)
def test_chunk_sizes_law(xs, n):
    """Every chunk has size n except a shorter final remainder."""
    chunks = list(stream_plan(xs).chunk(n).run_seq())
    assert [len(c) for c in chunks[:-1]] == [n] * max(0, len(chunks) - 1)
    if xs:
        assert 1 <= len(chunks[-1]) <= n
    assert [x for c in chunks for x in c] == xs


@given(streams, st.integers(min_value=0, max_value=50))
@settings(max_examples=60, deadline=None)
def test_take_is_islice(xs, k):
    plan = stream_plan(xs).take(k)
    expected = list(itertools.islice(xs, k))
    assert list(plan.run_seq()) == expected
    assert list(plan.run()) == expected


@given(streams, st.floats(min_value=-100, max_value=100, allow_nan=False))
@settings(max_examples=60, deadline=None)
def test_stop_is_a_prefix_including_trigger(xs, threshold):
    plan = stream_plan(xs).stop(lambda acc, x: acc + abs(x), 0.0,
                                lambda acc: acc > threshold)
    out = list(plan.run_seq())
    assert out == xs[:len(out)]  # always a prefix
    if threshold < 0:
        # pred(init) may already hold (0.0 > negative threshold) -> empty
        assert out == []
    elif len(out) < len(xs):
        # stopped early: the trigger is included, the prefix before it
        # had not yet tripped the predicate
        assert sum(abs(x) for x in out) > threshold
        assert sum(abs(x) for x in out[:-1]) <= threshold
    assert list(plan.run()) == out


@given(streams, chunk_sizes)
@settings(max_examples=40, deadline=None)
def test_chunked_scan_matches_sequential_reference(xs, n):
    """Chunk . MapPlan(scan) . UnChunk == numpy cumsum per chunk."""
    plan = (stream_plan(xs).chunk(n)
            .map_plan(Scan(operator.add)).unchunk())
    expected = []
    for i in range(0, len(xs), n):
        expected.extend(np.cumsum(np.asarray(xs[i:i + n], dtype=float)))
    out_seq = list(plan.run_seq())
    np.testing.assert_allclose(out_seq, expected, rtol=1e-12)
    # The threaded run must be BIT-identical to the sequential one.
    assert list(plan.run()) == out_seq


@given(streams, chunk_sizes)
@settings(max_examples=30, deadline=None)
def test_chunked_fold_matches_sequential_reference(xs, n):
    plan = stream_plan(xs).chunk(n).map_plan(Fold(operator.add))
    expected = [float(np.sum(np.asarray(xs[i:i + n], dtype=float)))
                for i in range(0, len(xs), n)]
    out_seq = list(plan.run_seq())
    np.testing.assert_allclose(out_seq, expected, rtol=1e-12)
    assert list(plan.run()) == out_seq


@given(streams, chunk_sizes, st.integers(min_value=0, max_value=40))
@settings(max_examples=30, deadline=None)
def test_threaded_identical_with_stop_truncation(xs, n, k):
    """The full composition — chunk, compiled map, unchunk, stop — is
    bit-identical between the threaded and sequential executors."""
    mk = lambda: (stream_plan(xs).chunk(n)
                  .map_plan(Map(lambda v: v * 0.5)).unchunk().take(k))
    assert list(mk().run()) == list(mk().run_seq())


@given(chunk_sizes, st.integers(min_value=1, max_value=200))
@settings(max_examples=20, deadline=None)
def test_infinite_source_with_stop_terminates(n, limit):
    """Stop conditions make infinite generators terminate in both
    executors, with identical output."""
    mk = lambda: (stream_plan(Source.count(1)).chunk(n)
                  .map_plan(Fold(operator.add))
                  .stop(operator.add, 0.0, lambda acc: acc >= limit))
    out_seq = list(mk().run_seq())
    assert out_seq  # at least the triggering chunk-sum
    assert sum(out_seq) >= limit
    assert sum(out_seq[:-1]) < limit
    assert list(mk().run()) == out_seq


def _halve(x):
    return x * 0.5


def _reverse(chunk):
    return chunk[::-1]


@st.composite
def stop_free_stages(draw):
    """A well-shaped Stop-free stage list: chunking, compiled maps
    (reducing ones included), per-item and per-chunk ``MapSeq`` s."""
    ops = []
    chunked = False
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        if not chunked:
            op = draw(st.sampled_from(["chunk", "halve"]))
        else:
            op = draw(st.sampled_from(["scan", "map", "fold", "reverse",
                                       "unchunk"]))
        if op == "chunk":
            ops.append(Chunk(draw(chunk_sizes)))
        elif op == "halve":
            ops.append(MapSeq(_halve))
        elif op == "reverse":
            ops.append(MapSeq(_reverse))
        elif op == "unchunk":
            ops.append(UnChunk())
        else:
            ops.append(MapPlan({"scan": Scan(operator.add),
                                "map": Map(_halve),
                                "fold": Fold(operator.add)}[op]))
        chunked = op in ("chunk", "scan", "map", "reverse")
    return tuple(ops)


def _counters(stats):
    counts = dataclasses.asdict(stats)
    del counts["walks"]
    return {k: v for k, v in counts.items() if not k.startswith("_m_")}


@given(stop_free_stages(),
       st.lists(st.lists(finite_floats, min_size=0, max_size=20),
                min_size=1, max_size=6))
@settings(max_examples=60, deadline=None)
def test_batched_runner_is_each_streams_run_seq(ops, sources):
    """Several streams stage by stage (one walk per ``MapPlan`` stage and
    chunk size) == each stream's own ``run_seq``, outputs and counters
    alike; only ``walks`` counts the fewer walks performed."""
    batched = [StreamRunStats() for _ in sources]
    outs = run_many(ops, sources, stats=batched)
    solo = [StreamRunStats() for _ in sources]
    refs = [list(StreamPlan(Source.of(src), ops).run_seq(stats=stats))
            for src, stats in zip(sources, solo)]
    assert outs == refs
    assert [_counters(b) for b in batched] == [_counters(s) for s in solo]
    assert sum(b.walks for b in batched) <= sum(s.walks for s in solo)
