"""Hyperquicksort — the paper's flagship example (§3, §5, Table 1, Fig. 2/3).

The algorithm is two SCL expressions, the paper's two ends of one
derivation, and every rendering runs one of them or is a named baseline:

1. :func:`hyperquicksort_nested_expression` — the **recursive
   nested-parallel program** of §3, ``hsort d = combine ∘ map (hsort
   (d-1)) ∘ split ∘ step``, unrolled for a concrete ``d``.
   :func:`hyperquicksort` evaluates it over a ParArray.
2. :func:`hyperquicksort_expression` — the **flattened iterative SPMD
   program** of §5, ``iterFor d step`` with the pivot fetched from each
   sub-cube's leader.  :func:`hyperquicksort_flat` evaluates it,
   :func:`hyperquicksort_compiled` runs it through the SCL compiler on the
   simulated machine, and :func:`hyperquicksort_trace` evaluates it one
   exchange and one merge at a time, reproducing Figure 2's (a)–(h)
   progression.
3. :func:`hyperquicksort_machine` — the **hand-compiled message-passing
   program** running on the simulated AP1000: real data, real messages,
   virtual time.  It regenerates Table 1 and Figure 3, beside the
   one-processor reference :func:`sequential_sort_machine`.

Distributed **sample sort** is one expression too
(:func:`sample_sort_expression`): :func:`sample_sort` evaluates it and
:func:`sample_sort_compiled` runs it, as a comparator; the bitonic
baseline lives in :mod:`repro.apps.bitonic`.

The base-language fragments (``SEQ_QUICKSORT``, ``MIDVALUE``, ``SPLIT``,
``MERGE``) are plain NumPy procedures, exactly as the paper keeps them
opaque Fortran/C code.
"""

from __future__ import annotations

import dataclasses
import functools
from concurrent.futures import Executor
from typing import Sequence

import numpy as np

from repro.core import Block, ParArray, gather, parmap, partition
from repro.errors import SkeletonError
from repro.machine import AP1000, Comm, Hypercube, Machine, MachineSpec, collectives
from repro.machine.simulator import RunResult
from repro.plan.ir import base_fragment
from repro.plan.kernels import stack_uniform, vectorize_fragment
from repro.runtime.chunking import chunk_indices

__all__ = [
    "seq_quicksort",
    "midvalue",
    "split_by_pivot",
    "merge_sorted",
    "hyperquicksort",
    "hyperquicksort_flat",
    "hyperquicksort_trace",
    "StageSnapshot",
    "SortCostParams",
    "hyperquicksort_machine",
    "hyperquicksort_expression",
    "hyperquicksort_nested_expression",
    "hyperquicksort_compiled",
    "sequential_sort_machine",
    "sample_sort_expression",
    "sample_sort",
    "sample_sort_compiled",
]


# --------------------------------------------------------------------------
# Base-language fragments (the paper's omitted Fortran/C procedures)
# --------------------------------------------------------------------------

def seq_quicksort(a: np.ndarray) -> np.ndarray:
    """``SEQ_QUICKSORT``: sort a local array (NumPy introsort).

    Also a registered expression fragment (``map SEQ_QUICKSORT``) charged
    :meth:`SortCostParams.sort_ops` of its block; see ``_HQ_PARAMS``.
    """
    return np.sort(np.asarray(a))


def midvalue(a: np.ndarray) -> float:
    """``MIDVALUE``: the median element of a *sorted* local array.

    The paper broadcasts "the median value of the sequential array on
    node 0" as the pivot; an empty local array yields 0 so the algorithm
    degrades gracefully on pathological splits.
    """
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    return float(a[a.size // 2])


def split_by_pivot(pivot: float, a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``SPLIT``: cut a sorted array into (≤ pivot, > pivot) halves."""
    a = np.asarray(a)
    k = int(np.searchsorted(a, pivot, side="right"))
    return a[:k], a[k:]


def merge_sorted(*runs: np.ndarray) -> np.ndarray:
    """``MERGE``: merge sorted arrays into one sorted array of their
    concatenation's dtype.  Integer and bool keys take NumPy's default
    sort: equal keys cannot be told apart, so every correct sort returns
    the same bytes, and on the sorts' merges the default is the fastest
    (SIMD where the host has it).  Other keys keep the stable sort: their
    equal keys can differ (−0.0 and 0.0, NaN payloads)."""
    out = np.concatenate(runs)
    out.sort(kind=None if out.dtype.kind in "biu" else "stable")
    return out


# --------------------------------------------------------------------------
# 1. The two programs evaluated over a ParArray (§3, §5)
# --------------------------------------------------------------------------

def _evaluate_sort(expr, values, d: int, executor: Executor | None):
    """``gather (expr (map SEQ_QUICKSORT (partition block 2^d values)))``."""
    from repro.scl import evaluate

    p = 1 << d
    da = parmap(seq_quicksort, partition(Block(p), np.asarray(values)),
                executor=executor)
    sorted_da = evaluate(expr, da, executor=executor)
    return np.asarray(gather(ParArray(sorted_da.to_list(), dist=Block(p))))


def hyperquicksort(values: Sequence[float] | np.ndarray, d: int, *,
                   executor: Executor | None = None) -> np.ndarray:
    """Sort ``values`` on a simulated ``d``-dimensional hypercube (§3).

    ``hypersort A d = gather (hsort d (map SEQ_QUICKSORT (partition block
    2^d A)))``, evaluating :func:`hyperquicksort_nested_expression`: after
    each exchange the cube splits into two sub-cubes sorted recursively
    (nested parallelism).
    """
    return _evaluate_sort(hyperquicksort_nested_expression(d), values, d,
                          executor)


def hyperquicksort_flat(values: Sequence[float] | np.ndarray, d: int, *,
                        executor: Executor | None = None) -> np.ndarray:
    """The transformation-derived flat program: ``iterfor d step DA``.

    Evaluates :func:`hyperquicksort_expression` over the locally sorted
    blocks: each ``step i`` works on sub-cubes of dimension ``d - i``,
    the pivot travels by ``fetch (mf d')`` from each sub-cube's leader
    (``mf d' j = floor(j / 2^d') * 2^d'``) and the partner exchange uses
    ``mypartner j = xor(j, 2^(d'-1))`` — the exact index functions of the
    paper's flattened code.
    """
    return _evaluate_sort(hyperquicksort_expression(d), values, d, executor)


# --------------------------------------------------------------------------
# 2. Figure 2 stage tracer
# --------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class StageSnapshot:
    """Per-processor contents after one named stage of the algorithm."""

    label: str
    contents: tuple[tuple[float, ...], ...]

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(c) for c in self.contents)

    def total(self) -> int:
        return sum(self.sizes())


def hyperquicksort_trace(values: Sequence[float] | np.ndarray,
                         d: int) -> list[StageSnapshot]:
    """Evaluate the §5 expression recording Figure 2's stage-by-stage states.

    Each ``step i`` of :func:`hyperquicksort_expression` runs in two
    parts, its exchange (pivot fetch, split, partner fetch, selection)
    and then its merge, with a snapshot after each.  Snapshot labels
    follow the figure: the initial unsorted vector on p0 (a), the
    distributed+locally-sorted state (b/c), then per-iteration
    post-exchange (d/f) and post-merge (e/g) states, and the final
    gather to p0 (h).
    """
    from repro.scl import compose_nodes, evaluate

    values = np.asarray(values)
    p = 1 << d
    snaps: list[StageSnapshot] = []

    def snap(label: str, da: ParArray) -> None:
        snaps.append(StageSnapshot(
            label, tuple(tuple(float(v) for v in np.asarray(part)) for part in da)))

    initial = [np.asarray(values)] + [np.asarray([])] * (p - 1)
    snap("initial-on-p0", ParArray(initial))
    da = parmap(seq_quicksort, partition(Block(p), values))
    snap("distributed-sorted", da)
    expr = hyperquicksort_expression(d)
    for i in range(d):
        merge, *exchange = expr.body(i).steps
        pairs = evaluate(compose_nodes(*exchange), da)
        snap(f"iter{i}-exchanged", parmap(np.concatenate, pairs))
        da = evaluate(merge, pairs)
        snap(f"iter{i}-merged", da)
    final = np.asarray(gather(ParArray(da.to_list(), dist=Block(p))))
    snap("gathered-on-p0",
         ParArray([final] + [np.asarray([])] * (p - 1)))
    return snaps


# --------------------------------------------------------------------------
# 3. Machine-level program (the hand compilation of §5) — Table 1 / Fig. 3
# --------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class SortCostParams:
    """Per-element operation counts charged for the base-language fragments.

    These play the role of the compiled Fortran inner loops on the AP1000:
    quicksort costs ``sort_ops_per_cmp`` per comparison over ``m log2 m``
    comparisons, splitting costs a binary search, merging is linear.
    """

    sort_ops_per_cmp: float = 16.0
    merge_ops_per_elem: float = 30.0
    split_ops_per_probe: float = 12.0
    median_ops: float = 6.0

    def sort_ops(self, m: int) -> float:
        return self.sort_ops_per_cmp * m * max(np.log2(max(m, 2)), 1.0)

    def merge_ops(self, m: int) -> float:
        return self.merge_ops_per_elem * m

    def split_ops(self, m: int) -> float:
        return self.split_ops_per_probe * max(np.log2(max(m, 2)), 1.0)


def hyperquicksort_machine(
    values: Sequence[int] | np.ndarray,
    d: int,
    *,
    spec: MachineSpec = AP1000,
    params: SortCostParams = SortCostParams(),
    include_distribution: bool = True,
    record_trace: bool = False,
    single_port: bool = False,
) -> tuple[np.ndarray, RunResult]:
    """Run hyperquicksort on the simulated hypercube machine.

    The data starts on processor 0, is scattered block-wise, locally
    sorted, pushed through ``d`` pivot/split/exchange/merge iterations and
    gathered back to processor 0 — the exact structure of the paper's
    experiment ("the 32 values to be sorted are initially located on
    processor 0", generalised).  Returns the sorted array and the
    :class:`RunResult` whose ``makespan`` is the Table 1 runtime.

    ``include_distribution=False`` skips the initial scatter and final
    gather (for scaling studies of the sort proper).
    """
    values = np.asarray(values)
    p = 1 << d
    machine = Machine(Hypercube(d), spec=spec, record_trace=record_trace,
                      single_port=single_port)
    word = values.dtype.itemsize

    def program(env):
        comm = Comm.world(env)
        rank = comm.rank
        # -- distribute: block scatter from p0
        if include_distribution and p > 1:
            blocks = None
            if rank == 0:
                blocks = [values[lo:hi] for lo, hi in chunk_indices(len(values), p)]
            local = yield from collectives.scatter(comm, blocks, root=0)
        else:
            lo, hi = chunk_indices(len(values), p)[rank]
            local = values[lo:hi]
        local = np.asarray(local)
        # -- local sort
        yield env.work(params.sort_ops(local.size))
        local = seq_quicksort(local)
        # -- d iterations over shrinking sub-cubes
        for it in range(d):
            dim = d - it
            sub = 1 << dim
            half = sub >> 1
            leader = (rank // sub) * sub
            cube = comm.subgroup(range(leader, leader + sub))
            # pivot: median on the sub-cube leader, broadcast
            if cube.rank == 0:
                yield env.work(params.median_ops)
                pivot = midvalue(local)
            else:
                pivot = None
            pivot = yield from collectives.bcast(cube, pivot, root=0,
                                                 nbytes=word)
            # split
            yield env.work(params.split_ops(local.size))
            low, high = split_by_pivot(pivot, local)
            keep, send_part = (low, high) if rank & half == 0 else (high, low)
            # partner exchange
            partner = cube.rank_of_pid(env.pid ^ half)
            yield cube.send(partner, send_part, tag=7,
                            nbytes=max(send_part.nbytes, 1))
            msg = yield cube.recv(partner, tag=7)
            recv_part = np.asarray(msg.payload)
            # merge
            yield env.work(params.merge_ops(keep.size + recv_part.size))
            local = merge_sorted(keep, recv_part)
        # -- gather to p0
        if include_distribution and p > 1:
            parts = yield from collectives.gather(
                comm, local, root=0, nbytes=max(int(local.nbytes), 1))
            if rank == 0:
                yield env.work(len(values))  # copy-out cost
                return np.concatenate([np.asarray(b) for b in parts])
            return None
        return local

    result = machine.run(program)
    if include_distribution or p == 1:
        return np.asarray(result.values[0]), result
    return np.concatenate([np.asarray(v) for v in result.values]), result


def sequential_sort_machine(
    values: Sequence[int] | np.ndarray,
    *,
    spec: MachineSpec = AP1000,
    params: SortCostParams = SortCostParams(),
) -> tuple[np.ndarray, RunResult]:
    """One-processor reference run: pure local quicksort, no communication.

    This is the ``T(1)`` of the paper's speedup curve (Fig. 3) — the
    sequential algorithm, not the parallel algorithm on one processor.
    """
    values = np.asarray(values)
    machine = Machine(Hypercube(0), spec=spec)

    def program(env):
        yield env.work(params.sort_ops(values.size))
        return seq_quicksort(values)

    result = machine.run(program)
    return np.asarray(result.values[0]), result


# --------------------------------------------------------------------------
# 4. Hyperquicksort as compilable SCL expressions
# --------------------------------------------------------------------------

#: Cost parameters for the module-level expression fragments below (one
#: set of top-level callables shared by the hyperquicksort expressions of
#: every ``d`` and the sample sort expressions of every ``p``).
_HQ_PARAMS = SortCostParams()


# ``SEQ_QUICKSORT`` as an expression fragment (``map SEQ_QUICKSORT``):
# charged ``sort_ops`` of its block, and equal blocks sorted row-wise in
# one SoA pass.
def _sort_rows(stacked):
    if stacked.ndim > 1:
        return np.sort(stacked, axis=-1)
    return [seq_quicksort(v) for v in stacked]  # scalars: raise as per rank


base_fragment(ops=lambda a: _HQ_PARAMS.sort_ops(np.size(a)))(seq_quicksort)
vectorize_fragment(
    seq_quicksort, lambda values: stack_uniform(values, _sort_rows),
    lambda values: [float(_HQ_PARAMS.sort_ops(np.size(a))) for a in values])


@base_fragment(ops=lambda dp: _HQ_PARAMS.median_ops
               + _HQ_PARAMS.split_ops(np.asarray(dp[0]).size))
def _hq_split_on_leader_median(dp):
    data, leader_data = dp
    return split_by_pivot(midvalue(leader_data), data)


def _hq_split_batched(values):
    # A sub-cube's ranks are adjacent and all hold the one object fetched
    # from their leader, so its median is taken once per sub-cube.
    out = []
    seen, pivot = object(), None
    for data, leader_data in values:
        if leader_data is not seen:
            seen = leader_data
            pivot = midvalue(leader_data)
        a = np.asarray(data)
        k = a.searchsorted(pivot, side="right")
        out.append((a[:k], a[k:]))
    return out


@functools.lru_cache(maxsize=1 << 16)
def _hq_split_ops(m: int) -> float:
    # the scalar cost tag itself, once per block length
    return float(_HQ_PARAMS.median_ops + _HQ_PARAMS.split_ops(m))


def _hq_split_ops_all(values):
    return [_hq_split_ops(np.asarray(dp[0]).size) for dp in values]


vectorize_fragment(_hq_split_on_leader_median, _hq_split_batched,
                   _hq_split_ops_all)


class _HqSelect:
    """The piece selector of one hyperquicksort step: lower-half
    processors keep and receive the low pieces, upper-half processors
    keep and receive the high pieces."""

    scl_ops = 2.0

    def __init__(self, half: int):
        self.half = half
        self.__name__ = f"select_half_{half}"

    def __call__(self, j, own_partner):
        own, partner = own_partner
        if j & self.half == 0:
            return own[0], partner[0]
        return own[1], partner[1]


@base_fragment(ops=lambda kr: _HQ_PARAMS.merge_ops(
    np.asarray(kr[0]).size + np.asarray(kr[1]).size))
def _hq_merge_pair(kr):
    return merge_sorted(kr[0], kr[1])


def _hq_merge_batched(values):
    return [merge_sorted(a, b) for a, b in values]


def _hq_merge_ops_all(values):
    per_elem = _HQ_PARAMS.merge_ops_per_elem
    return [float(per_elem * (np.asarray(a).size + np.asarray(b).size))
            for a, b in values]


vectorize_fragment(_hq_merge_pair, _hq_merge_batched, _hq_merge_ops_all)


def _hq_step(leader, half: int):
    """One pivot/split/exchange/merge step over a cube of ``2 * half``
    ranks: ``map MERGE ∘ imap select ∘ align id (fetch partner) ∘ map
    SPLIT ∘ align id (fetch leader)``, with the partner ``j ^ half``."""
    from repro.scl import AlignFetch, IMap, Map, compose_nodes

    return compose_nodes(
        Map(_hq_merge_pair),
        IMap(_HqSelect(half)),
        AlignFetch(lambda j: j ^ half),   # getpartner
        Map(_hq_split_on_leader_median),
        AlignFetch(leader),               # wpivot
    )


@functools.lru_cache(maxsize=None)
def hyperquicksort_expression(d: int):
    """The flattened §5 program as a :mod:`repro.scl` expression.

    ``iterFor d step`` where each ``step i`` is a composition of skeleton
    nodes only — pivot alignment (``align id (fetch leader)``), split,
    partner exchange, merge — with the base-language fragments annotated
    by :func:`repro.scl.compile.base_fragment` cost tags.  The expression
    can be interpreted (`evaluate`) over a ParArray of pre-sorted blocks,
    rewritten by the §4 rules, or **compiled** onto the simulated machine
    (`run_expression`), which mechanises the paper's full pipeline.

    The fragments are module-level callables (see :data:`_HQ_PARAMS`);
    the index functions inside ``AlignFetch`` stay local — they are
    evaluated once at lowering time.  ``step i`` works on sub-cubes of
    ``sub = 2^(d-i)`` ranks, so its leader is the flat
    ``mf j = floor(j / sub) * sub``.

    Memoised on ``d``: repeated calls return the *same* expression object,
    so every compile after the first is a plan-cache hit (plans are keyed
    by the expression).
    """
    from repro.scl import IterFor

    def step(i):
        sub = 1 << (d - i)
        return _hq_step(lambda j: (j // sub) * sub, sub >> 1)

    return IterFor(d, step)


@functools.lru_cache(maxsize=None)
def hyperquicksort_nested_expression(d: int):
    """The recursive §3 program as a :mod:`repro.scl` expression.

    ``hsort d = combine ∘ map (hsort (d-1)) ∘ split (block 2) ∘ step d``
    and ``hsort 0 = id``, unrolled for this ``d``: the step of
    :func:`hyperquicksort_expression` with group-relative index functions
    (every sub-cube's leader is its rank 0), then the cube splits into two
    half-cubes that sort themselves recursively.  Compiled, each ``split``
    is a processor-group split (MPI-style groups, §2.1).  Memoised on
    ``d``, like the flat expression.
    """
    from repro.scl import Combine, Id, Map, Split, compose_nodes

    if d == 0:
        return Id()
    return compose_nodes(
        Combine(), Map(hyperquicksort_nested_expression(d - 1)),
        Split(Block(2)), _hq_step(lambda j: 0, 1 << (d - 1)))


def hyperquicksort_compiled(
    values: Sequence[int] | np.ndarray,
    d: int,
    *,
    spec: MachineSpec = AP1000,
    opt="auto",
) -> tuple[np.ndarray, RunResult]:
    """Run the §5 expression through the SCL compiler on the simulator.

    Local pre-sorting and the final gather are outside the expression (as
    in the paper's program, where ``map SEQ_QUICKSORT . partition`` and
    ``gather`` bracket the ``iterfor``); the iterations themselves execute
    as compiled skeleton code.  The expression's fragments are module-level
    and charge the default :class:`SortCostParams` (``_HQ_PARAMS``), so
    there is no cost parameter here.  ``opt`` is the plan-optimizer switch
    of :func:`repro.scl.compile.run_expression`.
    """
    from repro.scl.compile import run_expression

    values = np.asarray(values)
    p = 1 << d
    machine = Machine(Hypercube(d), spec=spec)
    blocks = parmap(seq_quicksort, partition(Block(p), values))
    expr = hyperquicksort_expression(d)
    out, result = run_expression(expr, blocks, machine, opt=opt)
    return np.concatenate([np.asarray(b) for b in out]), result


# --------------------------------------------------------------------------
# 5. Sample sort as a compilable SCL expression (extension)
# --------------------------------------------------------------------------

#: Regular samples each processor contributes to the splitter pool.
_SAMPLES_PER_BLOCK = 8


class _SsShareSamples:
    """``with_samples``: a sorted block paired with ``p`` copies of its
    regular sample, the tuple the sample allgather redistributes.
    Sampling is charged nothing (it reads ``_SAMPLES_PER_BLOCK`` keys)."""

    scl_ops = 0.0

    def __init__(self, p: int):
        self.p = p
        self.__name__ = f"with_samples_{p}"

    def __call__(self, a):
        a = np.asarray(a)
        k = min(_SAMPLES_PER_BLOCK, max(a.size, 1))
        sample = a[np.linspace(0, max(a.size - 1, 0), k).astype(int)] \
            if a.size else a
        return (a,) + (sample,) * self.p


class _SsBucket:
    """``bucket``: sort the gathered samples, pick ``p - 1`` regular
    splitters and cut the sorted block at them.  Component ``s`` of the
    result is the bucket bound for rank ``(j - s) mod p``, so the
    rotation ``s`` of the next redistribution delivers it."""

    def __init__(self, p: int):
        self.p = p
        self.__name__ = f"bucket_{p}"

    def scl_ops(self, state) -> float:
        data, *samples = state
        pool = sum(np.size(s) for s in samples)
        return (_HQ_PARAMS.sort_ops(pool)
                + _HQ_PARAMS.split_ops(max(np.size(data), 1)) * self.p)

    def __call__(self, j, state):
        data, *samples = state
        p = self.p
        pool = merge_sorted(*samples)
        cut = np.linspace(0, max(pool.size - 1, 0), p + 1).astype(int)[1:-1]
        splitters = pool[cut] if pool.size else np.zeros(p - 1, data.dtype)
        buckets = np.split(data, np.searchsorted(data, splitters))
        return tuple(buckets[(j - s) % p] for s in range(p))


@base_fragment(ops=lambda buckets: _HQ_PARAMS.merge_ops(
    sum(np.size(b) for b in buckets)))
def _ss_merge(buckets):
    return merge_sorted(*buckets)


@functools.lru_cache(maxsize=None)
def sample_sort_expression(p: int):
    """Distributed sample sort over ``p`` processors as one expression.

    ``map merge ∘ redistribution [id, rotate 1 … rotate (p-1)] ∘ imap
    bucket ∘ redistribution [id, id, rotate 1 … rotate (p-1)] ∘ map
    with_samples ∘ map SEQ_QUICKSORT``: local sort, an allgather of the
    regular samples (each rank's sample replicated ``p`` times and
    rotated), splitter selection and bucketing, then the personalised
    all-to-all (component ``s`` rotated by ``s``) and a local merge —
    ``2p(p-1)`` messages.  ``p = 1`` is ``map SEQ_QUICKSORT`` alone.  The
    fragments charge :data:`_HQ_PARAMS`.  Memoised on ``p``.
    """
    from repro.scl import IMap, Id, Map, Redistribute, Rotate, compose_nodes

    if p <= 0:
        raise SkeletonError(f"p must be positive, got {p}")
    if p == 1:
        return Map(seq_quicksort)
    rotations = tuple(Rotate(k) for k in range(1, p))
    return compose_nodes(
        Map(_ss_merge),
        Redistribute((Id(),) + rotations),        # all-to-all of the buckets
        IMap(_SsBucket(p)),
        Redistribute((Id(), Id()) + rotations),   # allgather of the samples
        Map(_SsShareSamples(p)),
        Map(seq_quicksort),
    )


def sample_sort(values: Sequence[float] | np.ndarray, p: int, *,
                executor: Executor | None = None) -> np.ndarray:
    """Distributed sample sort over ``p`` processors (baseline comparator):
    :func:`sample_sort_expression` evaluated over ``p`` blocks."""
    from repro.scl import evaluate

    expr = sample_sort_expression(p)
    out = evaluate(expr, partition(Block(p), np.asarray(values)),
                   executor=executor)
    return np.concatenate([np.asarray(b) for b in out])


def sample_sort_compiled(
    values: Sequence[int] | np.ndarray,
    p: int,
    *,
    spec: MachineSpec = AP1000,
) -> tuple[np.ndarray, RunResult]:
    """:func:`sample_sort_expression` compiled onto a simulated
    ``p``-processor machine, from pre-distributed blocks (as the other
    no-distribution-phase comparators)."""
    from repro.scl.compile import run_expression

    expr = sample_sort_expression(p)
    out, result = run_expression(expr, partition(Block(p), np.asarray(values)),
                                 Machine(p, spec=spec))
    return np.concatenate([np.asarray(b) for b in out]), result
