"""Hyperquicksort — the paper's flagship example (§3, §5, Table 1, Fig. 2/3).

Renderings of the same algorithm, each at a different point of the paper's
pipeline:

1. :func:`hyperquicksort` — the **recursive nested-parallel SCL program**
   of §3: pivot broadcast (``apply_brdcast``), split, partner exchange
   (``fetch`` over the hypercube partner map), merge, then ``split`` the
   cube into sub-cubes and recurse in parallel, ``combine`` at the end.
2. :func:`hyperquicksort_flat` — the **flattened iterative SPMD program**
   of §5 (what the paper derives by transformation before hand-compiling):
   ``iterFor d step`` over the distributed array, with pivot distribution
   expressed as a ``fetch`` from each sub-cube's leader.
3. :func:`hyperquicksort_machine` — the **hand-compiled message-passing
   program** running on the simulated AP1000: real data, real messages,
   virtual time.  This regenerates Table 1 and Figure 3.
   :func:`hyperquicksort_machine_nested` is its §3-faithful sibling,
   recursing on communicator splits instead of iterating — measured to be
   runtime-identical, which is why the paper could flatten for free.
4. :func:`hyperquicksort_expression` / :func:`hyperquicksort_compiled` —
   the §5 program as a **pure skeleton expression**, run through the SCL
   compiler onto the machine.
5. :func:`hyperquicksort_trace` — instrumented variant recording
   per-processor contents after every stage, reproducing Figure 2's
   (a)–(h) progression.

Distributed **sample sort** (:func:`sample_sort`,
:func:`sample_sort_machine`) is included as a comparator, plus sequential
references; the bitonic baseline lives in :mod:`repro.apps.bitonic`.

The base-language fragments (``SEQ_QUICKSORT``, ``MIDVALUE``, ``SPLIT``,
``MERGE``) are plain NumPy procedures, exactly as the paper keeps them
opaque Fortran/C code.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Sequence

import numpy as np

from repro.core import (
    Block,
    ParArray,
    align,
    apply_brdcast,
    combine,
    fetch,
    gather,
    imap,
    iter_for,
    parmap,
    partition,
    split,
)
from repro.errors import SkeletonError
from repro.machine import AP1000, Comm, Hypercube, Machine, MachineSpec, collectives
from repro.machine.simulator import RunResult
from repro.plan.ir import base_fragment
from repro.plan.kernels import vectorize_fragment
from repro.runtime.chunking import chunk_indices
from repro.runtime.executor import Executor

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
    "hyperquicksort_machine_nested",
    "hyperquicksort_expression",
    "hyperquicksort_compiled",
    "sequential_sort_machine",
    "sample_sort",
    "sample_sort_machine",
]


# --------------------------------------------------------------------------
# Base-language fragments (the paper's omitted Fortran/C procedures)
# --------------------------------------------------------------------------

def seq_quicksort(a: np.ndarray) -> np.ndarray:
    """``SEQ_QUICKSORT``: sort a local array (NumPy introsort)."""
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


def merge_sorted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``MERGE``: merge two sorted arrays into one sorted array."""
    a, b = np.asarray(a), np.asarray(b)
    if a.size == 0:
        return b.copy()
    if b.size == 0:
        return a.copy()
    out = np.concatenate([a, b])
    out.sort(kind="mergesort")  # stable two-run merge
    return out


# --------------------------------------------------------------------------
# 1. Recursive nested-parallel SCL program (§3)
# --------------------------------------------------------------------------

def _exchange_step(dim: int, da: ParArray) -> ParArray:
    """One pivot/split/exchange/merge step on a ``2**dim``-cube ParArray.

    Mirrors the paper's composition: ``map MERGE . exPart d . wpivot d``
    with the partner map ``myPart i = xor(i, 2^(d-1))``.
    """
    half = 1 << (dim - 1)
    conf = apply_brdcast(midvalue, 0, da)  # spreadPivot: (pivot, local) pairs
    low_high = parmap(lambda pv_loc: split_by_pivot(pv_loc[0], pv_loc[1]), conf)
    # lower-half processors keep the low part and send the high part;
    # upper-half processors keep high, send low (Fig. 2 (d)/(f))
    kept = imap(lambda i, lh: lh[0] if i & half == 0 else lh[1], low_high)
    to_send = imap(lambda i, lh: lh[1] if i & half == 0 else lh[0], low_high)
    received = fetch(lambda i: i ^ half, to_send)  # fetchPartner
    return parmap(lambda kr: merge_sorted(kr[0], kr[1]), align(kept, received))


def _hsort(da: ParArray, dim: int, *, executor: Executor | str | None) -> ParArray:
    """The recursive ``hsort``: exchange, then recurse on both sub-cubes."""
    if dim == 0:
        return da
    merged = _exchange_step(dim, da)
    sub_cubes = split(Block(2), merged)  # mergeAndDiv's division step
    sorted_subs = parmap(
        lambda cube: _hsort(cube, dim - 1, executor=None),
        sub_cubes, executor=executor)
    return combine(sorted_subs)


def hyperquicksort(values: Sequence[float] | np.ndarray, d: int, *,
                   executor: Executor | str | None = None) -> np.ndarray:
    """Sort ``values`` on a simulated ``d``-dimensional hypercube (§3).

    ``hypersort A d = gather (hsort d (map SEQ_QUICKSORT (partition block
    2^d A)))``.  Nested parallelism: after each exchange the cube splits
    into two sub-cubes sorted recursively (and, with an executor,
    concurrently).
    """
    values = np.asarray(values)
    p = 1 << d
    da = parmap(seq_quicksort, partition(Block(p), values), executor=executor)
    sorted_da = _hsort(da, d, executor=executor)
    return np.asarray(gather(ParArray(sorted_da.to_list(), dist=Block(p))))


# --------------------------------------------------------------------------
# 2. Flattened iterative SPMD program (§5)
# --------------------------------------------------------------------------

def hyperquicksort_flat(values: Sequence[float] | np.ndarray, d: int, *,
                        executor: Executor | str | None = None) -> np.ndarray:
    """The transformation-derived flat program: ``iterfor d step DA``.

    Each ``step i`` works on sub-cubes of dimension ``d - i``: the pivot
    travels by ``fetch (mf d')`` from each sub-cube's leader
    (``mf d' j = floor(j / 2^d') * 2^d'``) and the partner exchange uses
    ``mypartner j = xor(j, 2^(d'-1))`` — the exact index functions of the
    paper's flattened code.
    """
    values = np.asarray(values)
    p = 1 << d
    da = parmap(seq_quicksort, partition(Block(p), values), executor=executor)

    def step(i: int, x: ParArray) -> ParArray:
        dim = d - i          # the paper's d' = d - i
        sub = 1 << dim
        half = sub >> 1
        # wpivot: align x with pivots fetched from each sub-cube leader
        pivots = fetch(lambda j: (j // sub) * sub, parmap(midvalue, x))
        conf = align(pivots, x)
        low_high = parmap(
            lambda pv_loc: split_by_pivot(pv_loc[0], pv_loc[1]), conf,
            executor=executor)
        kept = imap(lambda j, lh: lh[0] if j & half == 0 else lh[1], low_high)
        to_send = imap(lambda j, lh: lh[1] if j & half == 0 else lh[0], low_high)
        received = fetch(lambda j: j ^ half, to_send)  # getpartner
        return parmap(lambda kr: merge_sorted(kr[0], kr[1]),
                      align(kept, received), executor=executor)

    sorted_da = iter_for(d, step, da)
    return np.asarray(gather(ParArray(sorted_da.to_list(), dist=Block(p))))


# --------------------------------------------------------------------------
# 3. Figure 2 stage tracer
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
    """Run the flat algorithm recording Figure 2's stage-by-stage states.

    Snapshot labels follow the figure: the initial unsorted vector on p0
    (a), the distributed+locally-sorted state (b/c), then per-iteration
    post-exchange (d/f) and post-merge (e/g) states, and the final gather
    to p0 (h).
    """
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
    for i in range(d):
        dim = d - i
        sub = 1 << dim
        half = sub >> 1
        pivots = fetch(lambda j: (j // sub) * sub, parmap(midvalue, da))
        low_high = parmap(lambda pv_loc: split_by_pivot(pv_loc[0], pv_loc[1]),
                          align(pivots, da))
        kept = imap(lambda j, lh: lh[0] if j & half == 0 else lh[1], low_high)
        to_send = imap(lambda j, lh: lh[1] if j & half == 0 else lh[0], low_high)
        received = fetch(lambda j: j ^ half, to_send)
        snap(f"iter{i}-exchanged",
             parmap(lambda kr: np.concatenate([np.asarray(kr[0]), np.asarray(kr[1])]),
                    align(kept, received)))
        da = parmap(lambda kr: merge_sorted(kr[0], kr[1]), align(kept, received))
        snap(f"iter{i}-merged", da)
    final = np.asarray(gather(ParArray(da.to_list(), dist=Block(p))))
    snap("gathered-on-p0",
         ParArray([final] + [np.asarray([])] * (p - 1)))
    return snaps


# --------------------------------------------------------------------------
# 4. Machine-level program (the hand compilation of §5) — Table 1 / Fig. 3
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
    if include_distribution and p > 1:
        sorted_values = result.values[0]
    elif p == 1:
        sorted_values = result.values[0]
    else:
        sorted_values = np.concatenate([np.asarray(v) for v in result.values])
    return np.asarray(sorted_values), result


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


def hyperquicksort_machine_nested(
    values: Sequence[int] | np.ndarray,
    d: int,
    *,
    spec: MachineSpec = AP1000,
    params: SortCostParams = SortCostParams(),
) -> tuple[np.ndarray, RunResult]:
    """The §3 *nested* program on the machine: recursion on sub-groups.

    Where :func:`hyperquicksort_machine` runs the §5 flattened iteration,
    this version keeps the paper's recursive structure: after each
    exchange the communicator **splits** into two half-cube groups
    (``combine . map (hsort (d-1)) . split``) and the recursion continues
    inside each group — nested parallelism mapped to MPI-style groups
    exactly as §2.1 prescribes.  Results and per-processor contents match
    the flat version; the measured times quantify what flattening buys
    (slightly fewer, cheaper group-relative operations and no recursive
    communicator bookkeeping).
    """
    values = np.asarray(values)
    p = 1 << d
    machine = Machine(Hypercube(d), spec=spec)
    blocks = [values[lo:hi] for lo, hi in chunk_indices(len(values), p)]
    word = values.dtype.itemsize

    def hsort(env, cube, local, dim):
        if dim == 0:
            return local
        half = 1 << (dim - 1)
        if cube.rank == 0:
            yield env.work(params.median_ops)
            pivot = midvalue(local)
        else:
            pivot = None
        pivot = yield from collectives.bcast(cube, pivot, root=0, nbytes=word)
        yield env.work(params.split_ops(local.size))
        low, high = split_by_pivot(pivot, local)
        keep, send_part = (low, high) if cube.rank & half == 0 else (high, low)
        partner = cube.rank ^ half
        yield cube.send(partner, send_part, tag=100 + dim,
                        nbytes=max(int(send_part.nbytes), 1))
        msg = yield cube.recv(partner, tag=100 + dim)
        recv_part = np.asarray(msg.payload)
        yield env.work(params.merge_ops(keep.size + recv_part.size))
        local = merge_sorted(keep, recv_part)
        # split the cube into two half-cube groups and recurse inside
        sub = cube.split(lambda r, half=half: r // half)
        local = yield from hsort(env, sub, local, dim - 1)
        return local

    def program(env):
        comm = Comm.world(env)
        local = np.asarray(blocks[comm.rank])
        yield env.work(params.sort_ops(local.size))
        local = seq_quicksort(local)
        local = yield from hsort(env, comm, local, d)
        return local

    res = machine.run(program)
    return np.concatenate([np.asarray(v) for v in res.values]), res


# --------------------------------------------------------------------------
# 5. Hyperquicksort as a compilable SCL expression
# --------------------------------------------------------------------------

#: Cost parameters for the module-level expression fragments below (one
#: set of top-level callables shared by the expressions of every ``d``).
_HQ_PARAMS = SortCostParams()


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
    evaluated once at lowering time.

    Memoised on ``d``: repeated calls return the *same* expression object,
    so every compile after the first is a plan-cache hit (plans are keyed
    by the expression).
    """
    from repro.scl import AlignFetch, IMap, IterFor, Map, compose_nodes

    def step(i):
        dim = d - i
        sub = 1 << dim
        half = sub >> 1
        return compose_nodes(
            Map(_hq_merge_pair),
            IMap(_HqSelect(half)),
            AlignFetch(lambda j, half=half: j ^ half),   # getpartner
            Map(_hq_split_on_leader_median),
            AlignFetch(lambda j, sub=sub: (j // sub) * sub),  # wpivot
        )

    return IterFor(d, step)


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
# 6. Sample sort baseline (extension)
# --------------------------------------------------------------------------

def sample_sort(values: Sequence[float] | np.ndarray, p: int, *,
                oversample: int = 8,
                executor: Executor | str | None = None,
                rng: np.random.Generator | None = None) -> np.ndarray:
    """Distributed sample sort over ``p`` processors (baseline comparator).

    Classic structure: local sort, regular sampling, splitter selection,
    all-to-all bucket exchange (expressed with the ``send`` skeleton's
    accumulate-vector semantics), local merge, concatenate.
    """
    values = np.asarray(values)
    if p <= 0:
        raise SkeletonError(f"p must be positive, got {p}")
    if values.size == 0:
        return values.copy()
    da = parmap(seq_quicksort, partition(Block(p), values), executor=executor)
    # regular sampling: up to `oversample` evenly-spaced samples per part
    def sample(a: np.ndarray) -> np.ndarray:
        a = np.asarray(a)
        if a.size == 0:
            return a
        k = min(oversample, a.size)
        idx = np.linspace(0, a.size - 1, k).astype(int)
        return a[idx]

    samples = np.sort(np.concatenate([np.asarray(s) for s in parmap(sample, da)]))
    splitter_idx = np.linspace(0, samples.size - 1, p + 1).astype(int)[1:-1]
    splitters = samples[splitter_idx]
    # bucket the local data; route bucket b of every source to processor b.
    # The p*p chunks form a ParArray on which the irregular `send` skeleton
    # performs the all-to-all: chunk k belongs to destination k mod p.
    buckets = parmap(lambda a: [np.asarray(chunk) for chunk in
                                np.split(np.asarray(a), np.searchsorted(a, splitters))],
                     da)
    flat = [chunk for src in range(p) for chunk in buckets[src]]
    from repro.core import send

    arrived = send(lambda k: [k % p], ParArray(flat))
    merged = [np.sort(np.concatenate([np.asarray(c) for c in arrived[i]]))
              if arrived[i] else np.asarray([], dtype=values.dtype)
              for i in range(p)]
    return np.concatenate(merged)


def sample_sort_machine(
    values: Sequence[int] | np.ndarray,
    p: int,
    *,
    spec: MachineSpec = AP1000,
    params: SortCostParams = SortCostParams(),
    oversample: int = 8,
) -> tuple[np.ndarray, RunResult]:
    """Distributed sample sort on the simulated machine (third comparator).

    The all-to-all bucket exchange makes this the communication-heavy
    contrast to hyperquicksort's ``d`` pairwise exchanges: one round of
    ``p(p-1)`` messages moving (on average) all data once.  Data starts
    pre-distributed block-wise, as in the other no-distribution-phase
    comparators.
    """
    values = np.asarray(values)
    if p <= 0:
        raise SkeletonError(f"p must be positive, got {p}")
    machine = Machine(p, spec=spec)
    spans = chunk_indices(len(values), p)

    def program(env):
        comm = Comm.world(env)
        rank = comm.rank
        lo, hi = spans[rank]
        local = np.asarray(values[lo:hi])
        yield env.work(params.sort_ops(local.size))
        local = seq_quicksort(local)
        if p == 1:
            return local
        # regular sampling + allgather + splitter selection (everywhere)
        k = min(oversample, max(local.size, 1))
        idx = np.linspace(0, max(local.size - 1, 0), k).astype(int)
        sample = local[idx] if local.size else local
        samples = yield from collectives.allgather(
            comm, sample, nbytes=max(int(np.asarray(sample).nbytes), 1))
        pool = np.sort(np.concatenate([np.asarray(s) for s in samples]))
        yield env.work(params.sort_ops(pool.size))
        cut = np.linspace(0, max(pool.size - 1, 0), p + 1).astype(int)[1:-1]
        splitters = pool[cut] if pool.size else pool
        # bucket local data and exchange all-to-all
        yield env.work(params.split_ops(max(local.size, 1)) * p)
        buckets = np.split(local, np.searchsorted(local, splitters))
        got = yield from collectives.alltoall(
            comm, buckets,
            nbytes=max(int(local.nbytes) // p, 1))
        pieces = [np.asarray(b) for b in got]
        total = sum(b.size for b in pieces)
        yield env.work(params.merge_ops(total))
        merged = np.sort(np.concatenate(pieces)) if total else \
            np.asarray([], dtype=values.dtype)
        return merged

    res = machine.run(program)
    out = np.concatenate([np.asarray(v) for v in res.values])
    return out, res
