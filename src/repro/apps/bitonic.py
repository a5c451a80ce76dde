"""Block bitonic sort on a hypercube — baseline comparator for Table 1.

Batcher's bitonic sort is *the* classic hypercube sorting network and the
natural baseline for hyperquicksort (Quinn's textbook, which the paper
cites for hyperquicksort, presents both).  Where hyperquicksort does
``d`` data-dependent split/exchange rounds, bitonic sort does a fixed
``d(d+1)/2`` compare-split rounds, always exchanging *full* blocks — more
communication, perfectly balanced load.  On the simulated AP1000 this
reproduces the textbook result: hyperquicksort wins on uniform random
input, and the gap grows with the number of processors.

The program is one SCL expression, :func:`bitonic_expression`:
``iterFor (d(d+1)/2)`` compare-split rounds, each ``imap compare_split .
align id (fetch (j ^ 2**sub))``, after ``map SEQ_QUICKSORT``.  It has two
renderings, mirroring :mod:`repro.apps.sort`:

* :func:`bitonic_sort` — the expression interpreted over a ParArray,
* :func:`bitonic_sort_compiled` — the expression compiled onto the
  simulated hypercube, returning virtual timing too.

Its fragments charge the default :class:`~repro.apps.sort.SortCostParams`
(``SEQ_QUICKSORT`` and the merge of a compare-split), as the
hyperquicksort expression's do, so the two sorts' timings compare
directly.

Requires ``len(values)`` divisible by ``2**d`` (blocks must stay equal for
the compare-split invariant).
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from repro.apps.sort import SortCostParams, merge_sorted, seq_quicksort
from repro.core import Block, partition
from repro.errors import SkeletonError
from repro.machine import AP1000, Hypercube, Machine, MachineSpec
from repro.machine.simulator import RunResult
from repro.plan.ir import base_fragment

__all__ = ["compare_split", "bitonic_steps", "bitonic_expression",
           "bitonic_sort", "bitonic_sort_compiled"]


def compare_split(mine: np.ndarray, theirs: np.ndarray, keep_low: bool) -> np.ndarray:
    """Merge two equal-length sorted blocks, keep the low or high half."""
    mine, theirs = np.asarray(mine), np.asarray(theirs)
    if mine.size != theirs.size:
        raise SkeletonError(
            f"compare_split needs equal blocks, got {mine.size} and {theirs.size}")
    merged = merge_sorted(mine, theirs)
    return merged[: mine.size] if keep_low else merged[mine.size:]


def bitonic_steps(d: int) -> list[tuple[int, int]]:
    """The (stage, substep) schedule of block bitonic sort on a d-cube.

    Stage ``i`` (0-based) runs substeps ``j = i .. 0``; in substep ``j``
    processor ``r`` compare-splits with partner ``r ^ 2**j``, keeping the
    low half iff bit ``j`` of ``r`` equals bit ``i+1`` of ``r``.
    """
    return [(i, j) for i in range(d) for j in range(i, -1, -1)]


#: The hyperquicksort expression's constants (``seq_quicksort`` charges
#: them too), so the two sorts' timings compare directly.
_SORT_PARAMS = SortCostParams()


def _merge_ops(pair) -> float:
    return _SORT_PARAMS.merge_ops(np.size(pair[0]) + np.size(pair[1]))


@functools.lru_cache(maxsize=None)
def bitonic_expression(d: int):
    """Block bitonic sort on a ``d``-cube as one SCL expression.

    ``iterFor (d(d+1)/2) step . map SEQ_QUICKSORT`` where round ``k`` of
    :func:`bitonic_steps` is ``imap compare_split . align id (fetch (j ^
    2**sub))``.  Memoised on ``d``, so every compile after the first is a
    plan-cache hit.
    """
    from repro.scl import AlignFetch, IMap, IterFor, Map, compose_nodes

    steps = bitonic_steps(d)

    def step(k: int):
        stage, sub = steps[k]
        half = 1 << sub

        @base_fragment(ops=_merge_ops)
        def compare_split_step(r, pair):
            keep_low = ((r >> sub) & 1) == ((r >> (stage + 1)) & 1)
            return compare_split(pair[0], pair[1], keep_low)

        return compose_nodes(IMap(compare_split_step),
                             AlignFetch(lambda j: j ^ half))

    return compose_nodes(IterFor(len(steps), step), Map(seq_quicksort))


def _blocks(values, d: int) -> tuple[np.ndarray, int]:
    values = np.asarray(values)
    p = 1 << d
    if values.size % p != 0:
        raise SkeletonError(
            f"bitonic sort needs len(values) divisible by {p}, got {values.size}")
    return values, p


def bitonic_sort(values: Sequence[float] | np.ndarray, d: int) -> np.ndarray:
    """:func:`bitonic_expression` interpreted on ``2**d`` virtual procs."""
    from repro.scl import evaluate

    values, p = _blocks(values, d)
    out = evaluate(bitonic_expression(d), partition(Block(p), values))
    return np.concatenate(out.to_list())


def bitonic_sort_compiled(
    values: Sequence[int] | np.ndarray,
    d: int,
    *,
    spec: MachineSpec = AP1000,
) -> tuple[np.ndarray, RunResult]:
    """:func:`bitonic_expression` compiled onto the simulated ``d``-cube.

    Data is pre-distributed (no scatter/gather phase) so its timing
    compares against ``hyperquicksort_machine(..., include_distribution=
    False)``.
    """
    from repro.scl.compile import run_expression

    values, p = _blocks(values, d)
    out, res = run_expression(bitonic_expression(d), np.split(values, p),
                              Machine(Hypercube(d), spec=spec))
    return np.concatenate(out), res
