"""Gauss–Jordan linear solver with partial pivoting — §3's first example.

The paper parallelises ``Ax = b`` by distributing the columns of the
(augmented) matrix and, in each iteration ``i``:

* ``PARTIAL_PIVOT`` — the processor owning column ``i`` searches rows
  ``i..n`` for the entry of largest absolute value and broadcasts the pivot
  row index together with the (swapped) pivot column
  (``applybrdcast PARTIAL_PIVOT_i owner``),
* ``UPDATE`` — every processor uses the broadcast pivot data to swap rows,
  normalise the pivot row and annihilate column ``i`` in all of its local
  columns (``map (UPDATE i)``),

with the main loop written as ``iterFor n elimPivot DA`` — exactly the SCL
program in the paper.  Gauss–Jordan annihilates above *and* below the
pivot, so after ``n`` iterations the solution is simply the augmented
column.

Besides the skeleton program (:func:`gauss_jordan_solve`) this module has
the same algorithm as a sequential reference (:func:`gauss_jordan_seq`) and
as a message-passing program on the simulated machine
(:func:`gauss_jordan_machine`) for scaling studies.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from repro.core import ColBlock, ParArray, apply_brdcast, gather, iter_for, parmap, partition
from repro.errors import SkeletonError
from repro.machine import AP1000, Comm, Machine, MachineSpec, collectives
from repro.machine.simulator import RunResult
from repro.machine.topology import FullyConnected
from repro.runtime.chunking import chunk_indices
from repro.runtime.executor import Executor

__all__ = [
    "gauss_jordan_seq",
    "gauss_jordan_solve",
    "gauss_jordan_expression",
    "gauss_jordan_compiled",
    "GaussCostParams",
    "gauss_jordan_machine",
]


def _partial_pivot(i: int, local_col: np.ndarray) -> tuple[int, np.ndarray]:
    """``PARTIAL_PIVOT``: pick the pivot row for step ``i`` from column ``i``.

    Returns ``(r, c)`` where ``r`` is the chosen row and ``c`` is column
    ``i`` with rows ``i`` and ``r`` already swapped.
    """
    col = np.array(local_col, dtype=float)
    r = i + int(np.argmax(np.abs(col[i:])))
    if col[r] == 0.0:
        raise SkeletonError(f"matrix is singular: no pivot in column {i}")
    col[[i, r]] = col[[r, i]]
    return r, col


def _update(i: int, pivot: tuple[int, np.ndarray], local: np.ndarray) -> np.ndarray:
    """``UPDATE``: swap, normalise and annihilate on one column block."""
    r, c = pivot
    block = np.array(local, dtype=float)
    block[[i, r], :] = block[[r, i], :]
    block[i, :] /= c[i]
    mult = c.copy()
    mult[i] = 0.0
    block -= np.outer(mult, block[i, :])
    return block


def gauss_jordan_seq(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sequential reference: the same algorithm on one 'processor'."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    n = A.shape[0]
    m = np.hstack([A, b.reshape(n, -1)])
    for i in range(n):
        _r, c = _partial_pivot(i, m[:, i])
        m = _update(i, (_r, c), m)
    return m[:, A.shape[1]:].reshape(b.shape)


def gauss_jordan_solve(A: np.ndarray, b: np.ndarray, p: int, *,
                       executor: Executor | str | None = None) -> np.ndarray:
    """Solve ``Ax = b`` with the paper's SCL program on ``p`` processors.

    ``gauss A p = iterFor n elimPivot (partition col_block_p [A|b])`` with
    ``elimPivot i x = map (UPDATE i) (applybrdcast (PARTIAL_PIVOT i)
    owner(i) x)``.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n):
        raise SkeletonError(f"A must be square, got {A.shape}")
    if b.shape[0] != n:
        raise SkeletonError(f"b length {b.shape[0]} does not match A ({n})")
    aug = np.hstack([A, b.reshape(n, -1)])
    pattern = ColBlock(p)
    da = partition(pattern, aug)

    def elim_pivot(i: int, x: ParArray) -> ParArray:
        (owner,), (_row, lcol) = pattern.index_map((0, i), aug.shape)

        def partial_pivot(local_block: np.ndarray) -> tuple[int, np.ndarray]:
            return _partial_pivot(i, np.asarray(local_block)[:, lcol])

        conf = apply_brdcast(partial_pivot, owner, x)
        return parmap(lambda pv_loc: _update(i, pv_loc[0], pv_loc[1]),
                      conf, executor=executor)

    result = iter_for(n, elim_pivot, da)
    solved = np.asarray(gather(ParArray(result.to_list(), dist=pattern)))
    return solved[:, A.shape[1]:].reshape(b.shape)


@functools.lru_cache(maxsize=None)
def gauss_jordan_expression(n: int, p: int, aug_shape: tuple[int, int]):
    """The §3 Gauss–Jordan program as a compilable SCL expression.

    ``iterFor n elimPivot`` over column blocks, with
    ``elimPivot i = map (UPDATE i) . applybrdcast (PARTIAL_PIVOT i) owner``
    — node for node the paper's program.  The expression runs under the
    interpreter and under the SCL compiler (one column block per
    processor), with base-fragment cost annotations for the machine's
    clock.

    Memoised on ``(n, p, aug_shape)``: the ``iterFor`` is keyed by its
    ``body`` closure, so only the *same* expression object makes a second
    compile a plan-cache hit.
    """
    from repro.plan.kernels import stack_uniform, vectorize_fragment
    from repro.scl import ApplyBrdcast, IterFor, Map, compose_nodes
    from repro.scl.compile import base_fragment

    pattern = ColBlock(p)
    params = GaussCostParams()

    def body(i: int):
        (owner,), (_row, lcol) = pattern.index_map((0, i), aug_shape)

        @base_fragment(ops=params.pivot_ops_per_row * (aug_shape[0] - i))
        def partial_pivot(block):
            return _partial_pivot(i, np.asarray(block)[:, lcol])

        @base_fragment(ops=lambda pv_blk: params.update_ops_per_entry
                       * np.asarray(pv_blk[1]).size)
        def update(pv_blk):
            return _update(i, pv_blk[0], pv_blk[1])

        def update_batched(vals):
            # Every rank's value is ``(pivot, block)`` with the *same*
            # broadcast pivot object; the swap/normalise/annihilate
            # arithmetic is elementwise per block, so all p updates run
            # as one broadcasted numpy pass over the stacked blocks.
            first = vals[0][0]
            if not all(v[0] is first for v in vals[1:]):
                return [update(v) for v in vals]  # pragma: no cover
            r, c = first
            mult = c.copy()
            mult[i] = 0.0

            def xform(stacked):
                B = np.array(stacked, dtype=float)
                B[:, [i, r], :] = B[:, [r, i], :]
                B[:, i, :] /= c[i]
                B -= mult[None, :, None] * B[:, i, :][:, None, :]
                return B

            return stack_uniform([v[1] for v in vals], xform)

        def update_ops_all(vals):
            per_entry = params.update_ops_per_entry
            return [float(per_entry * np.asarray(v[1]).size) for v in vals]

        vectorize_fragment(update, update_batched, update_ops_all)
        return compose_nodes(Map(update), ApplyBrdcast(partial_pivot, owner))

    return IterFor(n, body)


def gauss_jordan_compiled(
    A: np.ndarray,
    b: np.ndarray,
    p: int,
    *,
    spec: MachineSpec = AP1000,
    opt="auto",
) -> tuple[np.ndarray, RunResult]:
    """Run the §3 expression through the SCL compiler on the simulator.

    The column-block partition and the final gather bracket the compiled
    iteration, exactly as in :func:`gauss_jordan_solve`.  ``opt`` is the
    plan-optimizer switch of :func:`repro.scl.compile.run_expression`.
    """
    from repro.core import parmap, partition
    from repro.core import gather as cfg_gather
    from repro.core.pararray import ParArray
    from repro.machine.topology import FullyConnected
    from repro.scl.compile import run_expression

    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    n = A.shape[0]
    aug = np.hstack([A, b.reshape(n, -1)])
    pattern = ColBlock(p)
    blocks = partition(pattern, aug)
    machine = Machine(FullyConnected(p), spec=spec)
    expr = gauss_jordan_expression(n, p, aug.shape)
    out, result = run_expression(expr, blocks, machine, opt=opt)
    solved = np.asarray(cfg_gather(ParArray(out.to_list(), dist=pattern)))
    return solved[:, A.shape[1]:].reshape(b.shape), result


@dataclasses.dataclass(frozen=True)
class GaussCostParams:
    """Operation counts for the simulated-machine Gauss–Jordan."""

    update_ops_per_entry: float = 4.0   # multiply-sub + row ops per entry
    pivot_ops_per_row: float = 2.0      # abs + compare in the pivot search


def gauss_jordan_machine(
    A: np.ndarray,
    b: np.ndarray,
    p: int,
    *,
    spec: MachineSpec = AP1000,
    params: GaussCostParams = GaussCostParams(),
) -> tuple[np.ndarray, RunResult]:
    """The hand-compiled message-passing Gauss–Jordan on the simulator.

    Column blocks live on ``p`` processors; each iteration the owner of the
    pivot column broadcasts ``(r, c)`` and everyone updates locally.
    Returns the solution (assembled on processor 0) and the run result
    whose makespan gives the virtual solve time.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    n = A.shape[0]
    aug = np.hstack([A, b.reshape(n, -1)])
    cols = aug.shape[1]
    spans = chunk_indices(cols, p)
    machine = Machine(FullyConnected(p), spec=spec)

    def owner_of(col: int) -> int:
        for k, (lo, hi) in enumerate(spans):
            if lo <= col < hi:
                return k
        raise SkeletonError(f"column {col} out of range")

    def program(env):
        comm = Comm.world(env)
        rank = comm.rank
        lo, hi = spans[rank]
        local = aug[:, lo:hi].copy()
        for i in range(n):
            owner = owner_of(i)
            if rank == owner:
                yield env.work(params.pivot_ops_per_row * (n - i))
                pivot = _partial_pivot(i, local[:, i - lo])
            else:
                pivot = None
            pivot = yield from collectives.bcast(
                comm, pivot, root=owner, nbytes=(n + 1) * spec.word_bytes)
            yield env.work(params.update_ops_per_entry * n * max(hi - lo, 1))
            local = _update(i, pivot, local)
        blocks = yield from collectives.gather(
            comm, local, root=0, nbytes=max(int(local.nbytes), 1))
        if rank == 0:
            return np.hstack(blocks)
        return None

    result = machine.run(program)
    solved = np.asarray(result.values[0])
    return solved[:, A.shape[1]:].reshape(b.shape), result
