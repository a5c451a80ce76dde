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

The program is one SCL expression, :func:`gauss_jordan_expression`,
with two renderings: :func:`gauss_jordan_solve` interprets it over a
ParArray of column blocks, and :func:`gauss_jordan_compiled` compiles it
onto the simulated machine for scaling studies.  The column-block
partition and the final gather bracket the expression in both.
:func:`gauss_jordan_seq` is the same algorithm on one processor (the
reference).
"""

from __future__ import annotations

import functools
import itertools
from concurrent.futures import Executor

import numpy as np

from repro.core import ColBlock, partition
from repro.errors import SkeletonError
from repro.machine import AP1000, Machine, MachineSpec
from repro.machine.simulator import RunResult
from repro.machine.topology import FullyConnected

__all__ = [
    "gauss_jordan_seq",
    "gauss_jordan_solve",
    "gauss_jordan_expression",
    "gauss_jordan_compiled",
]

#: Operations per row of the ``PARTIAL_PIVOT`` search (abs + compare).
_PIVOT_OPS_PER_ROW = 2.0
#: Operations per matrix entry of ``UPDATE`` (multiply-sub + row ops).
_UPDATE_OPS_PER_ENTRY = 4.0


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


def _augment(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``[A|b]``, once ``A`` is square and ``b`` has a row per row of ``A``."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise SkeletonError(f"A must be square, got {A.shape}")
    n = A.shape[0]
    if b.ndim == 0 or b.shape[0] != n:
        raise SkeletonError(f"b of shape {b.shape} does not match A ({n})")
    return np.hstack([A, b.reshape(n, -1)])


def _solution(aug: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The solved augmented columns, in the shape of ``b``."""
    return aug[:, aug.shape[0]:].reshape(np.shape(b))


def gauss_jordan_seq(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sequential reference: the same algorithm on one 'processor'."""
    m = _augment(A, b)
    for i in range(m.shape[0]):
        m = _update(i, _partial_pivot(i, m[:, i]), m)
    return _solution(m, b)


def gauss_jordan_solve(A: np.ndarray, b: np.ndarray, p: int, *,
                       executor: Executor | None = None) -> np.ndarray:
    """Solve ``Ax = b`` with the paper's SCL program on ``p`` processors.

    ``gauss A p = iterFor n elimPivot (partition col_block_p [A|b])``:
    :func:`gauss_jordan_expression` interpreted, with ``executor`` running
    the ``map (UPDATE i)`` of every iteration.
    """
    from repro.scl import evaluate

    aug = _augment(A, b)
    expr = gauss_jordan_expression(aug.shape[0], p, aug.shape)
    out = evaluate(expr, partition(ColBlock(p), aug), executor=executor)
    return _solution(np.concatenate(out.to_list(), axis=1), b)


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
    from repro.plan.kernels import vectorize_fragment
    from repro.scl import ApplyBrdcast, IterFor, Map, compose_nodes
    from repro.scl.compile import base_fragment

    pattern = ColBlock(p)

    def body(i: int):
        (owner,), (_row, lcol) = pattern.index_map((0, i), aug_shape)

        @base_fragment(ops=_PIVOT_OPS_PER_ROW * (aug_shape[0] - i))
        def partial_pivot(block):
            return _partial_pivot(i, np.asarray(block)[:, lcol])

        @base_fragment(ops=lambda pv_blk: _UPDATE_OPS_PER_ENTRY
                       * np.asarray(pv_blk[1]).size)
        def update(pv_blk):
            return _update(i, pv_blk[0], pv_blk[1])

        def update_batched(vals):
            # Every rank's value is ``(pivot, block)``, and the ranks of
            # one copy share one broadcast pivot object.  The swap,
            # normalise and annihilate are elementwise per column, so
            # each run of ranks sharing a pivot is one pass per copy
            # over the whole matrix, whatever the block widths, and
            # each rank gets its own columns back.  Blocks that do not
            # concatenate into that matrix take the per-rank form,
            # which raises its own error.
            out = []
            for _, run in itertools.groupby(vals, lambda v: id(v[0])):
                run = list(run)
                r, c = run[0][0]
                blocks = [np.asarray(v[1]) for v in run]
                try:
                    m = np.concatenate(blocks, axis=1, dtype=float,
                                       casting="unsafe")
                except (TypeError, ValueError):
                    m = None
                if m is None or m.ndim != 2 or len(m) != len(c):
                    out += [update(v) for v in run]
                    continue
                if r != i:  # swapping row i with itself moves no bit
                    m[[i, r], :] = m[[r, i], :]
                m[i, :] /= c[i]
                mult = c.copy()
                mult[i] = 0.0
                m -= np.outer(mult, m[i, :])
                lo = 0
                for b in blocks:
                    hi = lo + b.shape[1]
                    out.append(m[:, lo:hi])
                    lo = hi
            return out

        def update_ops_all(vals):
            return [float(_UPDATE_OPS_PER_ENTRY * np.asarray(v[1]).size)
                    for v in vals]

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
    iteration off the machine, exactly as in :func:`gauss_jordan_solve`,
    so the run prices the ``n`` pivot broadcasts and updates alone.
    ``opt`` is the plan-optimizer switch of
    :func:`repro.scl.compile.run_expression`.
    """
    from repro.scl.compile import run_expression

    aug = _augment(A, b)
    expr = gauss_jordan_expression(aug.shape[0], p, aug.shape)
    out, result = run_expression(expr, partition(ColBlock(p), aug),
                                 Machine(FullyConnected(p), spec=spec),
                                 opt=opt)
    return _solution(np.concatenate(out.to_list(), axis=1), b), result
