"""Cannon's matrix multiplication on a processor grid.

§2.2 introduces ``rotate_row``/``rotate_col`` as the canonical regular
data-movement skeletons; Cannon's algorithm is *the* program they exist
for, so it serves here as the worked example of 2-D configurations:

* partition ``A`` and ``B`` onto a ``q x q`` grid (``RowColBlock``) and
  align them with a zero ``C`` block,
* skew: rotate row ``i`` of the ``A``-blocks left by ``i`` and column ``j``
  of the ``B``-blocks up by ``j`` (``rotate_row (λi.i)``, ``rotate_col
  (λj.j)``),
* ``q`` steps of: local block multiply-accumulate, then rotate all ``A``
  rows by one and all ``B`` columns by one.

The whole algorithm is one SCL expression, :func:`cannon_expression`: a
composition of configuration skeletons (``redistribution`` moving the
``A`` and ``B`` parts of the aligned triples, ``C`` staying put) and
``iterFor`` — no explicit process or port ever appears, which is the
paper's pitch.  It has two renderings:

* :func:`cannon_matmul` — the expression interpreted over a ParArray,
* :func:`cannon_matmul_compiled` — the expression compiled onto a
  simulated ``q x q`` torus, returning the run's virtual timing too.
"""

from __future__ import annotations

import functools
from concurrent.futures import Executor

import numpy as np

from repro.core import ParArray, RowColBlock, align, parmap, partition
from repro.errors import SkeletonError
from repro.machine import AP1000, Machine, MachineSpec
from repro.machine.simulator import RunResult
from repro.machine.topology import Mesh2D
from repro.plan.ir import base_fragment

__all__ = ["cannon_matmul", "blocked_matmul_seq", "cannon_expression",
           "cannon_matmul_compiled"]

#: Operations per inner-product term (a multiply and an add), charged by
#: :func:`madd`.
_FLOPS_PER_MADD = 2.0


def blocked_matmul_seq(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Sequential reference product (NumPy ``@``)."""
    return np.asarray(A) @ np.asarray(B)


@base_fragment(ops=lambda abc: _FLOPS_PER_MADD * abc[0].shape[0]
               * abc[0].shape[1] * abc[1].shape[1])
def madd(abc):
    """One step on one processor: ``C += A @ B`` on its blocks."""
    a, b, c = abc
    return a, b, c + a @ b


def _one(_index: int) -> int:
    return 1


@functools.lru_cache(maxsize=None)
def cannon_expression(q: int):
    """Cannon's algorithm on a ``q x q`` grid as one SCL expression over
    its ``(A, B, C)`` block triples.

    The skew ``redistribution [rotate_row (λi.i), rotate_col (λj.j), id]``,
    then ``iterFor q``: every step is ``map madd``, and every step but
    the last is followed by ``redistribution [rotate_row (λ_.1),
    rotate_col (λ_.1), id]``.  Memoised on ``q``, so every compile after
    the first is a plan-cache hit.
    """
    from repro.scl import (Id, IterFor, Map, Redistribute, RotateCol,
                           RotateRow, compose_nodes)

    skew = Redistribute((RotateRow(lambda i: i), RotateCol(lambda j: j),
                         Id()))
    step = Map(madd)
    shift = compose_nodes(
        Redistribute((RotateRow(_one), RotateCol(_one), Id())), step)
    return compose_nodes(
        IterFor(q, lambda k: step if k == q - 1 else shift), skew)


def _initial_states(A: np.ndarray, B: np.ndarray, q: int) -> ParArray:
    """The ``q x q`` grid of ``(A, B, 0)`` block triples.  Requires square
    matrices whose order is divisible by ``q`` (each block must be square
    for the block products to compose)."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n) or B.shape != (n, n):
        raise SkeletonError(
            f"Cannon's algorithm requires square same-order matrices, "
            f"got {A.shape}, {B.shape}")
    if q <= 0 or n % q != 0:
        raise SkeletonError(f"matrix order {n} must be divisible by grid size {q}")
    pattern = RowColBlock(q, q)
    da = partition(pattern, A)
    return align(da, partition(pattern, B),
                 parmap(lambda blk: np.zeros_like(np.asarray(blk)), da))


def _product(final: ParArray, q: int) -> np.ndarray:
    """``C`` assembled from the final triples."""
    return np.asarray(RowColBlock(q, q).unsplit(
        final.with_items(lambda _idx, abc: abc[2])))


def cannon_matmul(A: np.ndarray, B: np.ndarray, q: int, *,
                  executor: Executor | None = None) -> np.ndarray:
    """:func:`cannon_expression` interpreted on a ``q x q`` virtual grid."""
    from repro.scl import evaluate

    return _product(evaluate(cannon_expression(q), _initial_states(A, B, q),
                             executor=executor), q)


def cannon_matmul_compiled(
    A: np.ndarray,
    B: np.ndarray,
    q: int,
    *,
    spec: MachineSpec = AP1000,
) -> tuple[np.ndarray, RunResult]:
    """:func:`cannon_expression` compiled onto a simulated ``q x q`` torus.

    The AP1000's physical interconnect was a 2-D torus, which is exactly
    the topology Cannon's algorithm is designed for: after the initial
    skew (one message over up to ``q/2`` hops), every step moves each
    block one hop — all communication is nearest-neighbour.  Returns the
    product (assembled from the per-processor ``C`` blocks off the
    machine) and the run result.
    """
    from repro.scl.compile import run_expression

    final, res = run_expression(cannon_expression(q),
                                _initial_states(A, B, q),
                                Machine(Mesh2D(q, q, torus=True), spec=spec))
    return _product(final, q), res
