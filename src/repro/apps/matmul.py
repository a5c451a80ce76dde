"""Cannon's matrix multiplication on a processor grid.

§2.2 introduces ``rotate_row``/``rotate_col`` as the canonical regular
data-movement skeletons; Cannon's algorithm is *the* program they exist
for, so it serves here as the worked example of 2-D configurations:

* partition ``A`` and ``B`` onto a ``q x q`` grid (``RowColBlock``),
* skew: rotate row ``i`` of the ``A``-blocks left by ``i`` and column ``j``
  of the ``B``-blocks up by ``j`` (``rotate_row (λi.i)``, ``rotate_col
  (λj.j)``),
* ``q`` steps of: local block multiply-accumulate, then rotate all ``A``
  rows by one and all ``B`` columns by one.

The whole algorithm is a composition of configuration skeletons
(``distribution``), communication skeletons (the rotations) and ``iter_for``
— no explicit process or port ever appears, which is the paper's pitch.
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import Executor

import numpy as np

from repro.core import (
    ParArray,
    RowColBlock,
    align,
    gather,
    iter_for,
    parmap,
    partition,
    rotate_col,
    rotate_row,
    unalign,
)
from repro.errors import SkeletonError
from repro.machine import AP1000, Machine, MachineSpec
from repro.machine.simulator import RunResult
from repro.machine.topology import Mesh2D

__all__ = ["cannon_matmul", "blocked_matmul_seq", "CannonCostParams",
           "cannon_matmul_machine"]


def blocked_matmul_seq(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Sequential reference product (NumPy ``@``)."""
    return np.asarray(A) @ np.asarray(B)


def cannon_matmul(A: np.ndarray, B: np.ndarray, q: int, *,
                  executor: Executor | None = None) -> np.ndarray:
    """Multiply ``A @ B`` on a ``q x q`` virtual-processor grid.

    Requires square matrices whose order is divisible by ``q`` (each block
    must be square for the block products to compose).
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n) or B.shape != (n, n):
        raise SkeletonError(
            f"cannon_matmul requires square same-order matrices, got {A.shape}, {B.shape}")
    if q <= 0 or n % q != 0:
        raise SkeletonError(f"matrix order {n} must be divisible by grid size {q}")

    pattern = RowColBlock(q, q)
    da = rotate_row(lambda i: i, partition(pattern, A))   # initial skew
    db = rotate_col(lambda j: j, partition(pattern, B))
    dc = parmap(lambda blk: np.zeros_like(np.asarray(blk)), partition(pattern, A))

    def step(_k: int, state: ParArray) -> ParArray:
        a, b, c = unalign(state)
        c = parmap(lambda abc: abc[2] + np.asarray(abc[0]) @ np.asarray(abc[1]),
                   align(a, b, c), executor=executor)
        return align(rotate_row(lambda _i: 1, a), rotate_col(lambda _j: 1, b), c)

    final = iter_for(q, step, align(da, db, dc))
    c_blocks = unalign(final, 2)
    return np.asarray(gather(ParArray(
        {idx: c_blocks[idx] for idx in c_blocks.indices()},
        c_blocks.shape, dist=pattern)))


@dataclasses.dataclass(frozen=True)
class CannonCostParams:
    """Operation counts for the machine-level Cannon multiply."""

    flops_per_madd: float = 2.0  # multiply + add per inner-product term


def cannon_matmul_machine(
    A: np.ndarray,
    B: np.ndarray,
    q: int,
    *,
    spec: MachineSpec = AP1000,
    params: CannonCostParams = CannonCostParams(),
    torus: bool = True,
) -> tuple[np.ndarray, RunResult]:
    """Cannon's algorithm on a simulated ``q x q`` processor torus.

    The AP1000's physical interconnect was a 2-D torus, which is exactly
    the topology Cannon's algorithm is designed for: after the initial
    skew (one message over up to ``q/2`` hops), every round moves each
    block one hop — all communication is nearest-neighbour.  Returns the
    product (assembled from the per-processor C blocks) and the run
    result.
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n) or B.shape != (n, n):
        raise SkeletonError(
            f"cannon_matmul_machine requires square same-order matrices, "
            f"got {A.shape}, {B.shape}")
    if q <= 0 or n % q != 0:
        raise SkeletonError(f"matrix order {n} must be divisible by grid size {q}")
    mesh = Mesh2D(q, q, torus=torus)
    machine = Machine(mesh, spec=spec)
    m = n // q
    pattern = RowColBlock(q, q)
    blocks_a = pattern.split(A)
    blocks_b = pattern.split(B)

    def program(env):
        i, j = mesh.coords(env.pid)
        a = np.array(np.asarray(blocks_a[(i, j)]))
        b = np.array(np.asarray(blocks_b[(i, j)]))
        c = np.zeros((m, m))
        nbytes = max(int(a.nbytes), 1)
        if q > 1:
            # initial skew: A_ij -> (i, j - i), B_ij -> (i - j, j)
            a_dst = mesh.node_at(i, (j - i) % q)
            b_dst = mesh.node_at((i - j) % q, j)
            if a_dst != env.pid:
                yield env.send(a_dst, a, tag=9001, nbytes=nbytes)
            if b_dst != env.pid:
                yield env.send(b_dst, b, tag=9002, nbytes=nbytes)
            a_src = mesh.node_at(i, (j + i) % q)
            b_src = mesh.node_at((i + j) % q, j)
            if a_src != env.pid:
                msg = yield env.recv(a_src, tag=9001)
                a = np.asarray(msg.payload)
            if b_src != env.pid:
                msg = yield env.recv(b_src, tag=9002)
                b = np.asarray(msg.payload)
        left = mesh.node_at(i, (j - 1) % q)
        right = mesh.node_at(i, (j + 1) % q)
        up = mesh.node_at((i - 1) % q, j)
        down = mesh.node_at((i + 1) % q, j)
        for k in range(q):
            yield env.work(params.flops_per_madd * m * m * m)
            c = c + a @ b
            if q > 1 and k < q - 1:
                yield env.send(left, a, tag=2 * k + 10, nbytes=nbytes)
                yield env.send(up, b, tag=2 * k + 11, nbytes=nbytes)
                msg = yield env.recv(right, tag=2 * k + 10)
                a = np.asarray(msg.payload)
                msg = yield env.recv(down, tag=2 * k + 11)
                b = np.asarray(msg.payload)
        return c

    res = machine.run(program)
    c_blocks = ParArray(
        {(i, j): res.values[mesh.node_at(i, j)] for i in range(q) for j in range(q)},
        (q, q), dist=pattern)
    return np.asarray(pattern.unsplit(c_blocks)), res
