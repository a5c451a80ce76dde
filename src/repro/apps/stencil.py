"""Jacobi iteration — the ``iter_until`` + halo-exchange workout.

A 2-D Laplace solve with Dirichlet boundaries: the grid's interior is
repeatedly replaced by the four-neighbour average until the largest update
falls below a tolerance.  Parallel structure in SCL terms:

* the grid is partitioned into row blocks (``RowBlock``),
* each sweep, every block ``fetch``-es its neighbours' boundary rows (the
  halo exchange is two ``fetch`` skeletons, one per direction),
* the sweep itself is a ``parmap`` of the local base-language stencil,
* convergence is a ``fold (max)`` over per-block residuals, driving
  ``iter_until``.
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import Executor

import numpy as np

from repro.core import (
    ParArray,
    RowBlock,
    align,
    fetch,
    fold,
    gather,
    imap,
    iter_until,
    parmap,
    partition,
)
from repro.errors import SkeletonError

__all__ = ["jacobi_seq", "jacobi_solve", "JacobiResult", "JacobiCostParams", "jacobi_machine"]


def _sweep_block(up: np.ndarray, block: np.ndarray, down: np.ndarray,
                 is_top: bool, is_bottom: bool) -> tuple[np.ndarray, float]:
    """One Jacobi sweep of a row block given halo rows; returns residual."""
    rows = np.vstack([up[None, :], block, down[None, :]])
    new = block.copy()
    # interior columns only; global top/bottom rows are fixed boundary
    lo = 1 if is_top else 0
    hi = block.shape[0] - (1 if is_bottom else 0)
    if lo < hi:
        interior = 0.25 * (rows[lo:hi, 1:-1] + rows[lo + 2: hi + 2, 1:-1]
                           + rows[lo + 1: hi + 1, :-2] + rows[lo + 1: hi + 1, 2:])
        new[lo:hi, 1:-1] = interior
    resid = float(np.max(np.abs(new - block))) if block.size else 0.0
    return new, resid


@dataclasses.dataclass(frozen=True)
class JacobiResult:
    """Converged grid plus iteration metadata."""

    grid: np.ndarray
    iterations: int
    residual: float


def jacobi_seq(grid: np.ndarray, *, tol: float = 1e-4,
               max_iter: int = 10_000) -> JacobiResult:
    """Sequential reference Jacobi solve."""
    g = np.array(grid, dtype=float)
    for it in range(max_iter):
        new = g.copy()
        new[1:-1, 1:-1] = 0.25 * (g[:-2, 1:-1] + g[2:, 1:-1]
                                  + g[1:-1, :-2] + g[1:-1, 2:])
        resid = float(np.max(np.abs(new - g)))
        g = new
        if resid < tol:
            return JacobiResult(g, it + 1, resid)
    return JacobiResult(g, max_iter, resid)


def jacobi_solve(grid: np.ndarray, p: int, *, tol: float = 1e-4,
                 max_iter: int = 10_000,
                 executor: Executor | None = None) -> JacobiResult:
    """Parallel Jacobi over ``p`` row blocks, written with SCL skeletons."""
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 2 or min(grid.shape) < 3:
        raise SkeletonError(f"grid must be 2-D and at least 3x3, got {grid.shape}")
    pattern = RowBlock(p)
    da = partition(pattern, grid)
    if any(np.asarray(blk).shape[0] == 0 for blk in da):
        raise SkeletonError(f"{p} row blocks over {grid.shape[0]} rows leaves empty blocks")

    def sweep(state: tuple[ParArray, float, int]) -> tuple[ParArray, float, int]:
        blocks, _resid, it = state
        last_rows = parmap(lambda blk: np.asarray(blk)[-1, :], blocks)
        first_rows = parmap(lambda blk: np.asarray(blk)[0, :], blocks)
        up = fetch(lambda i: max(i - 1, 0), last_rows)      # halo from above
        down = fetch(lambda i: min(i + 1, p - 1), first_rows)  # halo from below
        conf = align(up, blocks, down)
        swept = imap(
            lambda i, ubd: _sweep_block(
                np.asarray(ubd[0]), np.asarray(ubd[1]), np.asarray(ubd[2]),
                is_top=(i == 0), is_bottom=(i == p - 1)),
            conf, executor=executor)
        new_blocks = parmap(lambda br: br[0], swept)
        resid = fold(max, parmap(lambda br: br[1], swept))
        return (ParArray(new_blocks.to_list(), dist=pattern), resid, it + 1)

    def converged(state: tuple[ParArray, float, int]) -> bool:
        _blocks, resid, it = state
        return resid < tol or it >= max_iter

    blocks, resid, iters = iter_until(
        sweep, lambda s: s, converged, (da, float("inf"), 0))
    return JacobiResult(np.asarray(gather(blocks)), iters, resid)


@dataclasses.dataclass(frozen=True)
class JacobiCostParams:
    """Operation counts for the machine-level Jacobi sweep."""

    stencil_ops_per_cell: float = 6.0   # 4 adds, 1 mul, 1 diff per cell
    norm_ops_per_cell: float = 2.0


def jacobi_machine(grid: np.ndarray, p: int, *, tol: float = 1e-4,
                   max_iter: int = 10_000,
                   spec=None,
                   params: JacobiCostParams = JacobiCostParams()):
    """The message-passing Jacobi solve on the simulated machine.

    Row blocks on a ring of ``p`` processors: every sweep exchanges halo
    rows with both neighbours, applies the local stencil (charged per
    cell), and agrees on convergence with an ``allreduce (max)`` of the
    per-block residuals — the machine rendering of ``iter_until``'s
    global condition.  Returns a :class:`JacobiResult` and the run result.
    """
    from repro.machine import AP1000, Comm, Machine, collectives
    from repro.machine.topology import Ring
    from repro.runtime.chunking import chunk_indices

    if spec is None:
        spec = AP1000
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 2 or min(grid.shape) < 3:
        raise SkeletonError(f"grid must be 2-D and at least 3x3, got {grid.shape}")
    spans = chunk_indices(grid.shape[0], p)
    if any(hi == lo for lo, hi in spans):
        raise SkeletonError(f"{p} row blocks over {grid.shape[0]} rows leaves empty blocks")
    machine = Machine(Ring(p) if p > 1 else 1, spec=spec)

    def program(env):
        comm = Comm.world(env)
        rank = comm.rank
        lo, hi = spans[rank]
        block = grid[lo:hi].copy()
        row_bytes = max(int(block[0].nbytes), 1)
        iterations = 0
        resid = float("inf")
        while resid >= tol and iterations < max_iter:
            # halo exchange with ring neighbours (boundary blocks reuse
            # their own edge rows, matching the skeleton version)
            if p > 1:
                tag = 2 * iterations
                if rank > 0:
                    yield comm.send(rank - 1, block[0], tag=tag,
                                    nbytes=row_bytes)
                if rank < p - 1:
                    yield comm.send(rank + 1, block[-1], tag=tag + 1,
                                    nbytes=row_bytes)
                up = block[0]
                down = block[-1]
                if rank > 0:
                    msg = yield comm.recv(rank - 1, tag=tag + 1)
                    up = np.asarray(msg.payload)
                if rank < p - 1:
                    msg = yield comm.recv(rank + 1, tag=tag)
                    down = np.asarray(msg.payload)
            else:
                up, down = block[0], block[-1]
            yield env.work(params.stencil_ops_per_cell * block.size)
            new, local_resid = _sweep_block(
                np.asarray(up), block, np.asarray(down),
                is_top=(rank == 0), is_bottom=(rank == p - 1))
            yield env.work(params.norm_ops_per_cell * block.size)
            block = new
            if p > 1:
                resid = yield from collectives.allreduce(comm, local_resid, max)
            else:
                resid = local_resid
            iterations += 1
        return (block, iterations, resid)

    res = machine.run(program)
    blocks = [np.asarray(v[0]) for v in res.values]
    iterations = res.values[0][1]
    resid = res.values[0][2]
    return JacobiResult(np.concatenate(blocks, axis=0), iterations, resid), res
