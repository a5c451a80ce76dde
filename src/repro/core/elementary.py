"""Elementary skeletons (§2.2): the data-parallel operators.

``parmap`` (the paper's ``map``), ``imap``, ``fold`` and ``scan`` abstract
the essential data-parallel computation patterns over :class:`ParArray`.
``fold`` and ``scan`` demand an *associative* operator ("otherwise the
result is undefined"); both are implemented with order-preserving balanced
combination so any associative — not necessarily commutative — operator is
safe, and so that the work genuinely parallelises over an executor.
"""

from __future__ import annotations

from concurrent.futures import Executor
from typing import Any, Callable, Sequence, TypeVar

from repro.core.pararray import ParArray
from repro.errors import SkeletonError

__all__ = ["parmap", "imap", "fold", "scan", "fold_map", "scan_seq"]

_T = TypeVar("_T")
_U = TypeVar("_U")


def parmap(f: Callable[[Any], Any], pa: ParArray, *,
           executor: Executor | None = None) -> ParArray:
    """Apply ``f`` to every component: ``parmap f <x0..xn> = <f x0 .. f xn>``.

    This is the paper's ``map`` — the broadcast of a parallel task to all
    elements of an array.  Work items are independent, so a pool may
    evaluate them concurrently; result order always follows index order.
    """
    _check_pa(pa, "parmap")
    indices = list(pa.indices())
    values = _map(f, executor, [pa[idx] for idx in indices])
    return ParArray(dict(zip(indices, values)), pa.shape, dist=pa.dist)


def imap(f: Callable[[Any, Any], Any], pa: ParArray, *,
         executor: Executor | None = None) -> ParArray:
    """Index-aware map: ``imap f <x0..xn> = <f 0 x0 .. f n xn>``.

    1-D arrays pass the index as an ``int``; grids pass the index tuple.
    """
    _check_pa(pa, "imap")
    indices = list(pa.indices())
    values = _map(f, executor,
                  [idx[0] if len(idx) == 1 else idx for idx in indices],
                  [pa[idx] for idx in indices])
    return ParArray(dict(zip(indices, values)), pa.shape, dist=pa.dist)


def fold(op: Callable[[Any, Any], Any], pa: ParArray, *,
         executor: Executor | None = None) -> Any:
    """Tree reduction: ``fold (+) <x0..xn> = x0 + x1 + ... + xn``.

    ``op`` must be associative.  Combination happens pairwise in index
    order (a balanced binary tree), so non-commutative associative
    operators (e.g. matrix product, string concatenation) give the same
    result as a left-to-right reduction — in ``O(log n)`` parallel steps.
    """
    _check_pa(pa, "fold")
    values = pa.to_list()
    if not values:
        raise SkeletonError("fold of an empty ParArray is undefined")
    while len(values) > 1:
        reduced = _map(op, executor, values[0::2], values[1::2])
        if len(values) % 2:
            reduced.append(values[-1])
        values = reduced
    return values[0]


def scan(op: Callable[[Any, Any], Any], pa: ParArray, *,
         executor: Executor | None = None,
         blocks: int | None = None) -> ParArray:
    """Inclusive prefix reduction: ``scan (+) <x0,x1,..> = <x0, x0+x1, ..>``.

    Parallel blocked algorithm: components are cut into blocks, each block
    is scanned locally (concurrently), block totals are prefix-combined,
    and each block is offset by the preceding blocks' total.  Requires only
    associativity; results match :func:`scan_seq` exactly.
    """
    _check_pa(pa, "scan")
    if pa.ndim != 1:
        raise SkeletonError(f"scan requires a 1-D ParArray, got shape {pa.shape}")
    values = pa.to_list()
    if not values:
        raise SkeletonError("scan of an empty ParArray is undefined")
    nblocks = blocks if blocks is not None else min(len(values), 8)
    if nblocks <= 1 or len(values) == 1:
        return ParArray(scan_seq(op, values), dist=pa.dist)

    from repro.runtime.chunking import chunk_evenly

    chunks = [c for c in chunk_evenly(values, nblocks) if c]
    local = _map(lambda c: scan_seq(op, list(c)), executor, chunks)
    offsets: list[Any] = [None]
    acc = local[0][-1]
    for blk in local[1:]:
        offsets.append(acc)
        acc = op(acc, blk[-1])
    shifted = _map(
        lambda blk, off: blk if off is None else [op(off, v) for v in blk],
        executor, local, offsets)
    out: list[Any] = []
    for blk in shifted:
        out.extend(blk)
    return ParArray(out, dist=pa.dist)


def scan_seq(op: Callable[[Any, Any], Any], xs: Sequence[Any]) -> list[Any]:
    """Reference sequential inclusive scan over a plain sequence."""
    if not xs:
        return []
    out = [xs[0]]
    for x in xs[1:]:
        out.append(op(out[-1], x))
    return out


def fold_map(op: Callable[[Any, Any], Any], g: Callable[[Any], Any],
             pa: ParArray, *,
             executor: Executor | None = None) -> Any:
    """``fold op . parmap g`` in one call — the parallel side of §4's
    map-distribution law (``foldr (op . g) z`` rewritten to expose
    parallelism)."""
    return fold(op, parmap(g, pa, executor=executor), executor=executor)


def _map(fn: Callable[..., _U], executor: Executor | None,
         *cols: Sequence[Any]) -> list[_U]:
    """``fn`` over the zipped columns, results in input order: in the
    calling thread for ``None``, else through the pool's ``map`` (which
    re-raises a worker's exception with its type)."""
    if executor is None:
        return [fn(*args) for args in zip(*cols)]
    return list(executor.map(fn, *cols))


def _check_pa(pa: Any, who: str) -> None:
    if not isinstance(pa, ParArray):
        raise SkeletonError(f"{who} expects a ParArray, got {type(pa).__name__}")
