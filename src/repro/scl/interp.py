"""Interpreter: the semantics of skeleton expressions.

:func:`evaluate` maps every AST node onto the corresponding core-library
skeleton, so an expression means exactly what the equivalent direct calls
would compute.  The rewrite rules are *verified* against this interpreter:
a rule is sound iff evaluating the rewritten expression gives the same
result as the original on all inputs (the property-based tests sample that
universe).
"""

from __future__ import annotations

from concurrent.futures import Executor
from typing import Any

from repro.core import communication as comm
from repro.core import config as cfg
from repro.core import elementary as elem
from repro.core.pararray import ParArray
from repro.errors import SkeletonError
from repro.scl import nodes as N
from repro.util.functional import foldr

__all__ = ["evaluate"]


def evaluate(node: N.Node, value: Any, *,
             executor: Executor | None = None) -> Any:
    """Evaluate expression ``node`` applied to ``value``.

    ``value`` is usually a :class:`~repro.core.pararray.ParArray`; reduction
    nodes return scalars.  ``executor`` is threaded through to the data-
    parallel core skeletons.
    """
    if isinstance(node, N.Id):
        return value

    if isinstance(node, N.Compose):
        for step in reversed(node.steps):
            value = evaluate(step, value, executor=executor)
        return value

    if isinstance(node, N.Map):
        if isinstance(node.f, N.Node):
            inner = node.f
            return elem.parmap(
                lambda sub: evaluate(inner, sub, executor=executor), value)
        return elem.parmap(node.f, value, executor=executor)

    if isinstance(node, N.IMap):
        return elem.imap(node.f, value, executor=executor)

    if isinstance(node, N.Fold):
        return elem.fold(node.op, value, executor=executor)

    if isinstance(node, N.Scan):
        return elem.scan(node.op, value, executor=executor)

    if isinstance(node, N.FoldrFused):
        items = _as_items(value, "FoldrFused")
        if not items:
            raise SkeletonError("FoldrFused of an empty array is undefined")
        # op(g x0, op(g x1, ... op(g x_{n-2}, g x_{n-1})))
        return foldr(lambda x, acc: node.op(node.g(x), acc),
                     node.g(items[-1]), items[:-1])

    if isinstance(node, N.Rotate):
        return comm.rotate(node.k, value)

    if isinstance(node, N.RotateRow):
        return comm.rotate_row(node.df, value)

    if isinstance(node, N.RotateCol):
        return comm.rotate_col(node.df, value)

    if isinstance(node, N.Fetch):
        return comm.fetch(node.f, value)

    if isinstance(node, N.AlignFetch):
        return cfg.align(value, comm.fetch(node.f, value))

    if isinstance(node, N.PermSend):
        return _perm_send(node.f, value)

    if isinstance(node, N.SendNode):
        return comm.send(node.f, value)

    if isinstance(node, N.Brdcast):
        return comm.brdcast(node.a, value)

    if isinstance(node, N.ApplyBrdcast):
        return comm.apply_brdcast(node.f, node.i, value)

    if isinstance(node, N.Redistribute):
        return cfg.redistribution(
            [None if isinstance(move, N.Id)
             else (lambda da, move=move: evaluate(move, da))
             for move in node.moves], value)

    if isinstance(node, N.Split):
        return cfg.split(node.pattern, value)

    if isinstance(node, N.Combine):
        return cfg.combine(value)

    if isinstance(node, N.Partition):
        return cfg.partition(node.pattern, value)

    if isinstance(node, N.Gather):
        return cfg.gather(value, node.pattern)

    if isinstance(node, N.Farm):
        from repro.core.computational import farm

        return farm(node.f, node.env, value, executor=executor)

    if isinstance(node, N.Spmd):
        for stage in node.stages:
            if stage.local is not None:
                if stage.indexed:
                    value = elem.imap(stage.local, value, executor=executor)
                else:
                    value = elem.parmap(stage.local, value, executor=executor)
            if stage.global_ is not None:
                value = evaluate(stage.global_, value, executor=executor)
        return value

    if isinstance(node, N.IterFor):
        for i in range(node.n):
            value = evaluate(node.body(i), value, executor=executor)
        return value

    raise SkeletonError(f"cannot evaluate unknown node {node!r}")


def _as_items(value: Any, who: str) -> list[Any]:
    if isinstance(value, ParArray):
        if value.ndim != 1:
            raise SkeletonError(f"{who} requires a 1-D array, got shape {value.shape}")
        return value.to_list()
    return list(value)


def _perm_send(f: Any, pa: ParArray) -> ParArray:
    """``out[f(k)] = A[k]``; ``f`` must be a permutation of the index space."""
    if not isinstance(pa, ParArray) or pa.ndim != 1:
        raise SkeletonError("PermSend requires a 1-D ParArray")
    n = pa.shape[0]
    out: dict[tuple[int, ...], Any] = {}
    for k in range(n):
        dst = f(k)
        if not (0 <= dst < n):
            raise SkeletonError(f"PermSend: destination {dst} out of range 0..{n - 1}")
        if (dst,) in out:
            raise SkeletonError(
                f"PermSend: index {dst} receives more than one element — "
                f"the index map is not a permutation")
        out[(dst,)] = pa[k]
    return ParArray(out, (n,), dist=None)
