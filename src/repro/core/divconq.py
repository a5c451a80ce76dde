"""The divide-and-conquer skeleton.

The paper notes that "more sophisticated combining forms such as
divide-and-conquer can be defined and implemented ... and preserved as
reusable templates"; ``dc`` is that template, the classic fourth member of
the algorithmic-skeleton canon (Cole 1989):

    dc(trivial, solve, divide, combine)(problem)
      = solve(problem)                                  if trivial(problem)
      = combine(map (dc ...) (divide(problem)))         otherwise

Parallelisation strategy (grain control — the paper's "full control over
granularity"): the division tree is expanded in the calling thread down to
``fork_levels``; the resulting frontier of independent sub-problems is
solved in **one** pool ``map`` (no nested pool usage, so bounded
thread pools cannot starve); results are combined back up the recorded
tree.  The result is identical to the fully sequential recursion.
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import Executor
from typing import Any, Callable, Sequence, TypeVar

from repro.errors import SkeletonError

__all__ = ["divide_and_conquer"]

_P = TypeVar("_P")
_S = TypeVar("_S")


@dataclasses.dataclass
class _TreeNode:
    """One expanded division: either a frontier leaf or an inner node."""

    problem: Any
    children: "list[_TreeNode] | None" = None  # None = frontier leaf
    leaf_index: int = -1


def divide_and_conquer(
    trivial: Callable[[_P], bool],
    solve: Callable[[_P], _S],
    divide: Callable[[_P], Sequence[_P]],
    combine: Callable[[Sequence[_S]], _S],
    problem: _P,
    *,
    executor: Executor | None = None,
    fork_levels: int = 3,
    max_depth: int | None = 10_000,
) -> _S:
    """Solve ``problem`` by recursive division (see module docstring).

    ``fork_levels`` controls how deep the tree is expanded before work is
    farmed out (``2**fork_levels``-ish frontier tasks for binary
    division); ``max_depth`` guards against a ``divide`` that never
    reaches a trivial case.
    """
    if fork_levels < 0:
        raise SkeletonError(f"fork_levels must be non-negative, got {fork_levels}")

    def sequential(prob: _P, depth: int) -> _S:
        if trivial(prob):
            return solve(prob)
        if max_depth is not None and depth >= max_depth:
            raise SkeletonError(
                f"divide_and_conquer exceeded max_depth={max_depth} "
                f"(divide never reaches a trivial problem?)")
        subs = list(divide(prob))
        if not subs:
            raise SkeletonError("divide produced no sub-problems")
        return combine([sequential(s, depth + 1) for s in subs])

    if executor is None:
        return sequential(problem, 0)

    # 1. expand the division tree down to fork_levels in this thread
    leaves: list[_P] = []

    def expand(prob: _P, depth: int) -> _TreeNode:
        if trivial(prob) or depth >= fork_levels:
            node = _TreeNode(problem=prob, leaf_index=len(leaves))
            leaves.append(prob)
            return node
        if max_depth is not None and depth >= max_depth:
            raise SkeletonError(
                f"divide_and_conquer exceeded max_depth={max_depth}")
        subs = list(divide(prob))
        if not subs:
            raise SkeletonError("divide produced no sub-problems")
        return _TreeNode(problem=prob,
                         children=[expand(s, depth + 1) for s in subs])

    root = expand(problem, 0)
    # 2. one flat pool map over the frontier (sequential below it)
    solved = list(executor.map(lambda p: sequential(p, fork_levels), leaves))

    # 3. combine back up the recorded tree
    def fold_up(node: _TreeNode) -> _S:
        if node.children is None:
            return solved[node.leaf_index]
        return combine([fold_up(c) for c in node.children])

    return fold_up(root)
