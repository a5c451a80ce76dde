"""Tunable benchmark workloads: where search and rewriting to fixpoint diverge.

``tuned_sort_pipeline`` is hyperquicksort followed by a naively-written
per-group summary epilogue: each round stamps the local block three times
(three adjacent un-fused ``map`` s) after replicating two group leaders'
blocks with two sparse ``fetch`` steps — first every quarter-leader
(rank ``r - r%4``, fan-out 3), then every block-leader's quarter image
(rank ``16*(r//16) + r%4``, fan-out 3).

The same §4 laws apply here either way, but the two ways of using them
end in different programs:

* **rewriting to fixpoint** (``default_engine().rewrite``) applies every
  law that matches: the map fusions, and the fetch fusion with them —
  composing the two fan-out-3 exchanges into one fan-out-15 funnel
  (every rank reads the block leader directly).  Priced on the *raw*
  lowering the package even looks good: the map fusions save two
  predicted barriers per round, which more than covers the fetch
  fusion's penalty.
* **search** (:func:`repro.tune.tune_expression`) prices every candidate
  through ``plan.opt`` + ``plan.cost``: the post-lowering passes already
  fuse the adjacent maps for free, so the only thing the symbolic fetch
  fusion changes is the exchange degree — 15 serialized port
  transmissions at each block leader versus 3+3 — and the search
  declines it.

On a single-port machine (the contention model the ``msg × degree``
exchange pricing assumes) the declined funnel is a real simulated win:
``python -m repro plan hyperquicksort --search`` races the two and
prints the ratio as ``speedup_vs_greedy``.
"""

from __future__ import annotations

import functools

from repro.scl import nodes as N

__all__ = ["tuned_sort_pipeline", "TUNED_REPEATS", "QUARTER", "BLOCK"]

#: Epilogue rounds in the benchmark pipeline; each contributes three
#: fusible maps and one fusible (but traffic-concentrating) fetch pair.
TUNED_REPEATS = 6
#: Fan-in group sizes of the two sparse fetches (and their composition).
QUARTER = 4
BLOCK = QUARTER * QUARTER


def _quarter_leader(r: int) -> int:
    """Source map of the first fetch: every rank reads its quarter leader."""
    return r - r % QUARTER


def _block_pick(r: int) -> int:
    """Source map of the second fetch: the quarter image inside the block
    (composes with :func:`_quarter_leader` into the fan-out-15 funnel
    ``r -> BLOCK * (r // BLOCK)``)."""
    return BLOCK * (r // BLOCK) + r % QUARTER


def _stamp_shift(block):
    return block + 3


def _stamp_mark(block):
    return block ^ 1


def _stamp_settle(block):
    return block - 2


def _epilogue_round() -> tuple[N.Node, ...]:
    """One naive epilogue round, innermost (rightmost) step first."""
    return (
        N.Map(_stamp_settle),
        N.Map(_stamp_mark),
        N.Map(_stamp_shift),
        N.Fetch(_block_pick),
        N.Fetch(_quarter_leader),
    )


@functools.lru_cache(maxsize=None)
def tuned_sort_pipeline(d: int, repeats: int = TUNED_REPEATS) -> N.Node:
    """Hyperquicksort plus ``repeats`` naive epilogue rounds (see module
    docstring).  Memoised so every caller shares one expression object
    and the plan / tuned-plan caches key consistently."""
    from repro.apps.sort import hyperquicksort_expression

    if (1 << d) % BLOCK:
        raise ValueError(
            f"tuned pipeline needs {BLOCK} | nprocs, got p={1 << d}")
    steps: list[N.Node] = []
    for _ in range(repeats):
        steps.extend(_epilogue_round())
    steps.append(hyperquicksort_expression(d))
    return N.compose_nodes(*steps)
