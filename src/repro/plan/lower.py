"""Lowering: SCL skeleton expressions → :class:`~repro.plan.ir.Plan`.

This is the front half of the SCL compiler (the back half is the plan
interpreter, :mod:`repro.machine.plan_exec`).  Lowering happens *once* per
``(expression, nprocs, grid)`` — every index function is evaluated over
the whole index space here (index functions are pure), producing the
static per-rank send/receive tables of :class:`~repro.plan.ir.Exchange` —
and the resulting plan is cached, so repeated runs (benchmark loops,
chaos sweeps, an ``iterFor`` driver re-running an expression) skip both
the tree-walk and the table construction entirely.

Shape errors are raised at lowering time with the same messages the
tree-walking compiler raised during execution: applying a flat skeleton
to a split configuration, ``combine`` without ``split``, grid skeletons
on 1-D configurations (and vice versa), non-permutation ``send`` maps and
out-of-range ``fetch`` sources are all static properties of the
expression, so the plan either lowers completely or fails before any
virtual processor starts.
"""

from __future__ import annotations

import dataclasses
import numbers
import threading
from collections import OrderedDict

from repro.errors import SkeletonError
from repro.plan import ir
from repro.scl import nodes as N

__all__ = ["lower", "lower_uncached", "tuned_lower", "TunedPlan",
           "clear_plan_cache", "plan_cache_reset", "plan_cache_stats"]

_CACHE: OrderedDict[tuple, ir.Plan] = OrderedDict()
_CACHE_CAP = 512
#: Tuned tier: memoised :func:`repro.tune.tune_expression` winners.  Far
#: smaller than the plan cache because each entry fronts an entire beam
#: search (hundreds of candidate lowerings), not one lowering.
_TUNED: OrderedDict[tuple, "TunedPlan"] = OrderedDict()
_TUNED_CAP = 128
_STATS = {"hits": 0, "misses": 0, "uncachable": 0, "optimized": 0,
          "tuned_hits": 0, "tuned_misses": 0}
#: Serve workers and stream stages lower concurrently: every probe /
#: reorder / insert / evict of either tier happens under this lock (the
#: lowering itself does not — two threads may build the same plan, and
#: the later insert wins).
_LOCK = threading.Lock()


def _cache_get(cache: OrderedDict, key: tuple, hit: str, miss: str):
    """LRU probe: the entry, made youngest, or ``None`` — counted under
    ``hit`` / ``miss``.  An unhashable key counts as ``uncachable`` and
    raises ``TypeError``."""
    with _LOCK:
        try:
            cached = cache.get(key)
        except TypeError:
            _STATS["uncachable"] += 1
            raise
        if cached is None:
            _STATS[miss] += 1
        else:
            _STATS[hit] += 1
            cache.move_to_end(key)
        return cached


def _cache_put(cache: OrderedDict, cap: int, key: tuple, value) -> None:
    with _LOCK:
        cache[key] = value
        while len(cache) > cap:
            cache.popitem(last=False)


def lower(expr: N.Node, nprocs: int,
          grid: tuple[int, int] | None = None,
          opt=None) -> ir.Plan:
    """Lower ``expr`` for ``nprocs`` ranks (row-major over ``grid`` if 2-D).

    ``opt`` is an :class:`~repro.plan.opt.OptConfig` to run the plan
    optimizer's passes over the lowered program, or ``None`` for the raw
    plan.  Cached per ``(expr, nprocs, grid, opt)`` — the config is part
    of the key, so a ``--no-opt`` run is never served an optimized entry
    (and vice versa), and plans optimized for different machine specs
    never alias.  Expressions whose nodes are not hashable (e.g. a
    ``Brdcast`` of a numpy array) are lowered fresh each time.
    """
    key = (expr, nprocs, grid, opt)
    try:
        cached = _cache_get(_CACHE, key, "hits", "misses")
    except TypeError:
        plan = _lower(expr, nprocs, grid)
        return plan if opt is None else _optimize(plan, opt)
    if cached is not None:
        return cached
    if opt is None:
        plan = _lower(expr, nprocs, grid)
    else:
        # build on the raw plan's cache entry, then run the passes once
        plan = _optimize(lower(expr, nprocs, grid), opt)
        _STATS["optimized"] += 1
    _cache_put(_CACHE, _CACHE_CAP, key, plan)
    return plan


def _optimize(plan: ir.Plan, opt) -> ir.Plan:
    from repro.plan.opt import optimize_plan

    return optimize_plan(plan, opt)


def lower_uncached(expr: N.Node, nprocs: int,
                   grid: tuple[int, int] | None = None,
                   opt=None, *, memo: dict | None = None) -> ir.Plan:
    """Like :func:`lower` but without touching the cache or its counters.

    For callers that lower *throwaway* expressions — the beam search
    scores hundreds of candidates that will never be lowered again, and
    routing them through the LRU would evict genuinely hot plans and
    drown the hit-rate metric the service reports.

    Such a caller's expressions differ from one another by a rewrite
    window, so it may pass one ``memo`` dict to all of its calls: every
    composition step lowered outside a ``split`` is then lowered once per
    ``(step, nprocs, grid)`` and its instruction objects are shared by
    every plan containing the step; the group plans of a ``map`` of a
    sub-expression are lowered once per ``(sub-expression, group size)``.
    The dict belongs to the caller and lives no longer than it does;
    without one, a dict private to this call plays its part (so equal-size
    groups still share one plan).
    """
    if memo is None:
        memo = {}
    plan = _lower(expr, nprocs, grid, memo)
    return plan if opt is None else _optimize(plan, opt)


@dataclasses.dataclass(frozen=True)
class TunedPlan:
    """A beam-searched expression and its lowered plan (tuned-cache value)."""

    #: The searched winner (``original`` when search found no improvement).
    expr: N.Node
    #: ``expr`` lowered under the search's :class:`~repro.plan.opt.OptConfig`.
    plan: ir.Plan
    #: Rule provenance from the original expression to the winner.
    steps: tuple
    #: Pipeline-predicted :class:`~repro.plan.cost.ExprCost` of the
    #: original expression and of the winner.
    cost_before: object
    cost_after: object
    #: Candidates the search scored to find this plan — what a cache hit
    #: on this entry avoids re-lowering.
    explored: int

    @property
    def improved(self) -> bool:
        return bool(self.steps)


def tuned_lower(expr: N.Node, nprocs: int,
                grid: tuple[int, int] | None = None,
                opt=None, *, beam: int = 4, fn_ops: float = 1.0,
                element_bytes: int | None = None) -> TunedPlan:
    """Beam-search ``expr``'s rewrite space and lower the winner — cached.

    The tuned tier sits above the plan cache: a hit returns the searched
    winner's plan without re-running :func:`repro.tune.tune_expression`
    (whose candidate scoring is hundreds of lowerings — too many distinct
    expressions for the plan cache's LRU to retain).  Keyed by
    ``(expr, nprocs, grid, opt, beam, fn_ops, element_bytes)``; ``opt``
    is the :class:`~repro.plan.opt.OptConfig` candidates are lowered and
    priced with, so the machine spec is part of the key — a plan tuned
    for one cost model is never served to another.
    """
    from repro.plan.opt import OptConfig

    if opt is None:
        opt = OptConfig()
    key = (expr, nprocs, grid, opt, beam, fn_ops, element_bytes)
    try:
        cached = _cache_get(_TUNED, key, "tuned_hits", "tuned_misses")
    except TypeError:
        return _tune_and_lower(expr, nprocs, grid, opt, beam=beam,
                               fn_ops=fn_ops, element_bytes=element_bytes)
    if cached is not None:
        return cached
    tuned = _tune_and_lower(expr, nprocs, grid, opt, beam=beam,
                            fn_ops=fn_ops, element_bytes=element_bytes)
    _cache_put(_TUNED, _TUNED_CAP, key, tuned)
    return tuned


def _tune_and_lower(expr: N.Node, nprocs: int, grid, opt, *,
                    beam: int, fn_ops: float,
                    element_bytes: int | None) -> TunedPlan:
    from repro.tune import tune_expression

    res = tune_expression(expr, nprocs=nprocs, grid=grid, spec=opt.spec,
                          opt=opt, beam=beam, fn_ops=fn_ops,
                          element_bytes=element_bytes)
    winner = res.winner
    plan = lower(winner.expr, nprocs, grid, opt=opt)
    return TunedPlan(winner.expr, plan, winner.steps,
                     res.original.cost, winner.cost, res.explored)


def clear_plan_cache() -> None:
    """Drop all cached plans — both tiers — and reset the counters."""
    with _LOCK:
        _CACHE.clear()
        _TUNED.clear()
    plan_cache_reset()


def plan_cache_reset() -> None:
    """Zero the traffic counters but *keep* the cached plans.

    The test helper for counter-delta assertions: a test that wants
    "this run produced N hits" can reset and count from zero without
    discarding warm plans another test (or an earlier phase of the same
    test) paid to build.  :func:`clear_plan_cache` remains the full
    reset for tests that need cold-cache behaviour.
    """
    _STATS.update(hits=0, misses=0, uncachable=0, optimized=0,
                  tuned_hits=0, tuned_misses=0)


def plan_cache_stats() -> dict[str, int]:
    """Cache metrics: ``{"size", "hits", "misses", "uncachable",
    "optimized", "tuned_size", "tuned_hits", "tuned_misses"}`` —
    ``optimized`` counts cache misses that ran the optimizer pipeline
    (raw lowerings they built on count separately); the ``tuned_*``
    counters track :func:`tuned_lower`'s search-result tier."""
    return {"size": len(_CACHE), "tuned_size": len(_TUNED), **_STATS}


def _lower(expr: N.Node, nprocs: int, grid: tuple[int, int] | None,
           memo: dict | None = None) -> ir.Plan:
    out: list[ir.Instr] = []
    _emit(expr, nprocs, grid, out, [], memo)
    return ir.Plan(tuple(out), nprocs, grid)


def _emit(node: N.Node, p: int, grid: tuple[int, int] | None,
          out: list[ir.Instr], splits: list[ir.GroupSplit],
          memo: dict | None) -> None:
    """Append the instructions of ``node`` to ``out``.

    ``splits`` is the static stack of open ``split``s — the lowering-time
    image of the tree-walker's ``_Grouped`` value wrapper, used to resolve
    nesting errors and to find the group shapes a ``map`` of a
    sub-expression runs over.

    ``memo`` (see :func:`lower_uncached`) maps ``(step, p, grid)`` to the
    instructions of a step that was met with no ``split`` open and left
    none open — only then are they a function of the key alone.  A step
    that cannot be hashed, or whose lowering raises, is never recorded, so
    it is lowered (and checked) afresh every time.  Without a memo, group
    plans come from the plan cache (:func:`_group_plan`).
    """
    if isinstance(node, N.Compose):
        for step in reversed(node.steps):
            _emit(step, p, grid, out, splits, memo)
        return
    key = (node, p, grid)
    reusable = memo is not None and not splits
    if reusable:
        try:
            known = memo.get(key)
        except TypeError:
            reusable = False
        else:
            if known is not None:
                out.extend(known)
                return
    start = len(out)
    _emit_step(node, p, grid, out, splits, memo)
    if reusable and not splits:
        memo[key] = tuple(out[start:])


def _integer(value, who: str, what: str) -> int:
    """``value`` as an int, or a :class:`SkeletonError` naming ``who``."""
    if type(value) is int:  # the common case, without the ABC check
        return value
    if not isinstance(value, numbers.Integral):
        raise SkeletonError(f"{who}: {what} {value!r} is not an integer")
    return int(value)


def _check_rank(rank, p: int, who: str, what: str) -> int:
    rank = _integer(rank, who, what)
    if not (0 <= rank < p):
        raise SkeletonError(f"{who}: {what} {rank} out of range 0..{p - 1}")
    return rank


def _index_map(f, p: int, who: str, what: str) -> list[int]:
    """``[f(0), ..., f(p - 1)]``, each checked to name a rank."""
    return [_check_rank(f(r), p, who, what) for r in range(p)]


def _sources(node: N.Node, p: int, grid: tuple[int, int] | None,
             ) -> tuple[list[int], str]:
    """The rank each rank reads from under a single-source data movement,
    and the movement's label."""
    if isinstance(node, N.RotateRow):
        _require_grid(grid, "rotate_row")
        rows, cols = grid
        shifts = [_integer(node.df(i), "rotate_row", "shift")
                  for i in range(rows)]
        return [i * cols + (j + shifts[i]) % cols
                for i in range(rows) for j in range(cols)], "rotate_row"
    if isinstance(node, N.RotateCol):
        _require_grid(grid, "rotate_col")
        rows, cols = grid
        shifts = [_integer(node.df(j), "rotate_col", "shift")
                  for j in range(cols)]
        return [((i + shifts[j]) % rows) * cols + j
                for i in range(rows) for j in range(cols)], "rotate_col"
    if isinstance(node, N.Rotate):
        _no_grid(grid, "rotate")
        k = _integer(node.k, "rotate", "shift") % p
        return [(r + k) % p for r in range(p)], f"rotate {k}"
    if isinstance(node, N.Fetch):
        _no_grid(grid, "fetch")
        return _index_map(node.f, p, "fetch", "source"), "fetch"
    _no_grid(grid, "send")  # a permutation send
    srcs = [[] for _ in range(p)]
    for r, dst in enumerate(_index_map(node.f, p, "send", "destination")):
        srcs[dst].append(r)
    for r, sources in enumerate(srcs):
        if len(sources) != 1:
            raise SkeletonError(
                f"send: index {r} receives {len(sources)} elements — "
                f"the index map is not a permutation")
    return [src for (src,) in srcs], "send"


def _root(i, p: int, grid: tuple[int, int] | None) -> int:
    """The rank ``applybrdcast``'s index ``i`` names: an int on a 1-D
    configuration, a tuple of coordinates on either — every index the
    interpreter's ``A[i]`` accepts, and no other."""
    shape = (p,) if grid is None else grid
    idx = i if isinstance(i, tuple) else (i,)
    if (not isinstance(i, (tuple, int)) or isinstance(i, bool)
            or len(idx) != len(shape)
            or not all(c in range(n) for c, n in zip(idx, shape))):
        raise SkeletonError(
            f"applybrdcast: root {i!r} is not an index of the "
            f"{'x'.join(map(str, shape))} configuration")
    root = 0
    for c, n in zip(idx, shape):
        root = root * n + int(c)
    return root


def _emit_step(node: N.Node, p: int, grid: tuple[int, int] | None,
               out: list[ir.Instr], splits: list[ir.GroupSplit],
               memo: dict | None) -> None:
    """:func:`_emit` for one non-``Compose`` node."""
    if isinstance(node, N.Id):
        return

    if isinstance(node, N.Map):
        if isinstance(node.f, N.Node):
            if not splits:
                raise SkeletonError(
                    "map of a sub-expression requires a split (nested) "
                    "configuration — compile `... . split P` first")
            top = splits[-1]
            plans = tuple(_group_plan(node.f, len(members), memo)
                          for members in top.groups)
            out.append(ir.SubPlan(plans))
            return
        _no_groups(splits, "map of a base fragment")
        out.append(ir.LocalApply(node.f, label="map"))
        return

    if isinstance(node, N.IMap):
        _no_groups(splits, "imap")
        out.append(ir.LocalApply(node.f, indexed=True, label="imap"))
        return

    if isinstance(node, N.Farm):
        _no_groups(splits, "farm")
        out.append(ir.LocalApply(node.f, farm_env=node.env, label="farm"))
        return

    if isinstance(node, N.Rotate):
        _no_grid(grid, "rotate")
        k = _integer(node.k, "rotate", "shift") % p
        if k != 0:
            out.append(ir.rotation(k, p))
        return

    if isinstance(node, (N.RotateRow, N.RotateCol, N.Fetch, N.PermSend)):
        srcs, label = _sources(node, p, grid)
        out.append(ir.Exchange.from_sources("replace", srcs, label))
        return

    if isinstance(node, N.Redistribute):
        # one exchange per moving component, carrying that component only
        width = len(node.moves)
        for k, move in enumerate(node.moves):
            if not isinstance(move, N.Id):
                srcs, label = _sources(move, p, grid)
                out.append(ir.Exchange.from_sources(
                    "replace", srcs, f"{label} (part {k})", (k, width)))
        return

    if isinstance(node, N.Fold):
        out.append(ir.Collective("fold", op=node.op, label="fold"))
        return

    if isinstance(node, N.Scan):
        _no_grid(grid, "scan")
        out.append(ir.Collective("scan", op=node.op, label="scan"))
        return

    if isinstance(node, N.AlignFetch):
        _no_grid(grid, "align-fetch")
        srcs = _index_map(node.f, p, "align-fetch", "source")
        out.append(ir.Exchange.from_sources("pair", srcs, "align-fetch"))
        return

    if isinstance(node, N.SendNode):
        _no_grid(grid, "send")
        dst_lists = [tuple(_check_rank(dst, p, "send", "destination")
                           for dst in node.f(r)) for r in range(p)]
        out.append(ir.Exchange.from_destinations("collect", dst_lists,
                                                 "send*"))
        return

    if isinstance(node, N.Brdcast):
        out.append(ir.Collective("bcast", value=node.a, label="brdcast"))
        return

    if isinstance(node, N.ApplyBrdcast):
        out.append(ir.Collective("apply_bcast", op=node.f,
                                 root=_root(node.i, p, grid),
                                 label="applybrdcast"))
        return

    if isinstance(node, N.Split):
        _no_grid(grid, "split")
        if splits:
            raise SkeletonError(
                "split cannot be applied to a split configuration — "
                "`combine` first")
        raw = node.pattern.split(list(range(p)))
        groups = [tuple(raw[idx]) for idx in raw.indices()]
        group_of = []
        for r in range(p):
            for gi, members in enumerate(groups):
                if r in members:
                    group_of.append(gi)
                    break
            else:
                raise SkeletonError(f"split pattern lost rank {r}")
        instr = ir.GroupSplit(tuple(groups), tuple(group_of))
        out.append(instr)
        splits.append(instr)
        return

    if isinstance(node, N.Combine):
        if not splits:
            raise SkeletonError("combine without a preceding split")
        splits.pop()
        out.append(ir.GroupCombine())
        return

    if isinstance(node, N.Spmd):
        _no_groups(splits, "SPMD")
        for stage in node.stages:
            if stage.local is not None:
                out.append(ir.LocalApply(stage.local, indexed=stage.indexed,
                                         label="spmd-local"))
            if stage.global_ is not None:
                _emit(stage.global_, p, grid, out, splits, memo)
        return

    if isinstance(node, N.IterFor):
        bodies = []
        for i in range(node.n):
            body: list[ir.Instr] = []
            _emit(node.body(i), p, grid, body, splits, memo)
            bodies.append(tuple(body))
        out.append(ir.Loop(tuple(bodies)))
        return

    raise SkeletonError(
        f"the SCL compiler does not support {type(node).__name__} nodes")


def _group_plan(expr: N.Node, size: int, memo: dict | None) -> ir.Plan:
    """The plan one group of ``size`` ranks runs for ``map expr``: from
    the plan cache when the lowering has no memo, else from the memo under
    ``("group", expr, size)`` — so a search's lowerings never touch the
    cache, and equal-size groups share one :class:`~repro.plan.ir.Plan`
    either way."""
    if memo is None:
        return lower(expr, size, None)
    key = ("group", expr, size)
    try:
        known = memo.get(key)
    except TypeError:
        return _lower(expr, size, None, memo)
    if known is None:
        known = memo[key] = _lower(expr, size, None, memo)
    return known


def _require_grid(grid, who: str) -> None:
    if grid is None:
        raise SkeletonError(
            f"{who} requires a 2-D processor grid — run the expression over "
            f"a 2-D ParArray")


def _no_grid(grid, who: str) -> None:
    if grid is not None:
        raise SkeletonError(f"{who} requires a 1-D configuration, got a grid")


def _no_groups(splits: list, who: str) -> None:
    if splits:
        raise SkeletonError(
            f"{who} cannot be applied to a split configuration: the flat "
            f"element semantics would diverge from the nested semantics — "
            f"use `map (<sub-expression>)` or `combine` first")
