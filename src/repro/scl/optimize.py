"""Cost-guided optimisation of skeleton expressions.

:func:`estimate_cost` prices an expression by **lowering it to the same
plan the machine executes** (:mod:`repro.plan`) and walking that
instruction stream with :func:`repro.plan.cost.plan_cost` — predicted
and simulated cost describe the identical program, which is what lets
the test-suite check the model's rankings against simulated makespans.

:func:`optimize` chooses among the programs reachable by the §4 rewrite
rules — the mechanised version of the paper's "compile time optimisation
can be systematically realised based on a class of transformation
rules".  Two strategies:

* ``strategy="search"`` (default) — :func:`repro.tune.tune_expression`'s
  beam search: every candidate is scored through the *whole* pipeline
  (lower → ``plan.opt`` passes → ``plan.cost``), so a symbolic rewrite
  is only taken when it improves the plan the machine will actually
  run.  Rewrites the post-lowering passes recover anyway (map fusion,
  rotation folding) tie on cost and are accepted for the smaller
  expression; rewrites that *concentrate* traffic (e.g. fusing two
  sparse fetches into one high-degree exchange) price worse and are
  declined — per law, not all-or-nothing.
* ``strategy="greedy"`` — the original driver, kept as the fallback and
  the test oracle: apply every rule to fixpoint, price original and
  result on their **raw** lowerings with :func:`estimate_cost`, and
  accept the whole package only if it is predicted no slower.

Expressions that have no plan form — ``FoldrFused`` (inherently
sequential), ``Partition``/``Gather`` (data ingress/egress), grid
skeletons priced without a grid — fall back to the original
expression-level model, whose per-node formulas the plan model
deliberately preserves, so comparisons *across* the two paths (e.g. the
map-distribution crossover between ``foldr`` and ``fold . map``) remain
meaningful under both strategies.

The model is deliberately coarse (it prices *structure*, not user code —
each opaque function application costs ``fn_ops`` elementary operations).
Its job is to rank alternatives, and the ablation benchmarks check its
rankings against simulated execution.
"""

from __future__ import annotations

import dataclasses

from repro.errors import SkeletonError
from repro.machine.cost import MachineSpec, PERFECT
# sys.modules binding (see repro.scl.compile for why): survives both import
# orders of the repro.plan <-> repro.scl cycle and the package-attribute
# shadowing of the `lower` submodule by the `lower` function.
import repro.plan.lower  # noqa: F401  (registers the module in sys.modules)
import sys

from repro.plan.cost import ExprCost, ceil_log2, plan_cost
from repro.scl import nodes as N

_plan_lower = sys.modules["repro.plan.lower"]

__all__ = ["ExprCost", "estimate_cost", "optimize", "OptimizeReport"]

_ceil_log2 = ceil_log2


def estimate_cost(node: N.Node, *, n: int, spec: MachineSpec = PERFECT,
                  fn_ops: float = 1.0, element_bytes: int | None = None) -> ExprCost:
    """Predicted cost of ``node`` over ``n`` components.

    ``fn_ops`` is the assumed per-element cost (elementary operations) of
    each opaque function application; ``element_bytes`` the wire size of a
    component (defaults to one machine word).
    """
    try:
        plan = _plan_lower.lower(node, n, None)
    except SkeletonError:
        return _legacy_estimate(node, n=n, spec=spec, fn_ops=fn_ops,
                                element_bytes=element_bytes)
    return plan_cost(plan, spec=spec, fn_ops=fn_ops,
                     element_bytes=element_bytes)


def _legacy_estimate(node: N.Node, *, n: int, spec: MachineSpec,
                     fn_ops: float, element_bytes: int | None) -> ExprCost:
    """Expression-level pricing for nodes with no plan form."""
    eb = spec.word_bytes if element_bytes is None else element_bytes
    barrier = (spec.latency + spec.send_overhead + spec.recv_overhead) * _ceil_log2(max(n, 1))
    msg = spec.transfer_time(eb) + spec.send_overhead + spec.recv_overhead
    fn_time = spec.compute_time(fn_ops)

    def go(node: N.Node, n: int) -> ExprCost:
        if isinstance(node, N.Id):
            return ExprCost(0.0, 0, 0)
        if isinstance(node, N.Compose):
            total = ExprCost(0.0, 0, 0)
            for step in node.steps:
                total = total + go(step, n)
            return total
        if isinstance(node, N.Map):
            if isinstance(node.f, N.Node):
                return go(node.f, n) + ExprCost(barrier, 0, 1)
            parts = node.f.parts if hasattr(node.f, "parts") else (node.f,)
            return ExprCost(fn_time * len(parts) + barrier, 0, 1)
        if isinstance(node, (N.IMap, N.Farm)):
            return ExprCost(fn_time + barrier, 0, 1)
        if isinstance(node, (N.Fold, N.Scan)):
            # log-n combine rounds; the rounds themselves are the
            # synchronisation, so no separate barrier term
            rounds = _ceil_log2(max(n, 1))
            return ExprCost(rounds * (msg + fn_time), rounds * n // 2, 1)
        if isinstance(node, N.FoldrFused):
            # inherently sequential: n combine steps on one processor
            return ExprCost(n * 2 * fn_time, 0, 0)
        if isinstance(node, (N.Rotate, N.RotateRow, N.RotateCol,
                             N.Fetch, N.AlignFetch, N.PermSend, N.SendNode)):
            # one message in and out per component, overlapped across procs
            return ExprCost(msg, n, 1)
        if isinstance(node, (N.Brdcast, N.ApplyBrdcast)):
            rounds = _ceil_log2(max(n, 1))
            return ExprCost(rounds * msg, max(n - 1, 0), 1)
        if isinstance(node, N.Split):
            return ExprCost(barrier, 0, 1)
        if isinstance(node, N.Combine):
            return ExprCost(barrier, 0, 1)
        if isinstance(node, (N.Partition, N.Gather)):
            # full redistribution: the whole array crosses the root's link
            # plus a log-depth tree of message startups
            rounds = _ceil_log2(max(n, 1))
            return ExprCost(
                rounds * (spec.latency + spec.send_overhead + spec.recv_overhead)
                + n * eb / spec.bandwidth,
                max(n - 1, 0), 1)
        if isinstance(node, N.Spmd):
            total = ExprCost(0.0, 0, 0)
            for stage in node.stages:
                if stage.local is not None:
                    total = total + ExprCost(fn_time, 0, 0)
                if stage.global_ is not None:
                    total = total + go(stage.global_, n)
                total = total + ExprCost(barrier, 0, 1)
            return total
        if isinstance(node, N.IterFor):
            body = go(node.body(0), n)
            return body.scaled(node.n)
        return ExprCost(0.0, 0, 0)

    return go(node, n)


@dataclasses.dataclass(frozen=True)
class OptimizeReport:
    """Outcome of :func:`optimize`: the programs, costs and rule trace."""

    original: N.Node
    optimized: N.Node
    cost_before: ExprCost
    cost_after: ExprCost
    steps: tuple

    @property
    def accepted(self) -> bool:
        """True when the rewritten form was predicted no slower."""
        return self.optimized is not self.original

    @property
    def speedup(self) -> float:
        """Predicted ratio of original to optimised time."""
        if self.cost_after.seconds == 0:
            return float("inf") if self.cost_before.seconds > 0 else 1.0
        return self.cost_before.seconds / self.cost_after.seconds

    def __str__(self) -> str:
        from repro.scl.pretty import pretty

        lines = [f"original : {pretty(self.original)}",
                 f"optimised: {pretty(self.optimized)}"]
        for s in self.steps:
            lines.append(f"  applied {s.rule}")
        lines.append(
            f"predicted: {self.cost_before.seconds:.3e}s -> "
            f"{self.cost_after.seconds:.3e}s "
            f"({self.cost_before.messages} -> {self.cost_after.messages} msgs, "
            f"{self.cost_before.barriers} -> {self.cost_after.barriers} barriers)")
        return "\n".join(lines)


def optimize(node: N.Node, *, n: int, spec: MachineSpec = PERFECT,
             fn_ops: float = 1.0, element_bytes: int | None = None,
             rules=None, strategy: str = "search", beam: int = 4,
             grid: tuple[int, int] | None = None) -> OptimizeReport:
    """Optimise ``node`` with the §4 rules under ``strategy`` (see the
    module docstring for the two strategies).

    ``beam`` only applies to ``strategy="search"``; ``grid`` names the
    2-D process grid for expressions using grid skeletons.  Under ``"greedy"`` all the
    paper's rules are individually improving against the raw lowering,
    so in practice the rewritten form always wins; the cost guard
    protects against user-supplied rule sets.
    """
    if strategy == "search":
        from repro.tune import tune_expression

        res = tune_expression(node, nprocs=n, grid=grid, spec=spec,
                              rules=rules, beam=beam, fn_ops=fn_ops,
                              element_bytes=element_bytes)
        if not res.improved:
            return OptimizeReport(node, node, res.original.cost,
                                  res.original.cost, ())
        return OptimizeReport(node, res.best.expr, res.original.cost,
                              res.best.cost, res.best.steps)
    if strategy != "greedy":
        raise ValueError(
            f"strategy must be 'search' or 'greedy', got {strategy!r}")

    from repro.scl.rewrite import RewriteEngine
    from repro.scl.rules import ALL_RULES

    engine = RewriteEngine(ALL_RULES if rules is None else rules)
    rewritten, steps = engine.rewrite(node)
    before = estimate_cost(node, n=n, spec=spec, fn_ops=fn_ops,
                           element_bytes=element_bytes)
    after = estimate_cost(rewritten, n=n, spec=spec, fn_ops=fn_ops,
                          element_bytes=element_bytes)
    if after.seconds <= before.seconds:
        return OptimizeReport(node, rewritten, before, after, tuple(steps))
    return OptimizeReport(node, node, before, before, ())
