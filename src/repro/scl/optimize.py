"""The cost model of skeleton expressions: one price for one program.

:func:`estimate_cost` prices an expression by **lowering it to the plan
the machine executes** (:mod:`repro.plan`) and walking that instruction
stream with :func:`repro.plan.cost.plan_cost`.  ``opt`` names the
:class:`~repro.plan.opt.OptConfig` the plan is lowered under, as it does
for :func:`~repro.scl.compile.run_expression`: hand both the same
``opt`` — ``OptConfig.for_machine(machine)``, which is what a run's
default ``opt="auto"`` resolves to, or ``None`` for the raw lowering —
and predicted and simulated cost describe the identical program, which
is what lets the test-suite and
``benchmarks/test_cost_model_validation.py`` check the model's rankings
against simulated makespans.

The optimiser built on this price is :func:`repro.tune.tune_expression`
— the mechanised version of the paper's "compile time optimisation can
be systematically realised based on a class of transformation rules".
It scores every program reachable by the §4 rewrite rules through
:func:`price`, the one lower-then-``plan_cost`` body, so a symbolic
rewrite is only taken when it improves the plan the machine will
actually run.

Expressions that have no plan form — ``FoldrFused`` (inherently
sequential), ``Partition``/``Gather`` (data ingress/egress), grid
skeletons priced without a grid — fall back to the original
expression-level model, whose per-node formulas the plan model
deliberately preserves, so comparisons *across* the two paths (e.g. the
map-distribution crossover between ``foldr`` and ``fold . map``) remain
meaningful.

The model is deliberately coarse (it prices *structure*, not user code —
each opaque function application costs ``fn_ops`` elementary operations).
Its job is to rank alternatives, and the ablation benchmarks check its
rankings against simulated execution.
"""

from __future__ import annotations

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

__all__ = ["ExprCost", "estimate_cost", "price"]

_ceil_log2 = ceil_log2


def price(node: N.Node, *, n: int, grid: tuple[int, int] | None = None,
          opt=None, spec: MachineSpec = PERFECT, fn_ops: float = 1.0,
          element_bytes: int | None = None,
          memo: dict | None = None) -> tuple[ExprCost, bool]:
    """Price ``node`` over ``n`` components: lower under ``opt``, then
    :func:`plan_cost` on that plan.

    Returns ``(cost, lowerable)``; an expression with no plan form
    (lowering raises :class:`~repro.errors.SkeletonError`) is priced by
    the expression-level model with ``lowerable=False`` — any other
    exception is a bug and propagates.  Lowering bypasses the plan cache
    (:func:`repro.plan.lower.lower_uncached`): priced expressions are
    mostly throwaway search candidates that would evict hot entries and
    distort the service-level hit-rate metric.  ``memo`` is handed to it,
    so one search lowers each step its candidates share once.
    """
    try:
        plan = _plan_lower.lower_uncached(node, n, grid, opt=opt, memo=memo)
    except SkeletonError:
        return _legacy_estimate(node, n=n, spec=spec, fn_ops=fn_ops,
                                element_bytes=element_bytes), False
    return plan_cost(plan, spec=spec, fn_ops=fn_ops,
                     element_bytes=element_bytes), True


def estimate_cost(node: N.Node, *, n: int, spec: MachineSpec = PERFECT,
                  fn_ops: float = 1.0, element_bytes: int | None = None,
                  grid: tuple[int, int] | None = None, opt=None) -> ExprCost:
    """Predicted cost of ``node`` over ``n`` components.

    ``fn_ops`` is the assumed per-element cost (elementary operations) of
    each opaque function application; ``element_bytes`` the wire size of a
    component (defaults to one machine word); ``grid`` the 2-D process
    grid of an expression using grid skeletons.  ``opt`` is the
    :class:`~repro.plan.opt.OptConfig` the priced plan is lowered under —
    pass the one the run uses to price the program that runs; ``None``
    prices the raw lowering.
    """
    return price(node, n=n, grid=grid, opt=opt, spec=spec, fn_ops=fn_ops,
                 element_bytes=element_bytes)[0]


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
