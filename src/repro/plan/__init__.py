"""``repro.plan`` — the explicit program representation between SCL
expressions and the machine.

The paper treats a skeleton program as an object you can transform (§4)
and then hand-compile (§5).  This package mechanises the hand-off: an
expression is *lowered once* into a flat, typed SPMD instruction
sequence (:mod:`repro.plan.ir`), and that one representation is then
executed by one walker (:mod:`repro.machine.plan_exec`) over the direct
or the fault-tolerant transport (:mod:`repro.faults.plan_exec`), priced
(:mod:`repro.plan.cost`),
optimized (:mod:`repro.plan.opt` — §4's transformation rules applied
post-lowering, with the SoA data plane of :mod:`repro.plan.vexec` and
the kernel registry of :mod:`repro.plan.kernels`) and pretty-printed
(:mod:`repro.scl.plan_pretty`).  ``python -m repro plan`` dumps lowered
programs with predicted-vs-simulated cost columns and ``--no-opt`` /
``--diff`` views of what the optimizer did.
"""

from repro.plan.cost import ExprCost, plan_cost
from repro.plan.ir import (
    DEFAULT_FRAGMENT_OPS,
    Collective,
    Exchange,
    FusedKernel,
    GroupCombine,
    GroupSplit,
    Instr,
    LocalApply,
    Loop,
    Plan,
    Scalar,
    SubPlan,
    apply_fused,
    base_fragment,
    fragment_ops,
)
from repro.plan.lower import (clear_plan_cache, lower, plan_cache_reset,
                              plan_cache_stats)
from repro.plan.opt import (
    OptConfig,
    PassNote,
    optimize_plan,
    optimize_plan_report,
)

__all__ = [
    "Plan", "Instr", "LocalApply", "Exchange", "Collective",
    "GroupSplit", "SubPlan", "GroupCombine", "Loop", "Scalar",
    "FusedKernel", "apply_fused",
    "base_fragment", "fragment_ops", "DEFAULT_FRAGMENT_OPS",
    "lower", "clear_plan_cache", "plan_cache_reset", "plan_cache_stats",
    "plan_cost", "ExprCost",
    "OptConfig", "PassNote", "optimize_plan", "optimize_plan_report",
]
