"""Pricing plans: the analytic cost model over the Plan IR.

Because the optimizer and the machine now share one program
representation, predicted and simulated cost price the *identical*
instruction stream: :func:`plan_cost` walks the same
:class:`~repro.plan.ir.Plan` the interpreter executes, instruction by
instruction.  Per-instruction formulas keep the shape of the original
expression-level model (log-round collectives, one overlapped message
per rank for permutation traffic, a log-depth barrier per bulk step) but
use the lowered program's *actual* communication tables — an exchange
with no traffic (``fetch id``) prices at zero, and a hot-spot pattern
(``fetch (λi.0)``) pays for its in-degree.

The model remains deliberately coarse: it prices structure, not user
code (each opaque fragment costs ``fn_ops`` elementary operations).  Its
job is to rank alternatives; the test-suite checks its rankings against
simulated makespans.
"""

from __future__ import annotations

import dataclasses

from repro.machine.cost import MachineSpec, PERFECT
from repro.plan import ir

__all__ = ["ExprCost", "plan_cost", "ceil_log2"]


@dataclasses.dataclass(frozen=True)
class ExprCost:
    """Predicted execution profile of a program over ``n`` components."""

    seconds: float
    messages: int
    barriers: int

    def __add__(self, other: "ExprCost") -> "ExprCost":
        return ExprCost(self.seconds + other.seconds,
                        self.messages + other.messages,
                        self.barriers + other.barriers)

    def scaled(self, times: int) -> "ExprCost":
        return ExprCost(self.seconds * times, self.messages * times,
                        self.barriers * times)


ZERO = ExprCost(0.0, 0, 0)


def ceil_log2(n: int) -> int:
    """Rounds of a binary-tree schedule over ``n`` participants."""
    return (n - 1).bit_length() if n > 1 else 0


def plan_cost(plan: ir.Plan, *, spec: MachineSpec = PERFECT,
              fn_ops: float = 1.0,
              element_bytes: int | None = None) -> ExprCost:
    """Predicted cost of one execution of ``plan``.

    ``fn_ops`` is the assumed per-element cost of each opaque fragment
    application; ``element_bytes`` the wire size of a component (defaults
    to one machine word).
    """
    eb = spec.word_bytes if element_bytes is None else element_bytes
    n = max(plan.nprocs, 1)
    barrier = (spec.latency + spec.send_overhead + spec.recv_overhead) \
        * ceil_log2(n)
    msg = spec.transfer_time(eb) + spec.send_overhead + spec.recv_overhead
    fn_time = spec.compute_time(fn_ops)

    def seq(instrs) -> ExprCost:
        total = ZERO
        for instr in instrs:
            total = total + one(instr)
        return total

    key = ("cost", plan.nprocs, plan.grid, spec, fn_ops, element_bytes)

    def one(instr: ir.Instr) -> ExprCost:
        if not isinstance(instr, (ir.SubPlan, ir.Loop)):
            return term(instr)
        if key not in instr.results:  # worked out once per instruction
            instr.results[key] = term(instr)
        return instr.results[key]

    def term(instr: ir.Instr) -> ExprCost:
        if isinstance(instr, ir.LocalApply):
            # a composed fragment pays once per constituent pass
            parts = getattr(instr.fn, "parts", None)
            passes = len(parts) if parts is not None else 1
            return ExprCost(fn_time * passes + barrier, 0, 1)

        if isinstance(instr, ir.Exchange):
            total, degree = instr.traffic
            if total == 0:
                return ZERO  # e.g. fetch id — no wire traffic at all
            return ExprCost(msg * degree, total, 1)

        if isinstance(instr, ir.Collective):
            rounds = ceil_log2(n)
            if instr.kind in ("fold", "scan"):
                # log-n combine rounds; the rounds themselves are the
                # synchronisation, so no separate barrier term
                return ExprCost(rounds * (msg + fn_time), rounds * n // 2, 1)
            return ExprCost(rounds * msg, max(n - 1, 0), 1)

        if isinstance(instr, (ir.GroupSplit, ir.GroupCombine)):
            return ExprCost(barrier, 0, 1)

        if isinstance(instr, ir.SubPlan):
            # groups run concurrently: elapsed time is the slowest group's,
            # traffic is everyone's; plus the map-level synchronisation
            inner = [plan_cost(sub, spec=spec, fn_ops=fn_ops,
                               element_bytes=element_bytes)
                     for sub in instr.plans]
            return ExprCost(max(c.seconds for c in inner) + barrier,
                            sum(c.messages for c in inner),
                            max(c.barriers for c in inner) + 1)

        if isinstance(instr, ir.Loop):
            total = ZERO
            for body in instr.bodies:
                total = total + seq(body)
            return total

        raise AssertionError(f"unknown plan instruction {instr!r}")

    return seq(plan.instrs)
