"""Human-readable rendering of lowered plans.

``pretty_plan`` prints a :class:`~repro.plan.ir.Plan` as a numbered
instruction listing — the plan-level counterpart of
:mod:`repro.scl.pretty`'s expression notation, and the renderer behind
``python -m repro plan``.  Communication instructions summarise their
precomputed tables (total messages, max fan-in/out) rather than dumping
every per-rank entry; pass ``tables=True`` for the full tables.
"""

from __future__ import annotations

from typing import Any

from repro.plan import ir

__all__ = ["pretty_plan"]


def _fn_name(f: Any) -> str:
    name = getattr(f, "__name__", None)
    if name and name != "<lambda>":
        return name
    parts = getattr(f, "parts", None)
    if parts is not None:
        return "(" + " . ".join(_fn_name(p) for p in parts) + ")"
    return "<fn>"


def _describe(instr: ir.Instr, tables: bool) -> str:
    if isinstance(instr, ir.LocalApply):
        kind = instr.label
        detail = _fn_name(instr.fn)
        if instr.indexed:
            detail += "  (indexed)"
        if instr.farm_env is not ir.NO_ENV:
            detail += "  env=" + repr(instr.farm_env)
        return f"local    {kind} {detail}"
    if isinstance(instr, ir.Exchange):
        total = sum(len(s) for s in instr.sends)
        fan_in = max((sum(1 for s in r if s != i)
                      for i, r in enumerate(instr.recvs)), default=0)
        line = (f"exchange {instr.label} mode={instr.mode} "
                f"msgs={total} max-fan-in={fan_in}")
        if tables:
            line += "".join(
                f"\n             rank {r}: send->{list(instr.sends[r])} "
                f"recv<-{list(instr.recvs[r])}"
                for r in range(len(instr.sends)))
        return line
    if isinstance(instr, ir.Collective):
        extra = ""
        if instr.kind in ("fold", "scan", "apply_bcast"):
            extra = f" op={_fn_name(instr.op)}"
        if instr.kind == "bcast":
            extra = f" value={instr.value!r}"
        if instr.root:
            extra += f" root={instr.root}"
        return f"coll     {instr.kind}{extra}"
    if isinstance(instr, ir.GroupSplit):
        sizes = "/".join(str(len(g)) for g in instr.groups)
        return f"split    {len(instr.groups)} groups ({sizes} ranks)"
    if isinstance(instr, ir.GroupCombine):
        return "combine"
    if isinstance(instr, ir.SubPlan):
        return f"subplan  {len(instr.plans)} group plans"
    if isinstance(instr, ir.Loop):
        return f"loop     {len(instr.bodies)} iterations"
    return repr(instr)


def pretty_plan(plan: ir.Plan, *, tables: bool = False,
                indent: str = "") -> str:
    """Render ``plan`` as a numbered instruction listing."""
    shape = (f"{plan.grid[0]}x{plan.grid[1]} grid" if plan.grid
             else f"{plan.nprocs} ranks")
    lines = [f"{indent}plan over {shape}"
             + (" -> scalar" if plan.returns_scalar else "")]
    lines.extend(_render_seq(plan.instrs, tables, indent))
    return "\n".join(lines)


def _render_seq(instrs, tables: bool, indent: str) -> list:
    lines = []
    for i, instr in enumerate(instrs):
        lines.append(f"{indent}  [{i:>2}] {_describe(instr, tables)}")
        if isinstance(instr, ir.Loop):
            for it, body in enumerate(instr.bodies):
                lines.append(f"{indent}       iter {it}:")
                lines.extend(_render_seq(body, tables, indent + "       "))
        if isinstance(instr, ir.SubPlan):
            seen = set()
            for g, sub in enumerate(instr.plans):
                if id(sub) in seen:
                    continue
                seen.add(id(sub))
                lines.append(f"{indent}       group {g}:")
                lines.append(pretty_plan(sub, tables=tables,
                                         indent=indent + "       "))
    return lines
