"""Render trace analyses as aligned text tables.

Pure formatting over :mod:`repro.obs.analyze` — every function takes
analysis inputs and returns a string (the CLI prints them; tests assert
on them).  The headline table, :func:`instruction_report`, lines up the
cost model's *predicted* per-instruction seconds against the *observed*
elapsed window from the trace: because prediction and execution consume
the identical :class:`~repro.plan.ir.Plan`, the gap per row is model
error, not a compilation difference.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.machine.cost import MachineSpec
from repro.machine.trace import Trace
from repro.obs import analyze
from repro.plan import ir
from repro.plan.cost import plan_cost
from repro.util.tables import render_table

__all__ = [
    "skeleton_report",
    "instruction_report",
    "critical_path_report",
    "idle_report",
]


def _s(x: float) -> str:
    return f"{x:.3e}"


def skeleton_report(trace: Trace | Iterable) -> str:
    """Per-skeleton rollup: time, events, messages, bytes by root label."""
    rolls = analyze.by_skeleton(trace)
    rows = [[label, _s(r.elapsed), _s(r.seconds), r.events, r.messages,
             r.bytes]
            for label, r in sorted(rolls.items(),
                                   key=lambda kv: -kv[1].elapsed)]
    return render_table(
        "per-skeleton rollup",
        ["skeleton", "elapsed s", "busy s", "events", "msgs", "bytes"],
        rows,
        notes="elapsed = wall-clock window of the group across all "
              "processors; busy = summed event durations.")


def _predicted(plan: ir.Plan, instrs, spec: MachineSpec, fn_ops: float,
               element_bytes: int | None):
    return plan_cost(ir.Plan(tuple(instrs), plan.nprocs, plan.grid),
                     spec=spec, fn_ops=fn_ops, element_bytes=element_bytes)


def instruction_report(trace: Trace | Iterable, plan: ir.Plan | None = None, *,
                       spec: MachineSpec | None = None, fn_ops: float = 50.0,
                       element_bytes: int | None = None,
                       makespan: float | None = None) -> str:
    """Per-instruction observed costs, with predicted columns when a plan
    (and its ``spec``) is supplied.

    Observed ``elapsed`` is the wall-clock window the instruction's
    events occupied; ``msgs``/``bytes`` count its sends.  Predicted
    columns price the same single instruction with
    :func:`repro.plan.cost.plan_cost`.  Loops get per-iteration
    sub-rows, both columns.
    """
    rolls = analyze.by_instruction(trace)
    predict = plan is not None and spec is not None
    header = ["instruction", "elapsed s", "busy s", "msgs", "bytes"]
    if predict:
        header += ["predicted s", "pred msgs"]

    def row(title: str, r: analyze.Rollup | None, cost) -> list[Any]:
        cells: list[Any] = [title]
        if r is None:
            cells += ["-", "-", "-", "-"]
        else:
            cells += [_s(r.elapsed), _s(r.seconds), r.messages, r.bytes]
        if predict:
            cells += ([_s(cost.seconds), cost.messages]
                      if cost is not None else ["-", "-"])
        return cells

    rows: list[list[Any]] = []
    if plan is not None:
        for i, instr in enumerate(plan.instrs):
            cost = (_predicted(plan, [instr], spec, fn_ops, element_bytes)
                    if predict else None)
            rows.append(row(f"[{i:>2}] {ir.instr_title(instr)}",
                            rolls.get(i), cost))
            if isinstance(instr, ir.Loop):
                iters = analyze.by_iteration(trace, instr=i)
                for it, body in enumerate(instr.bodies):
                    cost = (_predicted(plan, body, spec, fn_ops,
                                       element_bytes) if predict else None)
                    rows.append(row(f"      iter {it}", iters.get(it), cost))
        stray = rolls.get(None)
        if stray is not None:
            rows.append(row(stray.label, stray, None))
    else:
        for key, r in sorted(rolls.items(),
                             key=lambda kv: (kv[0] is None, kv[0])):
            title = r.label if key is None else f"[{key:>2}] {r.label}"
            rows.append(row(title, r, None))
    if makespan is not None:
        cells: list[Any] = ["whole run (makespan)", _s(makespan),
                            "-", "-", "-"]
        if predict:
            cells += ["-", "-"]
        rows.append(cells)
    notes = ("observed columns aggregate the traced events of each "
             "top-level plan instruction; ")
    notes += (f"predicted columns price the same instruction with the plan "
              f"cost model (fn_ops={fn_ops:g}, element_bytes="
              f"{element_bytes})." if predict
              else "run with a plan and spec for predicted columns.")
    return render_table("per-instruction observed vs predicted"
                        if predict else "per-instruction observed costs",
                        header, rows, notes=notes)


def critical_path_report(cp: analyze.CriticalPath, *, top: int = 10) -> str:
    """Category breakdown of the critical path plus its longest segments."""
    cat_rows = [[cat, _s(sec), f"{100 * sec / cp.length:5.1f}%"]
                for cat, sec in cp.by_category().items()] if cp.length else [
        [cat, _s(sec), "-"] for cat, sec in cp.by_category().items()]
    out = render_table(
        "critical path by category",
        ["category", "seconds", "share"], cat_rows,
        notes=f"path: {len(cp.steps)} events, length {_s(cp.length)} s "
              "(= makespan; segments telescope exactly).")
    seg_rows = []
    for s in cp.top_segments(top):
        e = s.event
        where = str(e.span) if e.span is not None else analyze.UNTAGGED
        seg_rows.append([_s(s.seconds), e.pid, e.kind, s.edge, where])
    out += "\n" + render_table(
        f"top {min(top, len(cp.steps))} critical-path segments",
        ["seconds", "pid", "kind", "edge", "span"], seg_rows,
        notes="edge: what pinned the event's finish — the previous event "
              "on its processor (local), the matching send (network), or "
              "time zero (start).")
    return out


def idle_report(trace: Trace | Iterable, *, spec: MachineSpec,
                top: int = 10) -> str:
    """Who-waited-on-whom table, largest blocked time first."""
    idle = analyze.idle_attribution(trace, spec=spec)
    rows = [[pid, src, _s(sec)]
            for (pid, src), sec in list(idle.items())[:top]]
    return render_table(
        "idle time: waiting on whom",
        ["waiter", "waited on", "blocked s"], rows,
        notes="blocked = receive wait until arrival (recv overhead "
              "excluded); timeouts charge their whole window.")
