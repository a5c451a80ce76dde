"""The plan optimizer: §4's transformation rules over the lowered Plan IR.

:mod:`repro.scl.optimize` rewrites the *symbolic* expression tree; this
module applies the same algebra *post-lowering*, where composition
structure that source rewriting cannot see (skeletons brought together by
``iterFor`` expansion, communication tables already evaluated) becomes a
flat instruction stream.  Two passes run, coalescing first (a dropped
identity routing can bring two local applies together):

1. **Exchange coalescing** — the paper's
   ``send f . send g = send (f ∘ g)``: adjacent pure-routing instructions
   (replace-mode ``Exchange`` s of whole values, a rotate's shift among
   them — never one part of a ``redistribution``) compose
   into a single message round — ``rotate k1 . rotate k2`` comes out as
   the tables of ``rotate (k1+k2)`` — and identity routings are dropped
   entirely.
   Each composition is cost-guarded: it is kept only when
   :func:`~repro.plan.cost.plan_cost` predicts no more seconds and no
   more messages than the pair it replaces (a hot-spot ``fetch`` composed
   with a scatter can *concentrate* traffic, which the guard rejects).
2. **LocalApply fusion** — ``map f . map g → map (f . g)``:
   every run of adjacent :class:`~repro.plan.ir.LocalApply` instructions
   (including inside ``Loop`` bodies and nested ``SubPlan`` s) merges into
   one instruction carrying a :class:`~repro.plan.ir.FusedKernel`.  The
   fused instruction charges the same summed fragment cost and produces
   bit-identical values — it only removes per-instruction dispatch and
   one barrier of predicted synchronisation per merged instruction.

Collectives always run the binomial-tree schedules of
:mod:`repro.machine.collectives`: under ``plan_cost``'s single-port
pricing no other schedule can be predicted cheaper on a spec where a
message costs time (ROADMAP item 4 records what the simulator sees
instead).

``optimize_plan`` is wired into :func:`repro.plan.lower.lower` via the
``opt=`` cache key (so optimized and raw plans never share cache
entries) and enabled by default in :mod:`repro.scl.compile`.  The third
piece of the optimizer — the vectorized SoA kernel backend — lives in
:mod:`repro.plan.vexec`; it is no pass and has no switch: the machine
takes it whenever the run allows (:meth:`Machine.run
<repro.machine.simulator.Machine.run>`).
"""

from __future__ import annotations

import dataclasses
from typing import Any

from repro.machine.cost import AP1000, MachineSpec
from repro.plan import ir
from repro.plan.cost import plan_cost

__all__ = ["OptConfig", "optimize_plan", "optimize_plan_report"]


@dataclasses.dataclass(frozen=True)
class OptConfig:
    """The machine spec the cost-guarded coalescing pass prices with.

    Hashable (``spec`` is a frozen dataclass), so the config participates
    in the plan-cache key — a ``--no-opt`` run can never be served an
    optimized cache entry, and plans optimized for different specs never
    alias.
    """

    #: Cost model of the coalescing guard (and of a tuned search's ranking).
    spec: MachineSpec = AP1000

    @classmethod
    def for_machine(cls, machine: Any) -> "OptConfig":
        """The config for a machine: priced on its spec."""
        return cls(spec=machine.spec)


@dataclasses.dataclass(frozen=True)
class PassNote:
    """One optimization decision, for ``repro plan`` diffs."""

    pass_name: str
    detail: str


def optimize_plan(plan: ir.Plan, config: OptConfig) -> ir.Plan:
    """Apply the passes; returns a new (or the same) plan."""
    plan, _notes = optimize_plan_report(plan, config)
    return plan


def optimize_plan_report(plan: ir.Plan, config: OptConfig,
                         ) -> tuple[ir.Plan, tuple[PassNote, ...]]:
    """Like :func:`optimize_plan` but also reports what each pass did."""
    notes: list[PassNote] = []
    instrs = _fuse_seq(_coalesce_seq(plan.instrs, plan, config.spec, notes),
                       notes)
    if instrs == plan.instrs:
        return plan, tuple(notes)
    return ir.Plan(instrs, plan.nprocs, plan.grid), tuple(notes)


def _memoised(instr: ir.Instr, key: tuple, notes: list[PassNote],
              run, *args):
    """``run(*args, notes)``, kept in ``instr.results`` under ``key`` (all
    else it depends on) with the notes it emitted, which a hit replays."""
    hit = instr.results.get(key)
    if hit is None:
        emitted: list[PassNote] = []
        hit = instr.results[key] = (run(*args, emitted), tuple(emitted))
    notes.extend(hit[1])
    return hit[0]


# ---------------------------------------------------------------- fusion

def _fuse_seq(instrs, notes: list[PassNote]) -> tuple[ir.Instr, ...]:
    out: list[ir.Instr] = []
    run: list[ir.LocalApply] = []

    def flush():
        if len(run) == 1:
            out.append(run[0])
        elif run:
            merged = _fuse_run(tuple(run))
            notes.append(PassNote(
                "fuse", f"merged {len(run)} local applies -> "
                        f"local {merged.label}"))
            out.append(merged)
        run.clear()

    for instr in instrs:
        if isinstance(instr, ir.LocalApply):
            run.append(instr)
            continue
        flush()
        if isinstance(instr, (ir.Loop, ir.SubPlan)):
            # fusion reads neither the machine nor the plan's shape
            instr = _memoised(instr, ("fuse",), notes, _fuse_nested, instr)
        out.append(instr)
    flush()
    return tuple(out)


def _fuse_run(applies: tuple[ir.LocalApply, ...]) -> ir.LocalApply:
    """The instruction ``applies`` fuse into, kept on the first of them so
    that every plan holding the run gets the same one."""
    key = ("fuse", applies[1:])
    fused = applies[0].results.get(key)
    if fused is None:
        # Flatten: a constituent that is itself fused contributes its parts.
        flat: list[ir.LocalApply] = []
        for a in applies:
            if isinstance(a.fn, ir.FusedKernel):
                flat.extend(a.fn.applies)
            else:
                flat.append(a)
        fused = applies[0].results[key] = ir.LocalApply(
            ir.FusedKernel(tuple(flat)), indexed=any(a.indexed for a in flat),
            label="+".join(a.label for a in flat))
    return fused


def _fuse_nested(instr: ir.Loop | ir.SubPlan,
                 notes: list[PassNote]) -> ir.Instr:
    # interned: an unchanged loop or group stage comes back as itself
    if isinstance(instr, ir.Loop):
        return ir.Loop(tuple(_fuse_seq(body, notes) for body in instr.bodies))
    return ir.SubPlan(tuple(
        dataclasses.replace(sub, instrs=_fuse_seq(sub.instrs, notes))
        for sub in instr.plans))


# ---------------------------------------------------- exchange coalescing

def _route_map(instr: ir.Instr) -> tuple[int, ...] | None:
    """``srcs[r]`` of a pure-routing instruction, or ``None``.

    An exchange moving one part of a tuple is no pure routing: composed
    with the routing of another part it would move both parts by one map,
    and even alone it checks the shape of what it moves."""
    if isinstance(instr, ir.Exchange) and instr.mode == "replace" \
            and instr.part is None:
        return instr.sources
    return None


def _cost_of(instrs, plan: ir.Plan, spec: MachineSpec) -> tuple[float, int]:
    c = plan_cost(ir.Plan(tuple(instrs), plan.nprocs, plan.grid), spec=spec)
    return c.seconds, c.messages


def _coalesce_seq(instrs, plan: ir.Plan, spec: MachineSpec,
                  notes: list[PassNote]) -> tuple[ir.Instr, ...]:
    out: list[ir.Instr] = []
    for instr in instrs:
        if isinstance(instr, (ir.Loop, ir.SubPlan)):
            instr = _memoised(
                instr, ("coalesce", plan.nprocs, plan.grid, spec), notes,
                _coalesce_nested, instr, plan, spec)
        srcs = _route_map(instr)
        if srcs is not None and all(s == r for r, s in enumerate(srcs)):
            # identity routing: no traffic, no result change — drop it
            notes.append(PassNote(
                "coalesce", f"dropped identity {instr.label}"))
            continue
        if out and srcs is not None:
            prev = out[-1]
            if _route_map(prev) is not None:
                merged = _memoised(
                    prev, ("route", instr, plan.nprocs, plan.grid, spec),
                    notes, _compose_routes, prev, instr, plan, spec)
                if merged is not None:
                    out.pop()
                    if merged:
                        out.append(merged[0])
                    continue
        out.append(instr)
    return tuple(out)


def _compose_routes(a: ir.Exchange, b: ir.Exchange, plan: ir.Plan,
                    spec: MachineSpec, notes: list[PassNote]):
    """Compose routing ``a`` then ``b`` into one round, if never costlier.

    Returns ``None`` to keep the pair, ``()`` when the composition is the
    identity (both dropped), or a 1-tuple with the merged instruction.
    """
    srcs_a, srcs_b = a.sources, b.sources
    composed = tuple(srcs_a[srcs_b[r]] for r in range(plan.nprocs))
    la, lb = a.label, b.label
    if all(s == r for r, s in enumerate(composed)):
        notes.append(PassNote("coalesce", f"{la} . {lb} cancels out"))
        return ()
    merged = ir.Exchange.from_sources("replace", composed, f"{la}+{lb}")
    sec_m, msg_m = _cost_of([merged], plan, spec)
    sec_ab, msg_ab = _cost_of([a, b], plan, spec)
    if sec_m > sec_ab or msg_m > msg_ab:
        return None  # composition would concentrate traffic — keep the pair
    notes.append(PassNote(
        "coalesce", f"merged {la} . {lb} into one round "
                    f"({msg_ab} -> {msg_m} msgs)"))
    return (merged,)


def _coalesce_nested(instr: ir.Loop | ir.SubPlan, plan: ir.Plan,
                     spec: MachineSpec, notes: list[PassNote]) -> ir.Instr:
    if isinstance(instr, ir.Loop):
        return ir.Loop(tuple(_coalesce_seq(body, plan, spec, notes)
                             for body in instr.bodies))
    return ir.SubPlan(tuple(
        dataclasses.replace(
            sub, instrs=_coalesce_seq(sub.instrs, sub, spec, notes))
        for sub in instr.plans))
