"""The plan optimizer: §4's transformation rules over the lowered Plan IR.

:mod:`repro.scl.optimize` rewrites the *symbolic* expression tree; this
module applies the same algebra *post-lowering*, where composition
structure that source rewriting cannot see (skeletons brought together by
``iterFor`` expansion, communication tables already evaluated) becomes a
flat instruction stream.  Three passes run in order:

1. **LocalApply fusion** (``fuse``) — ``map f . map g → map (f . g)``:
   every run of adjacent :class:`~repro.plan.ir.LocalApply` instructions
   (including inside ``Loop`` bodies and nested ``SubPlan`` s) merges into
   one instruction carrying a :class:`~repro.plan.ir.FusedKernel`.  The
   fused instruction charges the same summed fragment cost and produces
   bit-identical values — it only removes per-instruction dispatch and
   one barrier of predicted synchronisation per merged instruction.
2. **Exchange coalescing** (``coalesce``) — the paper's
   ``send f . send g = send (f ∘ g)``: adjacent pure-routing instructions
   (``Rotate`` and replace-mode ``Exchange``) compose into a single
   message round; ``Rotate k1 . Rotate k2`` folds to
   ``Rotate (k1+k2 mod p)`` and identity routings are dropped entirely.
   Each composition is cost-guarded: it is kept only when
   :func:`~repro.plan.cost.plan_cost` predicts no more seconds and no
   more messages than the pair it replaces (a hot-spot ``fetch`` composed
   with a scatter can *concentrate* traffic, which the guard rejects).
3. **Collective selection** (``select_collectives``) — per
   :class:`~repro.plan.ir.Collective`, price the tree/flat/ring message
   schedules with the plan cost model plus a topology hop term, and swap
   the ``algo`` field only on a *strict* predicted improvement with no
   regression on either axis (seconds, messages).  A message-count win
   alone flips the schedule only when the spec prices communication at
   exactly zero seconds — on a seconds tie with real comm cost the
   analytic model is blind to round pipelining, so the tree stays.  On
   latency-dominated specs the binomial tree therefore wins everywhere
   and nothing changes; on zero-cost models the rank-order chain scan
   strictly reduces message volume and is selected.

``optimize_plan`` is wired into :func:`repro.plan.lower.lower` via the
``opt=`` cache key (so optimized and raw plans never share cache
entries) and enabled by default in :mod:`repro.scl.compile`.  The fourth
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

__all__ = ["OptConfig", "optimize_plan", "optimize_plan_report",
           "topology_signature"]

#: Relative margin a candidate collective schedule must beat the tree by
#: (in predicted seconds) unless it strictly reduces messages on a spec
#: where communication costs exactly zero seconds.
_SELECT_MARGIN = 0.02


def topology_signature(topo: Any) -> tuple | None:
    """Hashable description of a topology (for the lowering cache key).

    Returns ``None`` for unknown topology classes — collective selection
    then skips its hop term rather than guessing distances.
    """
    name = type(topo).__name__
    if name in ("Hypercube", "Ring", "FullyConnected"):
        return (name, topo.size)
    if name == "Mesh2D":
        return (name, topo.rows, topo.cols, topo.torus)
    return None


def _topology_from_signature(sig: tuple):
    from repro.machine import topology as T

    name = sig[0]
    if name == "Hypercube":
        return T.Hypercube.of_size(sig[1])
    if name == "Ring":
        return T.Ring(sig[1])
    if name == "FullyConnected":
        return T.FullyConnected(sig[1])
    if name == "Mesh2D":
        return T.Mesh2D(sig[1], sig[2], torus=sig[3])
    raise ValueError(f"unknown topology signature {sig!r}")


@dataclasses.dataclass(frozen=True)
class OptConfig:
    """Per-pass switches plus the machine signature the passes price with.

    Hashable (``spec`` is a frozen dataclass, ``topo`` a plain tuple), so
    the whole config participates in the plan-cache key — a ``--no-opt``
    run can never be served an optimized cache entry, and plans optimized
    for different machines never alias.
    """

    fuse: bool = True
    coalesce: bool = True
    select_collectives: bool = True
    #: Cost model used by the guarded passes; ``None`` disables
    #: collective selection (no basis for pricing).
    spec: MachineSpec | None = None
    #: :func:`topology_signature` of the target interconnect.
    topo: tuple | None = None

    @classmethod
    def for_machine(cls, machine: Any, **flags: bool) -> "OptConfig":
        """The default config for a machine: all passes on, priced on its
        spec and topology."""
        return cls(spec=machine.spec,
                   topo=topology_signature(machine.topology), **flags)


@dataclasses.dataclass(frozen=True)
class PassNote:
    """One optimization decision, for ``repro plan`` diffs."""

    pass_name: str
    detail: str


def optimize_plan(plan: ir.Plan, config: OptConfig) -> ir.Plan:
    """Apply the enabled passes; returns a new (or the same) plan."""
    plan, _notes = optimize_plan_report(plan, config)
    return plan


def optimize_plan_report(plan: ir.Plan,
                         config: OptConfig) -> tuple[ir.Plan, tuple[PassNote, ...]]:
    """Like :func:`optimize_plan` but also reports what each pass did."""
    notes: list[PassNote] = []
    instrs = plan.instrs
    if config.coalesce:
        guard_spec = config.spec if config.spec is not None else AP1000
        instrs = _coalesce_seq(instrs, plan, guard_spec, notes)
    if config.fuse:
        instrs = _fuse_seq(instrs, notes)
    if config.select_collectives and config.spec is not None:
        instrs = _select_seq(instrs, plan, config, notes)
    if instrs is plan.instrs:
        return plan, tuple(notes)
    returns_scalar = bool(instrs) and isinstance(instrs[-1], ir.Collective) \
        and instrs[-1].kind == "fold"
    return (ir.Plan(tuple(instrs), plan.nprocs, plan.grid, returns_scalar),
            tuple(notes))


# ---------------------------------------------------------------- fusion

def _fuse_seq(instrs, notes: list[PassNote]):
    out: list[ir.Instr] = []
    run: list[ir.LocalApply] = []
    changed = False

    def flush():
        nonlocal changed
        if len(run) == 1:
            out.append(run[0])
        elif run:
            merged = _fuse_run(tuple(run))
            notes.append(PassNote(
                "fuse", f"merged {len(run)} local applies -> "
                        f"local {merged.label}"))
            out.append(merged)
            changed = True
        run.clear()

    for instr in instrs:
        if isinstance(instr, ir.LocalApply):
            run.append(instr)
            continue
        flush()
        out.append(_fuse_nested(instr, notes))
        if out[-1] is not instr:
            changed = True
    flush()
    return tuple(out) if changed else instrs


def _fuse_run(applies: tuple[ir.LocalApply, ...]) -> ir.LocalApply:
    # Flatten: a constituent that is itself fused contributes its parts.
    flat: list[ir.LocalApply] = []
    for a in applies:
        if isinstance(a.fn, ir.FusedKernel):
            flat.extend(a.fn.applies)
        else:
            flat.append(a)
    label = "+".join(a.label for a in flat)
    return ir.LocalApply(ir.FusedKernel(tuple(flat)),
                         indexed=any(a.indexed for a in flat),
                         label=label)


def _fuse_nested(instr: ir.Instr, notes: list[PassNote]) -> ir.Instr:
    if isinstance(instr, ir.Loop):
        bodies = tuple(_fuse_seq(body, notes) for body in instr.bodies)
        if all(b is o for b, o in zip(bodies, instr.bodies)):
            return instr
        return ir.Loop(bodies)
    if isinstance(instr, ir.SubPlan):
        plans = tuple(
            dataclasses.replace(sub, instrs=_fuse_seq(sub.instrs, notes))
            for sub in instr.plans)
        if all(s.instrs is o.instrs for s, o in zip(plans, instr.plans)):
            return instr
        return ir.SubPlan(plans)
    return instr


# ---------------------------------------------------- exchange coalescing

def _route_map(instr: ir.Instr, p: int) -> tuple[int, ...] | None:
    """``srcs[r]`` of a pure-routing instruction, or ``None``."""
    if isinstance(instr, ir.Rotate):
        return tuple((r + instr.k) % p for r in range(p))
    if isinstance(instr, ir.Exchange) and instr.mode == "replace":
        return tuple(instr.recvs[r][0] for r in range(p))
    return None


def _route_label(instr: ir.Instr) -> str:
    return (f"rot{instr.k}" if isinstance(instr, ir.Rotate)
            else instr.label)


def _cost_of(instrs, plan: ir.Plan, spec: MachineSpec) -> tuple[float, int]:
    c = plan_cost(ir.Plan(tuple(instrs), plan.nprocs, plan.grid, False),
                  spec=spec)
    return c.seconds, c.messages


def _coalesce_seq(instrs, plan: ir.Plan, spec: MachineSpec,
                  notes: list[PassNote]):
    p = plan.nprocs
    out: list[ir.Instr] = []
    changed = False
    for instr in instrs:
        nested = _coalesce_nested(instr, plan, spec, notes)
        if nested is not instr:
            changed = True
        instr = nested
        srcs = _route_map(instr, p)
        if srcs is not None and all(s == r for r, s in enumerate(srcs)):
            # identity routing: no traffic, no result change — drop it
            notes.append(PassNote(
                "coalesce", f"dropped identity {_route_label(instr)}"))
            changed = True
            continue
        if out and srcs is not None:
            prev_srcs = _route_map(out[-1], p)
            if prev_srcs is not None:
                merged = _compose_routes(out[-1], prev_srcs, instr, srcs, p,
                                         plan, spec, notes)
                if merged is not None:
                    out.pop()
                    if merged:
                        out.append(merged[0])
                    changed = True
                    continue
        out.append(instr)
    return tuple(out) if changed else instrs


def _compose_routes(a: ir.Instr, srcs_a, b: ir.Instr, srcs_b, p: int,
                    plan: ir.Plan, spec: MachineSpec,
                    notes: list[PassNote]):
    """Compose routing ``a`` then ``b`` into one round, if never costlier.

    Returns ``None`` to keep the pair, ``()`` when the composition is the
    identity (both dropped), or a 1-tuple with the merged instruction.
    """
    composed = tuple(srcs_a[srcs_b[r]] for r in range(p))
    la, lb = _route_label(a), _route_label(b)
    if all(s == r for r, s in enumerate(composed)):
        notes.append(PassNote("coalesce", f"{la} . {lb} cancels out"))
        return ()
    if isinstance(a, ir.Rotate) and isinstance(b, ir.Rotate):
        merged: ir.Instr = ir.Rotate((a.k + b.k) % p)
    else:
        merged = ir.Exchange.from_sources("replace", composed, f"{la}+{lb}")
    sec_m, msg_m = _cost_of([merged], plan, spec)
    sec_ab, msg_ab = _cost_of([a, b], plan, spec)
    if sec_m > sec_ab or msg_m > msg_ab:
        return None  # composition would concentrate traffic — keep the pair
    notes.append(PassNote(
        "coalesce", f"merged {la} . {lb} into one round "
                    f"({msg_ab} -> {msg_m} msgs)"))
    return (merged,)


def _coalesce_nested(instr: ir.Instr, plan: ir.Plan, spec: MachineSpec,
                     notes: list[PassNote]) -> ir.Instr:
    if isinstance(instr, ir.Loop):
        bodies = tuple(_coalesce_seq(body, plan, spec, notes)
                       for body in instr.bodies)
        if all(b is o for b, o in zip(bodies, instr.bodies)):
            return instr
        return ir.Loop(bodies)
    if isinstance(instr, ir.SubPlan):
        plans = tuple(
            dataclasses.replace(
                sub, instrs=_coalesce_seq(sub.instrs, sub, spec, notes))
            for sub in instr.plans)
        if all(s.instrs is o.instrs for s, o in zip(plans, instr.plans)):
            return instr
        return ir.SubPlan(plans)
    return instr


# ------------------------------------------------- collective selection

#: Candidate schedules per collective kind (``"tree"`` is the default and
#: always a candidate).
_CANDIDATES = {
    "fold": ("flat",),
    "scan": ("ring",),
    "bcast": ("flat", "ring"),
    "apply_bcast": ("flat", "ring"),
}


def _extra_hops(kind: str, algo: str, n: int, topo) -> int:
    """Hops beyond the first on the schedule's critical message path."""
    if topo is None or n <= 1:
        return 0

    def h(a: int, b: int) -> int:
        return topo.hops(a % n, b % n)

    if algo == "tree":
        # doubling distances: round k spans 2^k ranks
        return sum(max(h(0, 1 << k) - 1, 0)
                   for k in range((n - 1).bit_length()))
    if algo == "ring":
        return (n - 1) * max(h(0, 1) - 1, 0)
    # flat: root talks to every member; the farthest dominates
    return max(max(h(0, r) - 1, 0) for r in range(1, n))


def _select_seq(instrs, plan: ir.Plan, config: OptConfig,
                notes: list[PassNote]):
    out: list[ir.Instr] = []
    changed = False
    for instr in instrs:
        if isinstance(instr, ir.Loop):
            bodies = tuple(_select_seq(body, plan, config, notes)
                           for body in instr.bodies)
            if not all(b is o for b, o in zip(bodies, instr.bodies)):
                instr = ir.Loop(bodies)
                changed = True
        elif isinstance(instr, ir.SubPlan):
            plans = tuple(
                dataclasses.replace(
                    sub, instrs=_select_seq(sub.instrs, sub, config, notes))
                for sub in instr.plans)
            if not all(s.instrs is o.instrs
                       for s, o in zip(plans, instr.plans)):
                instr = ir.SubPlan(plans)
                changed = True
        elif isinstance(instr, ir.Collective) and instr.algo == "tree":
            picked = _select_collective(instr, plan, config, notes)
            if picked is not instr:
                instr = picked
                changed = True
        out.append(instr)
    return tuple(out) if changed else instrs


def _select_collective(instr: ir.Collective, plan: ir.Plan,
                       config: OptConfig,
                       notes: list[PassNote]) -> ir.Collective:
    spec = config.spec
    topo = (_topology_from_signature(config.topo)
            if config.topo is not None else None)
    n = plan.nprocs

    def price(algo: str) -> tuple[float, float, int]:
        """(hop-aware seconds, plain plan-cost seconds, messages)."""
        cand = dataclasses.replace(instr, algo=algo)
        c = plan_cost(ir.Plan((cand,), n, plan.grid, False), spec=spec)
        hop_s = spec.per_hop_latency * _extra_hops(instr.kind, algo, n, topo)
        return c.seconds + hop_s, c.seconds, c.messages

    tree_s, tree_plain, tree_m = price("tree")
    best, best_s, best_m = instr, tree_s, tree_m
    for algo in _CANDIDATES.get(instr.kind, ()):
        s, plain, m = price(algo)
        # Never worse on either axis — under the hop-aware model *and*
        # under the plain plan-cost model the test-suite's "predicted
        # cost never worse" property is stated over — and strictly
        # better on one (seconds by a real margin).
        if s > tree_s or plain > tree_plain or m > tree_m:
            continue
        # Switch only for a real predicted-seconds win, or — when the
        # spec prices all communication at exactly zero seconds, so no
        # schedule can change the makespan — for fewer messages.  On a
        # seconds *tie* with nonzero comm cost the analytic model is
        # blind to pipelining (e.g. tree-scan rounds overlap where a
        # rank-order chain is serial), so a message win alone must not
        # flip the schedule.
        if not (s < tree_s * (1.0 - _SELECT_MARGIN)
                or (m < tree_m and tree_plain == 0.0 and plain == 0.0)):
            continue
        if (s, m) < (best_s, best_m):
            best = dataclasses.replace(instr, algo=algo)
            best_s, best_m = s, m
    if best is not instr:
        notes.append(PassNote(
            "select", f"coll {instr.kind}: tree -> {best.algo} "
                      f"(predicted {tree_s:.3e}s/{tree_m} msgs -> "
                      f"{best_s:.3e}s/{best_m} msgs)"))
    return best
