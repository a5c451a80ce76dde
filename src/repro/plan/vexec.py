"""The vectorized data plane: one whole-machine walk of a flat plan.

Fault-free plan execution is fully deterministic: every message's source,
payload and size — and every compute charge — is a pure function of the
plan and the input values.  :func:`precompute` exploits that: it walks
the plan *once*, evolving all p ranks' values together, and advances the
machine's timeline one whole instruction at a time: the lockstep
arithmetic (:class:`repro.machine.lockstep.Lockstep`) on a multi-port
machine, the request recorder (:class:`repro.machine.lockstep.Recorder`)
whose lists the per-event engine times on a single-port one.  The walk
cannot tell the two apart.

* **Values**: a fragment that registered its whole-machine form
  (:mod:`repro.plan.kernels`) runs as one call across the ranks instead
  of p Python calls — one SoA numpy op where the ranks' blocks are
  uniform, one loop that shares what the ranks share where they are
  ragged; opaque fragments fall back to the per-rank loop.  What a rank
  receives is read straight off the instruction's receive table — no
  message carries it.
* **Time**: each instruction is one bulk step of the timeline — a
  ``LocalApply`` one :meth:`~repro.machine.lockstep.Lockstep.work_all`
  of the charges the interpreter would have yielded (the registered
  all-ranks cost when the fragment has one, else its per-rank tag on
  each value: :func:`repro.plan.ir.fragment_ops_all`), an ``Exchange`` one
  :meth:`~repro.machine.lockstep.Lockstep.exchange` over its tables with
  each sender's value sized once, a ``Collective`` one ``exchange`` per
  round of its schedule (:func:`repro.machine.collectives.bcast_rounds`
  and friends — the static form of the generators the interpreter runs)
  followed by that round's combines.  The clock rules themselves live in
  :mod:`repro.machine`; this module only decides *what* each rank asks
  for, and the timeline's clocks, message counts and per-processor stats
  equal an interpreted run's bit for bit.
* **Matching** is static.  Which send each receive of an exchange
  consumes is :attr:`repro.plan.ir.Exchange.wiring`, worked out once per
  instruction; a plan holding an exchange whose tables do not match up is
  declined before the timeline is touched, so the interpreter reports the
  error and the walk has no per-request path to fall back on.
* **Trace**: on a tracing timeline (``timeline.tracing``) the walk
  sets, before each instruction, the span
  :func:`~repro.machine.plan_exec.execute_plan` pushes for it —
  ``label → [i] instruction → iter k → …`` — built once and shared by
  all ranks, and sends on the tags the interpreter uses
  (:data:`~repro.machine.plan_exec.EXCHANGE_TAG`, each collective
  round's :attr:`~repro.machine.collectives.Round.tag`).  Every
  processor's events then equal the interpreter's; on a multi-port
  machine only their global order differs (:mod:`repro.machine.lockstep`),
  on a single-port one not even that.

* **Copies**: ``values`` may hold the inputs of ``k`` independent runs
  of the plan back to back — ``k = len(values) // plan.nprocs`` — on a
  timeline of ``k`` copies of the plan's machine
  (:meth:`Machine.copies <repro.machine.simulator.Machine.copies>`),
  copy ``c``'s rank ``j`` being rank ``c·m + j``.  Each instruction is
  still one bulk step: its send / receive tables and each collective
  round are walked as ``k`` block-diagonal copies (:func:`copied`,
  worked out once per instruction and ``k``; a send table names its
  destinations within the sender's copy), a broadcast root and its
  piece, the fold's reduce-then-broadcast and an indexed fragment's rank
  (``r mod m``) are per copy.  Copies share no message, and each rank's
  requests are those of its solo run, in the same order — so are its
  clock's float additions.  ``k = 1`` walks the instruction's own tables.

Eligibility (:func:`precompute` returns ``None`` otherwise): flat plans
only — ``LocalApply`` / ``Exchange`` / ``Collective`` / ``Loop`` — whose
exchanges are all wired.  Group instructions keep the interpreter path
(their value is nesting, not throughput).  Whether a run takes the walk
at all is the machine's decision
(:meth:`repro.machine.simulator.Machine.run`): fault-injected machines
and ``batch=False`` interpret.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.machine import collectives as C
from repro.machine.cost import estimate_nbytes
from repro.machine.lockstep import Lockstep, Recorder
from repro.machine.plan_exec import EXCHANGE_TAG
from repro.machine.trace import Span
from repro.plan import ir
from repro.plan.kernels import batched_apply

__all__ = ["copied", "precompute", "supported"]


def supported(plan: ir.Plan) -> bool:
    """True when every instruction (recursively) can be walked."""
    return _seq_supported(plan.instrs, plan.nprocs)


def _seq_supported(instrs, p: int) -> bool:
    for instr in instrs:
        if isinstance(instr, ir.Exchange):
            if instr.wiring is None or len(instr.sends) != p:
                return False
        elif isinstance(instr, ir.Loop):
            if not all(_seq_supported(body, p) for body in instr.bodies):
                return False
        elif not isinstance(instr, (ir.LocalApply, ir.Collective)):
            return False
    return True


def precompute(plan: ir.Plan, values: Sequence[Any],
               timeline: Lockstep | Recorder, label: str = "plan"):
    """Walk one execution of ``plan`` over ``values`` on ``timeline``.

    Returns the final per-rank local values — with every rank's requests
    made on ``timeline`` along the way — or ``None``, before touching the
    timeline, when the plan contains instructions the walk does not
    cover.  This is the ``walk`` :meth:`Machine.run
    <repro.machine.simulator.Machine.run>` accepts (bind ``plan``,
    ``values`` and the interpreter's ``label``, the root span of a traced
    run).  ``values`` holding ``k`` runs' inputs back to back walks the
    ``k`` copies at once (see the module docstring).
    """
    if not supported(plan):
        return None
    return _run_seq(plan.instrs, plan, timeline, list(values),
                    Span(label) if timeline.tracing else None,
                    len(values) // plan.nprocs)


def copied(sends, recvs, slots, m: int, k: int) -> tuple:
    """One ``m``-rank pattern's tables — ``sends``, ``recvs`` and their
    :func:`~repro.machine.lockstep.wire` ``slots`` — for ``k`` copies of
    the machine side by side: copy ``c``'s rank ``j`` is rank ``c·m + j``
    and talks only to ranks of its own copy, and its send numbers follow
    those of the copies before it (a local ``-1`` stays).  The receive
    table names whole-machine ranks; the send table names each
    destination within its sender's copy, the form
    :meth:`Lockstep.exchange <repro.machine.lockstep.Lockstep.exchange>`
    prices copies in — so it is ``sends`` itself, ``k`` times.  The
    slots are what ``wire`` makes of the copied tables (send table
    offset like the receive table)."""
    per_copy = sum(map(len, sends))
    out_recvs, out_slots = [], []
    for c in range(k):
        base, first = c * m, c * per_copy
        out_recvs += [tuple(s + base for s in row) for row in recvs]
        out_slots += [tuple(s + first if s >= 0 else -1 for s in row)
                      for row in slots]
    return tuple(sends) * k, tuple(out_recvs), tuple(out_slots)


def _copies_of(instr, m: int, k: int):
    """:func:`copied` of ``instr``'s tables (an exchange's; a collective's
    per round of its :func:`_schedule`), worked out once per ``(m, k)``
    and kept on the instruction."""
    key = ("copies", m, k)
    tables = instr.results.get(key)
    if tables is None:
        if isinstance(instr, ir.Exchange):
            tables = copied(instr.sends, instr.recvs, instr.wiring, m, k)
        else:
            tables = tuple(
                tuple(C.Round(*copied(rnd.sends, rnd.recvs, rnd.slots, m, k),
                              rnd.tag) for rnd in rounds)
                for rounds in _schedule(instr, m))
        instr.results[key] = tables
    return tables


# ------------------------------------------------------------ data plane

def _run_seq(instrs, plan, timeline, values, parent, k):
    """Step each instruction in turn, for ``k`` copies.  A traced run
    passes the enclosing span as ``parent`` (an untraced one ``None``),
    and each instruction's own span, a child of it, is set before its
    step."""
    for i, instr in enumerate(instrs):
        if parent is not None:
            timeline.span = Span(ir.instr_title(instr), i, None, parent)
        values = _step(instr, plan, timeline, values, k)
    return values


def _step(instr, plan, timeline, values, k):
    if isinstance(instr, ir.LocalApply):
        # charge first (matching the interpreter's clock order), apply SoA
        if isinstance(instr.fn, ir.FusedKernel):
            ops = [0.0] * len(values)
            for a in instr.fn.applies:
                ops = [total + charge for total, charge in
                       zip(ops, ir.fragment_ops_all(a.fn, values))]
                values = _apply_one(a, plan, values)
            timeline.work_all(ops)
            return values
        timeline.work_all(ir.fragment_ops_all(instr.fn, values))
        return _apply_one(instr, plan, values)

    if isinstance(instr, ir.Exchange):
        sends, recvs, wiring = (
            (instr.sends, instr.recvs, instr.wiring) if k == 1
            else _copies_of(instr, plan.nprocs, k))
        sent = values if instr.part is None else [
            instr.carried(local) for local in values]
        _exchange(timeline, sends, wiring, sent, EXCHANGE_TAG)
        if instr.mode == "collect":
            return [[sent[src] for src in srcs] for srcs in recvs]
        return [instr.landed(local, sent[src])
                for local, (src,) in zip(values, recvs)]

    if isinstance(instr, ir.Collective):
        return _collective(instr, values, timeline, plan.nprocs, k)

    if isinstance(instr, ir.Loop):
        loop_span = timeline.span
        for i, body in enumerate(instr.bodies):
            values = _run_seq(body, plan, timeline, values,
                              None if loop_span is None
                              else Span(f"iter {i}", None, i, loop_span), k)
        return values

    raise AssertionError(f"unwalkable plan instruction {instr!r}")


def _exchange(timeline, sends, slots, values, tag) -> None:
    """One bulk step in which every rank with destinations sends the value
    it holds, sized once however many copies go out."""
    word_bytes = timeline.spec.word_bytes
    timeline.exchange(sends, slots, [
        estimate_nbytes(value, word_bytes) if dsts else 0
        for value, dsts in zip(values, sends)], tag)


def _apply_one(a: ir.LocalApply, plan, values):
    if a.indexed:
        m = plan.nprocs  # a copy's rank r is rank r mod m of its own run
        if plan.grid is not None:
            cols = plan.grid[1]
            return [a.fn(divmod(r % m, cols), v)
                    for r, v in enumerate(values)]
        return [a.fn(r % m, v) for r, v in enumerate(values)]
    if a.farm_env is not ir.NO_ENV:
        return [a.fn(a.farm_env, v) for v in values]
    return batched_apply(a.fn, values)


# ----------------------------------------------------------- collectives

def _schedule(instr, m: int) -> tuple:
    """A collective's rounds over ``m`` ranks: ``(combining, broadcast)``
    — a scan's or a fold's reduce rounds, then the rounds that broadcast
    a result (the fold's total, a ``bcast`` / ``apply_bcast`` piece)."""
    kind = instr.kind
    if kind == "scan":
        return C.scan_rounds(m), ()
    if kind == "fold":
        return C.reduce_rounds(m), C.bcast_rounds(m)
    if kind in ("bcast", "apply_bcast"):
        return (), C.bcast_rounds(m, instr.root)
    raise AssertionError(f"unknown collective kind {kind!r}")


def _collective(instr, values, timeline, m, k):
    """A collective as the rounds of its schedule: each round one bulk
    exchange of what its senders hold *at that round*, then the receivers'
    combines — the requests, sizes and operand order of
    :meth:`repro.machine.plan_exec.DirectTransport.collective`.  Over
    ``k`` copies the rounds are block-diagonal, and what a root holds,
    applies or broadcasts is its own copy's."""
    combining, rounds = (_schedule(instr, m) if k == 1
                         else _copies_of(instr, m, k))
    kind = instr.kind
    op = instr.op
    if kind == "scan":
        for rnd in combining:
            _exchange(timeline, rnd.sends, rnd.slots, values, rnd.tag)
            values = [op(values[srcs[0]], my) if srcs else my
                      for my, srcs in zip(values, rnd.recvs)]
        return values
    if kind == "fold":
        for rnd in combining:
            _exchange(timeline, rnd.sends, rnd.slots, values, rnd.tag)
            values = [op(acc, values[srcs[0]]) if srcs else acc
                      for acc, srcs in zip(values, rnd.recvs)]
        totals = values[::m]  # each copy's rank 0
        _bcast(timeline, totals, rounds, m)
        scalars: list = []
        for total in totals:
            scalars += [ir.Scalar(total)] * m
        return scalars
    if kind == "bcast":
        pieces = [instr.value] * k
    else:
        pieces = []
        for root in range(instr.root, k * m, m):
            local = values[root]
            timeline.work(root, ir.fragment_ops(op, local))
            pieces.append(op(local))
    _bcast(timeline, pieces, rounds, m)
    if k == 1:
        piece = pieces[0]
        return [(piece, mine) for mine in values]
    return [(pieces[r // m], mine) for r, mine in enumerate(values)]


def _bcast(timeline, pieces, rounds, m) -> None:
    """Every sender of a broadcast forwards the one object it received,
    so one sizing per copy serves all the rounds."""
    if rounds:
        word_bytes = timeline.spec.word_bytes
        sizes: list[int] = []
        for piece in pieces:
            sizes += [estimate_nbytes(piece, word_bytes)] * m
        for rnd in rounds:
            timeline.exchange(rnd.sends, rnd.slots, sizes, rnd.tag)
