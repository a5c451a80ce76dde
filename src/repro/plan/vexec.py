"""The vectorized data plane: one whole-machine walk of a flat plan.

Fault-free plan execution is fully deterministic: every message's source,
payload and size — and every compute charge — is a pure function of the
plan and the input values.  :func:`precompute` exploits that: it walks
the plan *once*, evolving all p ranks' values together, and advances the
machine's lockstep timeline (:class:`repro.machine.lockstep.Lockstep`)
one whole instruction at a time.

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
* **Trace**: on a traced timeline the walk sets, before each
  instruction, the span :func:`~repro.machine.plan_exec.execute_plan`
  pushes for it — ``label → [i] instruction → iter k → …`` — built once
  and shared by all ranks, and sends on the tags the interpreter uses
  (:data:`~repro.machine.plan_exec.EXCHANGE_TAG`, each collective
  round's :attr:`~repro.machine.collectives.Round.tag`).  Every
  processor's events then equal the interpreter's; only their global
  order differs (:mod:`repro.machine.lockstep`).

Eligibility (:func:`precompute` returns ``None`` otherwise): flat plans
only — ``LocalApply`` / ``Exchange`` / ``Collective`` / ``Loop`` — whose
exchanges are all wired.  Group instructions keep the interpreter path
(their value is nesting, not throughput).  Whether a run takes the walk
at all is the machine's decision
(:meth:`repro.machine.simulator.Machine.run`): fault-injected and
single-port machines interpret.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.machine import collectives as C
from repro.machine.cost import estimate_nbytes
from repro.machine.lockstep import Lockstep
from repro.machine.plan_exec import EXCHANGE_TAG
from repro.machine.trace import Span
from repro.plan import ir
from repro.plan.kernels import batched_apply

__all__ = ["precompute", "supported"]


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


def precompute(plan: ir.Plan, values: Sequence[Any], timeline: Lockstep,
               label: str = "plan"):
    """Walk one execution of ``plan`` over ``values`` on ``timeline``.

    Returns the final per-rank local values — with every rank's requests
    made on ``timeline`` along the way — or ``None``, before touching the
    timeline, when the plan contains instructions the walk does not
    cover.  This is the ``walk`` :meth:`Machine.run
    <repro.machine.simulator.Machine.run>` accepts (bind ``plan``,
    ``values`` and the interpreter's ``label``, the root span of a traced
    run).
    """
    if not supported(plan):
        return None
    if timeline.trace is None:
        return _run_seq(plan.instrs, plan, timeline, list(values))
    return _run_traced(plan.instrs, plan, timeline, list(values),
                       Span(label))


# ------------------------------------------------------------ data plane

def _run_seq(instrs, plan, timeline, values):
    for instr in instrs:
        values = _step(instr, plan, timeline, values)
    return values


def _run_traced(instrs, plan, timeline, values, parent):
    """:func:`_run_seq` setting each instruction's span, a child of
    ``parent``, before its step."""
    for i, instr in enumerate(instrs):
        timeline.span = Span(ir.instr_title(instr), i, None, parent)
        values = _step(instr, plan, timeline, values)
    return values


def _step(instr, plan, timeline, values):
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
        _exchange(timeline, instr.sends, instr.wiring, values, EXCHANGE_TAG)
        if instr.mode == "collect":
            return [[values[src] for src in srcs] for srcs in instr.recvs]
        if instr.mode == "pair":
            return [(local, values[src])
                    for local, (src,) in zip(values, instr.recvs)]
        return [values[src] for (src,) in instr.recvs]

    if isinstance(instr, ir.Collective):
        return _collective(instr, values, timeline)

    if isinstance(instr, ir.Loop):
        loop_span = timeline.span
        for k, body in enumerate(instr.bodies):
            if timeline.trace is None:
                values = _run_seq(body, plan, timeline, values)
            else:
                values = _run_traced(body, plan, timeline, values,
                                     Span(f"iter {k}", None, k, loop_span))
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
        if plan.grid is not None:
            cols = plan.grid[1]
            return [a.fn(divmod(r, cols), v) for r, v in enumerate(values)]
        return [a.fn(r, v) for r, v in enumerate(values)]
    if a.farm_env is not ir.NO_ENV:
        return [a.fn(a.farm_env, v) for v in values]
    return batched_apply(a.fn, values)


# ----------------------------------------------------------- collectives

def _collective(instr, values, timeline):
    """A collective as the rounds of its schedule: each round one bulk
    exchange of what its senders hold *at that round*, then the receivers'
    combines — the requests, sizes and operand order of
    :meth:`repro.machine.plan_exec.DirectTransport.collective`."""
    p = len(values)
    kind = instr.kind
    op = instr.op
    if kind == "scan":
        for rnd in C.scan_rounds(p):
            _exchange(timeline, rnd.sends, rnd.slots, values, rnd.tag)
            values = [op(values[srcs[0]], my) if srcs else my
                      for my, srcs in zip(values, rnd.recvs)]
        return values
    if kind == "fold":
        for rnd in C.reduce_rounds(p):
            _exchange(timeline, rnd.sends, rnd.slots, values, rnd.tag)
            values = [op(acc, values[srcs[0]]) if srcs else acc
                      for acc, srcs in zip(values, rnd.recvs)]
        _bcast(timeline, values[0], C.bcast_rounds(p))
        return [ir.Scalar(values[0])] * p
    if kind not in ("bcast", "apply_bcast"):
        raise AssertionError(f"unknown collective kind {kind!r}")
    rounds = C.bcast_rounds(p, instr.root)
    if kind == "bcast":
        piece = instr.value
    else:
        local = values[instr.root]
        timeline.work(instr.root, ir.fragment_ops(op, local))
        piece = op(local)
    _bcast(timeline, piece, rounds)
    return [(piece, mine) for mine in values]


def _bcast(timeline, piece, rounds) -> None:
    """Every sender of a broadcast forwards the one object it received,
    so one sizing serves all the rounds."""
    if rounds:
        sizes = [estimate_nbytes(piece, timeline.spec.word_bytes)] \
            * timeline.nprocs
        for rnd in rounds:
            timeline.exchange(rnd.sends, rnd.slots, sizes, rnd.tag)
