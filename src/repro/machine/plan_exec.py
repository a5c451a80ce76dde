"""The plan interpreter: one SPMD loop executing a lowered plan.

This is the back half of the SCL compiler.  Every virtual processor runs
the *same* :class:`~repro.plan.ir.Plan` through :func:`execute_plan`,
indexing the precomputed communication tables with its own rank — there
is no per-processor tree-walk and no index-function evaluation at run
time.  The interpreter is a generator (like every machine program):
``yield`` s are simulator requests, the return value is the processor's
final local value (a :class:`~repro.plan.ir.Scalar` for reductions).

The walker is written once; how bytes move is its *transport*: two
generator methods ``exchange`` / ``collective`` taking
``(instr, env, comm, local)`` and returning the new local value.  :class:`DirectTransport` here is the
perfect network; :class:`repro.faults.plan_exec.ReliableTransport` the
acked, retransmitting one.

Group instructions maintain the same value discipline as the old
tree-walking compiler: ``GroupSplit`` wraps the local value in a
:class:`Grouped` frame carrying the subgroup communicator, ``SubPlan``
runs a nested plan inside that frame, and ``GroupCombine`` unwraps.
"""

from __future__ import annotations

import dataclasses
from typing import Any

from repro.machine import collectives as C
from repro.machine import tags
from repro.machine.api import Comm
from repro.machine.cost import estimate_nbytes
from repro.machine.simulator import ProcEnv
from repro.plan import ir

__all__ = ["execute_plan", "Grouped", "EXCHANGE_TAG", "DirectTransport",
           "DIRECT"]

#: Tag of all point-to-point plan traffic (exchange tables).
EXCHANGE_TAG = tags.reserve("plan", "exchange", 0)


@dataclasses.dataclass
class Grouped:
    """Marker value: this processor's slice of a split (nested) array."""

    comm: Comm
    parent: Comm
    local: Any
    gid: int


def bcast_piece(instr: ir.Collective, env: ProcEnv, comm: Comm, local: Any):
    """What the root of a ``bcast`` / ``apply_bcast`` sends (``None`` off
    the root): the constant, or ``op(local)`` charged as compute."""
    if instr.kind not in ("bcast", "apply_bcast"):
        raise AssertionError(f"unknown collective kind {instr.kind!r}")
    if comm.rank != instr.root:
        return None
    if instr.kind == "bcast":
        return instr.value
    yield env.work(ir.fragment_ops(instr.op, local))
    return instr.op(local)


class DirectTransport:
    """Plan traffic on a perfect network: raw point-to-point messages and
    the tree collectives of :mod:`repro.machine.collectives`."""

    __slots__ = ()

    def exchange(self, instr: ir.Exchange, env: ProcEnv, comm: Comm,
                 local: Any):
        """Replay this rank's row of the send/recv tables."""
        r = comm.rank
        dsts = instr.sends[r]
        if dsts:
            # one value, however many copies go out: size it once
            sent = instr.carried(local)
            nbytes = estimate_nbytes(sent, env.spec.word_bytes)
            for dst in dsts:
                yield comm.send(dst, sent, tag=EXCHANGE_TAG, nbytes=nbytes)
        if instr.mode == "collect":
            arrivals = []
            for src in instr.recvs[r]:
                if src == r:
                    arrivals.append(local)
                else:
                    msg = yield comm.recv(src, tag=EXCHANGE_TAG)
                    arrivals.append(msg.payload)
            return arrivals
        (src,) = instr.recvs[r]
        fetched = instr.carried(local) if src == r else (
            yield comm.recv(src, tag=EXCHANGE_TAG)).payload
        return instr.landed(local, fetched)

    def collective(self, instr: ir.Collective, env: ProcEnv, comm: Comm,
                   local: Any):
        """Run the collective on its binomial-tree schedule."""
        # Reduction operators run synchronously inside the collectives'
        # generator frames, so their CPU cost cannot be yielded from here;
        # the message rounds carry the synchronisation cost (plan_cost
        # prices the combines analytically).
        if instr.kind == "fold":
            acc = yield from C.reduce(comm, local, instr.op)
            acc = yield from C.bcast(comm, acc, root=0)
            return ir.Scalar(acc)
        if instr.kind == "scan":
            return (yield from C.scan(comm, local, instr.op))
        piece = yield from bcast_piece(instr, env, comm, local)
        piece = yield from C.bcast(comm, piece, root=instr.root)
        return (piece, local)


#: The stateless direct transport every fault-free run shares.
DIRECT = DirectTransport()


def execute_plan(plan: ir.Plan, env: ProcEnv, comm: Comm, local: Any,
                 label: str = "plan", transport: Any = DIRECT):
    """Run ``plan`` on this processor over ``transport`` (see the module
    docstring); returns the new local value.

    On a traced machine every simulator request executes inside a span
    stack ``label → [i] instruction → iter k → …`` (see
    :mod:`repro.machine.trace`), so each trace event — on the reliable
    transport each retransmit/drop/timeout too — is attributed to the plan
    instruction that produced it.  Untraced, every scope is the shared
    no-op of :meth:`ProcEnv.span <repro.machine.simulator.ProcEnv.span>`.
    """
    with env.span(label):
        return (yield from _run_seq(plan.instrs, plan, env, comm, transport,
                                    local))


def _run_seq(instrs, plan: ir.Plan, env: ProcEnv, comm: Comm, transport,
             local: Any):
    for i, instr in enumerate(instrs):
        with env.span(ir.instr_title(instr), instr=i):
            local = yield from _step(instr, plan, env, comm, transport, local)
    return local


def _step(instr: ir.Instr, plan: ir.Plan, env: ProcEnv, comm: Comm,
          transport, local: Any):
    if isinstance(instr, ir.LocalApply):
        if isinstance(instr.fn, ir.FusedKernel):
            # each constituent charges on its actual input, so the single
            # Compute below equals the sum the unfused run would charge
            idx = (divmod(comm.rank, plan.grid[1])
                   if plan.grid is not None else comm.rank)
            result, ops = ir.apply_fused(instr.fn, idx, local)
            yield env.work(ops)
            return result
        yield env.work(ir.fragment_ops(instr.fn, local))
        if instr.indexed:
            idx = (divmod(comm.rank, plan.grid[1])
                   if plan.grid is not None else comm.rank)
            return instr.fn(idx, local)
        if instr.farm_env is not ir.NO_ENV:
            return instr.fn(instr.farm_env, local)
        return instr.fn(local)

    if isinstance(instr, ir.Exchange):
        return (yield from transport.exchange(instr, env, comm, local))

    if isinstance(instr, ir.Collective):
        return (yield from transport.collective(instr, env, comm, local))

    if isinstance(instr, ir.GroupSplit):
        gid = instr.group_of[comm.rank]
        sub = comm.subgroup(list(instr.groups[gid]))
        return Grouped(sub, comm, local, gid)

    if isinstance(instr, ir.SubPlan):
        subplan = instr.plans[local.gid]
        inner = yield from _run_seq(subplan.instrs, subplan, env, local.comm,
                                    transport, local.local)
        return Grouped(local.comm, local.parent, inner, local.gid)

    if isinstance(instr, ir.GroupCombine):
        return local.local

    if isinstance(instr, ir.Loop):
        for it, body in enumerate(instr.bodies):
            with env.span(f"iter {it}", iteration=it):
                local = yield from _run_seq(body, plan, env, comm, transport,
                                            local)
        return local

    raise AssertionError(f"unknown plan instruction {instr!r}")
