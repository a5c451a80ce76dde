"""The vectorized data plane: one whole-machine walk of a flat plan.

Fault-free plan execution is fully deterministic: every message's source,
tag, payload and size — and every compute charge — is a pure function of
the plan and the input values.  :func:`precompute` exploits that: it
walks the plan *once*, evolving all p ranks' values together, and makes
each rank's simulator requests directly on the machine's lockstep
timeline (:class:`repro.machine.lockstep.Lockstep`) as it goes.

* **Values**: known elementwise kernels (:mod:`repro.plan.kernels`) run
  as one SoA numpy op across the ranks instead of p Python calls; opaque
  fragments fall back to the per-rank loop.
* **Time**: the walk issues, per rank, the exact request sequence the
  interpreter would have yielded — same charges, same sizes, same order —
  so the timeline's clocks, message counts and per-processor stats equal
  an interpreted run's bit for bit.  The clock rules themselves live in
  :mod:`repro.machine`; this module only decides *what* each rank asks
  for.  Within one ``Rotate``/``Exchange`` every rank's sends are issued
  before any rank's receives (each rank sends before it receives, so
  that is a legal order), which is what lets a single pass resolve every
  receive on the spot.

Collectives are not re-derived by hand: the walk drives the *actual*
generators of the interpreter's direct transport
(:meth:`repro.machine.plan_exec.DirectTransport.collective`, one per
rank) and feeds their requests to the timeline, so whatever schedule
the interpreter runs walks correctly by construction.

Eligibility (:func:`precompute` returns ``None`` otherwise): flat plans
only — ``LocalApply`` / ``Rotate`` / ``Exchange`` / ``Collective`` /
``Loop``.  Group instructions keep the interpreter path (their value is
nesting, not throughput).  Whether a run takes the walk at all is the
machine's decision (:meth:`repro.machine.simulator.Machine.run`): traced,
fault-injected and single-port machines interpret.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.errors import DeadlockError, MachineError
from repro.machine.cost import estimate_nbytes
from repro.machine.events import Compute, Recv, Send
from repro.machine.lockstep import Lockstep
from repro.machine.plan_exec import DIRECT, EXCHANGE_TAG
from repro.plan import ir
from repro.plan.kernels import batched_apply

__all__ = ["precompute", "supported"]

_FLAT_INSTRS = (ir.LocalApply, ir.Rotate, ir.Exchange, ir.Collective,
                ir.Loop)


def supported(plan: ir.Plan) -> bool:
    """True when every instruction (recursively) can be walked."""
    return _seq_supported(plan.instrs)


def _seq_supported(instrs) -> bool:
    for instr in instrs:
        if not isinstance(instr, _FLAT_INSTRS):
            return False
        if isinstance(instr, ir.Loop) and \
                not all(_seq_supported(b) for b in instr.bodies):
            return False
    return True


class _Ctx:
    """Everything one walk threads through its steps."""

    __slots__ = ("plan", "timeline", "default")

    def __init__(self, plan, timeline, default):
        self.plan = plan
        self.timeline = timeline
        self.default = default


def precompute(plan: ir.Plan, values: Sequence[Any], timeline: Lockstep,
               default: float = ir.DEFAULT_FRAGMENT_OPS):
    """Walk one execution of ``plan`` over ``values`` on ``timeline``.

    Returns the final per-rank local values — with every rank's requests
    made on ``timeline`` along the way — or ``None``, before touching the
    timeline, when the plan contains instructions the walk does not
    cover.  This is the ``walk`` :meth:`Machine.run
    <repro.machine.simulator.Machine.run>` accepts (bind ``plan``,
    ``values`` and ``default``).
    """
    if not supported(plan):
        return None
    return _run_seq(plan.instrs, _Ctx(plan, timeline, default), list(values))


# ------------------------------------------------------------ data plane

def _run_seq(instrs, ctx, values):
    for instr in instrs:
        values = _step(instr, ctx, values)
    return values


def _step(instr, ctx, values):
    p = len(values)
    timeline = ctx.timeline

    if isinstance(instr, ir.LocalApply):
        # charge first (matching the interpreter's clock order), apply SoA
        work = timeline.work
        default = ctx.default
        if isinstance(instr.fn, ir.FusedKernel):
            ops = [0.0] * p
            for a in instr.fn.applies:
                for r in range(p):
                    ops[r] += ir.fragment_ops(a.fn, values[r], default)
                values = _apply_one(a, ctx.plan, values)
            for r in range(p):
                work(r, ops[r])
            return values
        for r in range(p):
            work(r, ir.fragment_ops(instr.fn, values[r], default))
        return _apply_one(instr, ctx.plan, values)

    if isinstance(instr, ir.Rotate):
        k = instr.k
        send = timeline.send
        recv = timeline.recv
        word_bytes = timeline.spec.word_bytes
        for r in range(p):
            send(r, (r - k) % p, values[r], EXCHANGE_TAG,
                 estimate_nbytes(values[r], word_bytes))
        return [recv(r, (r + k) % p, EXCHANGE_TAG).payload
                for r in range(p)]

    if isinstance(instr, ir.Exchange):
        send = timeline.send
        recv = timeline.recv
        word_bytes = timeline.spec.word_bytes
        for r, dsts in enumerate(instr.sends):
            if dsts:
                value = values[r]
                nb = estimate_nbytes(value, word_bytes)
                for dst in dsts:
                    send(r, dst, value, EXCHANGE_TAG, nb)
        mode = instr.mode
        out = []
        for r, srcs in enumerate(instr.recvs):
            local = values[r]
            if mode == "collect":
                out.append([local if src == r
                            else recv(r, src, EXCHANGE_TAG).payload
                            for src in srcs])
                continue
            (src,) = srcs
            fetched = (local if src == r
                       else recv(r, src, EXCHANGE_TAG).payload)
            out.append((local, fetched) if mode == "pair" else fetched)
        return out

    if isinstance(instr, ir.Collective):
        return _walk_collective(instr, values, timeline, ctx.default)

    if isinstance(instr, ir.Loop):
        for body in instr.bodies:
            values = _run_seq(body, ctx, values)
        return values

    raise AssertionError(f"unwalkable plan instruction {instr!r}")


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

class _WalkComm:
    """Rank-addressed request factory (world group: rank == pid)."""

    __slots__ = ("rank", "size")

    def __init__(self, rank: int, size: int):
        self.rank = rank
        self.size = size

    def send(self, dst_rank: int, payload: Any, *, tag: int = 0,
             nbytes: int | None = None) -> Send:
        return Send(dst_rank, payload, tag, nbytes)

    def recv(self, src_rank: int, *, tag: int = 0,
             timeout: float | None = None) -> Recv:
        return Recv(src_rank, tag, timeout)


class _WalkEnv:
    """The slice of :class:`ProcEnv` collective generators touch."""

    __slots__ = ("_flop_time",)

    def __init__(self, flop_time: float):
        self._flop_time = flop_time

    def work(self, ops: float) -> Compute:
        ops = float(ops)
        if ops < 0:
            raise MachineError(f"ops must be non-negative, got {ops}")
        return Compute(ops * self._flop_time)


def _walk_collective(instr, values, timeline, default):
    """Drive the interpreter's own collective generators, one per rank,
    to completion — every request made on the timeline as it is yielded.
    A rank whose receive has no message yet parks until a sweep finds one
    sent; a sweep that moves nobody is a deadlock."""
    p = len(values)
    env = _WalkEnv(timeline.spec.flop_time)
    gens = [DIRECT.collective(instr, env, _WalkComm(r, p), values[r],
                              default)
            for r in range(p)]
    results: list[Any] = [None] * p
    #: rank -> the Recv it is parked on (None: not started yet)
    waiting: dict[int, Recv | None] = dict.fromkeys(range(p))
    poll = timeline.poll
    while waiting:
        progressed = False
        for r in list(waiting):
            req = waiting[r]
            resume = None
            if req is not None:
                resume = poll(r, req.src, req.tag)
                if resume is None:
                    continue
            progressed = True
            gen_send = gens[r].send
            while True:
                try:
                    req = gen_send(resume)
                except StopIteration as stop:
                    results[r] = stop.value
                    del waiting[r]
                    break
                cls = type(req)
                if cls is Send:
                    timeline.send(r, req.dst, req.payload, req.tag,
                                  req.nbytes)
                    resume = None
                elif cls is Compute:
                    timeline.compute(r, req.seconds)
                    resume = None
                else:
                    resume = poll(r, req.src, req.tag)
                    if resume is None:
                        waiting[r] = req
                        break
        if not progressed:
            raise DeadlockError(
                f"deadlock: processors {sorted(waiting)} blocked in "
                f"collective {instr.kind} on receives that "
                f"can never be satisfied")
    return results
