"""The vectorized data plane: precomputed per-rank request scripts.

Fault-free plan execution is fully deterministic: every message's source,
tag, payload and size — and every compute charge — is a pure function of
the plan and the input values.  This module exploits that by splitting
the interpreter's two jobs:

1. **Data plane** (:func:`precompute`): walk the plan *once*, evolving
   all p ranks' values together.  Known elementwise kernels
   (:mod:`repro.plan.kernels`) run as one SoA numpy op across the ranks
   instead of p Python calls; opaque fragments fall back to the per-rank
   loop.  The walk records, per rank, the exact sequence of simulator
   requests the interpreter would have yielded — same constructors, same
   arithmetic, same order.
2. **Replay** (:func:`replay_program`): each virtual processor runs a
   trivial generator that yields its prebuilt script.  The simulator
   sees a bit-for-bit identical request stream, so makespan, message
   counts and per-processor stats match the interpreted run exactly —
   all the interpreter's per-instruction dispatch, table indexing and
   collective generator frames are gone from the hot loop.

Collectives are not re-derived by hand: :func:`precompute` drives the
*actual* generators of the interpreter's direct transport
(:meth:`repro.machine.plan_exec.DirectTransport.collective`, one per
rank) with an instant-delivery message pump, so any algorithm the
interpreter can run — including the optimizer's flat/ring selections —
scripts correctly by construction.

Eligibility (:func:`precompute` returns ``None`` otherwise): flat plans
only — ``LocalApply`` / ``Rotate`` / ``Exchange`` / ``Collective`` /
``Loop``.  Group instructions keep the interpreter path (their value is
nesting, not throughput).  Callers must also skip scripting for traced
or fault-injected machines, where per-request context matters
(:func:`repro.scl.compile` gates on both).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Sequence

from repro.errors import MachineError
from repro.machine.cost import MachineSpec, estimate_nbytes
from repro.machine.events import Compute, Recv, Send
from repro.machine.plan_exec import DIRECT, EXCHANGE_TAG
from repro.plan import ir
from repro.plan.kernels import batched_apply

__all__ = ["precompute", "replay_program", "supported"]

_FLAT_INSTRS = (ir.LocalApply, ir.Rotate, ir.Exchange, ir.Collective,
                ir.Loop)


def supported(plan: ir.Plan) -> bool:
    """True when every instruction (recursively) can be scripted."""
    return _seq_supported(plan.instrs)


def _seq_supported(instrs) -> bool:
    for instr in instrs:
        if not isinstance(instr, _FLAT_INSTRS):
            return False
        if isinstance(instr, ir.Loop) and \
                not all(_seq_supported(b) for b in instr.bodies):
            return False
    return True


class _SizeCache:
    """Per-precompute memo of ``estimate_nbytes`` keyed by value identity.

    ``estimate_nbytes`` already memoizes hashable tuples globally (PR 6),
    but ndarrays are unhashable, and the data plane re-sizes the *same*
    array object every time it rotates or exchanges through another rank
    — a looped ``Rotate`` sizes each payload once per iteration.  Values
    never mutate in the data plane (fragments return fresh arrays), so
    one size per object is exact.  The cache pins each value it has
    sized so ids cannot be recycled within the walk.
    """

    __slots__ = ("_word_bytes", "_sizes", "_pins")

    def __init__(self, word_bytes: int):
        self._word_bytes = word_bytes
        self._sizes: dict[int, int] = {}
        self._pins: list[Any] = []

    def nbytes(self, value: Any) -> int:
        key = id(value)
        n = self._sizes.get(key)
        if n is None:
            n = estimate_nbytes(value, self._word_bytes)
            self._sizes[key] = n
            self._pins.append(value)
        return n


class _Ctx:
    """Everything one precompute walk threads through its steps."""

    __slots__ = ("plan", "spec", "default", "scripts", "sizes")

    def __init__(self, plan, spec, default, scripts):
        self.plan = plan
        self.spec = spec
        self.default = default
        self.scripts = scripts
        self.sizes = _SizeCache(spec.word_bytes)


def precompute(plan: ir.Plan, values: Sequence[Any], spec: MachineSpec,
               default: float = ir.DEFAULT_FRAGMENT_OPS):
    """Script one execution of ``plan`` over ``values``.

    Returns ``(scripts, finals)`` — per-rank request lists and final
    local values — or ``None`` when the plan contains instructions the
    scripted path does not cover.
    """
    if not supported(plan):
        return None
    p = plan.nprocs
    scripts: list[list] = [[] for _ in range(p)]
    ctx = _Ctx(plan, spec, default, scripts)
    finals = _run_seq(plan.instrs, ctx, list(values))
    return scripts, finals


def replay_program(scripts: list[list], finals: list):
    """A machine program that replays rank ``env.pid``'s script."""

    def program(env):
        for req in scripts[env.pid]:
            yield req
        return finals[env.pid]

    return program


# ------------------------------------------------------------ data plane

def _run_seq(instrs, ctx, values):
    for instr in instrs:
        values = _step(instr, ctx, values)
    return values


def _step(instr, ctx, values):
    p = len(values)
    scripts = ctx.scripts
    flop_time = ctx.spec.flop_time

    if isinstance(instr, ir.LocalApply):
        # charge first (matching the interpreter's clock order), apply SoA
        if isinstance(instr.fn, ir.FusedKernel):
            ops = [0.0] * p
            for a in instr.fn.applies:
                for r in range(p):
                    ops[r] += ir.fragment_ops(a.fn, values[r], ctx.default)
                values = _apply_one(a, ctx.plan, values)
            for r in range(p):
                scripts[r].append(Compute(float(ops[r]) * flop_time))
            return values
        for r in range(p):
            scripts[r].append(Compute(
                float(ir.fragment_ops(instr.fn, values[r], ctx.default))
                * flop_time))
        return _apply_one(instr, ctx.plan, values)

    if isinstance(instr, ir.Rotate):
        k = instr.k
        sizes = ctx.sizes
        for r in range(p):
            scripts[r].append(Send(
                (r - k) % p, values[r], EXCHANGE_TAG,
                sizes.nbytes(values[r])))
            scripts[r].append(Recv((r + k) % p, EXCHANGE_TAG, None))
        return [values[(r + k) % p] for r in range(p)]

    if isinstance(instr, ir.Exchange):
        sizes = ctx.sizes
        out = []
        for r in range(p):
            if instr.sends[r]:
                nbytes = sizes.nbytes(values[r])
                for dst in instr.sends[r]:
                    scripts[r].append(Send(dst, values[r], EXCHANGE_TAG,
                                           nbytes))
            if instr.mode == "collect":
                arrivals = []
                for src in instr.recvs[r]:
                    if src == r:
                        arrivals.append(values[r])
                    else:
                        scripts[r].append(Recv(src, EXCHANGE_TAG, None))
                        arrivals.append(values[src])
                out.append(arrivals)
                continue
            (src,) = instr.recvs[r]
            if src == r:
                fetched = values[r]
            else:
                scripts[r].append(Recv(src, EXCHANGE_TAG, None))
                fetched = values[src]
            out.append((values[r], fetched) if instr.mode == "pair"
                       else fetched)
        return out

    if isinstance(instr, ir.Collective):
        return _script_collective(instr, values, ctx.spec, ctx.default,
                                  scripts)

    if isinstance(instr, ir.Loop):
        for body in instr.bodies:
            values = _run_seq(body, ctx, values)
        return values

    raise AssertionError(f"unscriptable plan instruction {instr!r}")


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

class _ScriptComm:
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


class _ScriptEnv:
    """The slice of :class:`ProcEnv` collective generators touch."""

    __slots__ = ("_flop_time",)

    def __init__(self, flop_time: float):
        self._flop_time = flop_time

    def work(self, ops: float) -> Compute:
        ops = float(ops)
        if ops < 0:
            raise MachineError(f"ops must be non-negative, got {ops}")
        return Compute(ops * self._flop_time)


class _Arrival:
    """What a scripted generator's ``yield Recv`` resumes with."""

    __slots__ = ("payload", "nbytes")

    def __init__(self, payload: Any, nbytes: int | None):
        self.payload = payload
        self.nbytes = nbytes


def _script_collective(instr, values, spec, default, scripts):
    """Drive the interpreter's own collective generators, one per rank,
    with instant in-order delivery — recording every request."""
    p = len(values)
    env = _ScriptEnv(spec.flop_time)
    gens = [DIRECT.collective(instr, env, _ScriptComm(r, p), values[r],
                              default)
            for r in range(p)]
    results: list[Any] = [None] * p
    done = [False] * p
    pending: list[Recv | None] = [None] * p
    started = [False] * p
    queues: dict[tuple[int, int, int], deque] = {}
    remaining = p
    while remaining:
        progressed = False
        for r in range(p):
            if done[r]:
                continue
            if started[r]:
                req = pending[r]
                if req is None:
                    continue
                q = queues.get((req.src, r, req.tag))
                if not q:
                    continue
                resume: Any = q.popleft()
                pending[r] = None
            else:
                resume = None
                started[r] = True
            progressed = True
            while True:
                try:
                    req = gens[r].send(resume)
                except StopIteration as stop:
                    results[r] = stop.value
                    done[r] = True
                    remaining -= 1
                    break
                resume = None
                scripts[r].append(req)
                if type(req) is Send:
                    queues.setdefault((r, req.dst, req.tag), deque()) \
                        .append(_Arrival(req.payload, req.nbytes))
                elif type(req) is Recv:
                    q = queues.get((req.src, r, req.tag))
                    if q:
                        resume = q.popleft()
                    else:
                        pending[r] = req
                        break
        if remaining and not progressed:
            raise MachineError(
                f"collective {instr.kind}/{instr.algo} deadlocked while "
                f"scripting — unmatched receives")
    return results
