"""Fault-tolerant plan execution: the same Plan IR over a reliable channel.

The plan walker (:func:`repro.machine.plan_exec.execute_plan`) defaults to
a transport that assumes a perfect network.  :class:`ReliableTransport`
moves the *identical* :class:`~repro.plan.ir.Plan`'s traffic onto the
resilience layer, so any compiled SCL expression gets fault-tolerant
execution without being hand-ported (:func:`run_expression_ft`):

* ``Exchange`` tables replay as acked, retransmitted
  :class:`~repro.machine.reliable.ReliableChannel` transfers.  A
  symmetric pairwise pattern (hyperquicksort's partner exchange, a
  rotate by half the ring) is detected from the tables and uses
  :meth:`ReliableChannel.exchange`, which services the partner's data
  while awaiting its own ack; all other patterns send first and then
  receive — safe for arbitrary cycles because every channel wait *pumps*
  (acks and stashes incoming frames),
* collectives become the linear, crash-aware patterns of
  :mod:`repro.machine.collectives_ft` (``fold`` → ``ft_reduce`` +
  ``ft_bcast``; broadcasts → ``ft_bcast``; ``scan`` → a reliable linear
  chain),
* local applies, loops, group instructions and span frames are the
  walker's, not the transport's — the channel addresses peers by *pid*,
  so one channel serves every subgroup.

The message pattern (and therefore the virtual cost) differs from the
direct transport's; the computed values do not.
"""

from __future__ import annotations

from typing import Any

from repro.core.pararray import ParArray
from repro.machine import tags
from repro.machine.api import Comm
from repro.machine.collectives_ft import ft_bcast, ft_reduce
from repro.machine.plan_exec import EXCHANGE_TAG, bcast_piece, execute_plan
from repro.machine.reliable import ReliableChannel
from repro.machine.simulator import Machine, RunResult
from repro.plan import ir
from repro.scl.compile import run_lowered

__all__ = ["ReliableTransport", "run_expression_ft"]

#: Tag of the reliable scan chain (exchange traffic reuses EXCHANGE_TAG).
SCAN_TAG = tags.reserve("plan", "scan-chain", 1)


def _is_pair_swap(instr: ir.Exchange, r: int) -> bool:
    """True when rank ``r``'s row of the tables is a mutual 1:1 swap."""
    if len(instr.sends[r]) != 1 or len(instr.recvs[r]) != 1:
        return False
    (peer,) = instr.sends[r]
    if peer == r or instr.recvs[r] != (peer,):
        return False
    return instr.sends[peer] == (r,) and instr.recvs[peer] == (r,)


class ReliableTransport:
    """Plan traffic on one processor's :class:`ReliableChannel` — the
    ``transport`` of :func:`repro.machine.plan_exec.execute_plan` for
    lossy machines."""

    __slots__ = ("chan",)

    def __init__(self, chan: ReliableChannel):
        self.chan = chan

    def exchange(self, instr: ir.Exchange, env, comm: Comm, local: Any):
        """Replay this rank's table row as acked transfers."""
        chan = self.chan
        r = comm.rank
        if _is_pair_swap(instr, r):
            (peer,) = instr.sends[r]
            theirs = yield from chan.exchange(comm.pid_of(peer), local,
                                              tag=EXCHANGE_TAG)
            return (local, theirs) if instr.mode == "pair" else theirs
        for dst in instr.sends[r]:
            yield from chan.send(comm.pid_of(dst), local, tag=EXCHANGE_TAG)
        if instr.mode == "collect":
            arrivals = []
            for src in instr.recvs[r]:
                if src == r:
                    arrivals.append(local)
                else:
                    arrivals.append((yield from chan.recv(
                        comm.pid_of(src), tag=EXCHANGE_TAG)))
            return arrivals
        (src,) = instr.recvs[r]
        fetched = local if src == r else (yield from chan.recv(
            comm.pid_of(src), tag=EXCHANGE_TAG))
        return (local, fetched) if instr.mode == "pair" else fetched

    def collective(self, instr: ir.Collective, env, comm: Comm, local: Any):
        """Run the collective as a crash-aware linear pattern (the
        schedules of :mod:`repro.machine.collectives_ft`)."""
        chan = self.chan
        if instr.kind == "fold":
            acc = yield from ft_reduce(chan, comm, local, instr.op, root=0)
            acc = yield from ft_bcast(chan, comm, acc, root=0)
            return ir.Scalar(acc)
        if instr.kind == "scan":
            # inclusive prefix as a reliable linear chain in rank order
            r, p = comm.rank, comm.size
            out = local
            if r > 0:
                prefix = yield from chan.recv(comm.pid_of(r - 1),
                                              tag=SCAN_TAG)
                out = instr.op(prefix, local)
            if r < p - 1:
                yield from chan.send(comm.pid_of(r + 1), out, tag=SCAN_TAG)
            return out
        piece = yield from bcast_piece(instr, env, comm, local)
        piece = yield from ft_bcast(chan, comm, piece, root=instr.root)
        return (piece, local)


def run_expression_ft(expr, pa: ParArray, machine: Machine, *,
                      channel_timeout: float | None = None,
                      max_retries: int = 8,
                      label: str = "program",
                      opt: Any = "auto") -> tuple[Any, RunResult]:
    """Compile ``expr`` and run it fault-tolerantly on ``machine``.

    The plan-level counterpart of
    :func:`repro.scl.compile.run_expression`: the same lowering, cache
    and plan optimizer (``opt`` as in
    :func:`~repro.scl.compile.run_expression` — fusion and coalescing
    apply to the resilient run too; the whole-machine walk does not,
    since traffic here is retransmitted and timing-dependent), but
    execution over a :class:`ReliableChannel` per processor — use with a
    machine constructed with a fault injector.  On an injector-less
    machine the result is the same, but every channel receive carries a
    timeout, which the batched engine declines: the run moves to the
    per-event engine at its first timed receive
    (:func:`repro.faults.apps.ft_hyperquicksort_machine` always installs
    an injector and never meets the batched engine).
    """
    def make_program(plan, values):
        def program(env):
            chan = ReliableChannel(env, timeout=channel_timeout,
                                   max_retries=max_retries)
            result = yield from execute_plan(
                plan, env, Comm.world(env), values[env.pid], label,
                ReliableTransport(chan))
            # Stay on the line until peers stop retransmitting: our last
            # acks may have been lost, and an exited program can't re-ack.
            with env.span("drain"):
                yield from chan.drain()
            return result

        return program, None

    return run_lowered(expr, pa, machine, opt, make_program)
