"""Retained seed simulator: the pre-optimisation reference engine.

This is the original O(p)-scan implementation of :class:`Machine.run` —
ready list rebuilt and ``min()``-scanned every step, one linear-scan
mailbox list per processor — kept verbatim as the *oracle* for the
equivalence suite (``tests/machine/test_equivalence.py``).  The optimised
engine in :mod:`repro.machine.simulator` must produce bit-identical
values, per-processor stats, makespans and traces on every program; any
divergence is a bug in the rewrite, not a modelling change.

Do not use this engine for experiments — it is quadratic-ish in the
number of processors.  It intentionally shares :class:`ProcEnv`,
:class:`ProcStats` and :class:`RunResult` with the real simulator so
results are directly comparable.
"""

from __future__ import annotations

from typing import Any, Generator, Iterable, Sequence

from repro.errors import DeadlockError, MachineError
from repro.machine.cost import estimate_nbytes
from repro.machine.events import ANY, Compute, Message, Recv, Send
from repro.machine.simulator import (Machine, ProcEnv, ProcStats, Program,
                                     RunResult, _BLOCKED, _DONE, _READY)
from repro.machine.trace import Trace, TraceEvent, frozendetail

__all__ = ["ReferenceMachine"]


class _Proc:
    """Internal per-processor simulator state (seed layout: list mailbox)."""

    __slots__ = ("pid", "gen", "status", "pending_recv", "resume_value",
                 "recv_posted_at", "mailbox", "value")

    def __init__(self, pid: int, gen: Generator[Any, Any, Any]):
        self.pid = pid
        self.gen = gen
        self.status = _READY
        self.pending_recv: Recv | None = None
        self.resume_value: Any = None
        self.recv_posted_at = 0.0
        self.mailbox: list[Message] = []
        self.value: Any = None


class ReferenceMachine(Machine):
    """The seed scan-scheduler engine; same constructor as :class:`Machine`."""

    def run(self, program: Program | Sequence[Program], *,
            args: Iterable[tuple] | None = None) -> RunResult:
        """Seed implementation of :meth:`Machine.run`, kept verbatim."""
        n = self.nprocs
        if callable(program):
            programs: list[Program] = [program] * n
        else:
            programs = list(program)
            if len(programs) != n:
                raise MachineError(
                    f"expected {n} programs, got {len(programs)}")
        extra = [()] * n if args is None else [tuple(a) for a in args]
        if len(extra) != n:
            raise MachineError(f"expected {n} arg tuples, got {len(extra)}")

        self._clock = [0.0] * n
        self._tx_free = [0.0] * n
        self._rx_free = [0.0] * n
        trace = Trace() if self.record_trace else None
        stats = [ProcStats(pid=p) for p in range(n)]
        procs = []
        for pid in range(n):
            env = ProcEnv(self, pid)
            gen = programs[pid](env, *extra[pid])
            if not isinstance(gen, Generator):
                raise MachineError(
                    f"program for pid {pid} must be a generator function "
                    f"(did you forget to yield?); got {type(gen).__name__}")
            procs.append(_Proc(pid, gen))

        send_seq = 0
        alive = n

        def deliver(msg: Message) -> None:
            dst = procs[msg.dst]
            if dst.status == _DONE:
                raise MachineError(
                    f"message {msg!r} sent to already-finished processor {msg.dst}")
            dst.mailbox.append(msg)
            if dst.status == _BLOCKED and dst.pending_recv is not None:
                self._try_unblock(dst, stats[dst.pid], trace)

        while alive > 0:
            runnable = [p for p in procs if p.status == _READY]
            if not runnable:
                blocked = [p.pid for p in procs if p.status == _BLOCKED]
                raise DeadlockError(
                    f"deadlock: processors {blocked} blocked on receives "
                    f"that can never be satisfied")
            proc = min(runnable, key=lambda p: (self._clock[p.pid], p.pid))
            pid = proc.pid
            st = stats[pid]
            try:
                request = proc.gen.send(proc.resume_value)
            except StopIteration as stop:
                proc.status = _DONE
                proc.value = stop.value
                st.finish_time = self._clock[pid]
                alive -= 1
                if proc.mailbox:
                    raise MachineError(
                        f"processor {pid} finished with {len(proc.mailbox)} "
                        f"unconsumed messages in its mailbox")
                continue
            proc.resume_value = None

            if isinstance(request, Compute):
                start = self._clock[pid]
                self._clock[pid] = start + request.seconds
                st.compute_seconds += request.seconds
                if trace is not None:
                    trace.extend((TraceEvent(pid, "compute", start,
                                             self._clock[pid]),))
            elif isinstance(request, Send):
                self.topology.check_node(request.dst)
                if request.dst == pid:
                    raise MachineError(f"processor {pid} sent a message to itself")
                nbytes = (estimate_nbytes(request.payload, self.spec.word_bytes)
                          if request.nbytes is None else int(request.nbytes))
                start = self._clock[pid]
                self._clock[pid] = start + self.spec.send_overhead
                st.overhead_seconds += self.spec.send_overhead
                hops = max(1, self.topology.hops(pid, request.dst))
                if self.single_port:
                    wire = nbytes / self.spec.bandwidth
                    startup = (self.spec.latency
                               + self.spec.per_hop_latency * (hops - 1))
                    tx_start = max(self._clock[pid], self._tx_free[pid])
                    self._tx_free[pid] = tx_start + wire
                    arrival = max(tx_start + startup,
                                  self._rx_free[request.dst]) + wire
                    self._rx_free[request.dst] = arrival
                else:
                    arrival = self._clock[pid] + self.spec.transfer_time(nbytes, hops)
                send_seq += 1
                msg = Message(src=pid, dst=request.dst, tag=request.tag,
                              payload=request.payload, nbytes=nbytes,
                              sent_at=start, arrival=arrival, seq=send_seq)
                st.msgs_sent += 1
                st.bytes_sent += nbytes
                if trace is not None:
                    trace.extend((TraceEvent(
                        pid, "send", start, self._clock[pid], frozendetail(
                            dst=request.dst, tag=request.tag, nbytes=nbytes)),))
                deliver(msg)
            elif isinstance(request, Recv):
                proc.status = _BLOCKED
                proc.pending_recv = request
                proc.recv_posted_at = self._clock[pid]
                self._try_unblock(proc, st, trace)
            else:
                raise MachineError(
                    f"processor {pid} yielded {request!r}; expected "
                    f"Compute, Send or Recv (use `yield from` for collectives)")

        return RunResult(values=[p.value for p in procs], stats=stats, trace=trace)

    def _try_unblock(self, proc: _Proc, st: ProcStats, trace: Trace | None) -> None:
        """Complete ``proc``'s pending receive if a matching message exists."""
        recv = proc.pending_recv
        assert recv is not None
        best_idx = -1
        for i, msg in enumerate(proc.mailbox):
            if recv.matches(msg):
                if best_idx < 0 or (
                    (msg.arrival, msg.seq)
                    < (proc.mailbox[best_idx].arrival, proc.mailbox[best_idx].seq)
                ):
                    best_idx = i
                # concrete-(src,tag) receives are FIFO in send order
                if recv.src is not ANY and recv.tag is not ANY:
                    break
        if best_idx < 0:
            return
        msg = proc.mailbox.pop(best_idx)
        pid = proc.pid
        wait_start = proc.recv_posted_at
        ready_at = max(wait_start, msg.arrival)
        st.idle_seconds += ready_at - wait_start
        self._clock[pid] = ready_at + self.spec.recv_overhead
        st.overhead_seconds += self.spec.recv_overhead
        st.msgs_received += 1
        st.bytes_received += msg.nbytes
        if trace is not None:
            trace.extend((TraceEvent(
                pid, "recv", wait_start, self._clock[pid], frozendetail(
                    src=msg.src, tag=msg.tag, nbytes=msg.nbytes)),))
        proc.status = _READY
        proc.pending_recv = None
        proc.resume_value = msg
