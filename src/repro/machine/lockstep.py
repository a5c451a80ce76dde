"""Lockstep timeline: virtual clocks driven directly by a whole-machine walk.

The engines in :mod:`repro.machine.simulator` and
:mod:`repro.machine.batch` discover a run's timing by scheduling p
generator programs.  When a program's communication structure is static —
a lowered plan: no wildcard receives, every receive a concrete
``(src, tag)`` FIFO — the schedule carries no information: each
processor's clock is a pure function of its own request order and of the
arrival times of the messages it consumes.  A *walk* that visits the
requests of all processors in any order consistent with "a message is
sent before it is received" therefore computes the same clocks by plain
arithmetic, with no generators, heap or request objects.

:class:`Lockstep` is that arithmetic, once: the send / receive / compute
clock rules, the per-``(src, dst, tag)`` FIFO mailboxes, and every check
the engines make on the same requests.  :meth:`Machine.run
<repro.machine.simulator.Machine.run>` hands one to a program's ``walk``
on fault-free, untraced, multi-port runs and turns the walk's final
values into the :class:`~repro.machine.simulator.RunResult` the engines
would have produced — equal in values, ``events`` and every
:class:`~repro.machine.simulator.ProcStats` field, because each
processor's float sums see the same additions in the same order.

One restriction follows from walking instead of scheduling: a receive
must find its message already sent.  A receive that does not raises
:class:`~repro.errors.DeadlockError` immediately, where an engine would
have waited for a send later in some other processor's program; lowered
plans match every receive within its own instruction, so the walk never
meets that case.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.errors import DeadlockError, MachineError
from repro.machine.cost import estimate_nbytes
from repro.machine.events import Message
from repro.machine.simulator import ProcStats, RunResult

__all__ = ["Lockstep"]

# Message is a NamedTuple; the raw tuple constructor skips its Python-level
# __new__ wrapper (the same shortcut the batched engine takes per delivery).
_tnew = tuple.__new__


class Lockstep:
    """Clocks, mailboxes and accounting of all p processors of one run.

    Every method is one simulator request made by processor ``pid``;
    requests of one processor must be made in its program order, requests
    of different processors in any order that sends before it receives.
    """

    __slots__ = ("spec", "clock", "_topology", "_n", "_stats", "_boxes",
                 "_hop_rows", "_events", "_seq")

    def __init__(self, machine: Any):
        self.spec = machine.spec
        self._topology = machine.topology
        n = self._n = machine.nprocs
        #: Per-processor virtual clocks (seconds).
        self.clock = [0.0] * n
        self._stats = [ProcStats(pid=pid) for pid in range(n)]
        self._boxes: dict[tuple[int, int, Any], deque[Message]] = {}
        self._hop_rows: list[list[int] | None] = [None] * n
        self._events = 0
        self._seq = 0

    @property
    def nprocs(self) -> int:
        return self._n

    def compute(self, pid: int, seconds: float) -> None:
        """Charge ``seconds`` of CPU time (``yield env.compute(seconds)``)."""
        if not seconds >= 0:
            raise MachineError(
                f"processor {pid}: compute seconds must be non-negative, "
                f"got {seconds!r}")
        self.clock[pid] += seconds
        self._stats[pid].compute_seconds += seconds
        self._events += 1

    def work(self, pid: int, ops: float) -> None:
        """Charge ``ops`` elementary operations (``yield env.work(ops)``)."""
        if not ops >= 0:
            raise MachineError(
                f"processor {pid}: ops must be non-negative, got {ops!r}")
        seconds = ops * self.spec.flop_time
        self.clock[pid] += seconds
        self._stats[pid].compute_seconds += seconds
        self._events += 1

    def send(self, pid: int, dst: int, payload: Any, tag: Any = 0,
             nbytes: int | None = None) -> None:
        """Post ``payload`` from ``pid`` to ``dst`` (``yield env.send(...)``).

        The sender pays ``send_overhead``; the message arrives
        :meth:`MachineSpec.transfer_time
        <repro.machine.cost.MachineSpec.transfer_time>` after that.
        """
        if dst.__class__ is not int or not 0 <= dst < self._n:
            self._topology.check_node(dst)
        if dst == pid:
            raise MachineError(f"processor {pid} sent a message to itself")
        spec = self.spec
        if nbytes is None:
            nbytes = estimate_nbytes(payload, spec.word_bytes)
        elif nbytes.__class__ is not int:
            nbytes = int(nbytes)
        if nbytes < 0:
            raise MachineError(
                f"processor {pid}: nbytes must be non-negative, got {nbytes}")
        clock = self.clock
        overhead = spec.send_overhead
        t0 = clock[pid]
        clock[pid] = t1 = t0 + overhead
        st = self._stats[pid]
        st.overhead_seconds += overhead
        st.msgs_sent += 1
        st.bytes_sent += nbytes
        row = self._hop_rows[pid]
        if row is None:
            row = self._hop_rows[pid] = self._topology.hop_row(pid)
        self._seq = seq = self._seq + 1
        msg = _tnew(Message, (pid, dst, tag, payload, nbytes, t0,
                              t1 + spec.transfer_time(nbytes, row[dst]), seq))
        key = (pid, dst, tag)
        box = self._boxes.get(key)
        if box is None:
            self._boxes[key] = box = deque()
        box.append(msg)
        self._events += 1

    def poll(self, pid: int, src: int, tag: Any) -> Message | None:
        """Complete ``pid``'s receive on ``(src, tag)`` if its message has
        been sent — FIFO per ``(src, dst, tag)`` — else return ``None``
        and change nothing."""
        box = self._boxes.get((src, pid, tag))
        if not box:
            return None
        msg = box.popleft()
        clock = self.clock
        now = clock[pid]
        arrival = msg[6]
        st = self._stats[pid]
        if arrival > now:
            st.idle_seconds += arrival - now
            now = arrival
        overhead = self.spec.recv_overhead
        clock[pid] = now + overhead
        st.overhead_seconds += overhead
        st.msgs_received += 1
        st.bytes_received += msg[4]
        self._events += 1
        return msg

    def recv(self, pid: int, src: int, tag: Any) -> Message:
        """``pid``'s blocking receive on ``(src, tag)``
        (``msg = yield env.recv(src, tag=tag)``)."""
        msg = self.poll(pid, src, tag)
        if msg is None:
            raise DeadlockError(
                f"deadlock: processor {pid} blocked on a receive from "
                f"{src} (tag {tag}) that no send matches")
        return msg

    def finish(self, values: list) -> RunResult:
        """Every processor returns: check the mailboxes are empty and
        build the run's result over the per-processor ``values``."""
        stats = self._stats
        if len(values) != self._n:
            raise MachineError(
                f"expected {self._n} final values, got {len(values)}")
        if (sum(st.msgs_sent for st in stats)
                != sum(st.msgs_received for st in stats)):
            left = [0] * self._n
            for (_src, dst, _tag), box in self._boxes.items():
                left[dst] += len(box)
            pid = next(p for p, k in enumerate(left) if k)
            raise MachineError(
                f"processor {pid} finished with {left[pid]} unconsumed "
                f"messages in its mailbox")
        for st, t in zip(stats, self.clock):
            st.finish_time = t
        return RunResult(values=values, stats=stats, events=self._events)
