"""Crash-aware collectives over a :class:`~repro.machine.reliable.ReliableChannel`.

The tree collectives in :mod:`repro.machine.collectives` assume a perfect
machine: one crashed member deadlocks the whole tree.  These variants trade
the O(log p) round count for **linear, root-coordinated** patterns in which
every edge is a reliable (acked, retransmitted) transfer with a timeout, so
a dead member costs a bounded wait instead of a hang:

* a dead *non-root* member degrades the result to the survivors —
  ``ft_gather`` returns ``None`` in the dead member's slot, ``ft_reduce``
  folds over the surviving contributions, ``ft_barrier`` synchronises the
  survivors;
* a dead *root* is unrecoverable for that operation: members raise a
  structured :class:`~repro.errors.FaultError` (``kind="root-dead"``) that
  a fault-tolerant runtime can catch and act on.

Each member passes its own channel; calls must be made in the same order
on every member (normal collective discipline).  The fault-free behaviour
matches the plain collectives' results exactly — only the message pattern
(and therefore the virtual cost) differs.
"""

from __future__ import annotations

from typing import Any, Callable, Generator

from repro.errors import FaultError, MachineError
from repro.machine import tags
from repro.machine.api import Comm
from repro.machine.reliable import ReliableChannel

__all__ = ["ft_bcast", "ft_scatter", "ft_gather", "ft_reduce", "ft_barrier"]

# Tags disjoint per operation so back-to-back collectives cannot confuse
# each other's frames; reserved centrally so no other subsystem can reuse
# them (the SCL compiler's exchange tag once collided with the bcast tag).
_TAG_FT_BCAST = tags.reserve("collectives-ft", "bcast", 0)
_TAG_FT_GATHER = tags.reserve("collectives-ft", "gather", 1)
_TAG_FT_BARRIER_IN = tags.reserve("collectives-ft", "barrier-in", 2)
_TAG_FT_BARRIER_OUT = tags.reserve("collectives-ft", "barrier-out", 3)
_TAG_FT_SCATTER = tags.reserve("collectives-ft", "scatter", 4)

Gen = Generator[Any, Any, Any]


def _check_root(comm: Comm, root: int) -> None:
    if not (0 <= root < comm.size):
        raise MachineError(f"root {root} out of range for size-{comm.size} comm")


def _member_timeout(chan: ReliableChannel, comm: Comm,
                    timeout: float | None) -> float:
    """How long a member waits on the root before presuming it dead.

    The root serves members *linearly*, and each edge may burn the full
    retransmission budget, so the default scales with the group size.
    """
    if timeout is not None:
        return timeout
    return chan.worst_case_send_seconds() * (comm.size + 1)


def ft_bcast(chan: ReliableChannel, comm: Comm, value: Any = None, *,
             root: int = 0, timeout: float | None = None) -> Gen:
    """Broadcast ``value`` from ``root``; returns it on every live member.

    Dead non-root members are skipped (the root absorbs their
    ``peer-dead`` errors).  If the root is dead, waiting members raise
    :class:`FaultError` (``kind="root-dead"``).
    """
    _check_root(comm, root)
    if comm.size == 1:
        return value
    if comm.rank == root:
        for r in range(comm.size):
            if r == root:
                continue
            try:
                yield from chan.send(comm.pid_of(r), value, tag=_TAG_FT_BCAST)
            except FaultError:
                continue  # dead member: the survivors proceed
        return value
    root_pid = comm.pid_of(root)
    try:
        return (yield from chan.recv(root_pid, tag=_TAG_FT_BCAST,
                                     timeout=_member_timeout(chan, comm,
                                                             timeout)))
    except FaultError as exc:
        raise FaultError(
            f"rank {comm.rank}: broadcast root rank {root} (pid {root_pid}) "
            f"presumed dead ({exc.kind})", kind="root-dead", pid=root_pid,
            rank=root) from exc


def ft_scatter(chan: ReliableChannel, comm: Comm, values: Any = None, *,
               root: int = 0, timeout: float | None = None) -> Gen:
    """Scatter one value per member from ``root``; returns each member's.

    ``values`` (root only) is a rank-indexed sequence of length
    ``comm.size``.  Dead non-root members are skipped; members raise
    :class:`FaultError` (``kind="root-dead"``) if the root never serves
    them.
    """
    _check_root(comm, root)
    if comm.size == 1:
        return values[0]
    if comm.rank == root:
        if values is None or len(values) != comm.size:
            raise MachineError(
                f"scatter root needs one value per member "
                f"({comm.size}), got "
                f"{'none' if values is None else len(values)}")
        for r in range(comm.size):
            if r == root:
                continue
            try:
                yield from chan.send(comm.pid_of(r), values[r],
                                     tag=_TAG_FT_SCATTER)
            except FaultError:
                continue  # dead member: the survivors proceed
        return values[root]
    root_pid = comm.pid_of(root)
    try:
        return (yield from chan.recv(root_pid, tag=_TAG_FT_SCATTER,
                                     timeout=_member_timeout(chan, comm,
                                                             timeout)))
    except FaultError as exc:
        raise FaultError(
            f"rank {comm.rank}: scatter root rank {root} (pid {root_pid}) "
            f"presumed dead ({exc.kind})", kind="root-dead", pid=root_pid,
            rank=root) from exc


def ft_gather(chan: ReliableChannel, comm: Comm, value: Any, *,
              root: int = 0, timeout: float | None = None) -> Gen:
    """Gather one value per member to ``root``, degrading to survivors.

    The root returns a rank-ordered list with ``None`` in the slots of
    members it could not hear from; other live members return ``None``.
    Members raise ``kind="root-dead"`` if the root never acks them.
    """
    _check_root(comm, root)
    if comm.size == 1:
        return [value]
    if comm.rank != root:
        root_pid = comm.pid_of(root)
        try:
            yield from chan.send(root_pid, (comm.rank, value),
                                 tag=_TAG_FT_GATHER)
        except FaultError as exc:
            raise FaultError(
                f"rank {comm.rank}: gather root rank {root} (pid "
                f"{root_pid}) presumed dead ({exc.kind})", kind="root-dead",
                pid=root_pid, rank=root) from exc
        return None
    out: list[Any] = [None] * comm.size
    out[root] = value
    per_peer = (timeout if timeout is not None
                else chan.worst_case_send_seconds() * 2.0)
    for r in range(comm.size):
        if r == root:
            continue
        try:
            rank, payload = yield from chan.recv(
                comm.pid_of(r), tag=_TAG_FT_GATHER, timeout=per_peer)
        except FaultError:
            continue  # dead member: leave its slot as None
        out[rank] = payload
    return out


def ft_reduce(chan: ReliableChannel, comm: Comm, value: Any,
              op: Callable[[Any, Any], Any], *, root: int = 0,
              timeout: float | None = None) -> Gen:
    """Reduce over the *surviving* members' values, result on ``root``.

    Contributions are combined in rank order (associativity suffices, as
    for the plain ``reduce``); dead members' contributions are simply
    absent.  Raises ``kind="no-survivors"`` only in the degenerate case
    where every contribution was lost (cannot happen: the root's own value
    always survives).
    """
    gathered = yield from ft_gather(chan, comm, value, root=root,
                                    timeout=timeout)
    if comm.rank != root and comm.size > 1:
        return None
    present = [v for v in gathered if v is not None]
    if not present:
        raise FaultError("reduce found no surviving contributions",
                         kind="no-survivors")
    acc = present[0]
    for v in present[1:]:
        acc = op(acc, v)
    return acc


def ft_barrier(chan: ReliableChannel, comm: Comm, *, root: int = 0,
               timeout: float | None = None) -> Gen:
    """Synchronise the surviving members (dead ones are waited-out, once).

    No live member leaves before every *live* member has entered; crashed
    members cost the root one bounded timeout each.  Raises
    ``kind="root-dead"`` on members when the coordinator has crashed.
    """
    _check_root(comm, root)
    if comm.size == 1:
        return None
    if comm.rank != root:
        root_pid = comm.pid_of(root)
        try:
            yield from chan.send(root_pid, comm.rank, tag=_TAG_FT_BARRIER_IN)
            yield from chan.recv(root_pid, tag=_TAG_FT_BARRIER_OUT,
                                 timeout=_member_timeout(chan, comm, timeout))
        except FaultError as exc:
            raise FaultError(
                f"rank {comm.rank}: barrier root rank {root} (pid "
                f"{root_pid}) presumed dead ({exc.kind})", kind="root-dead",
                pid=root_pid, rank=root) from exc
        return None
    per_peer = (timeout if timeout is not None
                else chan.worst_case_send_seconds() * 2.0)
    entered: list[int] = []
    for r in range(comm.size):
        if r == root:
            continue
        try:
            rank = yield from chan.recv(comm.pid_of(r),
                                        tag=_TAG_FT_BARRIER_IN,
                                        timeout=per_peer)
            entered.append(rank)
        except FaultError:
            continue
    for rank in entered:
        try:
            yield from chan.send(comm.pid_of(rank), None,
                                 tag=_TAG_FT_BARRIER_OUT)
        except FaultError:
            continue
    return None
