"""Collective operations on a :class:`~repro.machine.api.Comm`.

Each collective is a generator to be invoked with ``yield from`` inside a
virtual-processor program::

    comm = Comm.world(env)
    total = yield from collectives.reduce(comm, my_part, op=operator.add)

The algorithms are the classic tree / recursive-doubling message patterns an
MPI implementation uses, so the simulator charges the same asymptotic
communication cost a real library would:

=============  ============================  =========================
collective     algorithm                     rounds
=============  ============================  =========================
``bcast``      binomial tree                 ceil(log2 p)
``reduce``     binomial tree (order-safe)    ceil(log2 p)
``allreduce``  reduce + bcast                2 ceil(log2 p)
``scan``       Hillis–Steele doubling        ceil(log2 p)
``gather``     binomial tree                 ceil(log2 p)
``scatter``    binomial tree                 ceil(log2 p)
``allgather``  gather + bcast                2 ceil(log2 p)
``alltoall``   pairwise rounds               p − 1
``barrier``    dissemination                 ceil(log2 p)
=============  ============================  =========================

``reduce`` and ``scan`` only require *associativity* of ``op`` (not
commutativity): partial results are always combined in rank order, matching
the paper's ``fold``/``scan`` contract ("the argument must be associative
... otherwise the result is undefined").

Three schedules are stated once, as data: the per-round send/receive
tables :func:`bcast_rounds`, :func:`reduce_rounds` and
:func:`scan_rounds` (see :class:`Round`).  A whole-machine walk follows
them without running p generators, and :func:`bcast`, :func:`reduce` and
:func:`scan` play a member's part of them — per round its sends, then
its receives — for the plan interpreter and every hand-written
program.  ``reduce``'s table is rooted at rank 0; its one
forwarding message to another root is the only step it states itself.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Generator, NamedTuple, Sequence

from repro.errors import MachineError
from repro.machine.api import Comm
from repro.machine.lockstep import wire

__all__ = [
    "bcast",
    "reduce",
    "allreduce",
    "scan",
    "gather",
    "scatter",
    "allgather",
    "alltoall",
    "barrier",
    "Round",
    "bcast_rounds",
    "reduce_rounds",
    "scan_rounds",
]

# Reserved tag block; user programs should keep tags below this.  The
# reliable messaging layer reserves two further blocks at 2_000_000 (data)
# and 3_000_000 (acks) — see ``repro.machine.reliable``.
_TAG_BCAST = 1_000_001
_TAG_REDUCE = 1_000_002
_TAG_SCAN = 1_000_003
_TAG_GATHER = 1_000_004
_TAG_SCATTER = 1_000_005
_TAG_ALLTOALL = 1_000_006
_TAG_BARRIER = 1_000_007

Gen = Generator[Any, Any, Any]


def _ceil_log2(n: int) -> int:
    return (n - 1).bit_length() if n > 1 else 0


def _vrank(comm: Comm, root: int) -> int:
    if not (0 <= root < comm.size):
        raise MachineError(f"root {root} out of range for size-{comm.size} comm")
    return (comm.rank - root) % comm.size


def _from_vrank(comm: Comm, vrank: int, root: int) -> int:
    return (vrank + root) % comm.size


@functools.lru_cache(maxsize=1 << 14)
def _steps(rounds_of: Callable[..., tuple[Round, ...]], rank: int,
           *args: int) -> tuple[tuple[bool, int, int], ...]:
    """Member ``rank``'s part of the schedule ``rounds_of(*args)``: per
    round its sends, then its receives, as ``(is_send, peer, tag)``."""
    return tuple(
        step for rnd in rounds_of(*args)
        for step in ([(True, dst, rnd.tag) for dst in rnd.sends[rank]]
                     + [(False, src, rnd.tag) for src in rnd.recvs[rank]]))


def bcast(comm: Comm, value: Any = None, *, root: int = 0,
          nbytes: int | None = None) -> Gen:
    """Broadcast ``value`` from ``root`` to all members; returns it on all.

    Non-root members may pass ``value=None``; the broadcast value replaces it.
    """
    for is_send, peer, tag in _steps(bcast_rounds, comm.rank, comm.size, root):
        if is_send:
            yield comm.send(peer, value, tag=tag, nbytes=nbytes)
        else:
            value = (yield comm.recv(peer, tag=tag)).payload
    return value


def reduce(comm: Comm, value: Any, op: Callable[[Any, Any], Any], *,
           root: int = 0, nbytes: int | None = None) -> Gen:
    """Tree reduction of one value per member; result only on ``root``.

    Partial results are combined in **rank order** regardless of the root
    (MPI semantics), so any *associative* ``op`` is safe — commutativity is
    not required.  Non-root members return ``None``.  A non-zero root costs
    one extra message: the tree is rooted at rank 0, which forwards.
    """
    size, rank = comm.size, comm.rank
    if not (0 <= root < size):
        raise MachineError(f"root {root} out of range for size-{size} comm")
    acc = value
    for is_send, peer, tag in _steps(reduce_rounds, rank, size):
        if is_send:
            yield comm.send(peer, acc, tag=tag, nbytes=nbytes)
        else:
            acc = op(acc, (yield comm.recv(peer, tag=tag)).payload)
    if rank == root == 0:
        return acc
    if rank == 0:
        yield comm.send(root, acc, tag=_TAG_REDUCE, nbytes=nbytes)
    elif rank == root:
        return (yield comm.recv(0, tag=_TAG_REDUCE)).payload
    return None


def allreduce(comm: Comm, value: Any, op: Callable[[Any, Any], Any], *,
              nbytes: int | None = None) -> Gen:
    """Reduction whose result is returned on every member."""
    acc = yield from reduce(comm, value, op, root=0, nbytes=nbytes)
    acc = yield from bcast(comm, acc, root=0, nbytes=nbytes)
    return acc


def scan(comm: Comm, value: Any, op: Callable[[Any, Any], Any], *,
         nbytes: int | None = None) -> Gen:
    """Inclusive prefix reduction over ranks (Hillis–Steele doubling).

    Rank ``r`` returns ``op(x_0, op(x_1, ... x_r))`` combined in rank order;
    associativity of ``op`` suffices.  This is the machine-level counterpart
    of the paper's elementary ``scan`` skeleton.
    """
    my = value
    for is_send, peer, tag in _steps(scan_rounds, comm.rank, comm.size):
        if is_send:
            yield comm.send(peer, my, tag=tag, nbytes=nbytes)
        else:
            my = op((yield comm.recv(peer, tag=tag)).payload, my)
    return my


def gather(comm: Comm, value: Any, *, root: int = 0,
           nbytes: int | None = None) -> Gen:
    """Collect one value per member into a rank-ordered list on ``root``.

    Uses a binomial tree: each internal node forwards its accumulated
    ``{vrank: value}`` block upward.  Non-root members return ``None``.
    """
    size = comm.size
    v = _vrank(comm, root)
    block: dict[int, Any] = {v: value}
    mask = 1
    while mask < size:
        if v & mask:
            yield comm.send(_from_vrank(comm, v - mask, root), block,
                            tag=_TAG_GATHER, nbytes=nbytes)
            return None
        src = v + mask
        if src < size:
            msg = yield comm.recv(_from_vrank(comm, src, root), tag=_TAG_GATHER)
            block.update(msg.payload)
        mask <<= 1
    if len(block) != size:
        raise MachineError(f"gather assembled {len(block)}/{size} blocks")
    # block is keyed by vrank; return in *rank* order
    return [block[_vrank_of_rank(comm, r, root)] for r in range(size)]


def _vrank_of_rank(comm: Comm, rank: int, root: int) -> int:
    return (rank - root) % comm.size


def scatter(comm: Comm, values: Sequence[Any] | None = None, *, root: int = 0,
            nbytes: int | None = None) -> Gen:
    """Distribute ``values[r]`` to each rank ``r`` from ``root``.

    ``values`` is only read on the root (and must have one item per member);
    other members pass ``None``.  Binomial tree: each node receives its
    contiguous vrank block from its parent, then forwards sub-blocks to its
    children, largest block first.
    """
    size = comm.size
    v = _vrank(comm, root)
    if comm.rank == root:
        if values is None or len(values) != size:
            raise MachineError(
                f"scatter root needs exactly {size} values, got "
                f"{None if values is None else len(values)}")
        block = {u: values[_from_vrank(comm, u, root)] for u in range(size)}
    else:
        parent = v - (v & -v)
        msg = yield comm.recv(_from_vrank(comm, parent, root), tag=_TAG_SCATTER)
        block = msg.payload
    # forward sub-blocks to children: v + 2^k for 2^k < lowbit(v) (or < size for v=0)
    limit = (v & -v) if v else size
    k = _ceil_log2(limit) if limit > 1 else 0
    for bit in (1 << i for i in reversed(range(k + 1))):
        child = v + bit
        if bit < limit and child < size:
            # the child's block is the contiguous vrank range [child, child+bit)
            sub = {u: block[u] for u in range(child, min(child + bit, size))
                   if u in block}
            if sub:
                yield comm.send(_from_vrank(comm, child, root), sub,
                                tag=_TAG_SCATTER, nbytes=nbytes)
                for u in sub:
                    del block[u]
    if set(block) != {v}:
        raise MachineError(f"scatter left rank {comm.rank} holding vranks {sorted(block)}")
    return block[v]


def allgather(comm: Comm, value: Any, *, nbytes: int | None = None) -> Gen:
    """Every member receives the rank-ordered list of all contributions."""
    gathered = yield from gather(comm, value, root=0, nbytes=nbytes)
    gathered = yield from bcast(comm, gathered, root=0, nbytes=nbytes)
    return gathered


def alltoall(comm: Comm, values: Sequence[Any], *,
             nbytes: int | None = None) -> Gen:
    """Personalised exchange: member ``r`` receives ``values_s[r]`` from every ``s``.

    ``p - 1`` pairwise rounds; round ``r`` pairs each rank with the ranks at
    distance ``±r``.  Returns the received list in source-rank order.
    """
    size = comm.size
    rank = comm.rank
    if len(values) != size:
        raise MachineError(f"alltoall needs {size} values, got {len(values)}")
    out: list[Any] = [None] * size
    out[rank] = values[rank]
    for r in range(1, size):
        dst = (rank + r) % size
        src = (rank - r) % size
        yield comm.send(dst, values[dst], tag=_TAG_ALLTOALL, nbytes=nbytes)
        msg = yield comm.recv(src, tag=_TAG_ALLTOALL)
        out[src] = msg.payload
    return out


def barrier(comm: Comm) -> Gen:
    """Dissemination barrier: no member leaves before all have entered."""
    size = comm.size
    rank = comm.rank
    for k in range(_ceil_log2(size)):
        d = 1 << k
        yield comm.send((rank + d) % size, None, tag=_TAG_BARRIER, nbytes=1)
        yield comm.recv((rank - d) % size, tag=_TAG_BARRIER)
    return None


# ------------------------------------------------------------ round tables

class Round(NamedTuple):
    """One round of a collective's schedule, for all members at once.

    Member ``r`` sends what it holds to each of ``sends[r]`` and then
    receives from each of ``recvs[r]`` — in these schedules at most one of
    each per round.  ``slots`` is the :func:`~repro.machine.lockstep.wire`
    matching of the two tables, the form
    :meth:`Lockstep.exchange <repro.machine.lockstep.Lockstep.exchange>`
    takes; ``tag`` the message tag the generator sends and receives on.
    """

    sends: tuple[tuple[int, ...], ...]
    recvs: tuple[tuple[int, ...], ...]
    slots: tuple[tuple[int, ...], ...]
    tag: int


def _round(size: int, pairs: Sequence[tuple[int, int]], tag: int) -> Round:
    """The round in which ``src`` sends to ``dst`` for each ``(src, dst)``."""
    sends: list[tuple[int, ...]] = [()] * size
    recvs: list[tuple[int, ...]] = [()] * size
    for src, dst in pairs:
        sends[src] = (dst,)
        recvs[dst] = (src,)
    return Round(tuple(sends), tuple(recvs), wire(sends, recvs), tag)


@functools.lru_cache(maxsize=256)
def bcast_rounds(size: int, root: int = 0) -> tuple[Round, ...]:
    """The rounds of :func:`bcast` over ``size`` members from ``root``: in
    round ``k`` the first ``2**k`` members of the tree (ranks renamed so the
    root is 0) each pass the value ``2**k`` places on."""
    if not 0 <= root < size:
        raise MachineError(f"root {root} out of range for size-{size} comm")
    rounds = []
    mask = 1
    while mask < size:
        rounds.append(_round(size, [
            ((v + root) % size, (v + mask + root) % size)
            for v in range(min(mask, size - mask))], _TAG_BCAST))
        mask <<= 1
    return tuple(rounds)


@functools.lru_cache(maxsize=256)
def reduce_rounds(size: int) -> tuple[Round, ...]:
    """The rounds of :func:`reduce` to rank 0 over ``size`` members: in
    round ``k`` every member whose lowest set bit is ``2**k`` sends its
    partial result ``2**k`` ranks down, where it is combined on the right
    (``op(acc, payload)``)."""
    rounds = []
    mask = 1
    while mask < size:
        rounds.append(_round(size, [
            (rank, rank - mask) for rank in range(mask, size, 2 * mask)],
            _TAG_REDUCE))
        mask <<= 1
    return tuple(rounds)


@functools.lru_cache(maxsize=256)
def scan_rounds(size: int) -> tuple[Round, ...]:
    """The rounds of :func:`scan` over ``size`` members: in round ``k``
    every member sends its running value ``2**k`` ranks up, where it is
    combined on the left (``op(payload, my)``)."""
    return tuple(
        _round(size, [(rank, rank + d) for rank in range(size - d)], _TAG_SCAN)
        for d in (1 << k for k in range(_ceil_log2(size))))
