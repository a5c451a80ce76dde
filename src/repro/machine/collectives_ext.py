"""Alternative collective algorithms — the bandwidth-optimal family.

:mod:`repro.machine.collectives` implements the latency-optimal tree
algorithms.  For large payloads the classic alternatives win, and having
both families lets the repository demonstrate (and test) the crossovers a
real MPI library navigates:

* :func:`reduce_scatter` — ring reduce-scatter: each member ends up with
  one reduced chunk; ``p - 1`` rounds, each moving ``1/p`` of the data,
* :func:`ring_allreduce` — reduce-scatter followed by an allgather ring:
  ``2 (p - 1)`` rounds of ``n/p``-sized messages, total traffic
  ``~2n`` per member independent of ``p`` (vs ``~n log p`` for tree
  reduce+bcast),
* :func:`pipelined_bcast` — the root streams the payload in ``chunks``
  pieces down a ring: ``T ≈ (p - 1 + chunks) · t_chunk``, beating the
  binomial tree when ``n/bandwidth ≫ latency``.

All operate on *lists of chunks* (for reduce-scatter/allreduce, one chunk
per member) or raw payloads (broadcast); chunk combination uses the given
associative operator, applied in rank order.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Sequence

from repro.errors import MachineError
from repro.machine.api import Comm
from repro.machine.cost import estimate_nbytes

__all__ = ["reduce_scatter", "ring_allreduce", "pipelined_bcast",
           "smart_bcast"]

Gen = Generator[Any, Any, Any]

# Raw-simulator tags, recorded as ``tags.INFRA_BLOCKS["collectives-ext"]``.
_TAG_RS = 1_100_001
_TAG_AG = 1_100_002
_TAG_PB = 1_100_003


def reduce_scatter(comm: Comm, chunks: Sequence[Any],
                   op: Callable[[Any, Any], Any], *,
                   nbytes: int | None = None) -> Gen:
    """Ring reduce-scatter: rank ``r`` ends up with the ``op``-reduction of
    every member's chunk ``(r + 1) mod p``.

    ``chunks`` must have one entry per member.  ``p - 1`` rounds; in round
    ``t`` each rank forwards the partial for chunk ``(rank - t) mod p`` to
    its right neighbour and folds the arriving partial into chunk
    ``(rank - t - 1) mod p``.  Chunk ``c`` accumulates contributions in the
    ring order ``c, c+1, …, c-1 (mod p)``, so ``op`` must be associative
    *and* commutative for results to be independent of the chunk index
    (sums, max, elementwise vector adds — the allreduce workloads).
    """
    size = comm.size
    rank = comm.rank
    if len(chunks) != size:
        raise MachineError(
            f"reduce_scatter needs {size} chunks, got {len(chunks)}")
    if size == 1:
        return chunks[0]
    acc = list(chunks)
    for t in range(size - 1):
        send_idx = (rank - t) % size
        recv_idx = (rank - t - 1) % size
        yield comm.send((rank + 1) % size, acc[send_idx], tag=_TAG_RS,
                        nbytes=nbytes)
        msg = yield comm.recv((rank - 1) % size, tag=_TAG_RS)
        acc[recv_idx] = op(msg.payload, acc[recv_idx])
    return acc[(rank + 1) % size]


def ring_allreduce(comm: Comm, chunks: Sequence[Any],
                   op: Callable[[Any, Any], Any], *,
                   nbytes: int | None = None) -> Gen:
    """Bandwidth-optimal allreduce: reduce-scatter then ring allgather.

    Returns the full list of reduced chunks (rank order) on every member —
    concatenating them gives the allreduced vector.
    """
    size = comm.size
    rank = comm.rank
    mine = yield from reduce_scatter(comm, chunks, op, nbytes=nbytes)
    out: list[Any] = [None] * size
    my_idx = (rank + 1) % size
    out[my_idx] = mine
    current, current_idx = mine, my_idx
    for _t in range(size - 1):
        yield comm.send((rank + 1) % size, (current_idx, current),
                        tag=_TAG_AG, nbytes=nbytes)
        msg = yield comm.recv((rank - 1) % size, tag=_TAG_AG)
        current_idx, current = msg.payload
        out[current_idx] = current
    return out


def pipelined_bcast(comm: Comm, value: Any = None, *, root: int = 0,
                    chunks: int = 4, nbytes: int | None = None) -> Gen:
    """Pipelined ring broadcast: the root streams ``chunks`` pieces.

    The payload is broadcast as an opaque value cut into ``chunks`` cost
    units (the data itself is forwarded whole in the last chunk so callers
    need no reassembly logic); the per-chunk wire size is ``nbytes /
    chunks``.  With ``p`` members the last one finishes after
    ``p - 1 + chunks`` chunk-steps instead of the tree's
    ``log2(p) * full-payload`` steps.
    """
    size = comm.size
    if not (0 <= root < size):
        raise MachineError(f"root {root} out of range for size-{size} comm")
    if chunks <= 0:
        raise MachineError(f"chunks must be positive, got {chunks}")
    if size == 1:
        return value
    rank = comm.rank
    vrank = (rank - root) % size
    total = nbytes if nbytes is not None else (
        estimate_nbytes(value, comm.env.spec.word_bytes) if vrank == 0 else None)
    next_rank = (rank + 1) % size
    prev_rank = (rank - 1) % size
    if vrank == 0:
        per_chunk = max(1, (total or chunks) // chunks)
        for c in range(chunks):
            payload = value if c == chunks - 1 else None
            yield comm.send(next_rank, (c, payload), tag=_TAG_PB,
                            nbytes=per_chunk)
        return value
    result = None
    for c in range(chunks):
        msg = yield comm.recv(prev_rank, tag=_TAG_PB)
        c_in, payload = msg.payload
        if c_in == chunks - 1:
            result = payload
        if (vrank + 1) % size != 0:  # not the last member of the ring
            yield comm.send(next_rank, (c_in, payload), tag=_TAG_PB,
                            nbytes=msg.nbytes)
    return result


def smart_bcast(comm: Comm, value: Any = None, *, root: int = 0,
                nbytes: int | None = None, chunks: int = 8) -> Gen:
    """Broadcast choosing the algorithm from the machine's cost model.

    The paper's portability claim is that skeletons retarget by swapping
    implementations; this collective does it *within* one machine: it
    compares the Hockney-model predictions of the binomial tree
    (``ceil(log2 p)`` full-payload rounds) and the pipelined ring
    (``p - 1 + chunks`` chunk-steps) for the given payload size, and runs
    whichever is cheaper.  The tests verify the choice matches the
    measured winner on both sides of the crossover.
    """
    from repro.machine import collectives as _tree

    size = comm.size
    if size == 1:
        return value
    spec = comm.env.spec
    if nbytes is None:
        nbytes = estimate_nbytes(value, spec.word_bytes) if comm.rank == root else None
        # every member must pick the same algorithm: share the size first
        nbytes = yield from _tree.bcast(comm, nbytes, root=root,
                                        nbytes=spec.word_bytes)
    rounds = (size - 1).bit_length()
    t_msg_full = spec.latency + spec.send_overhead + spec.recv_overhead \
        + nbytes / spec.bandwidth
    t_tree = rounds * t_msg_full
    per_chunk = max(nbytes // chunks, 1)
    t_chunk = spec.latency + spec.send_overhead + spec.recv_overhead \
        + per_chunk / spec.bandwidth
    t_pipe = (size - 1 + chunks) * t_chunk
    if t_tree <= t_pipe:
        result = yield from _tree.bcast(comm, value, root=root, nbytes=nbytes)
        return result
    result = yield from pipelined_bcast(comm, value, root=root,
                                        chunks=chunks, nbytes=nbytes)
    return result
