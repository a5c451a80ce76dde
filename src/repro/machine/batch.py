"""Batched drive-order engine: whole-segment execution with batched flushes.

The per-event engine in :mod:`repro.machine.simulator` interleaves
processors one heap-pop at a time.  This module runs the *same* programs
under a different schedule that produces bit-identical results: each
processor is driven as far as it can go in one uninterrupted segment
(computes and sends apply immediately; concrete receives consume from
per-``(src, tag)`` message streams), and the segment's outgoing messages
are flushed as one batch straight onto their receivers' streams instead
of through per-message heap traffic.

Why this is sound
-----------------

The event engine processes requests in the global order ``(virtual time,
pid, program order)``.  Two consequences (guarded by
``tests/machine/test_equivalence.py`` and ``tests/machine/test_batch.py``):

* A concrete ``(src, tag)`` receive matches the n-th unconsumed message of
  that stream in sender program order — independent of any other
  processor's schedule.  Deep per-processor drives therefore commute, and
  a stream is a list plus a head index.
* Per-processor float accounting (compute/overhead/idle) is accumulated
  in program order, so the sums see the exact addition sequence of the
  event engine and stay bit-identical.

A wildcard receive depends on the global order, so it parks until its
processor is the last one alive.  Nobody can send any more: the remaining
traffic is frozen into one snapshot sorted by send key, and when arrivals
are non-decreasing in that order the mailbox minimum and the direct
hand-off are both "the next unconsumed matching row" — a pointer walk
(:class:`_Snap`).

Declined, and why
-----------------

Everything else leaves through :class:`BatchFallback`, raised from the
drive loop the moment it is seen; the run restarts on the per-event
engine, the semantics oracle, which decides each of these shapes faster
than a batched schedule measured on it (``docs/calibration.md``, "The
batched event core"):

* a receive that carries a timeout — whether it fires depends on where
  every other processor's clock stands, which a deep drive has already
  moved past;
* a quiescence with two or more processors blocked — a wildcard race, or
  a deadlock among concrete receives (the per-event engine reports the
  canonical :class:`~repro.errors.DeadlockError`);
* a last-processor snapshot whose arrivals are not monotone in send
  order (a small message overtook a big one on the wire), which every
  wildcard receive would have to rescan;
* a program that issued a request without yielding it, and a message
  sent to a processor that had already finished with it unconsumed.

The engine is active only for ``faults is None``, untraced,
multi-port runs; everything else takes the per-event path unchanged.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Generator
from typing import Any

import numpy as np

from repro.errors import DeadlockError, MachineError
from repro.machine.cost import estimate_nbytes
from repro.machine.events import ANY, Compute, Message, Recv, Send

__all__ = ["BatchFallback", "run_batched"]

_R, _B, _D = 0, 1, 2  # ready / blocked / done

# Accumulator slots (per-proc list; folded into ProcStats at finish so the
# float sums see the exact per-event addition order of the event engine).
_COMPUTE, _OVH, _IDLE = 0, 1, 2
_MSG_RX, _BYT_TX, _BYT_RX, _RETRANS = 3, 4, 5, 6


class BatchFallback(Exception):
    """Internal: this run needs the per-event engine; restart there."""


class _Sentinel:
    __slots__ = ("_name",)

    def __init__(self, name: str):
        self._name = name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self._name


#: Closure return values: effect applied / the drive loop must park the
#: receive (pattern in ``rcell``) / the receive carries a timeout, which
#: the drive loop declines.  The closures run in the program's frame,
#: where an ``except Exception`` could swallow a raise, so they only ever
#: *return* the verdict.  A satisfied receive returns the delivered
#: :class:`Message` itself — the drive loop recognises it by class.  A
#: program that yields a *stale* Message it received earlier
#: desynchronises ``issued``/``consumed`` and falls back to the
#: per-event engine, which raises the canonical error.
_OK = _Sentinel("<applied>")
_RECVQ = _Sentinel("<recv-queued>")
_TIMED = _Sentinel("<recv-timed>")

# Message is a NamedTuple; building it through the raw C tuple constructor
# skips the Python-level __new__ wrapper (~2x cheaper per delivery).
_tnew = tuple.__new__


class _Stream:
    """One sender's messages to one ``(src, tag)`` mailbox stream.

    ``msgs`` rows are ``(sent_at, src, send_ordinal, tag, arrival,
    payload, nbytes)`` appended in sender program order (= global key
    order restricted to the stream) — the same row layout the solo
    snapshot uses, so freezing a stream is a C-level slice copy.
    Only concrete receives consume from a stream, in FIFO order: every
    row below ``head`` is delivered, every row from it on is not.
    """

    __slots__ = ("msgs", "head")

    def __init__(self) -> None:
        self.msgs: list[tuple] = []
        self.head = 0


class _View:
    """Per-pattern cursor over a :class:`_Snap` (solo-mode receives)."""

    __slots__ = ("rows", "ptr")

    def __init__(self, rows: list[int]):
        self.rows = rows
        self.ptr = 0


class _Snap:
    """Frozen snapshot of every undelivered message to the last live
    processor, globally sorted by send key ``(time, src, ordinal)``.

    ``rows`` holds ``(sent_at, src, ordinal, tag, arrival, payload,
    nbytes)`` tuples — one unpack on the hot path instead of six column
    indexes; the key prefix is unique so sorting the tuples never
    compares payloads.  Arrivals are non-decreasing in key order (a
    snapshot where they are not is declined), so wildcard selection
    degenerates to "next unconsumed matching row": mailbox minimum and
    direct hand-off coincide."""

    __slots__ = ("rows", "taken", "views", "m", "total_nb")

    def __init__(self, rows, total_nb):
        self.rows = rows
        self.m = len(rows)
        self.taken = bytearray(self.m)
        self.views: dict[tuple, _View] = {}
        #: Sum of all row nbytes: receive counters are *derived* at
        #: finish (delivered = taken.count, bytes = total - undelivered)
        #: instead of being bumped per call — integer sums are
        #: order-free, so this cannot perturb bit-exactness.
        self.total_nb = total_nb


class _BP:
    """Per-processor drive state."""

    __slots__ = ("pid", "gen", "env", "status", "value", "streams", "sbuf",
                 "kord", "issued", "consumed", "rcell", "acc",
                 "c_send", "c_recv", "pend_src", "pend_tag", "resume",
                 "snap")

    def __init__(self, pid: int, gen: Any, env: Any):
        self.pid = pid
        self.gen = gen
        self.env = env
        self.status = _R
        self.value: Any = None
        self.streams: dict[tuple, _Stream] = {}
        self.sbuf: list[tuple] = []
        self.kord = 0          # per-proc send ordinal base
        self.issued = [0]      # shared with closures (desync detection)
        self.consumed = 0
        self.rcell: list[Any] = [None, None]
        self.acc = [0.0, 0.0, 0.0, 0, 0, 0, 0]
        self.c_send: Any = None
        self.c_recv: Any = None
        self.pend_src: Any = None
        self.pend_tag: Any = None
        self.resume: Any = None
        self.snap: _Snap | None = None


def run_batched(machine: Any, programs: list, extra: list) -> Any:
    """Run ``programs`` on ``machine`` under the batched schedule.

    Raises :class:`BatchFallback` when the run needs the per-event engine
    (the module docstring lists the declined shapes); the caller restarts
    on the event engine, which is also the documented error-parity oracle.
    """
    from repro.machine.simulator import ProcEnv, ProcStats, RunResult

    topology = machine.topology
    n = topology.size
    spec = machine.spec
    send_ovh = spec.send_overhead
    recv_ovh = spec.recv_overhead
    latency = spec.latency
    per_hop = spec.per_hop_latency
    bandwidth = spec.bandwidth
    word_bytes = spec.word_bytes
    flop_time = spec.flop_time
    hops_nocheck = topology._hops_nocheck

    clock = [0.0] * n
    machine._clock = clock
    machine._tx_free = [0.0] * n
    machine._rx_free = [0.0] * n
    machine._span = None
    machine._crashed = None

    stats = [ProcStats(pid=p) for p in range(n)]
    gseq = [0]                 # delivered-message sequence numbers
    bps: list[_BP] = []
    wl: deque[int] = deque()
    queued = bytearray(n)
    alive = n
    events = 0
    hop_cache: list[dict | None] = [None] * n

    def _mk_ops(p: _BP):
        """Build the immediate-effect work/send/recv closures for ``p``."""
        pid = p.pid
        issued = p.issued
        acc = p.acc
        sbuf = p.sbuf
        streams = p.streams
        rcell = p.rcell

        def work(ops):
            ocls = ops.__class__
            if ocls is not int and ocls is not float:
                ops = float(ops)
            if ops < 0:
                raise MachineError(
                    f"ops must be non-negative, got {float(ops)}")
            sec = ops * flop_time
            if not (sec >= 0):
                raise ValueError(
                    f"Compute.seconds must be non-negative, got {sec!r}")
            clock[pid] += sec
            acc[_COMPUTE] += sec
            issued[0] += 1
            return _OK

        def send(dst, payload, *, tag=0, nbytes=None, is_retransmit=False):
            if dst.__class__ is not int or not 0 <= dst < n:
                topology.check_node(dst)
            if dst == pid:
                raise MachineError(f"processor {pid} sent a message to itself")
            if nbytes.__class__ is int:
                nb = nbytes
            elif nbytes is None:
                nb = estimate_nbytes(payload, word_bytes)
            else:
                nb = int(nbytes)
            if nb < 0:
                raise MachineError(f"nbytes must be non-negative, got {nb}")
            t0 = clock[pid]
            clock[pid] = t0 + send_ovh
            acc[_OVH] += send_ovh
            if is_retransmit:
                acc[_RETRANS] += 1
            sbuf.append((t0, dst, tag, payload, nb))
            issued[0] += 1
            return _OK

        def recv(src=ANY, *, tag=ANY, timeout=None):
            issued[0] += 1
            if timeout is not None:
                return _TIMED
            s = None if src is ANY or tag is ANY else streams.get((src, tag))
            if s is not None:
                msgs = s.msgs
                h = s.head
                if h < len(msgs):
                    s.head = h + 1
                    t0m, sr, k, tg, arr, payload, nb = msgs[h]
                    w = clock[pid]
                    if arr > w:
                        acc[_IDLE] += arr - w
                        w = arr
                    clock[pid] = w + recv_ovh
                    acc[_OVH] += recv_ovh
                    acc[_MSG_RX] += 1
                    acc[_BYT_RX] += nb
                    gseq[0] = sq = gseq[0] + 1
                    return _tnew(Message, (src, pid, tag, payload, nb, t0m, arr, sq))
            rcell[0] = src
            rcell[1] = tag
            return _RECVQ

        return work, send, recv

    for pid in range(n):
        env = ProcEnv(machine, pid)
        gen = programs[pid](env, *extra[pid])
        if not isinstance(gen, Generator):
            raise MachineError(
                f"program for pid {pid} must be a generator function "
                f"(did you forget to yield?); got {type(gen).__name__}")
        p = _BP(pid, gen, env)
        work, send, recv = _mk_ops(p)
        env.work = work
        env.send = send
        env.recv = recv
        p.c_send = send
        p.c_recv = recv
        bps.append(p)
        wl.append(pid)
        queued[pid] = 1

    def _flush(p: _BP) -> None:
        """Distribute ``p``'s buffered sends: delivery times, stream
        appends, concrete-waiter wakeups, finished-peer checks."""
        sb = p.sbuf
        m = len(sb)
        src = p.pid
        kb = p.kord
        p.kord = kb + m
        hc = hop_cache[src]
        if hc is None:
            hc = hop_cache[src] = {}
        acc = p.acc
        arrs = []
        nbt = 0
        for t0, dst, tag, payload, nb in sb:
            hops = hc.get(dst)
            if hops is None:
                hops = hops_nocheck(src, dst)
                hc[dst] = hops = hops if hops >= 1 else 1
            t1 = t0 + send_ovh
            arrs.append(t1 + (latency + per_hop * (hops - 1)
                              + nb / bandwidth))
            nbt += nb
        acc[_BYT_TX] += nbt
        # Consecutive sends usually target one (dst, tag) stream (fan-in
        # and ring patterns); memoise the stream lookup across the run.
        pdst = -1
        ptag = _OK  # never equals a user tag
        s_app = None
        wake = False
        for j in range(m):
            t0, dst, tag, payload, nb = sb[j]
            if dst != pdst or tag != ptag:
                pdst = dst
                ptag = tag
                dp = bps[dst]
                dstat = dp.status
                if dstat == _D:
                    ft = stats[dst].finish_time
                    if ft < t0 or (ft == t0 and dst < src):
                        gseq[0] = sq = gseq[0] + 1
                        msg = Message(src, dst, tag, payload, nb,
                                      t0, arrs[j], sq)
                        raise MachineError(
                            f"message {msg!r} sent to already-finished "
                            f"processor {dst}")
                    # The event engine would have flagged this message as
                    # unconsumed at dst's finish; replay there for the
                    # exact error.
                    raise BatchFallback
                s = dp.streams.get((src, tag))
                if s is None:
                    s = dp.streams[(src, tag)] = _Stream()
                s_app = s.msgs.append
                wake = (dstat == _B and dp.pend_src == src
                        and dp.pend_tag == tag)
            s_app((t0, src, kb + j, tag, arrs[j], payload, nb))
            if wake and not queued[dst]:
                queued[dst] = 1
                wl.append(dst)
        sb.clear()

    def _finish(p: _BP, value: Any) -> None:
        nonlocal alive
        if p.issued[0] != p.consumed:
            raise BatchFallback
        if p.sbuf:
            _flush(p)
        pid = p.pid
        st = stats[pid]
        ft = clock[pid]
        # Unconsumed-mailbox parity: messages with send key below the
        # finish key were in the mailbox; any above mean a send the event
        # engine would reject as addressed to a finished processor.
        # Solo-mode receive counters are derived here (C-level byte
        # count + integer sums, order-free) rather than per delivery.
        unc = 0
        future = None
        acc = p.acc
        snap = p.snap
        if snap is not None:
            ndeliv = snap.taken.count(1)
            acc[_MSG_RX] += ndeliv
            if ndeliv == snap.m:
                acc[_BYT_RX] += snap.total_nb
            else:
                undel_nb = 0
                taken = snap.taken
                rows_data = snap.rows
                for r in range(snap.m):
                    if taken[r]:
                        continue
                    t0m, src, k, tag, arr, payload, nb = rows_data[r]
                    undel_nb += nb
                    if t0m < ft or (t0m == ft and src < pid):
                        unc += 1
                    elif future is None or (t0m, src) < future[:2]:
                        future = (t0m, src, tag, payload, nb, arr)
                acc[_BYT_RX] += snap.total_nb - undel_nb
        else:
            for s in p.streams.values():
                msgs = s.msgs
                for i in range(s.head, len(msgs)):
                    t0m, src, k, tag, arr, payload, nb = msgs[i]
                    if t0m < ft or (t0m == ft and src < pid):
                        unc += 1
                    elif future is None or (t0m, src) < future[:2]:
                        future = (t0m, src, tag, payload, nb, arr)
        if unc:
            raise MachineError(
                f"processor {pid} finished with {unc} "
                f"unconsumed messages in its mailbox")
        if future is not None:
            t0m, src, tag, payload, nb, arr = future
            gseq[0] = sq = gseq[0] + 1
            msg = _tnew(Message, (src, pid, tag, payload, nb, t0m, arr, sq))
            raise MachineError(
                f"message {msg!r} sent to already-finished processor {pid}")
        st.finish_time = ft
        st.compute_seconds = acc[_COMPUTE]
        st.overhead_seconds = acc[_OVH]
        st.idle_seconds = acc[_IDLE]
        st.msgs_sent = p.kord  # every send was flushed through kord
        st.msgs_received = acc[_MSG_RX]
        st.bytes_sent = acc[_BYT_TX]
        st.bytes_received = acc[_BYT_RX]
        st.retransmits = acc[_RETRANS]
        p.value = value
        p.status = _D
        alive -= 1

    def _complete(p: _BP, s: _Stream) -> None:
        """Deliver the head of ``s`` to its flush-woken concrete waiter."""
        pid = p.pid
        i = s.head
        s.head = i + 1
        t0m, src, k, tag, arr, payload, nb = s.msgs[i]
        acc = p.acc
        w = clock[pid]
        ready = arr if arr > w else w
        acc[_IDLE] += ready - w
        clock[pid] = ready + recv_ovh
        acc[_OVH] += recv_ovh
        acc[_MSG_RX] += 1
        acc[_BYT_RX] += nb
        gseq[0] = sq = gseq[0] + 1
        p.resume = _tnew(Message, (src, pid, tag, payload, nb, t0m, arr, sq))
        p.status = _R

    def _enter_solo(p: _BP) -> None:
        """Freeze the remaining traffic into a sorted row snapshot and
        swap in the pointer-walk receive closure (last live processor).
        Called from the drive loop, so it may decline."""
        rd: list = []
        for s in p.streams.values():
            # Everything from head on is live, and rows already carry the
            # snapshot layout — C-level copy.
            rd += s.msgs if s.head == 0 else s.msgs[s.head:]
        if len(rd) > 1:
            # Tuple sort: the (time, src, ordinal) prefix is unique, so
            # comparisons never reach the payload column.
            rd.sort(key=None)  # lexicographic; key prefix unique
            av = np.fromiter((row[4] for row in rd), np.float64, len(rd))
            if not np.all(av[1:] >= av[:-1]):
                # A small message overtook a big one: the mailbox minimum
                # is no longer the next row in key order, and finding it
                # means rescanning the rows on every wildcard receive.
                raise BatchFallback
        p.streams = {}
        p.snap = snap = _Snap(rd, sum(row[6] for row in rd))

        pid = p.pid
        issued = p.issued
        acc = p.acc
        rcell = p.rcell
        views = snap.views
        taken = snap.taken
        rows_data = snap.rows
        nrows = snap.m
        # (src, tag) -> view memo for the last pattern, as closure cells
        # (LOAD_DEREF beats list indexing on the per-receive hot path).
        lp_src = lp_tag = lp_view = None
        #: Fast lane: a single live pattern means no row can be taken
        #: behind a view's pointer — delivery is a pure pointer walk.
        #: Creating a second view disables it.
        fast = True

        def _mkview(rs, rt) -> _View:
            nonlocal fast
            if views:
                fast = False
            if rs is ANY:
                if rt is ANY:
                    rows = [r for r in range(nrows) if not taken[r]]
                else:
                    rows = [r for r in range(nrows)
                            if rows_data[r][3] == rt and not taken[r]]
            elif rt is ANY:
                rows = [r for r in range(nrows)
                        if rows_data[r][1] == rs and not taken[r]]
            else:
                rows = [r for r in range(nrows)
                        if rows_data[r][1] == rs and rows_data[r][3] == rt
                        and not taken[r]]
            v = views[(rs, rt)] = _View(rows)
            return v

        def solo_recv(src=ANY, *, tag=ANY, timeout=None):
            nonlocal lp_src, lp_tag, lp_view
            issued[0] += 1
            if timeout is not None:
                return _TIMED
            if fast and src is lp_src and tag is lp_tag:
                v = lp_view
                rows = v.rows
                i = v.ptr
                if i < len(rows):
                    v.ptr = i + 1
                    r = rows[i]
                    taken[r] = 1
                    t0m, sr, k, tg, arr, payload, nb = rows_data[r]
                    w = clock[pid]
                    if arr > w:
                        acc[_IDLE] += arr - w
                        w = arr
                    clock[pid] = w + recv_ovh
                    acc[_OVH] += recv_ovh
                    gseq[0] = sq = gseq[0] + 1
                    return _tnew(Message, (sr, pid, tg, payload, nb, t0m, arr, sq))
                rcell[0] = src
                rcell[1] = tag
                return _RECVQ
            if src is lp_src and tag is lp_tag:
                v = lp_view
            else:
                v = views.get((src, tag))
                if v is None:
                    v = _mkview(src, tag)
                lp_src = src
                lp_tag = tag
                lp_view = v
            rows = v.rows
            i = v.ptr
            nr = len(rows)
            while i < nr and taken[rows[i]]:
                i += 1
            if i >= nr:
                v.ptr = i
                rcell[0] = src
                rcell[1] = tag
                return _RECVQ
            r = rows[i]
            v.ptr = i + 1
            taken[r] = 1
            t0m, sr, k, tg, arr, payload, nb = rows_data[r]
            w = clock[pid]
            if arr > w:
                acc[_IDLE] += arr - w
                w = arr
            clock[pid] = w + recv_ovh
            acc[_OVH] += recv_ovh
            gseq[0] = sq = gseq[0] + 1
            return _tnew(Message, (sr, pid, tg, payload, nb, t0m, arr, sq))

        p.c_recv = solo_recv
        p.env.recv = solo_recv

    def _solo_resolve(p: _BP) -> None:
        """Quiescence with one live (blocked) processor: decide its
        pending receive against the frozen snapshot."""
        if p.snap is None:
            _enter_solo(p)
        r = p.c_recv(p.pend_src, tag=p.pend_tag)
        p.issued[0] -= 1  # internal probe, not a program request
        if r.__class__ is not Message:
            raise DeadlockError(
                f"deadlock: processors {[p.pid]} blocked on receives "
                f"that can never be satisfied")
        p.resume = r
        p.status = _R
        queued[p.pid] = 1
        wl.append(p.pid)

    def _quiesce() -> None:
        """Every live processor is blocked.  The last one standing is
        decided against its snapshot; two or more (a wildcard race, or a
        deadlock among concrete receives) are the per-event engine's."""
        if alive != 1:
            raise BatchFallback
        _solo_resolve(next(q for q in bps if q.status == _B))

    # ------------------------------------------------------------------
    # Main drive loop: run each queued processor as deep as it can go.
    #
    # The whole loop is guarded: if a user-visible error surfaces while
    # any processor is desynchronised (a closure was called without its
    # result being yielded — the per-event engine would NOT have applied
    # that effect), the run is replayed there so the canonical behaviour
    # and error come from the oracle.  This keeps the issued/consumed
    # comparison off the per-event hot path: it only runs at park,
    # finish, and error points.
    # ------------------------------------------------------------------
    def _drive() -> None:
        nonlocal events
        while True:
            while wl:
                pid = wl.popleft()
                queued[pid] = 0
                p = bps[pid]
                status = p.status
                if status == _D:
                    continue
                if status == _B:
                    # Flush-woken concrete waiter: the new stream row is the
                    # direct hand-off.
                    s = p.streams.get((p.pend_src, p.pend_tag))
                    if s is None or s.head >= len(s.msgs):
                        raise BatchFallback  # wake invariant violated
                    _complete(p, s)
                resume = p.resume
                p.resume = None
                gen_send = p.gen.send
                issued = p.issued
                c = p.consumed
                while True:
                    try:
                        req = gen_send(resume)
                        # Hot spins: compute/send segments yield _OK,
                        # satisfied receives yield the delivered Message
                        # (resumed straight back in).  Neither touches the
                        # dispatch chain below.
                        while True:
                            if req is _OK:
                                events += 1
                                c += 1
                                req = gen_send(None)
                            elif req.__class__ is Message:
                                events += 1
                                c += 1
                                req = gen_send(req)
                            else:
                                break
                    except StopIteration as stop:
                        p.consumed = c
                        _finish(p, stop.value)
                        break
                    events += 1
                    # The issued/consumed comparison (closure calls the
                    # program never yielded) is deferred to the park/finish
                    # points and the error guard — zero cost per event.
                    rcls = req.__class__
                    if req is not _RECVQ and req is not _TIMED:
                        # Raw request objects (api.Comm, reliable, collectives
                        # construct events directly) — route through the same
                        # closures so accounting and matching stay identical.
                        if rcls is not Compute and rcls is not Send \
                                and rcls is not Recv:
                            if isinstance(req, Compute):
                                rcls = Compute
                            elif isinstance(req, Send):
                                rcls = Send
                            elif isinstance(req, Recv):
                                rcls = Recv
                            else:
                                raise MachineError(
                                    f"processor {pid} yielded {req!r}; expected "
                                    f"Compute, Send or Recv (use `yield from` "
                                    f"for collectives)")
                        if issued[0] != c:
                            raise BatchFallback
                        if rcls is Compute:
                            sec = req.seconds
                            if sec.__class__ is not float:
                                sec = float(sec)
                            clock[pid] += sec
                            p.acc[_COMPUTE] += sec
                            resume = None
                            continue
                        if rcls is Send:
                            p.c_send(req.dst, req.payload, tag=req.tag,
                                     nbytes=req.nbytes,
                                     is_retransmit=req.is_retransmit)
                            c += 1
                            resume = None
                            continue
                        req = p.c_recv(req.src, tag=req.tag, timeout=req.timeout)
                        if req.__class__ is Message:
                            c += 1
                            resume = req
                            continue
                        # fall into the shared receive-verdict path
                    if req is _TIMED:
                        raise BatchFallback  # a receive with a timeout
                    # _RECVQ: a wildcard or a miss parks until a flush wakes
                    # it or every live processor is blocked.
                    c += 1
                    if issued[0] != c:
                        raise BatchFallback
                    if p.sbuf:
                        _flush(p)
                    p.consumed = c
                    p.status = _B
                    p.pend_src, p.pend_tag = p.rcell
                    break
            if alive == 0:
                break
            _quiesce()
    try:
        _drive()
    except (MachineError, DeadlockError):
        # Replay desynchronised runs on the oracle for canonical errors.
        for q in bps:
            if q.issued[0] != q.consumed:
                raise BatchFallback from None
        raise

    return RunResult(values=[p.value for p in bps], stats=stats,
                     trace=None, events=events, crashed=[])
