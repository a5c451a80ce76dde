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
pid, program order)``.  Three consequences (each proven against the
reference semantics and guarded by ``tests/machine/test_equivalence.py``
and ``tests/machine/test_batch.py``):

* A concrete ``(src, tag)`` receive matches the n-th unconsumed message of
  that stream in sender program order — independent of any other
  processor's schedule.  Deep per-processor drives therefore commute.
* An ``ANY`` receive posted at key ``R = (post_time, pid)`` takes the
  minimum ``(arrival, send key)`` among matching messages with send key
  below ``R``, else the matching send with the minimum key above ``R``
  (the direct hand-off).  Both are decidable from a *frozen* message set
  once every other processor is finished or provably unable to send below
  the candidate key — the conservative-lookahead bound: a blocked
  processor's future sends carry keys at or above ``(post_time, pid)``,
  relaxed through chains of concrete waits (Bellman-style).
* Per-processor float accounting (compute/overhead/idle) is accumulated
  in program order, so the sums see the exact addition sequence of the
  event engine and stay bit-identical.

Epoch/lookahead invariant: between two quiescence points the engine only
commits events whose outcome is independent of undriven processors; any
receive whose outcome the bounds cannot decide parks until quiescence,
and if quiescence cannot decide it either, the run restarts on the
per-event oracle (:class:`BatchFallback`) — the same transparent-fallback
contract traced and faulted runs use.

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

_INF = float("inf")

_R, _B, _D = 0, 1, 2  # ready / blocked / done

# Accumulator slots (per-proc list; folded into ProcStats at finish so the
# float sums see the exact per-event addition order of the event engine).
_COMPUTE, _OVH, _IDLE = 0, 1, 2
_MSG_TX, _MSG_RX, _BYT_TX, _BYT_RX, _RETRANS, _TIMEOUTS = 3, 4, 5, 6, 7, 8


class BatchFallback(Exception):
    """Internal: this run needs the per-event engine; restart there."""


class _Sentinel:
    __slots__ = ("_name",)

    def __init__(self, name: str):
        self._name = name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return self._name


#: Closure return values: effect applied / the drive loop must resolve
#: the receive (pattern parked in ``rcell``).  A satisfied receive
#: returns the delivered :class:`Message` itself — the drive loop
#: recognises it by class.  A program that yields a *stale* Message it
#: received earlier desynchronises ``issued``/``consumed`` and falls
#: back to the per-event engine, which raises the canonical error.
_OK = _Sentinel("<applied>")
_RECVQ = _Sentinel("<recv-queued>")

# Message is a NamedTuple; building it through the raw C tuple constructor
# skips the Python-level __new__ wrapper (~2x cheaper per delivery).
_tnew = tuple.__new__


class _Stream:
    """One sender's messages to one ``(src, tag)`` mailbox stream.

    ``msgs`` rows are ``(sent_at, src, send_ordinal, tag, arrival,
    payload, nbytes)`` appended in sender program order (= global key
    order restricted to the stream) — the same row layout the solo
    snapshot uses, so freezing a stream is a C-level slice copy.
    ``taken`` marks rows consumed out of order by wildcard receives;
    ``head`` is the low-water mark (every row below it is taken);
    ``ooo`` counts out-of-order takes still above ``head``.
    """

    __slots__ = ("msgs", "taken", "head", "ooo")

    def __init__(self) -> None:
        self.msgs: list[tuple] = []
        self.taken = bytearray()
        self.head = 0
        self.ooo = 0


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
    compares payloads."""

    __slots__ = ("rows", "taken", "views", "mono", "m", "dlov", "total_nb")

    def __init__(self, rows, mono, total_nb):
        self.rows = rows
        self.m = len(rows)
        self.taken = bytearray(self.m)
        self.views: dict[tuple, _View] = {}
        #: Arrivals non-decreasing in key order: wildcard selection
        #: degenerates to "next unconsumed row" (mailbox minimum and
        #: direct hand-off coincide) — the pointer fast path.
        self.mono = mono
        #: Absolute-deadline override for quiescence re-probes (the
        #: stored deadline must be compared bit-exactly, not rebuilt
        #: from a relative timeout).
        self.dlov: list = [None]
        #: Sum of all row nbytes: receive counters are *derived* at
        #: finish (delivered = taken.count, bytes = total - undelivered)
        #: instead of being bumped per call — integer sums are
        #: order-free, so this cannot perturb bit-exactness.
        self.total_nb = total_nb


class _BP:
    """Per-processor drive state."""

    __slots__ = ("pid", "gen", "env", "status", "value", "streams", "sbuf",
                 "kord", "issued", "consumed", "rcell", "acc",
                 "c_send", "c_recv", "pend_src", "pend_tag", "post",
                 "deadline", "resume", "snap")

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
        self.rcell: list[Any] = [None, None, None]
        self.acc = [0.0, 0.0, 0.0, 0, 0, 0, 0, 0, 0]
        self.c_send: Any = None
        self.c_recv: Any = None
        self.pend_src: Any = None
        self.pend_tag: Any = None
        self.post = 0.0
        self.deadline: float | None = None
        self.resume: Any = None
        self.snap: _Snap | None = None


def run_batched(machine: Any, programs: list, extra: list) -> Any:
    """Run ``programs`` on ``machine`` under the batched schedule.

    Raises :class:`BatchFallback` when the run needs the per-event engine
    (a program issued requests without yielding them, or a wildcard race
    the conservative bounds cannot decide); the caller restarts on the
    event engine, which is also the documented error-parity oracle.
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
            if src is ANY or tag is ANY:
                rcell[0] = src
                rcell[1] = tag
                rcell[2] = timeout
                return _RECVQ
            s = streams.get((src, tag))
            if s is not None:
                msgs = s.msgs
                taken = s.taken
                h = s.head
                nm = len(msgs)
                while h < nm and taken[h]:
                    h += 1
                if h < nm:
                    taken[h] = 1
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
                s.head = h
            rcell[0] = src
            rcell[1] = tag
            rcell[2] = timeout
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
        t_app = None
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
                t_app = s.taken.append
                wake = (dstat == _B and dp.pend_src == src
                        and dp.pend_tag == tag)
            s_app((t0, src, kb + j, tag, arrs[j], payload, nb))
            t_app(0)
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
                taken = s.taken
                for i in range(s.head, len(msgs)):
                    if taken[i]:
                        continue
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
        st.timeouts = acc[_TIMEOUTS]
        p.value = value
        p.status = _D
        alive -= 1

    def _fire_timeout(p: _BP) -> None:
        """Resume a timed-out receive with ``None`` at its deadline."""
        d = p.deadline
        acc = p.acc
        acc[_IDLE] += d - p.post
        acc[_TIMEOUTS] += 1
        clock[p.pid] = d
        p.resume = None
        p.status = _R
        p.pend_src = p.pend_tag = None
        p.deadline = None

    def _complete(p: _BP, s: _Stream, i: int, src, tag, advance: bool) -> None:
        """Deliver stream row ``i`` to blocked ``p`` (wake or quiescence)."""
        pid = p.pid
        s.taken[i] = 1
        if advance:
            s.head = i + 1
        else:
            s.ooo += 1
        t0m, sr, k, tg, arr, payload, nb = s.msgs[i]
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
        p.pend_src = p.pend_tag = None
        p.deadline = None

    def _enter_solo(p: _BP) -> None:
        """Freeze the remaining traffic into a sorted row snapshot and
        swap in the pointer-walk receive closure (last live processor)."""
        rd: list = []
        for s in p.streams.values():
            if not s.ooo:
                # No out-of-order takes: everything from head on is live,
                # and rows already carry the snapshot layout — C-level copy.
                rd += s.msgs if s.head == 0 else s.msgs[s.head:]
                continue
            msgs = s.msgs
            taken = s.taken
            for i in range(s.head, len(msgs)):
                if not taken[i]:
                    rd.append(msgs[i])
        mono = True
        if len(rd) > 1:
            # Tuple sort: the (time, src, ordinal) prefix is unique, so
            # comparisons never reach the payload column.
            rd.sort(key=None)  # lexicographic; key prefix unique
            av = np.fromiter((row[4] for row in rd), np.float64, len(rd))
            mono = bool(np.all(av[1:] >= av[:-1]))
        p.streams = {}
        p.snap = snap = _Snap(rd, mono, sum(row[6] for row in rd))

        pid = p.pid
        issued = p.issued
        acc = p.acc
        rcell = p.rcell
        views = snap.views
        taken = snap.taken
        rows_data = snap.rows
        nrows = snap.m
        is_mono = snap.mono
        # (src, tag) -> view memo for the last pattern, as closure cells
        # (LOAD_DEREF beats list indexing on the per-receive hot path).
        lp_src = lp_tag = lp_view = None
        #: Fast lane: monotone arrivals and a single live pattern mean
        #: no row can be taken behind a view's pointer — delivery is a
        #: pure pointer walk.  Creating a second view disables it.
        fast = is_mono

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
            if (timeout is None and fast and src is lp_src
                    and tag is lp_tag):
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
                rcell[2] = timeout
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
                rcell[2] = timeout
                return _RECVQ
            wildcard = src is ANY or tag is ANY
            if timeout is not None or (wildcard and not is_mono):
                v.ptr = i
                r = _solo_pick(v, src, tag, timeout, wildcard)
                if r is None:
                    rcell[0] = src
                    rcell[1] = tag
                    rcell[2] = timeout
                    return _RECVQ
            else:
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

        def _solo_pick(v, src, tag, timeout, wildcard):
            """Exact candidate under timeouts / non-monotone arrivals.

            Returns the snapshot row to deliver, or ``None`` when the
            timeout beats every candidate (the caller resumes with None).
            Rows are key-sorted, so the messages below the post key — the
            ones a mailbox receive would see — form a prefix of the view.
            """
            rows = v.rows
            w = clock[pid]
            best = None     # mailbox: min (arrival, key) below the post key
            cand = None     # hand-off: min key at or above the post key
            i = v.ptr
            nr = len(rows)
            while i < nr and taken[rows[i]]:
                i += 1
            if not wildcard:
                # Concrete streams match FIFO: the first live row wins
                # whether it is a mailbox hit or the direct hand-off.
                r = rows[i]
                t0m, sr = rows_data[r][0], rows_data[r][1]
                if t0m < w or (t0m == w and sr < pid):
                    return r
                cand = r
            else:
                for j in range(i, nr):
                    r = rows[j]
                    if taken[r]:
                        continue
                    t0m, sr, k, tg, arr = rows_data[r][:5]
                    if t0m < w or (t0m == w and sr < pid):
                        key = (arr, t0m, sr, k)
                        if best is None or key < best[0]:
                            best = (key, r)
                    else:
                        cand = r
                        break
                if best is not None:
                    return best[1]
            if cand is None:
                return None
            if timeout is not None:
                d = snap.dlov[0]
                if d is None:
                    d = w + timeout
                else:
                    snap.dlov[0] = None
                t0c, src_c = rows_data[cand][0], rows_data[cand][1]
                if t0c > d or (t0c == d and src_c > pid):
                    return None
            return cand

        p.c_recv = solo_recv
        p.env.recv = solo_recv

    def _solo_resolve(p: _BP) -> None:
        """Quiescence with one live (blocked) processor: decide its
        pending receive against the frozen snapshot."""
        if p.snap is None:
            _enter_solo(p)
        rs, rt = p.pend_src, p.pend_tag
        d = p.deadline
        timeout = None
        if d is not None:
            p.snap.dlov[0] = d
            timeout = 0.0  # placeholder; the pick uses the exact deadline
        r = p.c_recv(rs, tag=rt, timeout=timeout)
        if p.snap.dlov[0] is not None:
            p.snap.dlov[0] = None
        p.issued[0] -= 1  # internal probe, not a program request
        if r.__class__ is Message:
            p.resume = r
            p.status = _R
            p.pend_src = p.pend_tag = None
            p.deadline = None
        elif d is not None:
            _fire_timeout(p)
        else:
            raise DeadlockError(
                f"deadlock: processors {[p.pid]} blocked on receives "
                f"that can never be satisfied")
        queued[p.pid] = 1
        wl.append(p.pid)

    def _quiesce() -> None:
        """Every live processor is blocked: decide one parked receive
        using the conservative lookahead bounds, or fall back."""
        blocked = [q for q in bps if q.status == _B]
        blocked_pids = [q.pid for q in blocked]
        if alive == 1:
            _solo_resolve(blocked[0])
            return
        # Lower bounds on every blocked processor's next send key.
        bt = {q.pid: q.post for q in blocked}
        for _ in range(len(blocked)):
            changed = False
            for q in blocked:
                if (q.deadline is None and q.pend_src is not ANY
                        and q.pend_tag is not ANY):
                    ps = q.pend_src
                    if type(ps) is int and 0 <= ps < n:
                        sp = bps[ps]
                        nb = _INF if sp.status == _D else bt.get(ps, 0.0)
                    else:
                        nb = _INF  # no such sender: blocked forever
                    if nb > bt[q.pid]:
                        bt[q.pid] = nb
                        changed = True
            if not changed:
                break
        waiters = [q for q in blocked
                   if q.pend_src is ANY or q.pend_tag is ANY
                   or q.deadline is not None]
        any_candidate = False
        for X in sorted(waiters, key=lambda q: (q.post, q.pid)):
            w = X.post
            xp = X.pid
            d = X.deadline
            rs, rt = X.pend_src, X.pend_tag
            best = None
            cand = None
            for (src, tag), s in X.streams.items():
                if (rs is not ANY and src != rs) or \
                        (rt is not ANY and tag != rt):
                    continue
                msgs = s.msgs
                taken = s.taken
                for i in range(s.head, len(msgs)):
                    if taken[i]:
                        continue
                    t0m, sr2, k, tg2, arr, payload, nb = msgs[i]
                    if t0m < w or (t0m == w and src < xp):
                        key = (arr, t0m, src, k)
                        if best is None or key < best[0]:
                            best = (key, s, i, src, tag)
                    else:
                        key = (t0m, src, k)
                        if cand is None or key < cand[0]:
                            cand = (key, s, i, src, tag)
                        break  # stream rows are key-sorted
            if best is not None or cand is not None or d is not None:
                any_candidate = True
            others = [q for q in blocked if q.pid != xp]
            if best is not None:
                # Mailbox minimum is exact iff nobody can still send a
                # message with key below the post key.
                if all(bt[q.pid] > w or (bt[q.pid] == w and q.pid > xp)
                       for q in others):
                    _, s, i, src, tag = best
                    _complete(X, s, i, src, tag, advance=False)
                    queued[xp] = 1
                    wl.append(xp)
                    return
                continue
            if cand is not None:
                ck, s, i, src, tag = cand
                t0c, src_c, _k = ck
                if d is not None and (t0c > d or (t0c == d and src_c > xp)):
                    if all(bt[q.pid] > d or (bt[q.pid] == d and q.pid > xp)
                           for q in others):
                        _fire_timeout(X)
                        queued[xp] = 1
                        wl.append(xp)
                        return
                elif all(q.pid == src_c or bt[q.pid] > t0c
                         or (bt[q.pid] == t0c and q.pid > src_c)
                         for q in others):
                    # Hand-off: candidate key beats every possible future
                    # send (the candidate's own sender only sends later
                    # keys: its clock and ordinal both already passed it).
                    _complete(X, s, i, src, tag, advance=False)
                    queued[xp] = 1
                    wl.append(xp)
                    return
            elif d is not None:
                if all(bt[q.pid] > d or (bt[q.pid] == d and q.pid > xp)
                       for q in others):
                    _fire_timeout(X)
                    queued[xp] = 1
                    wl.append(xp)
                    return
        if not any_candidate:
            raise DeadlockError(
                f"deadlock: processors {blocked_pids} blocked on receives "
                f"that can never be satisfied")
        raise BatchFallback

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
                    # direct hand-off unless the timeout's key beats it.
                    s = p.streams.get((p.pend_src, p.pend_tag))
                    h = -1
                    if s is not None:
                        msgs = s.msgs
                        taken = s.taken
                        h = s.head
                        nm = len(msgs)
                        while h < nm and taken[h]:
                            h += 1
                        if h >= nm:
                            h = -1
                    if h < 0:
                        raise BatchFallback  # wake invariant violated
                    d = p.deadline
                    t0m = s.msgs[h][0]
                    if d is not None and (t0m > d or
                                          (t0m == d and p.pend_src > pid)):
                        _fire_timeout(p)
                    else:
                        _complete(p, s, h, p.pend_src, p.pend_tag, advance=True)
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
                    if req is not _RECVQ:
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
                        # fall into the shared _RECVQ path
                    # _RECVQ: wildcard, miss, or timeout-armed receive.
                    c += 1
                    if issued[0] != c:
                        raise BatchFallback
                    rc = p.rcell
                    rs = rc[0]
                    rt = rc[1]
                    rto = rc[2]
                    if p.sbuf:
                        _flush(p)
                    if alive == 1:
                        if p.snap is None:
                            _enter_solo(p)
                            req = p.c_recv(rs, tag=rt, timeout=rto)
                            issued[0] -= 1  # re-probe of the same request
                            if req.__class__ is Message:
                                resume = req
                                continue
                        if rto is not None:
                            d = clock[pid] + rto
                            p.acc[_IDLE] += d - clock[pid]
                            p.acc[_TIMEOUTS] += 1
                            clock[pid] = d
                            resume = None
                            continue
                        p.consumed = c
                        raise DeadlockError(
                            f"deadlock: processors {[pid]} blocked on receives "
                            f"that can never be satisfied")
                    p.consumed = c
                    p.status = _B
                    p.pend_src = rs
                    p.pend_tag = rt
                    p.post = w = clock[pid]
                    p.deadline = None if rto is None else w + rto
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
