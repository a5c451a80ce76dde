"""Discrete-event simulator for message-passing programs.

The :class:`Machine` runs one generator-based program per virtual processor.
Each processor has its own virtual clock; the scheduler always steps the
*runnable* processor with the smallest clock, which keeps message causality
intact (a processor can only be overtaken by messages sent at earlier or
equal virtual times).  Receives on a concrete ``(src, tag)`` pair are FIFO
and deterministic; the simulation result therefore does not depend on host
scheduling, only on the program and the cost model.

Programs look like::

    def worker(env: ProcEnv):
        yield env.work(ops=1000)                      # charge CPU time
        yield env.send(dst=1, payload=data)           # async send
        msg = yield env.recv(src=1)                   # blocking receive
        return msg.payload                            # per-proc result

    machine = Machine(Hypercube(3), spec=AP1000)
    result = machine.run(worker)
    result.makespan            # virtual seconds
    result.values              # list of per-processor return values

Accounting: per processor the simulator tracks compute seconds, messaging
overhead seconds, idle (blocked-waiting) seconds, message and byte counters;
:class:`RunResult` aggregates them and exposes the makespan used by all the
benchmarks in this repository.

Engine internals (host performance)
-----------------------------------

The hot path is O(log p) per event, not O(p):

* **Run queue** — a ``heapq`` of ``(clock, pid)`` entries.  An entry exists
  exactly for each *ready* processor (blocked and finished processors have
  none), so popping the heap yields the same ``min (clock, pid)`` order the
  original ready-list scan produced, at O(log p) per step.  A status/clock
  guard on pop lazily discards entries that a future code path might
  invalidate; with the current transitions every popped entry is valid.
* **Mailboxes** — per-processor :class:`_Mailbox` indexes: a
  ``dict[(src, tag)] -> deque`` FIFO for the concrete fast path (the
  documented send-order matching), plus arrival-ordered heaps, built lazily
  per wildcard pattern, that reproduce the documented "earliest delivered
  candidate" rule for ``ANY``-source/``ANY``-tag receives bit-for-bit.
  Messages consumed through one index are lazily invalidated in the others
  via a live-sequence set.
* **Direct hand-off** — a message arriving for a processor that is already
  blocked on a matching receive is handed to it without touching the
  mailbox (while blocked, the mailbox can contain no matching message, so
  the newcomer is always the unique earliest candidate).
* **Routing** — hop counts come from per-source rows cached on the
  topology (:meth:`Topology.hop_row`), so a send costs one list index
  instead of a validated shortest-path recomputation.

The retained pre-optimisation engine
(:class:`repro.machine._reference.ReferenceMachine`) is the oracle:
``tests/machine/test_equivalence.py`` asserts both engines produce
identical values, stats, makespans and traces.

Fault injection (the ``faults`` hook)
-------------------------------------

``Machine(..., faults=injector)`` plugs a deterministic fault model into
the engine through a narrow structural protocol (implemented by
:class:`repro.faults.FaultInjector`; any object with the same methods
works)::

    injector.begin_run(nprocs)                  # reset per-run state
    injector.crash_time(pid) -> float | None    # virtual time pid dies
    injector.compute_factor(pid) -> float       # node slowdown multiplier
    injector.link_factor(src, dst) -> float     # wire-time multiplier
    injector.deliveries(src, dst, tag, nbytes, seq)
        -> tuple[(extra_delay, corrupt), ...]   # () = dropped,
                                                # 2 entries = duplicated
    injector.corrupt_payload(payload) -> Any    # corruption transform

The engine states each rule once; the injector is an input to it.
``faults=None`` (the default) is the perfect network's verdict, one
undelayed, intact copy (``_DELIVERED``) at wire factor ``1.0``, fed to
the same send arithmetic — ``x * 1.0 == x`` and ``x + 0.0 == x``, so the
equivalence suite still proves the fault-free run bit-for-bit identical
to the reference engine, and an all-zero-rate injector identical to no
injector.  With faults enabled the run additionally records
``drop``/``timeout``/``crash`` trace events, counts
drops/timeouts/retransmits in :class:`ProcStats`, drops messages
addressed to crashed processors instead of raising, skips the
unconsumed-mailbox check (stray retransmit duplicates are expected under
chaos), and reports crashed pids in :attr:`RunResult.crashed`.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Generator, Iterable, Sequence

from repro.errors import DeadlockError, MachineError
from repro.machine.cost import MachineSpec, estimate_nbytes, PERFECT
from repro.machine.events import ANY, Compute, Message, Recv, Send
from repro.machine.topology import Copies, FullyConnected, Topology
from repro.machine.trace import NO_DETAIL, Span, Trace, TraceEvent, frozendetail

__all__ = ["Machine", "ProcEnv", "ProcStats", "RunResult"]

Program = Callable[["ProcEnv"], Generator[Any, Any, Any]]

_READY = "ready"
_BLOCKED = "blocked"
_DONE = "done"
_CRASHED = "crashed"

#: The perfect network's delivery verdict: one copy, on time, intact.
_DELIVERED = ((0.0, False),)

# A traced run builds its TraceEvents with the raw tuple constructor: the
# recorder hands over a detail that is already frozen.
_tnew = tuple.__new__


def negative_error(pid: int, what: str, got: Any) -> MachineError:
    """The error for processor ``pid``'s negative ``what``."""
    return MachineError(
        f"processor {pid}: {what} must be non-negative, got {got!r}")


def send_size(pid: int, dst: Any, payload: Any, nbytes: Any, n: int,
               topology: Topology, word_bytes: int) -> int:
    """Check ``pid``'s send to ``dst`` on an ``n``-processor ``topology``
    and return its size in bytes (``nbytes``, or the payload's estimate).
    The one statement of the send checks and their messages, shared by
    the per-event engine and both walk timelines."""
    if dst.__class__ is not int or not 0 <= dst < n:
        topology.check_node(dst)
    if dst == pid:
        raise MachineError(f"processor {pid} sent a message to itself")
    if nbytes is None:
        nbytes = estimate_nbytes(payload, word_bytes)
    elif nbytes.__class__ is not int:
        nbytes = int(nbytes)
    if nbytes < 0:
        raise negative_error(pid, "nbytes", nbytes)
    return nbytes


@dataclasses.dataclass(slots=True)
class ProcStats:
    """Per-processor accounting accumulated during a run."""

    pid: int
    compute_seconds: float = 0.0
    overhead_seconds: float = 0.0
    idle_seconds: float = 0.0
    msgs_sent: int = 0
    msgs_received: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    finish_time: float = 0.0
    #: Fault-layer counters — all provably zero in fault-free runs
    #: (retransmits/timeouts need Send.is_retransmit / Recv.timeout, which
    #: only the resilience layer issues; drops need an injector).
    retransmits: int = 0
    timeouts: int = 0
    msgs_dropped: int = 0

    @property
    def busy_seconds(self) -> float:
        """Compute plus messaging-overhead time."""
        return self.compute_seconds + self.overhead_seconds


@dataclasses.dataclass
class RunResult:
    """Outcome of a :meth:`Machine.run`: values, timing, traffic."""

    values: list[Any]
    stats: list[ProcStats]
    trace: Trace | None = None
    #: Number of simulation requests (computes + sends + receives) the
    #: engine processed — the event count behind host-throughput metrics.
    events: int = 0
    #: Pids that crashed during the run (sorted).  Crashed processors have
    #: ``None`` in :attr:`values` and a ``finish_time`` equal to the time
    #: of death.  Always empty without a fault injector.
    crashed: list[int] = dataclasses.field(default_factory=list)

    @property
    def nprocs(self) -> int:
        return len(self.stats)

    @property
    def survivors(self) -> list[int]:
        """Pids that did *not* crash during the run."""
        dead = set(self.crashed)
        return [s.pid for s in self.stats if s.pid not in dead]

    @property
    def total_retransmits(self) -> int:
        return sum(s.retransmits for s in self.stats)

    @property
    def total_timeouts(self) -> int:
        return sum(s.timeouts for s in self.stats)

    @property
    def total_dropped(self) -> int:
        return sum(s.msgs_dropped for s in self.stats)

    @property
    def makespan(self) -> float:
        """Virtual time at which the last processor finished."""
        return max((s.finish_time for s in self.stats), default=0.0)

    @property
    def total_messages(self) -> int:
        return sum(s.msgs_sent for s in self.stats)

    def tally(self) -> tuple[int, int, float]:
        """``(messages, sends + receives, makespan)`` in one pass over the
        statistics: :attr:`total_messages`, the engine-invariant event
        count (one per send plus one per receive; not :attr:`events`)
        and :attr:`makespan`."""
        sent = received = 0
        makespan = 0.0
        for s in self.stats:
            sent += s.msgs_sent
            received += s.msgs_received
            if s.finish_time > makespan:
                makespan = s.finish_time
        return sent, sent + received, makespan

    @property
    def total_bytes(self) -> int:
        return sum(s.bytes_sent for s in self.stats)

    @property
    def total_compute_seconds(self) -> float:
        return sum(s.compute_seconds for s in self.stats)

    @property
    def total_idle_seconds(self) -> float:
        return sum(s.idle_seconds for s in self.stats)

    def efficiency(self) -> float:
        """Mean fraction of the makespan each processor spent busy."""
        if self.makespan == 0:
            return 1.0
        return sum(s.busy_seconds for s in self.stats) / (self.nprocs * self.makespan)

    def summary(self) -> str:
        """Human-readable one-paragraph run summary."""
        return (
            f"{self.nprocs} procs, makespan {self.makespan:.6f}s, "
            f"{self.total_messages} msgs / {self.total_bytes} bytes, "
            f"efficiency {self.efficiency():.1%}"
        )

    def split(self, copies: int) -> list["RunResult"]:
        """The runs of ``copies`` independent jobs run side by side on
        :meth:`Machine.copies`: copy ``c`` gets processors ``c·m …
        c·m + m − 1`` renumbered from 0 — their values and statistics,
        which move to the parts — and an equal share of ``events`` (copies
        of one static program make the same requests).  For an untraced,
        crash-free run."""
        m = len(self.stats) // copies
        events = self.events // copies
        parts = []
        for first in range(0, m * copies, m):
            stats = self.stats[first:first + m]
            for pid, st in enumerate(stats):
                st.pid = pid
            parts.append(RunResult(self.values[first:first + m], stats,
                                   events=events))
        return parts


class _SpanScope:
    """Context manager pushing one :class:`Span` frame for one processor."""

    __slots__ = ("_spans", "_pid", "_label", "_instr", "_iter", "_saved")

    def __init__(self, spans: list, pid: int, label: str,
                 instr: int | None, iteration: int | None):
        self._spans = spans
        self._pid = pid
        self._label = label
        self._instr = instr
        self._iter = iteration

    def __enter__(self) -> Span:
        spans, pid = self._spans, self._pid
        parent = spans[pid]
        self._saved = parent
        span = Span(self._label, self._instr, self._iter, parent)
        spans[pid] = span
        return span

    def __exit__(self, *exc: Any) -> None:
        self._spans[self._pid] = self._saved


class _NullSpanScope:
    """Shared no-op scope returned when tracing is off (zero allocation)."""

    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc: Any) -> None:
        return None


_NULL_SPAN_SCOPE = _NullSpanScope()


class ProcEnv:
    """Handle given to each virtual-processor program.

    Exposes the processor id, machine spec and topology, and constructors
    for the three primitive simulation requests.  All methods build request
    objects — the program must ``yield`` them to take effect.
    """

    def __init__(self, machine: "Machine", pid: int):
        self._machine = machine
        self.pid = pid
        self._flop_time = machine.spec.flop_time

    @property
    def nprocs(self) -> int:
        """Total number of processors in the machine."""
        return self._machine.nprocs

    @property
    def spec(self) -> MachineSpec:
        """The machine's cost model."""
        return self._machine.spec

    @property
    def topology(self) -> Topology:
        """The machine's interconnect."""
        return self._machine.topology

    @property
    def now(self) -> float:
        """This processor's current virtual clock."""
        return self._machine._clock[self.pid]

    def compute(self, seconds: float) -> Compute:
        """Request: charge ``seconds`` of CPU time."""
        seconds = float(seconds)
        if not seconds >= 0:
            raise negative_error(self.pid, "compute seconds", seconds)
        return Compute(seconds)

    def work(self, ops: float) -> Compute:
        """Request: charge CPU time for ``ops`` elementary operations."""
        # Inlined ``spec.compute_time`` (identical arithmetic); the error
        # names the processor, as the timelines' does.  ``float()``
        # demotes NumPy scalars to the identical IEEE double; otherwise
        # one np.float64 turns every downstream clock comparison and heap
        # operation into slow NumPy scalar arithmetic.
        ops = float(ops)
        if not ops >= 0:
            raise negative_error(self.pid, "ops", ops)
        return Compute(ops * self._flop_time)

    def send(self, dst: int, payload: Any, *, tag: int = 0,
             nbytes: int | None = None, is_retransmit: bool = False) -> Send:
        """Request: asynchronously send ``payload`` to processor ``dst``."""
        return Send(dst, payload, tag, nbytes, is_retransmit)

    def recv(self, src: int | Any = ANY, *, tag: int | Any = ANY,
             timeout: float | None = None) -> Recv:
        """Request: block until a message matching ``(src, tag)`` arrives.

        With ``timeout`` (virtual seconds) the receive resumes with ``None``
        if nothing matching arrives by the deadline.
        """
        return Recv(src, tag, timeout)

    @property
    def tracing(self) -> bool:
        """True when this run records a trace (so spans are being kept)."""
        return self._machine._span is not None

    def span(self, label: str, *, instr: int | None = None,
             iteration: int | None = None):
        """Context manager attributing trace events to a named span.

        Everything this processor records while the scope is active —
        including receives completed for it by a remote send — carries a
        :class:`~repro.machine.trace.Span` frame with this label (nested
        scopes chain via ``parent``).  When the run records no trace the
        returned scope is a shared no-op, so instrumented programs cost
        nothing un-traced::

            with env.span("scatter"):
                local = yield from collectives.scatter(comm, blocks, root=0)
        """
        spans = self._machine._span
        if spans is None:
            return _NULL_SPAN_SCOPE
        return _SpanScope(spans, self.pid, label, instr, iteration)

    @property
    def crashed_pids(self) -> frozenset[int]:
        """Pids known to have crashed so far (empty without faults)."""
        dead = self._machine._crashed
        return frozenset(dead) if dead else frozenset()

    def __repr__(self) -> str:
        return f"ProcEnv(pid={self.pid}, nprocs={self.nprocs})"


class _Mailbox:
    """Indexed pending-message store for one processor.

    Messages live in per-``(src, tag)`` FIFO deques — the concrete-receive
    fast path, matching in send order exactly as documented.  Wildcard
    receives need the *earliest delivered* candidate (min ``(arrival,
    seq)``), which send order does not give (a small message can overtake a
    big one), so arrival-ordered heaps are kept per wildcard pattern: one
    for ``(ANY, ANY)``, one per concrete source for ``(src, ANY)``, one per
    concrete tag for ``(ANY, tag)``.  Each heap is built on the first
    receive that needs it and maintained incrementally afterwards.

    A message consumed through one index stays in the others; ``live``
    (the set of pending sequence numbers) lazily invalidates those stale
    entries when they surface.
    """

    __slots__ = ("fifo", "live", "count", "heaped", "any_heap", "src_heaps",
                 "tag_heaps")

    def __init__(self) -> None:
        self.fifo: dict[tuple[Any, Any], deque[Message]] = {}
        self.live: set[int] = set()
        self.count = 0
        #: True once any wildcard heap exists; lets ``add`` skip the
        #: heap-maintenance checks entirely for concrete-only mailboxes.
        self.heaped = False
        self.any_heap: list[tuple[float, int, Message]] | None = None
        self.src_heaps: dict[Any, list[tuple[float, int, Message]]] = {}
        self.tag_heaps: dict[Any, list[tuple[float, int, Message]]] = {}

    def add(self, msg: Message) -> None:
        key = (msg.src, msg.tag)
        d = self.fifo.get(key)
        if d is None:
            d = self.fifo[key] = deque()
        d.append(msg)
        self.live.add(msg.seq)
        self.count += 1
        if self.heaped:
            entry = (msg.arrival, msg.seq, msg)
            if self.any_heap is not None:
                heappush(self.any_heap, entry)
            if self.src_heaps:
                h = self.src_heaps.get(msg.src)
                if h is not None:
                    heappush(h, entry)
            if self.tag_heaps:
                h = self.tag_heaps.get(msg.tag)
                if h is not None:
                    heappush(h, entry)

    def _build_heap(self, pred: Callable[[Message], bool]
                    ) -> list[tuple[float, int, Message]]:
        live = self.live
        heap = [(m.arrival, m.seq, m)
                for d in self.fifo.values() for m in d
                if m.seq in live and pred(m)]
        heapify(heap)
        return heap

    def _pop_heap(self, heap: list[tuple[float, int, Message]]) -> Message | None:
        live = self.live
        while heap:
            _, seq, msg = heappop(heap)
            if seq in live:
                live.remove(seq)
                self.count -= 1
                return msg
        return None

    def pop_wildcard(self, src: Any, tag: Any) -> Message | None:
        """Remove and return the earliest-delivered message a receive on
        ``(src, tag)``, either or both ``ANY``, matches — min ``(arrival,
        seq)``, the exact selection rule of the reference engine — if any.
        (A concrete receive pops its ``fifo`` deque in the engine.)
        """
        self.heaped = True
        if src is not ANY:
            h = self.src_heaps.get(src)
            if h is None:
                h = self.src_heaps[src] = self._build_heap(lambda m: m.src == src)
            return self._pop_heap(h)
        if tag is not ANY:
            h = self.tag_heaps.get(tag)
            if h is None:
                h = self.tag_heaps[tag] = self._build_heap(lambda m: m.tag == tag)
            return self._pop_heap(h)
        h = self.any_heap
        if h is None:
            h = self.any_heap = self._build_heap(lambda m: True)
        return self._pop_heap(h)


class _Proc:
    """Internal per-processor simulator state."""

    __slots__ = ("pid", "gen", "status", "pending_recv", "resume_value",
                 "recv_posted_at", "timeout_at", "box", "value")

    def __init__(self, pid: int, gen: Generator[Any, Any, Any]):
        self.pid = pid
        self.gen = gen
        self.status = _READY
        self.pending_recv: Recv | None = None
        self.resume_value: Any = None
        self.recv_posted_at = 0.0
        self.timeout_at: float | None = None
        self.box = _Mailbox()
        self.value: Any = None


def _replay(env: ProcEnv, requests: list, spans: list | None, value: Any):
    """The program of one processor of a recorded walk
    (:class:`repro.machine.lockstep.Recorder`): issue ``requests`` in
    order — each in its span, on a traced run — and return ``value``."""
    if spans is None:
        for request in requests:
            yield request
    else:
        current, pid = env._machine._span, env.pid
        for request, span in zip(requests, spans):
            current[pid] = span
            yield request
    return value


class Machine:
    """A simulated distributed-memory machine (see module docstring)."""

    def __init__(self, topology: Topology | int, *,
                 spec: MachineSpec = PERFECT, record_trace: bool = False,
                 single_port: bool = False, faults: Any = None,
                 trace_sink: Any = None, trace_limit: int | None = None,
                 batch: bool = True):
        if isinstance(topology, int):
            topology = FullyConnected(topology)
        if not isinstance(topology, Topology):
            raise MachineError(
                f"topology must be a Topology or int, got {type(topology).__name__}")
        self.topology = topology
        self.spec = spec
        #: Streaming trace sink (``emit(event)``/``close()``; see
        #: :mod:`repro.obs.sinks`) and in-memory ring-buffer bound.
        #: Supplying either implies ``record_trace=True``.
        self.trace_sink = trace_sink
        self.trace_limit = trace_limit
        self.record_trace = (record_trace or trace_sink is not None
                             or trace_limit is not None)
        #: Per-pid span-context stack tops for the current traced run
        #: (``None`` outside traced runs — the ``env.span`` fast-path guard).
        self._span: list[Span | None] | None = None
        #: Deterministic fault injector (see module docstring), or ``None``
        #: for the perfect machine.
        self.faults = faults
        #: Single-port (full-duplex) contention model: each processor's
        #: network port transmits at most one message at a time, and
        #: receives at most one at a time.  Port reservations are made in
        #: the simulator's (causal) global processing order.  Off by
        #: default: the base model is contention-free Hockney.
        self.single_port = single_port
        #: Batched drive-order engine (:mod:`repro.machine.batch`) for
        #: fault-free, untraced, multi-port runs.  It serves segment drives
        #: over FIFO ``(src, tag)`` streams and the last live processor's
        #: monotone wildcard drain with bit-identical results, and hands
        #: everything else (a timed receive, two or more processors blocked
        #: at once, a non-monotone drain) to the per-event engine the moment
        #: it sees it.  A ``walk`` handed to :meth:`run` is taken on
        #: fault-free runs, traced or not.  ``batch=False``
        #: forces the per-event engine and, with it, the per-processor
        #: programs over any ``walk``: the oracle the equivalence suites
        #: compare both the batched engine and the walk (and its trace)
        #: against.
        self.batch = batch
        self._clock: list[float] = []
        self._tx_free: list[float] = []
        self._rx_free: list[float] = []
        #: Pids crashed so far in the current run; ``None`` until a faulty
        #: run starts (so truthiness tests stay cheap on the fast path).
        self._crashed: set[int] | None = None

    @property
    def nprocs(self) -> int:
        """Number of virtual processors."""
        return self.topology.size

    def copies(self, k: int) -> "Machine | None":
        """``k`` copies of this machine side by side, as one machine over
        :class:`~repro.machine.topology.Copies` — the machine ``k``
        independent runs share (:meth:`RunResult.split` takes its result
        apart) — or ``None`` where one run on the copies could be told
        from ``k`` runs on this machine: fault injection draws per
        processor, a trace is one list, one port is reserved in one global
        order across processors, and ``batch=False`` is the oracle that
        runs every program the long way."""
        if (self.faults is not None or self.record_trace
                or self.single_port or not self.batch):
            return None
        return Machine(Copies(self.topology, k), spec=self.spec)

    def run(self, program: Program | Sequence[Program], *,
            args: Iterable[tuple] | None = None,
            walk: Callable[[Any], list | None] | None = None) -> RunResult:
        """Execute one program per processor and return the result.

        ``program`` is either a single program (SPMD: every processor runs
        it, distinguished by ``env.pid``) or a sequence of ``nprocs``
        programs (MPMD).  ``args`` optionally supplies extra positional
        arguments per processor.

        ``walk`` is an optional second form of the *same* computation for
        callers whose communication structure is static (a lowered plan):
        ``walk(timeline)`` makes every processor's requests directly on a
        timeline and returns the per-processor final values, or ``None``
        — before making any request — to decline.  The machine, not the
        caller, picks between the two: the walk on fault-free runs, the
        per-processor programs otherwise.  Both produce the same
        :class:`RunResult`.

        On a multi-port machine the timeline is a
        :class:`~repro.machine.lockstep.Lockstep`, whose arithmetic is
        the run's timing.  On a traced machine the walk records into the
        run's trace: per processor the events equal the per-event
        engine's, and only their global interleaving — the order a
        ``trace_sink`` sees them in, and so which events a
        ``trace_limit`` ring keeps — differs (see
        :mod:`repro.machine.lockstep`).

        On a single-port machine the timeline is a
        :class:`~repro.machine.lockstep.Recorder`: the walk's values are
        the run's values, and each processor's recorded requests are
        replayed, in order, on the per-event engine, which times them
        with its port model — so the result, and a traced run's whole
        event list, global order included, are the per-processor
        programs'.  A walk on a recorder reads payloads, never clocks:
        a received message's ``sent_at`` and ``arrival`` are NaN.

        The per-processor programs run on the batched engine when the
        run is also untraced; a run it declines (see
        :mod:`repro.machine.batch`, "Declined, and why") restarts from
        scratch on the per-event engine, so a program's host-side effects
        before its first declined request happen twice.
        """
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

        if self.batch and self.faults is None:
            if walk is not None:
                from repro.machine.lockstep import Lockstep, Recorder
                # on one port the walk only says what each processor asks
                # for: the engine reserves ports in its global issue order
                timeline = (Recorder(self) if self.single_port
                            else Lockstep(self, self._new_trace()))
                values = walk(timeline)
                if values is not None:
                    if self.single_port:
                        return self._run_events([_replay] * n,
                                                timeline.finish(values))
                    return timeline.finish(values)
            if not self.record_trace and not self.single_port:
                from repro.machine.batch import BatchFallback, run_batched
                try:
                    return run_batched(self, programs, extra)
                except BatchFallback:
                    pass  # per-event oracle handles what batching cannot
        return self._run_events(programs, extra)

    def _new_trace(self) -> Trace | None:
        """A fresh trace for one run, or ``None`` on an untraced machine."""
        if not self.record_trace:
            return None
        return Trace(sink=self.trace_sink, max_events=self.trace_limit)

    def _run_events(self, programs: list[Program],
                    extra: list[tuple]) -> RunResult:
        """The per-event engine: one heap-pop per request (see module
        docstring).  The oracle for the batched engine and the walk, and
        the only path supporting faults, the single-port contention model
        (a single-port walk's recorded requests are timed here) and
        traces of runs the walk does not record."""
        n = self.nprocs
        self._clock = [0.0] * n
        self._tx_free = [0.0] * n
        self._rx_free = [0.0] * n
        trace = self._new_trace()
        if trace is None:
            self._span = None
            trace_record = None
        else:
            # Span-tagged recording: one closure layer, one list index per
            # event — paid only on traced runs (untraced hot path unchanged).
            # Callers pass the detail already frozen; the event is built
            # here, with no second copy of it.
            spans: list[Span | None] = [None] * n
            self._span = spans
            extend = trace.extend

            def trace_record(pid: int, kind: str, start: float, end: float,
                             detail: frozendetail = NO_DETAIL) -> None:
                extend((_tnew(TraceEvent,
                              (pid, kind, start, end, detail, spans[pid])),))
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

        # Hot-loop locals: attribute lookups cost more than the arithmetic
        # they feed at this event rate.
        clock = self._clock
        tx_free = self._tx_free
        rx_free = self._rx_free
        topology = self.topology
        spec = self.spec
        send_ovh = spec.send_overhead
        recv_ovh = spec.recv_overhead
        latency = spec.latency
        per_hop = spec.per_hop_latency
        bandwidth = spec.bandwidth
        word_bytes = spec.word_bytes
        single_port = self.single_port
        hop_rows: list[list[int] | None] = [None] * n

        # Fault-model setup.  ``crashes``/``compute_factors`` stay None
        # unless the injector models a crash/slowdown, so those per-event
        # checks cost a single identity test.
        faults = self.faults
        crashes: list[float | None] | None = None
        compute_factors: list[float] | None = None
        self._crashed = None
        if faults is not None:
            faults.begin_run(n)
            self._crashed = set()
            ct_list = [faults.crash_time(pid) for pid in range(n)]
            if any(ct is not None for ct in ct_list):
                crashes = ct_list
            cf_list = [faults.compute_factor(pid) for pid in range(n)]
            if any(f != 1.0 for f in cf_list):
                compute_factors = cf_list
        crashed_set = self._crashed

        send_seq = 0
        alive = n
        events = 0
        # One (clock, pid) entry per ready processor; blocked/done have none.
        # Crash times get their own wake-up entries so a blocked or idle
        # processor still dies on schedule.
        heap: list[tuple[float, int]] = [(0.0, pid) for pid in range(n)]
        if crashes is not None:
            for cpid, ct in enumerate(crashes):
                if ct is not None:
                    heap.append((ct, cpid))
            heapify(heap)

        def complete_recv(pid: int, st: ProcStats, msg: Message,
                          wait_start: float) -> float:
            """Account ``pid``'s receive of ``msg``, posted at
            ``wait_start``, and return its clock after it."""
            arrival = msg.arrival
            ready_at = arrival if arrival > wait_start else wait_start
            st.idle_seconds += ready_at - wait_start
            t = ready_at + recv_ovh
            clock[pid] = t
            st.overhead_seconds += recv_ovh
            st.msgs_received += 1
            st.bytes_received += msg.nbytes
            if trace_record is not None:
                trace_record(pid, "recv", wait_start, t, frozendetail(
                    src=msg.src, tag=msg.tag, nbytes=msg.nbytes))
            return t

        def kill(proc: _Proc, at: float) -> None:
            """Crash ``proc`` at virtual time ``at``: permanent node death."""
            nonlocal alive
            dead_pid = proc.pid
            try:
                proc.gen.close()
            except RuntimeError:
                pass
            proc.status = _CRASHED
            proc.pending_recv = None
            proc.timeout_at = None
            proc.box = _Mailbox()  # in-flight/pending messages die with it
            proc.value = None
            clock[dead_pid] = at
            stats[dead_pid].finish_time = at
            crashed_set.add(dead_pid)
            alive -= 1
            if trace_record is not None:
                trace_record(dead_pid, "crash", at, at)

        while alive > 0:
            while True:
                if not heap:
                    blocked = [p.pid for p in procs if p.status == _BLOCKED]
                    msg_text = (
                        f"deadlock: processors {blocked} blocked on receives "
                        f"that can never be satisfied")
                    if crashed_set:
                        msg_text += (f" (crashed processors: "
                                     f"{sorted(crashed_set)}; use recv "
                                     f"timeouts or the resilience layer)")
                    raise DeadlockError(msg_text)
                t, pid = heappop(heap)
                proc = procs[pid]
                status = proc.status
                if crashes is not None:
                    ct = crashes[pid]
                    if (ct is not None and t >= ct
                            and status != _DONE and status != _CRASHED):
                        # The crash wake-up (or any later entry) for a
                        # processor past its death time: kill it exactly at
                        # the modelled crash instant.
                        kill(proc, ct)
                        if alive == 0:
                            # The last live processor died here; scanning the
                            # remaining (stale) entries would misreport the
                            # drained heap as a deadlock.
                            break
                        continue
                # Lazy invalidation guard; without faults every entry is
                # valid under the current transition rules (see module
                # docstring).
                if status == _READY and clock[pid] == t:
                    break
                if status == _BLOCKED and proc.timeout_at == t:
                    # Timed-out receive: resume the generator with None.
                    recv = proc.pending_recv
                    st = stats[pid]
                    st.idle_seconds += t - proc.recv_posted_at
                    st.timeouts += 1
                    clock[pid] = t
                    if trace_record is not None:
                        trace_record(pid, "timeout", proc.recv_posted_at, t,
                                     frozendetail(src=recv.src, tag=recv.tag))
                    proc.status = _READY
                    proc.pending_recv = None
                    proc.timeout_at = None
                    proc.resume_value = None
                    break
            if alive == 0:
                break
            st = stats[pid]
            gen_send = proc.gen.send
            while True:
                if crashes is not None:
                    ct = crashes[pid]
                    if ct is not None and clock[pid] >= ct:
                        # The clock ran past the death time while this
                        # processor was being driven: it dies at the
                        # modelled instant, before issuing its next request.
                        kill(proc, ct)
                        break
                try:
                    request = gen_send(proc.resume_value)
                except StopIteration as stop:
                    proc.status = _DONE
                    proc.value = stop.value
                    st.finish_time = clock[pid]
                    alive -= 1
                    if proc.box.count and faults is None:
                        # Under faults, leftover retransmit duplicates and
                        # messages racing a crash are expected — only the
                        # perfect machine treats them as a program bug.
                        raise MachineError(
                            f"processor {pid} finished with {proc.box.count} "
                            f"unconsumed messages in its mailbox")
                    break
                proc.resume_value = None
                events += 1

                cls = request.__class__
                if cls is not Compute and cls is not Send and cls is not Recv:
                    # Normalise subclasses onto the exact-type dispatch below.
                    if isinstance(request, Compute):
                        cls = Compute
                    elif isinstance(request, Send):
                        cls = Send
                    elif isinstance(request, Recv):
                        cls = Recv
                    else:
                        raise MachineError(
                            f"processor {pid} yielded {request!r}; expected "
                            f"Compute, Send or Recv (use `yield from` for collectives)")

                if cls is Compute:
                    seconds = request.seconds
                    if seconds.__class__ is not float:
                        # Same IEEE double; keeps clocks/heap keys C floats.
                        seconds = float(seconds)
                    if compute_factors is not None:
                        seconds *= compute_factors[pid]
                    start = clock[pid]
                    t = start + seconds
                    clock[pid] = t
                    st.compute_seconds += seconds
                    if trace_record is not None:
                        trace_record(pid, "compute", start, t)
                elif cls is Send:
                    dst = request.dst
                    nbytes = send_size(pid, dst, request.payload,
                                        request.nbytes, n, topology,
                                        word_bytes)
                    start = clock[pid]
                    t = start + send_ovh
                    clock[pid] = t
                    st.overhead_seconds += send_ovh
                    tag = request.tag
                    st.msgs_sent += 1
                    st.bytes_sent += nbytes
                    rtx = request.is_retransmit
                    if rtx:
                        st.retransmits += 1
                    if trace_record is not None:
                        trace_record(pid, "retransmit" if rtx else "send",
                                     start, t, frozendetail(
                                         dst=dst, tag=tag, nbytes=nbytes))
                    dproc = procs[dst]
                    dstatus = dproc.status
                    # Every wire attempt consumes a sequence number,
                    # delivered or not: the injector's decisions hash the
                    # sequence, so a retransmission must present a *fresh*
                    # seq or it would inherit the original's drop verdict.
                    send_seq += 1
                    if faults is None:
                        outcomes = _DELIVERED
                        wire_factor = 1.0
                    elif dstatus == _CRASHED or dstatus == _DONE:
                        # The peer is gone: the network quietly eats the
                        # message.  The resilience layer notices dead peers
                        # through timeouts, not through errors.
                        outcomes = ()
                        st.msgs_dropped += 1
                        if trace_record is not None:
                            trace_record(pid, "drop", t, t, frozendetail(
                                dst=dst, tag=tag, nbytes=nbytes,
                                reason="peer-gone"))
                    else:
                        # The injector decides which copies of the message
                        # reach dst, how late and whether corrupted.
                        outcomes = faults.deliveries(pid, dst, tag, nbytes,
                                                     send_seq)
                        if outcomes:
                            wire_factor = faults.link_factor(pid, dst)
                        else:
                            st.msgs_dropped += 1
                            if trace_record is not None:
                                trace_record(pid, "drop", t, t, frozendetail(
                                    dst=dst, tag=tag, nbytes=nbytes,
                                    reason="injected"))
                    if outcomes:
                        row = hop_rows[pid]
                        if row is None:
                            row = hop_rows[pid] = topology.hop_row(pid)
                        hops = row[dst]
                        if hops < 1:
                            hops = 1
                        wire = nbytes / bandwidth * wire_factor
                        if single_port:
                            txf = tx_free[pid]
                            tx_start = t if t > txf else txf
                            tx_free[pid] = tx_start + wire
                            a0 = tx_start + (latency + per_hop * (hops - 1))
                            rxf = rx_free[dst]
                            arrival = (a0 if a0 > rxf else rxf) + wire
                            rx_free[dst] = arrival
                        else:
                            arrival = t + (latency + per_hop * (hops - 1)
                                           + wire)
                        duplicate = False
                        for extra_delay, corrupt in outcomes:
                            payload = request.payload
                            if corrupt:
                                payload = faults.corrupt_payload(payload)
                            if duplicate:
                                send_seq += 1  # each copy its own seq
                            duplicate = True
                            msg = Message(pid, dst, tag, payload, nbytes,
                                          start, arrival + extra_delay,
                                          send_seq)
                            recv = dproc.pending_recv
                            if (dproc.status == _BLOCKED and recv is not None
                                    and (recv.src is ANY or recv.src == pid)
                                    and (recv.tag is ANY or recv.tag == tag)):
                                # Direct hand-off: a blocked processor's
                                # mailbox holds no matching message (it
                                # would have unblocked already), so the
                                # newcomer is the unique earliest candidate.
                                dproc.status = _READY
                                dproc.pending_recv = None
                                dproc.timeout_at = None
                                heappush(heap, (complete_recv(
                                    dst, stats[dst], msg,
                                    dproc.recv_posted_at), dst))
                                dproc.resume_value = msg
                            elif dstatus == _DONE:  # only without faults
                                raise MachineError(
                                    f"message {msg!r} sent to "
                                    f"already-finished processor {dst}")
                            else:
                                dproc.box.add(msg)
                else:  # Recv
                    box = proc.box
                    msg = None
                    if box.count:
                        src = request.src
                        rtag = request.tag
                        if src is not ANY and rtag is not ANY:
                            # Concrete receive: FIFO in send order.
                            d = box.fifo.get((src, rtag))
                            if d:
                                live = box.live
                                while d:
                                    m = d.popleft()
                                    if m.seq in live:
                                        live.remove(m.seq)
                                        box.count -= 1
                                        msg = m
                                        break
                        else:
                            msg = box.pop_wildcard(src, rtag)
                    if msg is None:
                        proc.status = _BLOCKED
                        proc.pending_recv = request
                        proc.recv_posted_at = clock[pid]
                        to = request.timeout
                        if to is not None:
                            deadline = clock[pid] + to
                            proc.timeout_at = deadline
                            heappush(heap, (deadline, pid))
                        break
                    # Matching message already delivered: complete the
                    # receive in place, with no transient blocked state.
                    t = complete_recv(pid, st, msg, clock[pid])
                    proc.resume_value = msg
                # The processor stays READY at time ``t`` after a Compute or
                # Send.  If ``(t, pid)`` is still no later than every queued
                # entry, this processor is provably the next to be scheduled
                # (queued keys lower-bound every ready processor's key), so
                # keep driving it and skip the heap round-trip.  Otherwise
                # requeue and reselect.
                if heap and (t, pid) > heap[0]:
                    heappush(heap, (t, pid))
                    break

        return RunResult(values=[p.value for p in procs], stats=stats,
                         trace=trace, events=events,
                         crashed=sorted(crashed_set) if crashed_set else [])
