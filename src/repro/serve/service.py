"""The skeleton service: endpoint registry, admission control, fairness.

See the package docstring for the architecture.  The pieces:

* :class:`PlanEndpoint` / :class:`StreamEndpoint` / :class:`PyEndpoint`
  — the three endpoint kinds: a compiled skeleton expression over
  ``nprocs`` per-rank values, a stream plan applied to the request's
  items, and an opaque Python callable (escape hatch, also what the
  fairness tests use to control timing).
* :class:`Service` — worker threads, per-tenant stride scheduling,
  bounded-queue admission, completion/rejection records, sink events;
  a worker runs a plan or stream endpoint's queued requests as one
  batch.
* :class:`Ticket` — the caller's handle on one accepted request.

Requests execute on *simulated* machines: a worker thread owns one
:class:`~repro.machine.Machine` per endpoint (machines are cheap,
reusable, and not thread-safe across workers), while the lowered,
optimized plan is shared by all workers through the global plan cache —
which is what makes the steady-state cache hit rate a service-level
metric worth tracking.
"""

from __future__ import annotations

import dataclasses
import itertools
import threading
import time
from typing import Any, Callable, Iterator, Sequence

from repro.errors import SclError, SkeletonError
from repro.machine import Machine, MachineSpec, PERFECT
from repro.machine.simulator import RunResult
from repro.machine.topology import Ring
from repro.machine.trace import Span, TraceEvent
from repro.obs.latency import rollup_by, summarize_latencies
from repro.obs.metrics import (
    MetricsRegistry,
    SloMonitor,
    register_plan_cache_gauges,
)
from repro.plan.lower import plan_cache_stats
from repro.scl import nodes as N
from repro.stream.plan import (
    Source,
    Stop,
    StreamOp,
    StreamPlan,
    StreamRunStats,
    run_many,
)

__all__ = [
    "AdmissionError",
    "PlanEndpoint",
    "PyEndpoint",
    "Rejection",
    "Service",
    "StreamEndpoint",
    "Ticket",
]


def _outcome(out: Any, result: RunResult) -> tuple[Any, int, float]:
    """A plan run's ``(value, events, virtual seconds)``, with the
    engine-invariant event count: one per send plus one per receive."""
    _messages, events, makespan = result.tally()
    return out, events, makespan


@dataclasses.dataclass(frozen=True)
class PlanEndpoint:
    """A named compiled skeleton expression served over ``nprocs`` ranks.

    The request payload is a sequence of exactly ``nprocs`` per-rank
    values (``default_payload`` generates one for load tests).  Execution
    goes through :func:`repro.scl.compile.run_expression` — optimizer
    passes and the vectorized data plane included — so after the first
    request the lowered plan comes from the cache.

    A :class:`Service` worker that takes a request for this endpoint
    also takes the endpoint's other requests already queued — only
    those, in the order stride scheduling would dispatch them were they
    the only requests queued, so a tenant's later request here can leave
    ahead of its earlier one for another endpoint — and runs them
    through :meth:`execute_many`: one plan lookup (one ``tuned_lower`` on
    a tuned endpoint) and one walk over copies of the machine, each
    ticket getting exactly its solo :meth:`execute` outcome, value
    types, ``events`` and virtual time included.  A batch that raises —
    a payload :meth:`execute` would reject, or the run itself — is
    re-run request by request, so a bad payload fails alone with
    :meth:`execute`'s error.  Each completion record keeps its own
    latency and queue wait, and adds ``batch`` (the batch size;
    ``service_s`` is the batch's wall time).
    """

    name: str
    expr: N.Node
    nprocs: int
    spec: MachineSpec = PERFECT
    opt: Any = "auto"
    #: Route the expression through :func:`repro.plan.lower.tuned_lower`:
    #: the first request pays a beam search over the rewrite space
    #: (scored against this endpoint's machine), every later lookup —
    #: one per request, or one per batch of queued requests — hits the
    #: tuned-plan cache tier and runs the searched winner.
    tune: bool = False
    beam: int = 4
    #: Held around the tuned-tier lookup: a worker that asks while the
    #: first search runs waits for its winner instead of searching again.
    _tuning: threading.Lock = dataclasses.field(
        default_factory=threading.Lock, init=False, repr=False,
        compare=False)

    def __post_init__(self) -> None:
        if self.nprocs < 1:
            raise SkeletonError(f"endpoint {self.name!r}: nprocs must be "
                                f">= 1, got {self.nprocs}")

    def default_payload(self, rng: Any) -> list[float]:
        return [float(v) for v in rng.integers(1, 100, size=self.nprocs)]

    def _machine(self) -> Machine:
        if self.nprocs == 1:
            return Machine(1, spec=self.spec)
        return Machine(Ring(self.nprocs), spec=self.spec)

    def _values(self, payload: Any) -> list[Any]:
        """The payload's per-rank values, or the error that rejects it."""
        if payload is None:
            raise SkeletonError(f"endpoint {self.name!r} needs a payload of "
                                f"{self.nprocs} per-rank values")
        values = list(payload)
        if len(values) != self.nprocs:
            raise SkeletonError(
                f"endpoint {self.name!r} takes {self.nprocs} per-rank "
                f"values, got {len(values)}")
        return values

    def _program(self, machines: dict[str, Machine]) -> tuple[N.Node,
                                                              Machine]:
        """The expression to run — the tuned winner on a tuned endpoint
        — and this worker's machine for it."""
        machine = machines.get(self.name)
        if machine is None:
            machine = machines[self.name] = self._machine()
        if not self.tune:
            return self.expr, machine
        from repro.plan.lower import tuned_lower
        from repro.scl.compile import resolve_opt

        with self._tuning:
            tuned = tuned_lower(self.expr, self.nprocs,
                                opt=resolve_opt(self.opt, machine),
                                beam=self.beam)
        return tuned.expr, machine

    def execute(self, payload: Any, machines: dict[str, Machine],
                metrics: Any = None) -> tuple[Any, int, float]:
        from repro.scl.compile import run_expression

        values = self._values(payload)
        expr, machine = self._program(machines)
        return _outcome(*run_expression(expr, values, machine,
                                        label=self.name, opt=self.opt))

    def execute_many(self, payloads: Sequence[Any],
                     machines: dict[str, Machine], metrics: Any = None
                     ) -> list[tuple[Any, int, float]]:
        """What :meth:`execute` returns for each payload, from copies of
        one plan in one walk (:func:`repro.scl.compile
        .run_expression_many`) after one ``tuned_lower`` lookup on a tuned
        endpoint.  Raises if any payload is rejected or the run fails;
        the :class:`Service` then runs each request alone, so a bad
        payload gets :meth:`execute`'s own error.
        """
        from repro.scl.compile import run_expression_many

        values = [self._values(payload) for payload in payloads]
        expr, machine = self._program(machines)
        return [_outcome(*run) for run in run_expression_many(
            expr, values, machine, label=self.name, opt=self.opt)]


@dataclasses.dataclass(frozen=True)
class StreamEndpoint:
    """A named stream plan applied to the request's items.

    ``ops`` is the stage pipeline of a :class:`~repro.stream.plan
    .StreamPlan` *without* its source — each request's payload (an
    iterable of items) becomes the source.  Within one request the
    stream runs sequentially; the service parallelises across requests.

    A :class:`Service` worker takes this endpoint's queued requests as
    one batch, as it does a :class:`PlanEndpoint`'s, and
    :meth:`execute_many` runs them stage by stage
    (:func:`repro.stream.plan.run_many`): each ``MapPlan`` stage runs the
    chunks of one size, across all the requests, as copies of one plan
    in one walk, on chunk machines kept in the worker's cache.  Each
    ticket gets exactly its solo outcome — value, ``events`` and virtual
    time, which is the ``run_seq`` run's.  :meth:`execute` is the batch
    of one.  An endpoint with a ``Stop`` stage runs each request through
    ``run_seq``: a stop is lazy, and a stage-major run would compute
    past it.  A batch that raises is re-run request by request, so a bad
    payload fails alone with :meth:`execute`'s error.
    """

    name: str
    ops: tuple[StreamOp, ...]

    def default_payload(self, rng: Any, *, items: int = 32) -> list[float]:
        return [float(v) for v in rng.integers(1, 100, size=items)]

    def execute(self, payload: Any, machines: dict[str, Any],
                metrics: Any = None) -> tuple[Any, int, float]:
        return self.execute_many((payload,), machines, metrics)[0]

    def execute_many(self, payloads: Sequence[Any],
                     machines: dict[str, Any], metrics: Any = None
                     ) -> list[tuple[Any, int, float]]:
        """What :meth:`execute` returns for each payload.  Raises if any
        payload is rejected or any stream fails; the :class:`Service`
        then runs each request alone, so a batch of several that raises
        counts nothing, and a batch of one counts what it ran."""
        if any(payload is None for payload in payloads):
            raise SkeletonError(f"endpoint {self.name!r} needs an iterable "
                                "payload of stream items")
        stats = [StreamRunStats() for _ in payloads]
        try:
            if any(isinstance(op, Stop) for op in self.ops):
                outs = [list(StreamPlan(Source.of(list(payload)),
                                        self.ops).run_seq(stats=st))
                        for payload, st in zip(payloads, stats)]
            else:
                # this worker's chunk machines, per MapPlan stage
                outs = run_many(self.ops, payloads, stats=stats,
                                machines=machines.setdefault(self.name, {}))
        except BaseException:
            if len(payloads) > 1:
                metrics = None
            raise
        finally:
            if metrics is not None:
                for st in stats:
                    st.attach_metrics(metrics, name=self.name)
        return [(out, st.sim_events, st.virtual_seconds)
                for out, st in zip(outs, stats)]


@dataclasses.dataclass(frozen=True)
class PyEndpoint:
    """A named opaque callable — the escape hatch endpoint kind."""

    name: str
    fn: Callable[[Any], Any]

    def default_payload(self, rng: Any) -> Any:
        return float(rng.integers(1, 100))

    def execute(self, payload: Any, machines: dict[str, Machine],
                metrics: Any = None) -> tuple[Any, int, float]:
        return self.fn(payload), 0, 0.0


#: Structural: anything with .name / .execute / .default_payload; one
#: that also has .execute_many runs queued requests as one batch.
Endpoint = Any


@dataclasses.dataclass(frozen=True)
class Rejection:
    """A structured shed decision (what the client gets instead of a slot)."""

    request_id: int
    endpoint: str
    tenant: str
    #: ``"queue-full"`` | ``"slo-shed"`` | ``"unknown-endpoint"`` |
    #: ``"not-running"``
    reason: str
    queue_depth: int
    in_flight: int
    max_queue: int
    t: float  # seconds since service start

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)


class AdmissionError(SclError):
    """Raised by :meth:`Service.submit` when a request is shed."""

    def __init__(self, rejection: Rejection):
        super().__init__(
            f"request {rejection.request_id} to {rejection.endpoint!r} "
            f"rejected: {rejection.reason} (queue "
            f"{rejection.queue_depth}/{rejection.max_queue}, in-flight "
            f"{rejection.in_flight})")
        self.rejection = rejection


class Ticket:
    """The caller's handle on one accepted request."""

    __slots__ = ("request_id", "endpoint", "tenant", "_done", "_value",
                 "_error", "record")

    def __init__(self, request_id: int, endpoint: str, tenant: str):
        self.request_id = request_id
        self.endpoint = endpoint
        self.tenant = tenant
        self._done = threading.Event()
        self._value: Any = None
        self._error: BaseException | None = None
        #: The completion record (set just before :meth:`result` unblocks).
        self.record: dict[str, Any] | None = None

    def _resolve(self, value: Any, error: BaseException | None,
                 record: dict[str, Any]) -> None:
        self._value = value
        self._error = error
        self.record = record
        self._done.set()

    def done(self) -> bool:
        return self._done.is_set()

    def result(self, timeout: float | None = None) -> Any:
        """Block until the request completes; raises its error, if any."""
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"request {self.request_id} not done within {timeout}s")
        if self._error is not None:
            raise self._error
        return self._value


@dataclasses.dataclass
class _Tenant:
    """Stride-scheduling state for one tenant."""

    name: str
    weight: float
    queue: "list[tuple[Ticket, Endpoint, Any, float]]" = \
        dataclasses.field(default_factory=list)
    #: Virtual time already consumed; the scheduler always dispatches the
    #: backlogged tenant with the smallest pass value.
    pass_value: float = 0.0

    @property
    def stride(self) -> float:
        return 1.0 / self.weight


class Service:
    """A long-lived skeleton service over a registry of named endpoints.

    ``workers`` bounds in-flight execution, ``max_queue`` bounds the
    admission queue (total across tenants; beyond it requests are shed
    with :class:`Rejection` reason ``"queue-full"``).  ``tenants`` maps
    tenant name to scheduling weight; unknown tenants are admitted with
    weight ``default_weight``.  ``sink`` observes one
    :class:`~repro.machine.trace.TraceEvent` per completion (kind
    ``"request"``) and per rejection (kind ``"reject"``), timestamped in
    host seconds since service start.

    ``metrics`` accepts a :class:`~repro.obs.metrics.MetricsRegistry`;
    when given, the service exports per-endpoint/per-tenant request and
    rejection counters, queue-depth and in-flight gauges, per-worker
    latency histograms, and plan-cache gauges.  When ``None`` (the
    default) no instrument is ever touched — the disabled path costs
    nothing (it is the path the ``serve_burst`` / ``serve_solo`` workloads
    of ``BENCHMARK.json`` measure).

    ``slo`` accepts a :class:`~repro.obs.metrics.SloMonitor`: completed
    request latencies feed its rolling window, and while the windowed
    p99 is over target, :meth:`submit` sheds with
    ``Rejection(reason="slo-shed")`` *before* the queue bound is
    checked — latency-aware admission, recovering as soon as the window
    clears (breached latencies age out after ``window_s``).

    Use as a context manager, or call :meth:`start` / :meth:`stop`.
    """

    def __init__(self, *, workers: int = 4, max_queue: int = 64,
                 tenants: dict[str, float] | None = None,
                 default_weight: float = 1.0,
                 sink: Any = None,
                 metrics: MetricsRegistry | None = None,
                 slo: SloMonitor | None = None):
        if workers < 1:
            raise SkeletonError(f"workers must be >= 1, got {workers}")
        if max_queue < 1:
            raise SkeletonError(f"max_queue must be >= 1, got {max_queue}")
        self.workers = workers
        self.max_queue = max_queue
        self.default_weight = default_weight
        self._sink = sink
        self._registry: dict[str, Endpoint] = {}
        self._tenants: dict[str, _Tenant] = {}
        for name, weight in (tenants or {}).items():
            self._add_tenant(name, weight)
        self._lock = threading.Lock()
        self._sink_lock = threading.Lock()
        self._work_ready = threading.Condition(self._lock)
        self._idle = threading.Condition(self._lock)
        self._queued = 0
        self._in_flight = 0
        self._global_pass = 0.0
        self._running = False
        self._draining = False
        self._threads: list[threading.Thread] = []
        self._ids = itertools.count()
        self._t0 = 0.0
        self.completions: list[dict[str, Any]] = []
        self.rejections: list[Rejection] = []
        self._cache_at_start: dict[str, int] = {}
        self._slo = slo
        self._metrics = metrics
        if metrics is not None:
            self._m_requests = metrics.counter(
                "serve_requests_total", "completed requests",
                ("endpoint", "tenant", "status"))
            self._m_rejections = metrics.counter(
                "serve_rejections_total", "shed requests",
                ("endpoint", "tenant", "reason"))
            self._m_latency = metrics.histogram(
                "serve_request_latency_seconds",
                "submit-to-completion latency per worker loop",
                ("endpoint", "worker"))
            self._m_queue_wait = metrics.histogram(
                "serve_queue_wait_seconds",
                "time spent queued before a worker picked the request up",
                ("endpoint",))
            metrics.gauge("serve_queue_depth",
                          "requests admitted but not yet dispatched"
                          ).set_function(lambda: float(self._queued))
            metrics.gauge("serve_in_flight",
                          "requests currently executing on a worker"
                          ).set_function(lambda: float(self._in_flight))
            register_plan_cache_gauges(metrics)
            if slo is not None:
                slo.bind_gauges(metrics, self._now)

    # -- registry -----------------------------------------------------------

    def register(self, endpoint: Endpoint) -> Endpoint:
        """Add a named endpoint; returns it for chaining.

        Names are unique for the life of the service — silently swapping
        an endpoint under live traffic would corrupt per-endpoint
        rollups, so a duplicate name is an error.
        """
        name = getattr(endpoint, "name", None)
        if not name or not hasattr(endpoint, "execute"):
            raise SkeletonError(
                f"not an endpoint (needs .name and .execute): {endpoint!r}")
        if name in self._registry:
            raise SkeletonError(f"endpoint {name!r} is already registered")
        self._registry[name] = endpoint
        return endpoint

    def endpoint(self, name: str) -> Endpoint:
        try:
            return self._registry[name]
        except KeyError:
            raise SkeletonError(f"no endpoint named {name!r}; registered: "
                                f"{sorted(self._registry)}") from None

    @property
    def endpoints(self) -> list[str]:
        return sorted(self._registry)

    def _add_tenant(self, name: str, weight: float) -> _Tenant:
        if weight <= 0:
            raise SkeletonError(
                f"tenant {name!r} weight must be positive, got {weight}")
        tenant = _Tenant(name, weight)
        self._tenants[name] = tenant
        return tenant

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "Service":
        if self._running:
            return self
        self._running = True
        self._draining = False
        self._t0 = time.perf_counter()
        self._cache_at_start = plan_cache_stats()
        self._threads = [
            threading.Thread(target=self._worker, args=(i,), daemon=True,
                             name=f"serve-worker-{i}")
            for i in range(self.workers)]
        for t in self._threads:
            t.start()
        return self

    def stop(self, *, drain: bool = True) -> None:
        """Stop the service; with ``drain`` (default) finish queued work.

        Without it, requests already executing still complete, and every
        request still queued is shed: its ticket raises
        :class:`AdmissionError` (reason ``"not-running"``), so no caller is
        left waiting on a request no worker will ever take.
        """
        shed: list[tuple[Ticket, AdmissionError]] = []
        with self._lock:
            if not self._running:
                return
            self._draining = drain
            self._running = False
            if not drain:
                for tenant in self._tenants.values():
                    shed += [(ticket, self._reject(ticket.request_id,
                                                   ticket.endpoint,
                                                   ticket.tenant,
                                                   "not-running"))
                             for ticket, *_request in tenant.queue]
                    tenant.queue.clear()
                self._queued = 0
                self._idle.notify_all()
            self._work_ready.notify_all()
        for ticket, error in shed:
            ticket._resolve(None, error, {"status": "rejected",
                                          **error.rejection.to_dict()})
        for t in self._threads:
            t.join()
        self._threads = []

    def __enter__(self) -> "Service":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()

    def _now(self) -> float:
        return time.perf_counter() - self._t0

    # -- admission + scheduling --------------------------------------------

    def submit(self, endpoint: str, payload: Any = None, *,
               tenant: str = "default") -> Ticket:
        """Admit one request, or shed it with :class:`AdmissionError`.

        Admission is synchronous and cheap: the queue bound and endpoint
        existence are checked under the scheduler lock, and a shed
        request never touches a worker.
        """
        request_id = next(self._ids)
        with self._lock:
            reason = None
            if not self._running:
                reason = "not-running"
            elif endpoint not in self._registry:
                reason = "unknown-endpoint"
            elif self._slo is not None and self._slo.breached(self._now()):
                # Latency-aware admission engages *before* the queue
                # bound: once the rolling p99 is over target, adding
                # depth only makes every queued request later.
                reason = "slo-shed"
            elif self._queued >= self.max_queue:
                reason = "queue-full"
            if reason is not None:
                raise self._reject(request_id, endpoint, tenant, reason)
            state = self._tenants.get(tenant)
            if state is None:
                state = self._add_tenant(tenant, self.default_weight)
            ticket = Ticket(request_id, endpoint, tenant)
            if not state.queue:
                # A tenant returning from idle resumes at the current
                # virtual time: its unused share is not banked.
                state.pass_value = max(state.pass_value, self._global_pass)
            state.queue.append((ticket, self._registry[endpoint], payload,
                                self._now()))
            self._queued += 1
            self._work_ready.notify()
        return ticket

    def _reject(self, request_id: int, endpoint: str, tenant: str,
                reason: str) -> AdmissionError:
        """Record one shed decision — rejection log, counter, sink — and
        return the error that reports it.  Caller holds the lock."""
        rejection = Rejection(
            request_id, endpoint, tenant, reason,
            queue_depth=self._queued, in_flight=self._in_flight,
            max_queue=self.max_queue, t=self._now())
        self.rejections.append(rejection)
        if self._metrics is not None:
            self._m_rejections.labels(endpoint, tenant, reason).inc()
        self._emit_event(0, "reject", rejection.t, rejection.t, {
            "endpoint": endpoint, "tenant": tenant,
            "reason": reason, "queue_depth": rejection.queue_depth,
        }, endpoint)
        return AdmissionError(rejection)

    def _next_batch(self) -> "list[tuple[Ticket, Endpoint, Any, float]] | None":
        """Dequeue from the backlogged tenant with the least pass value —
        and, when that request's endpoint has ``execute_many``, every
        other request for the endpoint already queued.

        Caller holds the lock.  Ties break by tenant name, so dispatch
        order is deterministic for a fixed arrival order.  A batch leaves
        in the stride schedule's order over this endpoint's requests
        alone, each charged to its tenant as if dispatched alone; each
        tenant's requests for the endpoint keep their FIFO order, and its
        requests for other endpoints keep theirs and their place at the
        head of its queue.  The batch takes only what is queued, so
        ``max_queue`` bounds it.
        """
        best: _Tenant | None = None
        for tenant in self._tenants.values():
            if tenant.queue and (best is None
                                 or (tenant.pass_value, tenant.name)
                                 < (best.pass_value, best.name)):
                best = tenant
        if best is None:
            return None
        batch = [best.queue.pop(0)]
        best.pass_value += best.stride
        self._global_pass = max(self._global_pass, best.pass_value)
        endpoint = batch[0][1]
        if self._queued > 1 and hasattr(endpoint, "execute_many"):
            # each tenant's requests for this endpoint, the next one last
            held = []
            for tenant in self._tenants.values():
                same = [r for r in tenant.queue if r[1] is endpoint]
                if same:
                    tenant.queue[:] = [r for r in tenant.queue
                                       if r[1] is not endpoint]
                    held.append((tenant, same[::-1]))
            while held:
                tenant, same = entry = min(
                    held, key=lambda e: (e[0].pass_value, e[0].name))
                batch.append(same.pop())
                tenant.pass_value += tenant.stride
                self._global_pass = max(self._global_pass,
                                        tenant.pass_value)
                if not same:
                    held.remove(entry)
        size = len(batch)
        self._queued -= size
        self._in_flight += size
        return batch

    def _execute(self, endpoint: Endpoint, payload: Any,
                 machines: dict[str, Machine]
                 ) -> tuple[Any, int, float] | BaseException:
        """One request's ``(value, events, virtual seconds)``, or the
        error it raised."""
        try:
            # The metrics kwarg only reaches endpoints on an instrumented
            # service, so structural endpoints written against the
            # two-argument contract keep working.
            if self._metrics is None:
                return endpoint.execute(payload, machines)
            return endpoint.execute(payload, machines, metrics=self._metrics)
        except BaseException as exc:
            return exc

    def _execute_batch(self, batch: "list[tuple[Ticket, Endpoint, Any, float]]",
                       machines: dict[str, Machine]
                       ) -> list[tuple[Any, int, float] | BaseException]:
        """One outcome per request of ``batch``, from one call of its
        endpoint's ``execute_many``; if that raises, each request runs
        alone, so every ticket gets its own outcome."""
        endpoint = batch[0][1]
        payloads = [payload for _t, _e, payload, _s in batch]
        try:
            return endpoint.execute_many(payloads, machines,
                                         metrics=self._metrics)
        except BaseException:
            return [self._execute(endpoint, payload, machines)
                    for payload in payloads]

    def _worker(self, idx: int) -> None:
        machines: dict[str, Machine] = {}
        while True:
            with self._lock:
                batch = self._next_batch()
                while batch is None:
                    if not self._running:
                        return
                    self._work_ready.wait()
                    batch = self._next_batch()
            t_start = self._now()
            size = len(batch)
            if size == 1:
                _ticket, endpoint, payload, _submitted = batch[0]
                outcomes = [self._execute(endpoint, payload, machines)]
            else:
                outcomes = self._execute_batch(batch, machines)
            t_end = self._now()
            for request, outcome in zip(batch, outcomes):
                self._complete(idx, request, outcome, t_start, t_end, size)
            # Drain mode: exit once the queue is empty.
            with self._lock:
                if not self._running and (not self._draining
                                          or self._queued == 0):
                    self._work_ready.notify_all()
                    return

    def _complete(self, idx: int,
                  request: "tuple[Ticket, Endpoint, Any, float]",
                  outcome: tuple[Any, int, float] | BaseException,
                  t_start: float, t_end: float, size: int) -> None:
        """Record, count and resolve one request of a batch of ``size``
        that worker ``idx`` ran from ``t_start`` to ``t_end``."""
        ticket, _endpoint, _payload, t_submit = request
        if isinstance(outcome, BaseException):
            value, error, events, makespan = None, outcome, 0, 0.0
        else:
            (value, events, makespan), error = outcome, None
        record = {
            "request_id": ticket.request_id,
            "endpoint": ticket.endpoint,
            "tenant": ticket.tenant,
            "worker": idx,
            "status": "error" if error is not None else "ok",
            "latency_s": t_end - t_submit,
            "service_s": t_end - t_start,
            "queue_s": t_start - t_submit,
            "events": events,
            "virtual_seconds": makespan,
            "batch": size,
        }
        if error is not None:
            record["error"] = repr(error)
        if self._slo is not None and error is None:
            self._slo.observe(record["latency_s"], now=t_end)
        if self._metrics is not None:
            self._m_requests.labels(ticket.endpoint, ticket.tenant,
                                    record["status"]).inc()
            self._m_latency.labels(ticket.endpoint,
                                   str(idx)).observe(record["latency_s"])
            self._m_queue_wait.labels(ticket.endpoint) \
                .observe(record["queue_s"])
        with self._lock:
            self.completions.append(record)
            self._in_flight -= 1
            self._idle.notify_all()
        self._emit_event(idx, "request", t_submit, t_end, {
            "endpoint": ticket.endpoint, "tenant": ticket.tenant,
            "status": record["status"],
            "queue_ms": round(record["queue_s"] * 1e3, 3),
            "events": events,
        }, ticket.endpoint)
        ticket._resolve(value, error, record)

    def _emit_event(self, pid: int, kind: str, start: float, end: float,
                    detail: dict[str, Any], label: str) -> None:
        if self._sink is None:
            return
        event = TraceEvent(pid, kind, start, end, detail, Span(label))
        with self._sink_lock:
            self._sink.emit(event)

    def wait_idle(self, timeout: float | None = None) -> bool:
        """Block until no request is queued or in flight."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._lock:
            while self._queued or self._in_flight:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._idle.wait(remaining)
        return True

    # -- reporting ----------------------------------------------------------

    def queue_depth(self) -> int:
        with self._lock:
            return self._queued

    def cache_stats(self) -> dict[str, Any]:
        """Plan-cache traffic since :meth:`start`, both tiers: plan-cache
        hits/misses/hit rate plus the tuned-plan tier's counters (zero
        unless some endpoint sets ``tune=True``)."""
        now = plan_cache_stats()
        hits = now["hits"] - self._cache_at_start.get("hits", 0)
        misses = now["misses"] - self._cache_at_start.get("misses", 0)
        total = hits + misses
        tuned_hits = now["tuned_hits"] \
            - self._cache_at_start.get("tuned_hits", 0)
        tuned_misses = now["tuned_misses"] \
            - self._cache_at_start.get("tuned_misses", 0)
        tuned_total = tuned_hits + tuned_misses
        return {
            "hits": hits,
            "misses": misses,
            "hit_rate": round(hits / total, 4) if total else None,
            "tuned_hits": tuned_hits,
            "tuned_misses": tuned_misses,
            "tuned_hit_rate": (round(tuned_hits / tuned_total, 4)
                               if tuned_total else None),
        }

    def summary(self) -> dict[str, Any]:
        """Snapshot rollup of everything recorded so far."""
        with self._lock:
            completions = list(self.completions)
            rejections = list(self.rejections)
        duration = self._now() if self._t0 else None
        latencies = [r["latency_s"] for r in completions
                     if r["status"] == "ok"]
        by_reason: dict[str, int] = {}
        for rej in rejections:
            by_reason[rej.reason] = by_reason.get(rej.reason, 0) + 1
        slo: dict[str, Any] | None = None
        if self._slo is not None:
            slo = self._slo.rolling(self._now())
            slo["shed"] = by_reason.get("slo-shed", 0)
        return {
            "completed": len(completions),
            "errors": sum(r["status"] == "error" for r in completions),
            "rejected": len(rejections),
            "rejected_by_reason": by_reason,
            "duration_s": round(duration, 6) if duration else None,
            "latency_ms": summarize_latencies(latencies,
                                              duration_s=duration),
            "by_endpoint": rollup_by(completions, "endpoint"),
            "by_tenant": rollup_by(completions, "tenant"),
            "sim_events": sum(r["events"] for r in completions),
            "plan_cache": self.cache_stats(),
            "slo": slo,
        }
