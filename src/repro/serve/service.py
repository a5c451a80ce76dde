"""The skeleton service: endpoint registry, admission control, fairness.

See the package docstring for the architecture.  The pieces:

* :class:`PlanEndpoint` / :class:`StreamEndpoint` / :class:`PyEndpoint`
  — the three endpoint kinds: a compiled skeleton expression over an
  ``nprocs``-wide ParArray, a stream plan applied to the request's
  items, and an opaque Python callable (escape hatch, also what the
  fairness tests use to control timing).
* :class:`Service` — worker threads, per-tenant stride scheduling,
  bounded-queue admission, completion/rejection records, sink events.
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
from repro.stream.plan import StreamOp, StreamPlan, StreamRunStats, Source

__all__ = [
    "AdmissionError",
    "PlanEndpoint",
    "PyEndpoint",
    "Rejection",
    "Service",
    "StreamEndpoint",
    "Ticket",
]


def _run_events(result: RunResult) -> int:
    """Engine-invariant event count: one per send plus one per receive."""
    return result.total_messages + sum(s.msgs_received for s in result.stats)


@dataclasses.dataclass(frozen=True)
class PlanEndpoint:
    """A named compiled skeleton expression served over ``nprocs`` ranks.

    The request payload is a sequence of exactly ``nprocs`` per-rank
    values (``default_payload`` generates one for load tests).  Execution
    goes through :func:`repro.scl.compile.run_expression` — optimizer
    passes and the vectorized data plane included — so after the first
    request the lowered plan comes from the cache.
    """

    name: str
    expr: N.Node
    nprocs: int
    spec: MachineSpec = PERFECT
    opt: Any = "auto"
    #: Route the expression through :func:`repro.plan.lower.tuned_lower`:
    #: the first request pays a beam search over the rewrite space
    #: (scored against this endpoint's machine), every later request
    #: hits the tuned-plan cache tier and runs the searched winner.
    tune: bool = False
    beam: int = 4

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

    def execute(self, payload: Any, machines: dict[str, Machine],
                metrics: Any = None) -> tuple[Any, int, float]:
        from repro.core.pararray import ParArray
        from repro.scl.compile import run_expression

        if payload is None:
            raise SkeletonError(f"endpoint {self.name!r} needs a payload of "
                                f"{self.nprocs} per-rank values")
        values = list(payload)
        if len(values) != self.nprocs:
            raise SkeletonError(
                f"endpoint {self.name!r} takes {self.nprocs} per-rank "
                f"values, got {len(values)}")
        machine = machines.get(self.name)
        if machine is None:
            machine = machines[self.name] = self._machine()
        expr = self.expr
        if self.tune:
            from repro.plan.lower import tuned_lower
            from repro.scl.compile import resolve_opt

            tuned = tuned_lower(self.expr, self.nprocs,
                                opt=resolve_opt(self.opt, machine),
                                beam=self.beam)
            expr = tuned.expr
        out, result = run_expression(expr, ParArray(values), machine,
                                     label=self.name, opt=self.opt)
        if isinstance(out, ParArray):
            out = out.to_list()
        return out, _run_events(result), result.makespan


@dataclasses.dataclass(frozen=True)
class StreamEndpoint:
    """A named stream plan applied to the request's items.

    ``ops`` is the stage pipeline of a :class:`~repro.stream.plan
    .StreamPlan` *without* its source — each request's payload (an
    iterable of items) becomes the source.  Within one request the
    stream runs sequentially; the service parallelises across requests.
    """

    name: str
    ops: tuple[StreamOp, ...]

    def default_payload(self, rng: Any, *, items: int = 32) -> list[float]:
        return [float(v) for v in rng.integers(1, 100, size=items)]

    def execute(self, payload: Any, machines: dict[str, Machine],
                metrics: Any = None) -> tuple[Any, int, float]:
        if payload is None:
            raise SkeletonError(f"endpoint {self.name!r} needs an iterable "
                                "payload of stream items")
        stats = StreamRunStats()
        if metrics is not None:
            stats.attach_metrics(metrics, name=self.name)
        plan = StreamPlan(Source.of(list(payload)), self.ops)
        out = list(plan.run_seq(stats=stats))
        return out, stats.sim_events, stats.virtual_seconds


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


Endpoint = Any  # structural: anything with .name / .execute / .default_payload


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

    def _next_request(self) -> "tuple[Ticket, Endpoint, Any, float] | None":
        """Dequeue from the backlogged tenant with the least pass value.

        Caller holds the lock.  Ties break by tenant name, so dispatch
        order is deterministic for a fixed arrival order.
        """
        best: _Tenant | None = None
        for tenant in self._tenants.values():
            if tenant.queue and (best is None
                                 or (tenant.pass_value, tenant.name)
                                 < (best.pass_value, best.name)):
                best = tenant
        if best is None:
            return None
        request = best.queue.pop(0)
        best.pass_value += best.stride
        self._global_pass = max(self._global_pass, best.pass_value)
        self._queued -= 1
        self._in_flight += 1
        return request

    def _worker(self, idx: int) -> None:
        machines: dict[str, Machine] = {}
        while True:
            with self._lock:
                request = self._next_request()
                while request is None:
                    if not self._running:
                        return
                    self._work_ready.wait()
                    request = self._next_request()
            ticket, endpoint, payload, t_submit = request
            t_start = self._now()
            value: Any = None
            error: BaseException | None = None
            events = 0
            makespan = 0.0
            try:
                # The metrics kwarg only reaches endpoints on an
                # instrumented service, so structural endpoints written
                # against the two-argument contract keep working.
                if self._metrics is not None:
                    value, events, makespan = endpoint.execute(
                        payload, machines, metrics=self._metrics)
                else:
                    value, events, makespan = endpoint.execute(payload,
                                                               machines)
            except BaseException as exc:
                error = exc
            t_end = self._now()
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
            # Drain mode: exit once the queue is empty.
            with self._lock:
                if not self._running and (not self._draining
                                          or self._queued == 0):
                    self._work_ready.notify_all()
                    return

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
