"""``repro.serve`` — a long-lived skeleton service under sustained load.

The ROADMAP's "millions of users" north star, made measurable: named
*endpoints* — compiled skeleton expressions and stream plans — are
registered once and served many times, so the per-``(expression,
nprocs, opt)`` plan cache is hit on effectively every request at steady
state.  In front of them sits a service with the production shape:

* **admission control** — a bounded request queue; requests beyond the
  bound are shed immediately with a structured :class:`Rejection`
  (reason, tenant, queue depth) rather than queued into collapse,
* **weighted per-tenant fair scheduling** — stride scheduling over
  per-tenant FIFOs: a tenant with weight 3 gets 3x the dispatch rate of
  a weight-1 tenant under contention, and an idle tenant's unused share
  redistributes,
* **one walk per queue** — a worker that takes a request for a
  :class:`PlanEndpoint` or a :class:`StreamEndpoint` also takes that
  endpoint's other requests already queued (never waiting for more), in
  stride order over that endpoint's requests alone.  A plan endpoint
  runs them as copies of one plan in one walk; a stream endpoint runs
  them stage by stage, each ``MapPlan`` stage's chunks of one size, from
  all the requests, as one walk.  Each tenant's requests stay FIFO per
  endpoint, but a tenant's later request there can leave ahead of its
  earlier request for another endpoint.  Every ticket still gets its
  solo run's result and its own completion record (``batch`` gives the
  batch size, ``service_s`` the batch's wall time),
* **observability** — every completion and rejection is recorded
  through the :class:`~repro.obs.sinks.TraceSink` protocol and rolled
  up to p50/p99/throughput tables via :mod:`repro.obs.latency`; pass a
  :class:`~repro.obs.metrics.MetricsRegistry` as ``Service(metrics=...)``
  for the *live* view — per-endpoint/tenant counters, queue gauges and
  latency histograms exported as snapshots or Prometheus text,
* **latency-aware shedding** — ``Service(slo=SloMonitor(...))`` sheds
  with ``Rejection(reason="slo-shed")`` while the rolling p99 is over
  target, recovering when the window clears,
* **load generation** — :func:`closed_loop` (fixed concurrency, every
  client waits for its response) and :func:`open_loop` (scheduled
  arrivals regardless of completions, the overload generator) drive
  thousands of requests through the registry deterministically
  (seeded request mixes).

``python -m repro serve`` runs a sustained closed-loop phase plus an
open-loop burst phase and writes a JSON latency artifact; a ``--smoke``
variant backs the CI ``serve-smoke`` job.
"""

from repro.serve.service import (
    AdmissionError,
    PlanEndpoint,
    PyEndpoint,
    Rejection,
    Service,
    StreamEndpoint,
    Ticket,
)
from repro.serve.loadgen import closed_loop, open_loop
from repro.obs.metrics import MetricsRegistry, SloMonitor

__all__ = [
    "AdmissionError",
    "MetricsRegistry",
    "PlanEndpoint",
    "PyEndpoint",
    "Rejection",
    "Service",
    "SloMonitor",
    "StreamEndpoint",
    "Ticket",
    "closed_loop",
    "open_loop",
]
