"""``python -m repro serve`` — sustained load against the skeleton service.

Runs three phases against a default registry of compiled endpoints:

1. **sustained** (closed-loop): a fixed pool of synthetic clients
   drives a seeded endpoint x tenant mix through the service at full
   tilt; the per-``(expression, nprocs, opt)`` plan cache is shared by
   every request, so steady-state hit rate should be ~100%.
2. **burst** (open-loop): the same registry behind a deliberately tiny
   admission bound, offered arrivals far beyond capacity — exercising
   queue-depth shedding and the structured :class:`Rejection` path.
3. **slo** (open-loop overload): one worker behind a *generous* queue
   but a p99 latency SLO — a first batch of requests queues behind the
   held worker for longer than the target, their queue wait drives the
   rolling p99 over it, and admission flips to
   ``Rejection(reason="slo-shed")`` for the open-loop arrivals that
   follow; once the arrivals stop and the window ages out, probe
   requests confirm admission recovers.  Its requests hold the worker
   for a fixed time without the GIL, and the breach is set up before
   the arrivals start, so neither depends on how fast the host or the
   compiled endpoints are.

The whole run shares one
:class:`~repro.obs.metrics.MetricsRegistry` sampled by a
:class:`~repro.obs.metrics.PeriodicSnapshotter`, so ``--metrics-out``
writes the companion ``repro.obs.metrics/v1`` snapshot artifact (the CI
``metrics-smoke`` job validates it; ``python -m repro metrics`` renders
it as a dashboard).

The run prints p50/p99/throughput tables and writes a JSON latency
artifact (``--out``, schema ``repro.serve.latency/v3`` — v2 added the
tuned-plan cache counters to ``plan_cache``, v3 the SLO phase with its
shed counts and recovery probe).  ``--smoke`` shrinks the request
budget for the CI ``serve-smoke`` job; the artifact shape is
identical.

One endpoint (``sumsq-tuned``) is registered with ``tune=True``: its
first request pays a beam search over the rewrite space
(:func:`repro.plan.lower.tuned_lower`), every later request hits the
tuned-plan cache tier — so the sustained phase's tuned-cache hit rate
should approach 100% just like the plan cache's.
"""

from __future__ import annotations

import argparse
import json
import operator
import sys
import threading
import time
from typing import Any

import numpy as np

from repro.obs.latency import render_latency_table
from repro.obs.metrics import (
    MetricsRegistry,
    PeriodicSnapshotter,
    SloMonitor,
    metrics_artifact,
)
from repro.scl.nodes import Fold, Map, Rotate, Scan, compose_nodes
from repro.serve.loadgen import closed_loop, open_loop
from repro.serve.service import (
    AdmissionError,
    PlanEndpoint,
    PyEndpoint,
    Service,
    StreamEndpoint,
)
from repro.stream.plan import Chunk, MapPlan

__all__ = ["main", "build_service", "default_mix", "run_serve"]

SCHEMA = "repro.serve.latency/v3"

#: SLO-phase defaults: the rolling-p99 target and window the overload
#: phase runs under.  The target is far below the queue wait an
#: open-loop overload builds on one worker, and far above an unloaded
#: request, so breach-then-recover is a property of the phase, not of
#: host speed.
SLO_P99_MS = 10.0
SLO_WINDOW_S = 0.75
SLO_MIN_SAMPLES = 8
#: What one SLO-phase request holds its worker for.  A sleep, not a
#: compiled endpoint: one worker then serves at most 500 requests/s on
#: any host and releases the GIL to the arrival generator meanwhile, so
#: the phase's offered load outruns it by the same margin everywhere,
#: however fast the compiled endpoints get.
SLO_HOLD_S = 0.002

#: Tenant weights for the default registry: ``pro`` is entitled to 3x
#: the dispatch rate of ``free`` under contention.
DEFAULT_TENANTS = {"free": 1.0, "pro": 3.0}


def _square(x: float) -> float:
    return x * x


def _halve(x: float) -> float:
    return x * 0.5


def _hold(x: float) -> float:
    time.sleep(SLO_HOLD_S)
    return x


def build_service(*, workers: int = 4, max_queue: int = 128,
                  nprocs: int = 4,
                  metrics: MetricsRegistry | None = None,
                  slo: SloMonitor | None = None) -> Service:
    """The default endpoint registry behind ``python -m repro serve``.

    Three compiled plan endpoints plus one stream endpoint — enough to
    exercise distinct plan-cache entries, reducing vs. non-reducing
    result shapes, chunked stream lowering, and the tuned-plan cache
    tier (``sumsq-tuned`` is the naive spelling of ``sumsq`` — adjacent
    un-fused maps and a redundant rotate pair — served with
    ``tune=True``, so the beam search simplifies it once and the tuned
    tier replays the winner), while staying small enough that both
    caches reach steady state within a few requests.
    """
    service = Service(workers=workers, max_queue=max_queue,
                      tenants=dict(DEFAULT_TENANTS), metrics=metrics,
                      slo=slo)
    service.register(PlanEndpoint("scan-add", Scan(operator.add),
                                  nprocs=nprocs))
    service.register(PlanEndpoint(
        "sumsq", compose_nodes(Fold(operator.add), Map(_square)),
        nprocs=nprocs))
    service.register(PlanEndpoint(
        "sumsq-tuned",
        compose_nodes(Fold(operator.add), Map(_halve), Map(_square),
                      Rotate(1), Rotate(-1)),
        nprocs=nprocs, tune=True))
    service.register(StreamEndpoint(
        "stream-scan", (Chunk(nprocs), MapPlan(Scan(operator.add)))))
    return service


def default_mix() -> list[tuple[str, str]]:
    """The seeded endpoint x tenant request mix (10-request period).

    ``pro`` issues 6/10 of the traffic (matching its 3x weight being the
    majority entitlement), ``free`` 4/10; all four endpoints appear for
    both tenants.
    """
    return [
        ("scan-add", "pro"),
        ("sumsq", "free"),
        ("stream-scan", "pro"),
        ("scan-add", "free"),
        ("sumsq-tuned", "pro"),
        ("sumsq", "pro"),
        ("scan-add", "pro"),
        ("stream-scan", "free"),
        ("sumsq-tuned", "free"),
        ("sumsq", "pro"),
    ]


def run_slo_phase(*, nprocs: int, requests: int, rate_rps: float, seed: int,
                  metrics: MetricsRegistry | None = None,
                  p99_ms: float = SLO_P99_MS,
                  window_s: float = SLO_WINDOW_S,
                  min_samples: int = SLO_MIN_SAMPLES,
                  probes: int = 5) -> dict[str, Any]:
    """The latency-aware-shedding demonstration phase.

    One worker behind a queue too deep to ever hit ``queue-full``,
    requests that hold it ``SLO_HOLD_S`` each (``slo-hold``, registered
    beside the default endpoints), and an :class:`SloMonitor`, so the
    only shed reason available is ``slo-shed``.  The breach comes first,
    on any host: the worker waits at a gate while ``min_samples``
    requests queue for longer than the p99 target, then serves them, and
    their queue wait puts the rolling p99 over target.  The open-loop
    overload of ``requests`` arrivals then meets a breached monitor.
    After draining and one window of quiet, ``probes`` probe requests
    must all be admitted — the recovery half of the ROADMAP item.
    """
    monitor = SloMonitor(p99_ms / 1e3, window_s=window_s,
                         min_samples=min_samples)
    slo_mix = [("slo-hold", "free"), ("slo-hold", "pro")]
    gate = threading.Event()

    def hold(x: float) -> float:
        gate.wait()
        return _hold(x)

    with build_service(workers=1, max_queue=4096, nprocs=nprocs,
                       metrics=metrics, slo=monitor) as svc:
        svc.register(PyEndpoint("slo-hold", hold))
        probe = svc.endpoint("slo-hold")
        try:
            for i in range(min_samples):
                endpoint_name, tenant = slo_mix[i % len(slo_mix)]
                payload = probe.default_payload(
                    np.random.default_rng((seed, i)))
                svc.submit(endpoint_name, payload, tenant=tenant)
            time.sleep(p99_ms / 1e3)  # every queued request is now late
        finally:
            gate.set()
        svc.wait_idle(timeout=120.0)
        load = open_loop(svc, slo_mix, requests=requests,
                         rate_rps=rate_rps, seed=seed)
        shed_during = sum(r.reason == "slo-shed" for r in svc.rejections)
        svc.wait_idle(timeout=120.0)
        time.sleep(window_s)  # breached latencies age out of the window
        admitted = 0
        for i in range(probes):
            payload = probe.default_payload(np.random.default_rng((seed, i)))
            try:
                svc.submit("slo-hold", payload, tenant="pro").result(30.0)
                admitted += 1
            except AdmissionError:
                pass
        summary = svc.summary()
    return {
        "load": load,
        "summary": summary,
        "shed": shed_during,
        "probes": {"attempted": probes, "admitted": admitted},
        "recovered": admitted == probes,
    }


def run_serve(*, requests: int, concurrency: int, workers: int,
              nprocs: int, seed: int, burst_requests: int,
              burst_rate: float, smoke: bool,
              slo_requests: int = 240, slo_rate: float = 3000.0,
              snapshot_interval_s: float = 0.1,
              ) -> tuple[dict[str, Any], dict[str, Any]]:
    """Run all three phases.

    Returns ``(latency_artifact, metrics_artifact)``: the
    ``repro.serve.latency/v3`` document and the companion
    ``repro.obs.metrics/v1`` snapshot series collected across the whole
    run by one shared registry.
    """
    mix = default_mix()
    registry = MetricsRegistry()
    snapper = PeriodicSnapshotter(registry,
                                  interval_s=snapshot_interval_s)

    with snapper:
        with build_service(workers=workers, nprocs=nprocs,
                           metrics=registry) as service:
            load = closed_loop(service, mix, requests=requests,
                               concurrency=concurrency, seed=seed)
            sustained = {"load": load, "summary": service.summary()}

        # The burst service gets one worker, a tiny queue, and only the
        # heaviest endpoint (the chunked stream plan, milliseconds per
        # request) offered at a rate far past its capacity, so the
        # open-loop schedule reliably outruns it: shedding is the point
        # of this phase, not an accident of host speed.
        burst_mix = [("stream-scan", "free"), ("stream-scan", "pro")]
        with build_service(workers=1, max_queue=4, nprocs=nprocs,
                           metrics=registry) as burst_svc:
            burst_load = open_loop(burst_svc, burst_mix,
                                   requests=burst_requests,
                                   rate_rps=burst_rate, seed=seed + 1)
            burst = {"load": burst_load, "summary": burst_svc.summary()}

        slo = run_slo_phase(nprocs=nprocs, requests=slo_requests,
                            rate_rps=slo_rate, seed=seed + 2,
                            metrics=registry)

    artifact = {
        "schema": SCHEMA,
        "generated_by": "python -m repro serve",
        "mode": "smoke" if smoke else "full",
        "config": {
            "requests": requests,
            "concurrency": concurrency,
            "workers": workers,
            "nprocs": nprocs,
            "seed": seed,
            "endpoints": ["scan-add", "sumsq", "sumsq-tuned",
                          "stream-scan"],
            "tenants": dict(DEFAULT_TENANTS),
            "burst": {"requests": burst_requests, "rate_rps": burst_rate,
                      "max_queue": 4, "workers": 1},
            "slo": {"requests": slo_requests, "rate_rps": slo_rate,
                    "p99_target_ms": SLO_P99_MS, "window_s": SLO_WINDOW_S,
                    "min_samples": SLO_MIN_SAMPLES, "workers": 1},
        },
        "sustained": sustained,
        "burst": burst,
        "slo": slo,
    }
    metrics_doc = metrics_artifact(snapper.snapshots,
                                   generated_by="python -m repro serve",
                                   interval_s=snapshot_interval_s)
    return artifact, metrics_doc


def _report(artifact: dict[str, Any]) -> str:
    sustained = artifact["sustained"]
    burst = artifact["burst"]
    slo = artifact["slo"]
    summary = sustained["summary"]
    cache = summary["plan_cache"]
    load = sustained["load"]
    tuned_note = ""
    if cache.get("tuned_hit_rate") is not None:
        tuned_note = (f"; tuned cache {cache['tuned_hits']} hits / "
                      f"{cache['tuned_misses']} misses "
                      f"(hit rate {cache['tuned_hit_rate']:.0%})")
    lines = [
        render_latency_table(
            f"repro serve — sustained closed-loop ({artifact['mode']})",
            {"(all)": summary["latency_ms"], **summary["by_endpoint"]},
            notes=f"{load['completed']} completed / {load['errors']} errors "
                  f"/ {load['rejected']} shed at concurrency "
                  f"{load['concurrency']}; plan cache {cache['hits']} hits / "
                  f"{cache['misses']} misses "
                  f"(hit rate {cache['hit_rate']:.0%})" + tuned_note),
        "",
        render_latency_table(
            "by tenant (weights: " + ", ".join(
                f"{t}={w:g}" for t, w in artifact["config"]["tenants"]
                .items()) + ")",
            summary["by_tenant"]),
        "",
        render_latency_table(
            "burst open-loop (tiny admission bound)",
            {"(all)": burst["summary"]["latency_ms"]},
            notes=f"offered {burst['load']['requests']} @ "
                  f"{burst['load']['offered_rps']:g} rps -> "
                  f"{burst['load']['accepted']} accepted, "
                  f"{burst['load']['rejected']} shed "
                  f"({burst['summary']['rejected_by_reason']})"),
        "",
        render_latency_table(
            "slo open-loop overload (latency-aware shedding)",
            {"(all)": slo["summary"]["latency_ms"]},
            notes=f"p99 target {artifact['config']['slo']['p99_target_ms']:g}"
                  f"ms -> {slo['shed']} slo-shed; recovery probes "
                  f"{slo['probes']['admitted']}/"
                  f"{slo['probes']['attempted']} admitted "
                  f"(recovered={slo['recovered']})"),
    ]
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point of ``python -m repro serve``; returns an exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="sustained-load run of the long-lived skeleton service")
    parser.add_argument("--smoke", action="store_true",
                        help="small request budget (CI serve-smoke job)")
    parser.add_argument("--requests", type=int, default=None,
                        help="closed-loop request budget "
                             "(default 1200, smoke 160)")
    parser.add_argument("--concurrency", type=int, default=16,
                        help="closed-loop client pool size (default 16)")
    parser.add_argument("--workers", type=int, default=4,
                        help="service worker threads (default 4)")
    parser.add_argument("--nprocs", type=int, default=4,
                        help="simulated processors per plan endpoint "
                             "(default 4)")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed (default 0)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the JSON latency artifact here")
    parser.add_argument("--metrics-out", default=None, metavar="PATH",
                        help="write the repro.obs.metrics/v1 snapshot "
                             "artifact here")
    args = parser.parse_args(argv)

    requests = args.requests
    if requests is None:
        requests = 160 if args.smoke else 1200
    burst_requests = 60 if args.smoke else 200
    slo_requests = 120 if args.smoke else 240
    artifact, metrics_doc = run_serve(
        requests=requests, concurrency=args.concurrency,
        workers=args.workers, nprocs=args.nprocs,
        seed=args.seed, burst_requests=burst_requests,
        burst_rate=4000.0, smoke=args.smoke, slo_requests=slo_requests)
    print(_report(artifact))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(artifact, fh, indent=2, default=str)
            fh.write("\n")
        print(f"\nwrote {args.out}")
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            json.dump(metrics_doc, fh, indent=2, default=str)
            fh.write("\n")
        print(f"wrote {args.metrics_out} "
              f"({metrics_doc['snapshot_count']} snapshots)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
