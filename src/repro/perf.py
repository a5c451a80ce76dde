"""Simulator performance harness: throughput, collectives, Table-1 wall-clock.

This module measures *host* performance of the discrete-event simulator —
how fast the simulator itself runs on the machine executing it — as opposed
to the *virtual* AP1000 timings every other artefact in this repository
reports.  Three workload families are measured at several machine sizes:

``ring_sweep``
    A pure point-to-point microbenchmark: every processor repeatedly
    computes, sends to its right ring neighbour and receives from its left
    one.  Throughput is reported in message events per host second (one
    send plus one receive per message), the simulator-core metric.

``wildcard_funnel``
    A many-to-one stress: processor 0 drains ``(p-1) * per_src`` messages
    with ``recv(ANY, ANY)`` while every other processor fires computes and
    tagged sends at it.  Exercises the wildcard (arrival-ordered) matching
    path rather than the concrete FIFO fast path.

``allreduce``
    Collective latency: repeated world-communicator ``allreduce`` rounds.
    Reports host seconds per collective alongside throughput.

``hyperquicksort``
    The end-to-end Table 1 run (100,000 integers, scatter + sort + gather)
    at p processors — the headline workload the ROADMAP's perf trajectory
    is tracked against.

``compiled_hyperquicksort`` / ``compiled_hyperquicksort_noopt``
    The same sort through the SCL compiler: the §5 expression lowered once
    to the Plan IR (cache hit on every repeat) and executed with the plan
    optimizer on (the default) or forced off.  The opt row is tracked
    against two frozen anchors: ``TREEWALK_BASELINE`` — the per-processor
    recursive tree-walking compiler the Plan IR replaced — and
    ``PLAN_INTERP_BASELINE`` — the PR-4 plan interpreter before the
    optimizer and the vectorized data plane.  ``speedup_vs_noopt`` pairs
    the two rows measured in the same process, so the figure is free of
    host-speed drift.

``compiled_gauss_jordan`` / ``compiled_gauss_jordan_noopt``
    The §3 solver through the same compiler at one fixed small (n, p) —
    the second optimized-vs-unoptimized tracked pair, exercising the
    vectorized elementwise kernel rather than opaque fragments.

``tuned_hyperquicksort`` / ``tuned_hyperquicksort_greedy``
    The cost-driven rewrite search (:mod:`repro.tune`) against the
    greedy rewriter on the workload built to split them: hyperquicksort
    plus a naive per-group epilogue whose fetch fusion is a greedy trap
    (locally plausible, concentrates traffic on a single-port machine).
    The search row goes through the tuned-plan cache tier, so repeats
    amortise the beam search; ``speedup_vs_greedy`` ratios the *virtual*
    makespans — the simulated win of declining the bad law.  The search
    row also cross-checks both strategies' outputs bit-for-bit.

``trace_overhead``
    The compiled sort three ways: tracing off, traced into memory, traced
    through a streaming JSONL sink.  The off/traced ratios are the price
    of observability — the "tracing disabled costs nothing" claim of
    :mod:`repro.obs`, measured rather than asserted.

``metrics_overhead``
    The skeleton service twice on the identical closed-loop workload:
    metrics disabled (``host_seconds``) vs a live
    :class:`~repro.obs.metrics.MetricsRegistry` plus an
    :class:`~repro.obs.metrics.SloMonitor` with an unreachable target
    (``host_seconds_metrics``) — counters, histograms and the rolling
    SLO window all updating, shedding never engaging, so the runs stay
    event-identical.  ``overhead_metrics`` is the price of the live
    metrics plane; the disabled arm is the "metrics off costs nothing"
    claim, measured the way ``trace_overhead`` measures untraced
    tracing.

``service_sustained``
    The PR-7 skeleton service under closed-loop load: a fixed pool of
    synthetic clients drives the default endpoint registry (two compiled
    plan endpoints plus a chunked stream endpoint, two weighted tenants)
    at full tilt.  Reports request latency quantiles and throughput next
    to the usual events/sec; the plan cache absorbs every request after
    the first few, so the row tracks the *serving* overhead — admission,
    scheduling, ticket resolution — on top of compiled execution.

``stream_chunked``
    The stream data plane alone: a fixed item stream through
    ``Chunk(n) . MapPlan(scan) . UnChunk`` with the threaded
    backpressured executor, at two chunk sizes.  Chunk size trades
    per-chunk lowering-amortisation against parallel slack, the HsSkel
    ``stChunk`` tuning knob.

``run_suite`` executes all of them and ``write_bench_json`` persists the
results to ``BENCH_simulator.json`` at the repository root, next to the
frozen pre-rewrite ``SEED_BASELINE`` numbers, so every future PR can be
compared against both the seed and the previous PR.

Run it with ``python -m repro perf`` or ``python -m benchmarks.perf``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from typing import Any, Callable

import numpy as np

from repro.machine import AP1000, Comm, Machine, collectives
from repro.machine.events import ANY
from repro.machine.simulator import RunResult
from repro.machine.topology import FullyConnected, Hypercube, Ring

__all__ = [
    "PLAN_INTERP_BASELINE",
    "SEED_BASELINE",
    "TREEWALK_BASELINE",
    "annotate_speedups",
    "bench_allreduce",
    "bench_compiled_gauss_jordan",
    "bench_compiled_hyperquicksort",
    "bench_hyperquicksort",
    "bench_metrics_overhead",
    "bench_ring_sweep",
    "bench_service_sustained",
    "bench_stream_chunked",
    "bench_trace_overhead",
    "bench_tuned_hyperquicksort",
    "bench_wildcard_funnel",
    "main",
    "median_merge",
    "render_report",
    "run_suite",
    "write_bench_json",
]

#: Default machine sizes measured by the full suite.
DEFAULT_PROCS = (32, 64, 128, 256)
#: Machine sizes measured in ``--quick`` (CI smoke) mode.
QUICK_PROCS = (32, 64)
#: Extra large-p scaling rows measured for ``ring_sweep`` only in the
#: default suite (the batched engine's headline scaling range; the other
#: workloads are swept at these sizes only with an explicit ``--procs``).
LARGE_RING_PROCS = (1024, 4096)
#: The large-p smoke row tracked by the CI perf gate in ``--quick`` mode
#: (reduced rounds, one repeat) so scaling regressions fail the job.
QUICK_LARGE_RING = 1024

#: Host-time results of this exact suite measured on the seed (pre-rewrite)
#: simulator: O(p) ready-list scan, linear mailbox, uncached hop routing.
#: Frozen at PR 1 so the events/sec trajectory keeps an absolute anchor;
#: ``speedup_vs_seed`` in BENCH_simulator.json is computed against these.
#: (Regenerated with ``python -m repro.perf --emit-baseline`` on the seed
#: tree; see docs/calibration.md "Simulator performance".)
SEED_BASELINE: dict[str, dict[str, float]] = {
    "ring_sweep/p32": {"host_seconds": 0.127322, "events": 9600, "events_per_sec": 75399},
    "wildcard_funnel/p32": {"host_seconds": 0.201387, "events": 2480, "events_per_sec": 12315},
    "allreduce/p32": {"host_seconds": 0.031919, "events": 3100, "events_per_sec": 97120},
    "hyperquicksort/p32": {"host_seconds": 0.022266, "events": 702, "events_per_sec": 31527},
    "ring_sweep/p64": {"host_seconds": 0.395384, "events": 19200, "events_per_sec": 48560},
    "wildcard_funnel/p64": {"host_seconds": 0.773616, "events": 5040, "events_per_sec": 6515},
    "allreduce/p64": {"host_seconds": 0.09004, "events": 6300, "events_per_sec": 69969},
    "hyperquicksort/p64": {"host_seconds": 0.072377, "events": 1662, "events_per_sec": 22963},
    "ring_sweep/p128": {"host_seconds": 1.306282, "events": 38400, "events_per_sec": 29396},
    "wildcard_funnel/p128": {"host_seconds": 3.10086, "events": 10160, "events_per_sec": 3277},
    "allreduce/p128": {"host_seconds": 0.208364, "events": 12700, "events_per_sec": 60951},
    "hyperquicksort/p128": {"host_seconds": 0.151576, "events": 3838, "events_per_sec": 25321},
    "ring_sweep/p256": {"host_seconds": 4.385962, "events": 76800, "events_per_sec": 17510},
    "wildcard_funnel/p256": {"host_seconds": 12.868559, "events": 20400, "events_per_sec": 1585},
    "allreduce/p256": {"host_seconds": 0.494632, "events": 25500, "events_per_sec": 51553},
    "hyperquicksort/p256": {"host_seconds": 0.46508, "events": 8702, "events_per_sec": 18711},
}

#: Host-time results of the compiled (§5 expression) hyperquicksort under
#: the PR-2 *tree-walking* compiler — a per-processor recursive ``_exec``
#: over the expression tree, re-walked on every run.  Frozen when the
#: Plan-IR compiler (lower once, interpret a flat instruction stream,
#: cache per expression) replaced it, so the refactor's host cost stays
#: tracked the same way the scheduler rewrite is tracked by
#: ``SEED_BASELINE``.  Same workload as ``bench_compiled_hyperquicksort``:
#: 100,000 int32 keys, seed 19950701, best of 3.
TREEWALK_BASELINE: dict[str, dict[str, float]] = {
    "compiled_hyperquicksort/p32": {"host_seconds": 0.022635, "events": 578, "events_per_sec": 25536},
    "compiled_hyperquicksort/p64": {"host_seconds": 0.051609, "events": 1410, "events_per_sec": 27321},
    "compiled_hyperquicksort/p128": {"host_seconds": 0.070219, "events": 3330, "events_per_sec": 47423},
    "compiled_hyperquicksort/p256": {"host_seconds": 0.183219, "events": 7682, "events_per_sec": 41928},
}

#: Host-time results of the compiled hyperquicksort under the PR-4 *plan
#: interpreter* — per-rank generator programs stepping the Plan IR one
#: instruction at a time, before the optimizer passes and the scripted
#: (vectorized) data plane of PR 5.  Frozen from the PR-4
#: ``BENCH_simulator.json`` so ``speedup_vs_interp`` tracks what the
#: optimizer+vexec stack buys over straight interpretation.  Same workload:
#: 100,000 int32 keys, seed 19950701, best of 3.
PLAN_INTERP_BASELINE: dict[str, dict[str, float]] = {
    "compiled_hyperquicksort/p32": {"host_seconds": 0.008663, "events": 578, "events_per_sec": 66720},
    "compiled_hyperquicksort/p64": {"host_seconds": 0.018008, "events": 1410, "events_per_sec": 78299},
    "compiled_hyperquicksort/p128": {"host_seconds": 0.040285, "events": 3330, "events_per_sec": 82661},
    "compiled_hyperquicksort/p256": {"host_seconds": 0.082541, "events": 7682, "events_per_sec": 93069},
}


def _events(result: RunResult) -> int:
    """Message events in a run: one per send plus one per receive.

    Derived from per-processor counters only, so the figure is identical
    for any engine that simulates the same program — making events/sec
    ratios between engines equal to host-time ratios.
    """
    return result.total_messages + sum(s.msgs_received for s in result.stats)


def _timed(run: Callable[[], RunResult], *, repeats: int = 1) -> tuple[float, RunResult]:
    """Best-of-``repeats`` host time for ``run`` plus its (last) result."""
    best = float("inf")
    result: RunResult | None = None
    for _ in range(max(1, repeats)):
        t0 = time.perf_counter()
        result = run()
        best = min(best, time.perf_counter() - t0)
    assert result is not None
    return best, result


def _record(name: str, p: int, host_seconds: float, result: RunResult,
            **extra: Any) -> dict[str, Any]:
    events = _events(result)
    rec: dict[str, Any] = {
        "workload": name,
        "p": p,
        "host_seconds": round(host_seconds, 6),
        "events": events,
        "events_per_sec": round(events / host_seconds) if host_seconds > 0 else 0,
        "makespan": result.makespan,
        "messages": result.total_messages,
    }
    rec.update(extra)
    return rec


def bench_ring_sweep(p: int, *, rounds: int = 150,
                     repeats: int = 2) -> dict[str, Any]:
    """Point-to-point sweep: compute + send-right + recv-left, ``rounds`` times."""
    machine = Machine(Ring(p), spec=AP1000)

    def program(env):
        right = (env.pid + 1) % env.nprocs
        left = (env.pid - 1) % env.nprocs
        for r in range(rounds):
            yield env.work(ops=50)
            yield env.send(right, r, tag=1, nbytes=64)
            yield env.recv(left, tag=1)
        return None

    host, result = _timed(lambda: machine.run(program), repeats=repeats)
    return _record("ring_sweep", p, host, result, rounds=rounds)


def bench_wildcard_funnel(p: int, *, per_src: int = 40,
                          repeats: int = 2) -> dict[str, Any]:
    """Many-to-one funnel drained entirely with ``recv(ANY, ANY)``."""
    machine = Machine(FullyConnected(p), spec=AP1000)

    def program(env):
        if env.pid == 0:
            total = 0
            for _ in range((env.nprocs - 1) * per_src):
                msg = yield env.recv(ANY, tag=ANY)
                total += msg.payload
            return total
        for i in range(per_src):
            yield env.work(ops=20 * env.pid)
            yield env.send(0, 1, tag=env.pid % 5, nbytes=16)
        return None

    host, result = _timed(lambda: machine.run(program), repeats=repeats)
    return _record("wildcard_funnel", p, host, result, per_src=per_src)


def bench_allreduce(p: int, *, reps: int = 25,
                    repeats: int = 2) -> dict[str, Any]:
    """Collective latency: ``reps`` world-communicator allreduce rounds."""
    machine = Machine(Hypercube.of_size(p), spec=AP1000)

    def program(env):
        comm = Comm.world(env)
        acc = float(env.pid)
        for _ in range(reps):
            acc = yield from collectives.allreduce(comm, acc, lambda a, b: a + b,
                                                   nbytes=8)
        return acc

    host, result = _timed(lambda: machine.run(program), repeats=repeats)
    return _record("allreduce", p, host, result, reps=reps,
                   host_seconds_per_collective=round(host / reps, 6))


def bench_hyperquicksort(p: int, *, n: int = 100_000, seed: int = 19950701,
                         repeats: int = 3) -> dict[str, Any]:
    """End-to-end Table 1 workload: sort ``n`` random integers on p procs."""
    from repro.apps.sort import hyperquicksort_machine

    d = int(p).bit_length() - 1
    if 1 << d != p:
        raise ValueError(f"hyperquicksort needs a power-of-two p, got {p}")
    values = np.random.default_rng(seed).integers(0, 2**31, size=n).astype(np.int32)
    expected = np.sort(values)

    def run() -> RunResult:
        out, result = hyperquicksort_machine(values, d)
        if not np.array_equal(out, expected):
            raise AssertionError(f"hyperquicksort produced a wrong sort at p={p}")
        return result

    host, result = _timed(run, repeats=repeats)
    return _record("hyperquicksort", p, host, result, n=n)


def bench_compiled_hyperquicksort(p: int, *, n: int = 100_000,
                                  seed: int = 19950701,
                                  repeats: int = 3,
                                  opt: str = "auto") -> dict[str, Any]:
    """The §5 expression through the SCL compiler (plan-cached repeats).

    The first run lowers the expression to a plan; later runs (including
    every ``repeats`` iteration here, since best-of timing is used) hit
    the plan cache, so the figure tracks execution speed with amortised
    lowering — the production profile of a compiled program.  ``opt``
    is the plan-optimizer switch (``"auto"`` = passes + vectorized data
    plane, ``"off"`` = the raw lowering through the plan interpreter);
    the off variant is recorded as ``compiled_hyperquicksort_noopt``.
    """
    from repro.apps.sort import hyperquicksort_compiled

    d = int(p).bit_length() - 1
    if 1 << d != p:
        raise ValueError(f"hyperquicksort needs a power-of-two p, got {p}")
    values = np.random.default_rng(seed).integers(0, 2**31, size=n).astype(np.int32)
    expected = np.sort(values)

    def run() -> RunResult:
        out, result = hyperquicksort_compiled(values, d, opt=opt)
        if not np.array_equal(out, expected):
            raise AssertionError(f"compiled sort produced a wrong sort at p={p}")
        return result

    host, result = _timed(run, repeats=repeats)
    name = ("compiled_hyperquicksort" if opt != "off"
            else "compiled_hyperquicksort_noopt")
    rec = _record(name, p, host, result, n=n)
    base = TREEWALK_BASELINE.get(f"{name}/p{p}")
    # Only ratio against the frozen tree-walk numbers when this run is the
    # same workload they were measured on.  The event count alone can't
    # tell: the compiled program exchanges one message per rank per step
    # regardless of n, so quick mode (smaller n) matches on events while
    # moving less data per host-second.
    if base and host > 0 and n == 100_000 and rec["events"] == base["events"]:
        rec["speedup_vs_treewalk"] = round(base["host_seconds"] / host, 2)
    return rec


def bench_compiled_gauss_jordan(p: int, *, n: int = 48, seed: int = 19950701,
                                repeats: int = 3,
                                opt: str = "auto") -> dict[str, Any]:
    """The §3 solver through the SCL compiler at one small (n, p).

    The gauss-jordan elimination fragment has a registered batched kernel
    (:func:`repro.plan.kernels.vectorize_fragment`), so the opt variant
    exercises the SoA data plane on a real numerical workload; ``opt="off"``
    times the same plan through the per-rank interpreter
    (``compiled_gauss_jordan_noopt``).
    """
    from repro.apps.linalg import gauss_jordan_compiled

    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n)) + n * np.eye(n)
    b = rng.normal(size=n)

    def run() -> RunResult:
        x, result = gauss_jordan_compiled(A, b, p, opt=opt)
        if not np.allclose(A @ x, b):
            raise AssertionError(f"compiled solve incorrect at n={n}, p={p}")
        return result

    host, result = _timed(run, repeats=repeats)
    name = ("compiled_gauss_jordan" if opt != "off"
            else "compiled_gauss_jordan_noopt")
    return _record(name, p, host, result, n=n)


def bench_tuned_hyperquicksort(p: int, *, n: int = 100_000,
                               seed: int = 19950701, repeats: int = 2,
                               strategy: str = "search",
                               beam: int = 4) -> dict[str, Any]:
    """Search-vs-greedy twin rows on the tuned sort pipeline.

    One strategy per row (``tuned_hyperquicksort`` for the beam search,
    ``tuned_hyperquicksort_greedy`` for the fixpoint rewriter), both on
    the single-port hypercube the pipeline is priced for.  The search
    row's first timed repeat pays the beam search; later repeats hit the
    tuned-plan cache, so best-of timing tracks amortised execution —
    ``search_was_cached`` records whether the tier was already warm.
    The search row additionally runs the greedy winner once and asserts
    the two programs produce bit-identical blocks: meaning preservation
    is measured here, not assumed.  ``speedup_vs_greedy`` (the simulated
    makespan ratio) is attached by :func:`annotate_speedups`.
    """
    from repro.plan.lower import plan_cache_stats
    from repro.tune import run_tuned_hyperquicksort

    d = int(p).bit_length() - 1
    if 1 << d != p:
        raise ValueError(f"hyperquicksort needs a power-of-two p, got {p}")
    values = np.random.default_rng(seed).integers(
        0, 2**31, size=n).astype(np.int32)
    misses_before = plan_cache_stats()["tuned_misses"]
    hold: dict[str, Any] = {}

    def run() -> RunResult:
        out, result, report = run_tuned_hyperquicksort(
            values, d, strategy=strategy, beam=beam)
        hold["out"], hold["report"] = out, report
        return result

    host, result = _timed(run, repeats=repeats)
    report = hold["report"]
    extra: dict[str, Any] = {
        "strategy": strategy,
        "rules_applied": len(report.steps),
    }
    if strategy == "search":
        extra["search_was_cached"] = \
            plan_cache_stats()["tuned_misses"] == misses_before
        out_g, _res_g, _rep_g = run_tuned_hyperquicksort(
            values, d, strategy="greedy")
        identical = all(np.array_equal(np.asarray(a), np.asarray(b))
                        for a, b in zip(list(hold["out"]), list(out_g)))
        if not identical:
            raise AssertionError(
                f"searched and greedy programs diverged at p={p}")
    name = ("tuned_hyperquicksort" if strategy == "search"
            else "tuned_hyperquicksort_greedy")
    return _record(name, p, host, result, n=n, **extra)


def bench_trace_overhead(p: int, *, n: int = 100_000, seed: int = 19950701,
                         repeats: int = 3) -> dict[str, Any]:
    """The compiled sort untraced vs memory-traced vs JSONL-streamed.

    ``host_seconds`` is the untraced run (comparable with
    ``compiled_hyperquicksort``); ``host_seconds_memory_trace`` /
    ``host_seconds_jsonl_sink`` time the identical workload with span
    tracing into memory and through a streaming
    :class:`~repro.obs.sinks.JsonlSink` (to the null device, so the
    figure is serialisation cost, not disk luck).  The ``overhead_*``
    ratios are traced/untraced host time.
    """
    from repro.apps.sort import hyperquicksort_expression, seq_quicksort
    from repro.core import parmap, partition
    from repro.core.partition import Block
    from repro.obs.sinks import JsonlSink
    from repro.scl.compile import run_expression

    d = int(p).bit_length() - 1
    if 1 << d != p:
        raise ValueError(f"hyperquicksort needs a power-of-two p, got {p}")
    values = np.random.default_rng(seed).integers(0, 2**31, size=n).astype(np.int32)
    expr = hyperquicksort_expression(d)
    blocks = parmap(seq_quicksort, partition(Block(p), values))

    def run_with(**machine_kw: Any) -> RunResult:
        machine = Machine(Hypercube(d), spec=AP1000, **machine_kw)
        _out, result = run_expression(expr, blocks, machine,
                                      label="hyperquicksort")
        return result

    def run_jsonl() -> RunResult:
        with open(os.devnull, "w", encoding="utf-8") as fh:
            sink = JsonlSink(fh)
            try:
                return run_with(trace_sink=sink)
            finally:
                sink.close()

    host_off, result = _timed(run_with, repeats=repeats)
    host_mem, _ = _timed(lambda: run_with(record_trace=True), repeats=repeats)
    host_jsonl, _ = _timed(run_jsonl, repeats=repeats)
    return _record(
        "trace_overhead", p, host_off, result, n=n,
        host_seconds_memory_trace=round(host_mem, 6),
        host_seconds_jsonl_sink=round(host_jsonl, 6),
        overhead_memory_trace=(round(host_mem / host_off, 2)
                               if host_off > 0 else 0.0),
        overhead_jsonl_sink=(round(host_jsonl / host_off, 2)
                             if host_off > 0 else 0.0))


def bench_service_sustained(concurrency: int, *, requests: int = 600,
                            workers: int = 4) -> dict[str, Any]:
    """Closed-loop load against the default ``repro.serve`` registry.

    ``concurrency`` clients each wait for their response before issuing
    the next request (p in the row key is the client count, not a
    machine size).  The workload content is seeded per request index, so
    ``events`` — total simulated message events across every request —
    is deterministic and the perf gate's staleness check applies;
    ``makespan`` is the summed virtual time of the simulated runs.
    """
    from repro.obs.latency import quantile
    from repro.serve.cli import build_service, default_mix
    from repro.serve.loadgen import closed_loop

    with build_service(workers=workers) as service:
        report = closed_loop(service, default_mix(), requests=requests,
                             concurrency=concurrency, seed=0)
        completions = list(service.completions)
        cache = service.cache_stats()
    if report["errors"] or report["rejected"]:
        raise AssertionError(
            f"service_sustained run degraded: {report['errors']} errors, "
            f"{report['rejected']} rejections")
    host = report["duration_s"]
    events = sum(rec["events"] for rec in completions)
    latencies_ms = [rec["latency_s"] * 1e3 for rec in completions]
    return {
        "workload": "service_sustained",
        "p": concurrency,
        "host_seconds": round(host, 6),
        "events": events,
        "events_per_sec": round(events / host) if host > 0 else 0,
        "makespan": sum(rec["virtual_seconds"] for rec in completions),
        "requests": requests,
        "throughput_rps": report["throughput_rps"],
        "p50_ms": round(quantile(latencies_ms, 0.50), 3),
        "p99_ms": round(quantile(latencies_ms, 0.99), 3),
        "cache_hit_rate": cache["hit_rate"],
    }


def bench_metrics_overhead(p: int, *, requests: int = 240,
                           concurrency: int = 8, workers: int = 4,
                           repeats: int = 2) -> dict[str, Any]:
    """The twin-row proof that the disabled metrics plane costs nothing.

    The identical seeded closed-loop workload (the ``repro.serve``
    default mix at ``nprocs=p``) runs twice: once with
    ``Service(metrics=None)`` (``host_seconds``) and once with a live
    :class:`~repro.obs.metrics.MetricsRegistry` plus an
    :class:`~repro.obs.metrics.SloMonitor` whose p99 target is
    unreachable (``host_seconds_metrics``) — every counter, histogram
    and the rolling SLO window updates on the hot path, but shedding
    never engages, so both arms admit and complete the same requests
    and ``events`` stays arm-identical (asserted).  A warm-up pass
    populates the module-global plan caches first so neither arm pays
    the cold lowering; arms then alternate best-of-``repeats``.
    """
    from repro.obs.metrics import MetricsRegistry, SloMonitor
    from repro.serve.cli import build_service, default_mix
    from repro.serve.loadgen import closed_loop

    def drive(metrics: Any, slo: Any) -> tuple[float, int, float]:
        with build_service(workers=workers, nprocs=p, metrics=metrics,
                           slo=slo) as service:
            report = closed_loop(service, default_mix(), requests=requests,
                                 concurrency=concurrency, seed=0)
            completions = list(service.completions)
        if report["errors"] or report["rejected"]:
            raise AssertionError(
                f"metrics_overhead run degraded: {report['errors']} errors, "
                f"{report['rejected']} rejections")
        events = sum(rec["events"] for rec in completions)
        makespan = sum(rec["virtual_seconds"] for rec in completions)
        return report["duration_s"], events, makespan

    # Warm the plan/tuned caches (shared module-global state): without
    # this the first-timed arm would eat every cold lowering and the
    # ratio would measure cache warmth, not the metrics plane.
    drive(None, None)

    host_off = host_on = float("inf")
    events = events_on = 0
    makespan = 0.0
    for _ in range(max(1, repeats)):
        off_s, off_e, off_m = drive(None, None)
        registry = MetricsRegistry()
        # 1e6 s rolling p99 target: the monitor observes every request
        # and prunes its window, but breached() can never fire.
        on_s, on_e, _on_m = drive(registry, SloMonitor(1e6, min_samples=8))
        host_off, events, makespan = min(host_off, off_s), off_e, off_m
        host_on, events_on = min(host_on, on_s), on_e
        snap = registry.snapshot()
        observed = sum(s["value"] for s in snap.series
                       if s["name"] == "serve_requests_total")
        if int(observed) != requests:
            raise AssertionError(
                f"metrics arm lost requests: counted {observed}, "
                f"expected {requests}")
    if events_on != events:
        raise AssertionError(
            f"metrics arm diverged: {events_on} events vs {events}")
    return {
        "workload": "metrics_overhead",
        "p": p,
        "host_seconds": round(host_off, 6),
        "events": events,
        "events_per_sec": round(events / host_off) if host_off > 0 else 0,
        "makespan": makespan,
        "requests": requests,
        "host_seconds_metrics": round(host_on, 6),
        "overhead_metrics": (round(host_on / host_off, 2)
                             if host_off > 0 else 0.0),
    }


def bench_stream_chunked(chunk: int, *, items: int = 1024,
                         repeats: int = 2) -> dict[str, Any]:
    """The threaded stream executor: chunked compiled scan over a fixed
    item stream.

    One ``MapPlan`` lowering serves ``items / chunk`` chunk executions
    (the final ragged chunk, when any, lowers once more), so larger
    chunks amortise better but expose less pipeline slack — the row pair
    tracks that trade-off.  Output is validated against the per-chunk
    numpy reference every run.
    """
    import operator as _op

    from repro.scl.nodes import Scan
    from repro.stream.plan import StreamRunStats, stream_plan

    xs = [float(v) for v in
          np.random.default_rng(7).integers(1, 100, size=items)]
    expected: list[float] = []
    for i in range(0, items, chunk):
        expected.extend(np.cumsum(np.asarray(xs[i:i + chunk])))
    plan = (stream_plan(xs).chunk(chunk)
            .map_plan(Scan(_op.add)).unchunk())

    best = float("inf")
    stats: StreamRunStats | None = None
    for _ in range(max(1, repeats)):
        run_stats = StreamRunStats()
        t0 = time.perf_counter()
        out = list(plan.run(stats=run_stats))
        elapsed = time.perf_counter() - t0
        if not np.allclose(out, expected):
            raise AssertionError(
                f"chunked stream diverged from reference at chunk={chunk}")
        if elapsed < best:
            best, stats = elapsed, run_stats
    assert stats is not None
    return {
        "workload": "stream_chunked",
        "p": chunk,
        "host_seconds": round(best, 6),
        "events": stats.sim_events,
        "events_per_sec": round(stats.sim_events / best) if best > 0 else 0,
        "makespan": stats.virtual_seconds,
        "messages": stats.sim_messages,
        "items": items,
        "chunks": stats.chunks,
        "plan_runs": stats.plan_runs,
        "items_per_sec": round(items / best) if best > 0 else 0,
    }


#: Fixed machine size of the gauss-jordan tracked pair (one row, not a
#: per-p sweep: the pair tracks the data plane, not scaling).
GAUSS_PROCS = 8

#: Hypercube dimensions of the ``tuned_hyperquicksort`` search/greedy
#: twin rows (full / quick).  Fixed rows like the gauss pair: they track
#: the search-vs-greedy simulated gap, not scaling.  The quick dimension
#: is the smallest at which the fetch-fusion trap engages (the two
#: barriers the map fusions save must out-price the funnel per round for
#: greedy to take the package).
TUNED_DIM = 7
QUICK_TUNED_DIM = 5

#: Closed-loop client counts of the ``service_sustained`` rows (full /
#: quick).  Like the gauss pair these are fixed rows, not a machine-size
#: sweep: p is the client pool size.
SERVICE_CONCURRENCY = (4, 16)
QUICK_SERVICE_CONCURRENCY = (4,)

#: Chunk sizes of the ``stream_chunked`` rows (full / quick); p is the
#: chunk size, which is also the simulated machine size per chunk.
STREAM_CHUNK_SIZES = (8, 32)
QUICK_STREAM_CHUNKS = (8,)

#: Endpoint machine sizes of the ``metrics_overhead`` twin rows.  Fixed
#: rows in both quick and full suites (the quick baseline is what the
#: perf gate compares): the pair tracks the metrics-off == free claim
#: at a small and a large simulated machine, not scaling.
METRICS_PROCS = (16, 128)


def run_suite(*, procs: tuple[int, ...] | None = None, quick: bool = False,
              only: str | None = None) -> dict[str, dict[str, Any]]:
    """Run every workload at every machine size; returns ``{key: record}``.

    Keys look like ``"hyperquicksort/p128"``.  ``quick=True`` shrinks both
    the size list and the per-workload iteration counts for CI smoke runs
    (plus one reduced large-p ring row, the scaling canary).  ``only``
    keeps just the workloads whose key contains the substring (the
    ``--filter`` flag), e.g. ``only="compiled"`` for the optimizer pairs
    alone.  ``procs`` (the ``--procs`` flag) sweeps *every* workload at
    exactly those machine sizes — workloads that require a power-of-two
    size (hypercube-based) are skipped at sizes that aren't one; without
    it the default sizes run, plus large-p ``ring_sweep`` scaling rows.
    """
    explicit = procs is not None
    if quick:
        sizes: tuple[int, ...] = QUICK_PROCS
    elif explicit:
        sizes = tuple(procs)
    else:
        sizes = DEFAULT_PROCS
    out: dict[str, dict[str, Any]] = {}

    def run(key: str, thunk: Callable[[], dict[str, Any]]) -> None:
        if only is None or only in key:
            out[key] = thunk()

    for p in sizes:
        # Large explicit sizes get one repeat: the runs are long enough
        # that best-of-2 doubles suite time for little noise reduction.
        reps = 1 if p >= 1024 else 2
        run(f"ring_sweep/p{p}",
            lambda p=p: bench_ring_sweep(p, rounds=30 if quick else 150,
                                         repeats=reps))
        run(f"wildcard_funnel/p{p}",
            lambda p=p: bench_wildcard_funnel(p, per_src=10 if quick else 40,
                                              repeats=reps))
        if p & (p - 1):
            if explicit:
                print(f"note: skipping hypercube workloads at p={p} "
                      f"(not a power of two)", file=sys.stderr)
            continue
        run(f"allreduce/p{p}",
            lambda p=p: bench_allreduce(p, reps=5 if quick else 25,
                                        repeats=reps))
        run(f"hyperquicksort/p{p}",
            lambda p=p: bench_hyperquicksort(p, n=20_000 if quick else 100_000))
        run(f"compiled_hyperquicksort/p{p}",
            lambda p=p: bench_compiled_hyperquicksort(
                p, n=20_000 if quick else 100_000))
        run(f"compiled_hyperquicksort_noopt/p{p}",
            lambda p=p: bench_compiled_hyperquicksort(
                p, n=20_000 if quick else 100_000, opt="off"))
        run(f"trace_overhead/p{p}",
            lambda p=p: bench_trace_overhead(p, n=20_000 if quick else 100_000))
    if quick:
        run(f"ring_sweep/p{QUICK_LARGE_RING}",
            lambda: bench_ring_sweep(QUICK_LARGE_RING, rounds=30, repeats=1))
    elif not explicit:
        for p in LARGE_RING_PROCS:
            run(f"ring_sweep/p{p}",
                lambda p=p: bench_ring_sweep(p, repeats=1))
    gp = GAUSS_PROCS
    gn = 24 if quick else 48
    run(f"compiled_gauss_jordan/p{gp}",
        lambda: bench_compiled_gauss_jordan(gp, n=gn))
    run(f"compiled_gauss_jordan_noopt/p{gp}",
        lambda: bench_compiled_gauss_jordan(gp, n=gn, opt="off"))
    tp = 1 << (QUICK_TUNED_DIM if quick else TUNED_DIM)
    tn = 20_000 if quick else 100_000
    run(f"tuned_hyperquicksort/p{tp}",
        lambda: bench_tuned_hyperquicksort(tp, n=tn, strategy="search"))
    run(f"tuned_hyperquicksort_greedy/p{tp}",
        lambda: bench_tuned_hyperquicksort(tp, n=tn, strategy="greedy"))
    for c in (QUICK_SERVICE_CONCURRENCY if quick else SERVICE_CONCURRENCY):
        run(f"service_sustained/p{c}",
            lambda c=c: bench_service_sustained(
                c, requests=200 if quick else 1000))
    for ch in (QUICK_STREAM_CHUNKS if quick else STREAM_CHUNK_SIZES):
        run(f"stream_chunked/p{ch}",
            lambda ch=ch: bench_stream_chunked(
                ch, items=256 if quick else 1024))
    for mp in METRICS_PROCS:
        run(f"metrics_overhead/p{mp}",
            lambda mp=mp: bench_metrics_overhead(
                mp, requests=120 if quick else 240,
                repeats=1 if quick else 2))
    annotate_speedups(out)
    return out


def annotate_speedups(current: dict[str, dict[str, Any]]) -> None:
    """(Re)compute the derived speedup columns of the optimizer pairs.

    ``speedup_vs_noopt`` pairs each optimized compiled row with its
    ``_noopt`` twin from the same suite — both measured in this process,
    so the ratio cancels host speed.  ``speedup_vs_interp`` ratios the
    full-size compiled_hyperquicksort rows against the frozen PR-4 plan
    interpreter (``PLAN_INTERP_BASELINE``).  ``speedup_vs_greedy`` pairs
    the ``tuned_hyperquicksort`` search row with its ``_greedy`` twin on
    *virtual* makespan — the simulated (host-independent) win of the
    cost-driven search declining the fetch-fusion trap.  Idempotent:
    safe to call again after :func:`median_merge` recombines repeats.
    """
    for key, rec in current.items():
        workload, _, psuffix = key.partition("/")
        if workload == "tuned_hyperquicksort":
            twin = current.get(f"tuned_hyperquicksort_greedy/{psuffix}")
            if twin and twin.get("makespan") and rec.get("makespan"):
                rec["speedup_vs_greedy"] = round(
                    twin["makespan"] / rec["makespan"], 3)
            continue
        if workload not in ("compiled_hyperquicksort", "compiled_gauss_jordan"):
            continue
        twin = current.get(f"{workload}_noopt/{psuffix}")
        if twin and rec.get("host_seconds"):
            rec["speedup_vs_noopt"] = round(
                twin["host_seconds"] / rec["host_seconds"], 2)
        base = PLAN_INTERP_BASELINE.get(key)
        if (base and rec.get("host_seconds") and rec.get("n") == 100_000
                and rec["events"] == base["events"]):
            rec["speedup_vs_interp"] = round(
                base["host_seconds"] / rec["host_seconds"], 2)


def median_merge(runs: list[dict[str, dict[str, Any]]]
                 ) -> dict[str, dict[str, Any]]:
    """Combine repeated suite runs into one: per key, the median-host run.

    Picks, for every workload key, the whole record whose ``host_seconds``
    is the (lower) median across the repeats — keeping each record's
    fields mutually consistent — then recomputes the paired speedup
    columns across the merged set.
    """
    import statistics

    merged: dict[str, dict[str, Any]] = {}
    for key in runs[0]:
        recs = [r[key] for r in runs if key in r]
        med = statistics.median_low([rec["host_seconds"] for rec in recs])
        merged[key] = dict(next(rec for rec in recs
                                if rec["host_seconds"] == med))
    annotate_speedups(merged)
    return merged


def _speedups(current: dict[str, dict[str, Any]]) -> dict[str, float]:
    ratios: dict[str, float] = {}
    for key, rec in current.items():
        base = SEED_BASELINE.get(key)
        if base and rec.get("host_seconds"):
            ratios[key] = round(base["host_seconds"] / rec["host_seconds"], 2)
    return ratios


def write_bench_json(path: str, current: dict[str, dict[str, Any]],
                     *, quick: bool = False) -> dict[str, Any]:
    """Assemble and write the machine-readable ``BENCH_simulator.json``."""
    doc = {
        "schema": 1,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "quick": quick,
        "events_metric": "sends + receives per host second",
        "baseline": {
            "label": "seed simulator (pre PR 1: O(p) scan scheduler, linear mailbox)",
            "workloads": SEED_BASELINE,
        },
        "treewalk_baseline": {
            "label": "PR-2 tree-walking SCL compiler (pre Plan IR: "
                     "per-processor recursive _exec)",
            "workloads": TREEWALK_BASELINE,
        },
        "current": current,
        # Quick mode shrinks the per-workload iteration counts, so its host
        # times are not comparable with the full-size seed baseline.
        "speedup_vs_seed": {} if quick else _speedups(current),
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=False)
        fh.write("\n")
    return doc


def render_report(doc: dict[str, Any]) -> str:
    """Human-readable throughput table for a bench document."""
    from repro.util.tables import render_table

    treewalk = doc.get("treewalk_baseline", {}).get("workloads", {})
    rows = []
    for key, rec in doc["current"].items():
        base = doc["baseline"]["workloads"].get(key) or treewalk.get(key, {})
        speedup = (doc["speedup_vs_seed"].get(key)
                   or rec.get("speedup_vs_treewalk"))
        vs_noopt = rec.get("speedup_vs_noopt")
        rows.append([
            key,
            f"{rec['host_seconds']:.3f}",
            f"{rec['events_per_sec']:,}",
            f"{base['host_seconds']:.3f}" if base else "-",
            f"{speedup:.2f}x" if speedup else "-",
            f"{vs_noopt:.2f}x" if vs_noopt else "-",
        ])
    return render_table(
        "Simulator performance (host time; baseline = seed implementation, "
        "or the tree-walk compiler for compiled workloads)",
        ["workload", "host (s)", "events/sec", "base host (s)", "speedup",
         "vs noopt"],
        rows,
        notes="Virtual-time results are engine-invariant; see tests/machine/"
              "test_equivalence.py.  'vs noopt' pairs an optimized compiled "
              "row with its passes-off twin from the same run.")


def main(argv: list[str] | None = None) -> int:
    """CLI entry point of the perf harness; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.perf",
        description="Measure simulator host-time performance and write "
                    "BENCH_simulator.json.")
    parser.add_argument("--quick", action="store_true",
                        help="reduced sizes for CI smoke runs")
    parser.add_argument("--procs", default=None, metavar="P1,P2,...",
                        help="sweep every workload at exactly these machine "
                             "sizes (comma-separated, e.g. 256,1024,4096); "
                             "hypercube workloads skip sizes that are not "
                             "powers of two")
    parser.add_argument("--output", default="BENCH_simulator.json",
                        help="where to write the JSON report")
    parser.add_argument("--filter", default=None, metavar="SUBSTR",
                        help="only run workloads whose key contains SUBSTR "
                             "(e.g. 'compiled' for the optimizer pairs)")
    parser.add_argument("--repeat", type=int, default=1, metavar="N",
                        help="run the whole suite N times and report "
                             "per-workload paired medians (noise control "
                             "for the CI perf gate)")
    parser.add_argument("--emit-baseline", action="store_true",
                        help="print the suite results as a SEED_BASELINE "
                             "python literal (maintenance tool)")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        print("error: --repeat must be >= 1", file=sys.stderr)
        return 2
    procs: tuple[int, ...] | None = None
    if args.procs is not None:
        try:
            procs = tuple(int(tok) for tok in args.procs.split(",") if tok)
        except ValueError:
            procs = ()
        if not procs or any(p < 2 for p in procs):
            print(f"error: --procs must be a comma-separated list of "
                  f"machine sizes >= 2, got {args.procs!r}", file=sys.stderr)
            return 2
        if args.quick:
            print("error: --procs and --quick are mutually exclusive",
                  file=sys.stderr)
            return 2
    runs = [run_suite(procs=procs, quick=args.quick, only=args.filter)
            for _ in range(args.repeat)]
    if not runs[0]:
        print(f"error: --filter {args.filter!r} matches no workload",
              file=sys.stderr)
        return 2
    current = runs[0] if args.repeat == 1 else median_merge(runs)
    if args.emit_baseline:
        slim = {k: {"host_seconds": v["host_seconds"],
                    "events": v["events"],
                    "events_per_sec": v["events_per_sec"]}
                for k, v in current.items()}
        print(json.dumps(slim, indent=4))
        return 0
    try:
        doc = write_bench_json(args.output, current, quick=args.quick)
    except OSError as exc:
        print(f"error: cannot write {args.output}: {exc}", file=sys.stderr)
        return 2
    print(render_report(doc))
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
