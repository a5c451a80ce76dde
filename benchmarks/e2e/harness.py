"""Run one workload in this process: set-up, timed loop, verification.

``measure`` is the only timing loop.  The untraced call produces the
end-to-end metrics; the traced call repeats the same iterations with the
layer wrappers installed and produces the per-layer section.  A separate
cProfile pass counts Python calls per module.
"""

from __future__ import annotations

import cProfile
import dataclasses
import importlib
import os
import pstats
import resource
import statistics
import time
from typing import Any

import numpy as np

from repro.plan.opt import optimize_plan_report

from . import metrics as M
from .spans import Span, Tracer, layer_totals
from .timing import REF_NOMINAL_MS, ReferenceKernel, normalise, summary
from .workloads import WORKLOADS, PlanShape, Workload

# ``repro.plan`` re-exports a function named ``lower`` that shadows the
# submodule attribute, so the module is fetched by its dotted name.
_plan_lower = importlib.import_module("repro.plan.lower")

WARMUP_ITERATIONS = 2
#: Reference-kernel time spent after each iteration, as a share of the
#: iteration's own time.  The host switches speed several times a second,
#: so one 8 ms sample says little about a 300 ms iteration.
REF_SHARE = 0.25
#: Peak RSS is read after this many timed iterations (or at the end of a
#: shorter loop).  A time-bounded loop fits more iterations on a faster
#: host, and some workloads grow with each one (gauss_warm adds two plan
#: cache entries a time), so reading at the end would measure host speed.
RSS_AT_ITERATION = 16
#: Iterations whose raw spans are kept for the results file; every
#: iteration's spans are folded into per-layer totals, but sort_warm alone
#: records ~15 000 a time.
SPAN_SAMPLE_ITERATIONS = 2


@dataclasses.dataclass
class Measurement:
    """Everything one timed loop observed, one list entry per iteration."""

    attempted: int = 0
    failed: int = 0
    raw_ms: list[float] = dataclasses.field(default_factory=list)
    norm_ms: list[float] = dataclasses.field(default_factory=list)
    ref_ms: list[list[float]] = dataclasses.field(default_factory=list)
    makespan_s: list[float] = dataclasses.field(default_factory=list)
    messages: list[int] = dataclasses.field(default_factory=list)
    extras: list[dict[str, float]] = dataclasses.field(default_factory=list)
    records: list[dict] = dataclasses.field(default_factory=list)
    cache: list[dict[str, int]] = dataclasses.field(default_factory=list)
    layers: list[dict[str, dict[str, float]]] = dataclasses.field(
        default_factory=list)
    span_sample: list[Span] = dataclasses.field(default_factory=list)
    peak_rss_mb: float = 0.0

    @property
    def iterations(self) -> int:
        return len(self.raw_ms)


def ready(name: str, seed: int) -> Workload:
    """A workload set up and warmed: the state every timed loop starts from."""
    workload = WORKLOADS[name]()
    workload.setup(seed)
    for _ in range(WARMUP_ITERATIONS):
        if workload.check(workload.iterate()).failed:
            raise AssertionError(f"{name}: warm-up iteration failed its check")
    return workload


def _cache_traffic(before: dict[str, int], after: dict[str, int]) -> dict[str, int]:
    """Plan-cache counter deltas over one iteration.

    ``clear_plan_cache`` zeroes the counters, so when they went down the
    iteration's traffic is what they read now.
    """
    keys = ("hits", "misses", "tuned_hits", "tuned_misses")
    if any(after[k] < before[k] for k in keys):
        return {k: after[k] for k in keys}
    return {k: after[k] - before[k] for k in keys}


def measure(workload: Workload, *, seconds: float, iterations: int | None,
            tracer: Tracer | None = None) -> Measurement:
    """Iterate for ``seconds`` (or at most ``iterations`` times).

    Only ``workload.iterate()`` is inside the timed span; the reference
    kernel runs either side of it and verification after it.
    """
    plan_cache_stats = _plan_lower.plan_cache_stats
    kernel = ReferenceKernel()
    m = Measurement()
    deadline = time.perf_counter() + seconds
    ref_before = kernel.sample(0.0)
    while True:
        cache_before = plan_cache_stats()
        if tracer is not None:
            tracer.ident = m.iterations
        start = time.perf_counter()
        try:
            out = workload.iterate()
            raised = False
        except Exception:
            raised = True
        wall_ms = (time.perf_counter() - start) * 1e3
        ref_after = kernel.sample(REF_SHARE * wall_ms)
        failed_units = workload.units
        if not raised:
            try:
                outcome = workload.check(out)
            except Exception:
                pass  # an output too malformed to check is a failed one
            else:
                failed_units = outcome.failed
                m.makespan_s.append(outcome.makespan_s)
                m.messages.append(outcome.messages)
                m.extras.append(outcome.extras)
                m.records.extend(outcome.records)
        m.attempted += workload.units
        m.failed += failed_units
        m.raw_ms.append(wall_ms / workload.time_divisor)
        m.norm_ms.append(normalise(wall_ms, ref_before + ref_after)
                         / workload.time_divisor)
        m.ref_ms.append(ref_after)
        m.cache.append(_cache_traffic(cache_before, plan_cache_stats()))
        if tracer is not None:
            spans, probed = tracer.drain()
            totals = layer_totals(spans)
            totals["probed"] = probed
            m.layers.append(totals)
            if m.iterations <= SPAN_SAMPLE_ITERATIONS:
                m.span_sample.extend(spans)
        ref_before = ref_after
        if m.iterations == RSS_AT_ITERATION:
            m.peak_rss_mb = peak_rss_mb()
        if iterations is not None and m.iterations >= iterations:
            break
        if iterations is None and time.perf_counter() >= deadline:
            break
    if m.iterations < RSS_AT_ITERATION:
        m.peak_rss_mb = peak_rss_mb()
    return m


def peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(workload: Workload, m: Measurement,
               setup_samples: list[float]) -> dict[str, dict]:
    """The untraced run's metrics, by the names in ``metrics.END_TO_END``."""
    out = {
        "iter_ms": summary(m.norm_ms, "ms"),
        "makespan_s": summary(m.makespan_s, "sim_s"),
        "messages": summary([float(v) for v in m.messages], "count"),
        "failed_share": {**summary([m.failed / m.attempted], "1"),
                         "n": m.attempted},
        "peak_rss_mb": summary([m.peak_rss_mb], "MB"),
        "setup_s": summary(setup_samples, "s"),
    }
    if workload.name == "serve_burst":
        out["burst_rps"] = summary(
            [workload.units * 1e3 / ms for ms in m.norm_ms], "1/s")
    if workload.name == "serve_solo":
        out["solo_ms"] = out["iter_ms"]
    return out


# -- the per-layer section -----------------------------------------------------

def _median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def _count_instrs(instrs: Any) -> int:
    """Instructions in a plan, loop bodies and nested plans included."""
    n = 0
    for instr in instrs:
        n += 1
        for body in getattr(instr, "bodies", ()):
            n += _count_instrs(body)
        for plan in getattr(instr, "plans", ()):
            n += _count_instrs(plan.instrs)
    return n


def plan_counters(shape: PlanShape | None) -> dict[str, float]:
    """Instruction counts before and after the optimizer, and its notes."""
    if shape is None:
        return {}
    raw = _plan_lower.lower(shape.expr, shape.nprocs)
    optimized, notes = optimize_plan_report(raw, shape.config)
    return {"plan.instrs_raw": _count_instrs(raw.instrs),
            "plan.instrs_opt": _count_instrs(optimized.instrs),
            "plan.opt.notes": len(notes)}


def _hit_rate(traffic: list[dict[str, int]], hits: str, misses: str) -> float:
    total_hits = sum(t[hits] for t in traffic)
    total = total_hits + sum(t[misses] for t in traffic)
    return total_hits / total if total else 0.0


def per_layer(workload: Workload, traced: Measurement, untraced: Measurement,
              pycalls: dict[str, float]) -> dict[str, float]:
    """Every name in ``metrics.PER_LAYER``; a layer that did not run, or no
    longer exists, is 0."""
    out = dict.fromkeys(M.PER_LAYER, 0.0)
    for layer in M.SPAN_LAYERS:
        for field in ("calls", "total_ms", "self_ms"):
            out[f"{layer}.{field}"] = _median(
                [it.get(layer, {}).get(field, 0.0) for it in traced.layers])
    for layer in M.COUNT_LAYERS:
        out[f"{layer}.calls"] = _median(
            [it.get(layer, {}).get("calls", 0.0) for it in traced.layers])

    def probed(key: str) -> float:
        return _median([it["probed"].get(key, 0.0) for it in traced.layers])

    def extra(key: str) -> float:
        return _median([e[key] for e in traced.extras if key in e])

    out["plan.cache.hit_rate"] = _hit_rate(traced.cache, "hits", "misses")
    out["plan.cache.tuned_hit_rate"] = _hit_rate(
        traced.cache, "tuned_hits", "tuned_misses")
    out.update(plan_counters(workload.plan_shape()))
    for key in ("tune.explored", "tune.steps", "tune.predicted_speedup",
                "obs.events", "machine.ring_ms", "machine.funnel_ms",
                "machine.allreduce_ms", "machine.table1_ms",
                "serve.rejected"):
        out[key] = extra(key)
    out["tune.rounds"] = probed("tune.rounds")
    out["machine.events"] = probed("machine.events")
    machine_s = out["machine.total_ms"] / 1e3
    if machine_s:
        out["machine.events_per_s"] = out["machine.events"] / machine_s
    if probed("machine.proc_s"):
        out["machine.idle_share"] = (probed("machine.idle_s")
                                     / probed("machine.proc_s"))

    if traced.records:
        for field in ("queue", "service", "latency"):
            ms = [r[f"{field}_s"] * 1e3 for r in traced.records]
            out[f"serve.{field}_ms_p50"] = float(np.percentile(ms, 50))
            out[f"serve.{field}_ms_p99"] = float(np.percentile(ms, 99))
    if workload.name == "serve_solo":
        out["serve.handoff_ms"] = (_median(traced.raw_ms)
                                   - out["serve.service_ms_p50"])
        out["solo_ms"] = _median(untraced.norm_ms)
    if workload.name == "serve_burst":
        out["burst_rps"] = _median(
            [workload.units * 1e3 / ms for ms in untraced.norm_ms])

    out.update(pycalls)
    out["makespan_s"] = _median(traced.makespan_s)
    out["messages"] = _median([float(v) for v in traced.messages])
    attempted = traced.attempted + untraced.attempted
    out["failed_share"] = (traced.failed + untraced.failed) / attempted
    out["harness.iter_ms_raw"] = _median(untraced.raw_ms)
    q = summary(untraced.norm_ms, "ms")
    out["harness.iter_ms_iqr"] = q["q3"] - q["q1"]
    out["harness.host_speed"] = REF_NOMINAL_MS / _median(
        [ms for burst in untraced.ref_ms for ms in burst])
    out["harness.iterations"] = float(traced.iterations)
    out["harness.trace_overhead"] = (_median(traced.norm_ms)
                                     / _median(untraced.norm_ms))
    return out


_SRC_MARKER = os.sep + "repro" + os.sep


def count_pycalls(workload: Workload) -> dict[str, float]:
    """Python calls per ``repro`` module over one iteration, by cProfile.

    Call counts repeat exactly from run to run, unlike times.  cProfile
    sees the calling thread only, so threaded workloads report none.
    """
    if not workload.single_threaded:
        return {}
    profile = cProfile.Profile()
    profile.enable()
    try:
        workload.iterate()
    finally:
        profile.disable()
    counts = dict.fromkeys(M.PYCALL_MODULES, 0.0)
    total = 0.0
    for (filename, _line, _fn), row in pstats.Stats(profile).stats.items():
        at = filename.rfind(_SRC_MARKER)
        if at < 0:
            continue
        calls = float(row[1])
        total += calls
        module = filename[at + len(_SRC_MARKER):-len(".py")].replace(
            os.sep, ".")
        if module.startswith("apps."):
            module = "apps"
        if module in counts:
            counts[module] += calls
    out = {f"pycalls.{module}": n for module, n in counts.items()}
    out["pycalls.total"] = total
    return out
