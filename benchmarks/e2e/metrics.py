"""The metric names: later issues refer to metrics by exactly these."""

from __future__ import annotations

import dataclasses

from .spans import COUNT_ONLY, LAYERS

DEFAULT_SEED = 19950701

COMPILED = ("sort_warm", "gauss_warm", "tune_cold", "engine_raw",
            "sort_traced")
ALL = COMPILED + ("serve_burst", "serve_solo")


@dataclasses.dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    #: Share of the base's median by which the metric may get worse.  0 means
    #: exact: the values are compared bit for bit.
    bound: float
    workloads: tuple[str, ...]


END_TO_END = (
    # Normalised median wall time of one iteration.
    EndToEnd("iter_ms", "ms", "lower", 0.15, COMPILED),
    # 200 / normalised drain seconds, median over bursts.
    EndToEnd("burst_rps", "1/s", "higher", 0.15, ("serve_burst",)),
    # Normalised block time / 20, median over blocks.
    EndToEnd("solo_ms", "ms", "lower", 0.15, ("serve_solo",)),
    # Sum of the simulated makespans of one iteration's machine runs: the
    # paper's own metric, simulated and not host time.
    EndToEnd("makespan_s", "sim_s", "lower", 0.0, ALL),
    # Simulated messages per iteration.
    EndToEnd("messages", "count", "lower", 0.0, ALL),
    # Units that raised, were rejected or failed verification / attempted.
    EndToEnd("failed_share", "1", "lower", 0.0, ALL),
    # ru_maxrss of the workload's process.
    EndToEnd("peak_rss_mb", "MB", "lower", 0.15, ALL),
    # Imports + input generation + cache warm-up + service start, normalised
    # like the iteration times, median of five processes.  About a second,
    # so loose.
    EndToEnd("setup_s", "s", "lower", 0.25, ALL),
)

#: The end-to-end metrics the driver protocol (``run.py --trace 0``) prints:
#: those every workload reports and that are never 0.  The exact and
#: serve-only ones above are printed with ``--trace 1`` instead.
DRIVER_END_TO_END = ("iter_ms", "peak_rss_mb", "setup_s")

SPAN_LAYERS = tuple(layer for layer in LAYERS if layer not in COUNT_ONLY)
COUNT_LAYERS = tuple(sorted(COUNT_ONLY))

PYCALL_MODULES = (
    "plan.vexec", "plan.lower", "plan.opt", "plan.cost", "plan.kernels",
    "machine.batch", "machine.simulator", "machine.cost",
    "machine.plan_exec", "machine.collectives", "scl.rewrite",
    "tune.search", "apps",
)

def _per_layer() -> dict[str, tuple[str, str]]:
    out: dict[str, tuple[str, str]] = {}
    for layer in SPAN_LAYERS:
        out[f"{layer}.calls"] = ("count", "lower")
        out[f"{layer}.total_ms"] = ("ms", "lower")
        out[f"{layer}.self_ms"] = ("ms", "lower")
    for layer in COUNT_LAYERS:
        out[f"{layer}.calls"] = ("count", "lower")
    out.update({
        "obs.events": ("count", "lower"),
        "plan.cache.hit_rate": ("1", "higher"),
        "plan.cache.tuned_hit_rate": ("1", "higher"),
        "plan.instrs_raw": ("count", "lower"),
        "plan.instrs_opt": ("count", "lower"),
        "plan.opt.notes": ("count", "higher"),
        "tune.explored": ("count", "lower"),
        "tune.rounds": ("count", "lower"),
        "tune.steps": ("count", "higher"),
        "tune.predicted_speedup": ("1", "higher"),
        "machine.events": ("count", "lower"),
        "machine.events_per_s": ("1/s", "higher"),
        "machine.idle_share": ("1", "lower"),
        "machine.ring_ms": ("ms", "lower"),
        "machine.funnel_ms": ("ms", "lower"),
        "machine.allreduce_ms": ("ms", "lower"),
        "machine.table1_ms": ("ms", "lower"),
        "serve.queue_ms_p50": ("ms", "lower"),
        "serve.queue_ms_p99": ("ms", "lower"),
        "serve.service_ms_p50": ("ms", "lower"),
        "serve.service_ms_p99": ("ms", "lower"),
        "serve.latency_ms_p50": ("ms", "lower"),
        "serve.latency_ms_p99": ("ms", "lower"),
        "serve.rejected": ("count", "lower"),
        "serve.handoff_ms": ("ms", "lower"),
        "pycalls.total": ("count", "lower"),
    })
    for module in PYCALL_MODULES:
        out[f"pycalls.{module}"] = ("count", "lower")
    out.update({
        "harness.iter_ms_raw": ("ms", "lower"),
        "harness.iter_ms_iqr": ("ms", "lower"),
        "harness.host_speed": ("1", "higher"),
        "harness.iterations": ("count", "higher"),
        "harness.trace_overhead": ("1", "lower"),
        # End-to-end metrics the driver protocol cannot carry as such: the
        # exact ones vary with the seed and are constant without it, and
        # the serve pair applies to one workload each.
        "burst_rps": ("1/s", "higher"),
        "solo_ms": ("ms", "lower"),
        "makespan_s": ("sim_s", "lower"),
        "messages": ("count", "lower"),
        "failed_share": ("1", "lower"),
    })
    return out


#: name -> (unit, better).  Medians per iteration of the traced run.
PER_LAYER = _per_layer()
