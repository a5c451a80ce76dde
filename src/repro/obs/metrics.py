"""Live metrics plane: registry, SLO monitors, snapshot exporters.

Where :mod:`repro.obs.sinks` and :mod:`repro.obs.analyze` are *post-hoc*
(a trace is analysed after the run ends), this module is the **live**
half of observability: long-lived components — the skeleton service, the
stream runners, the plan cache, the chaos harness — update in-process
metrics as they work, and operational decisions (latency-aware load
shedding, capacity checks, regression detection) are made *from* that
telemetry while traffic is still flowing.

Three instrument kinds, all label-aware::

    registry = MetricsRegistry()
    reqs  = registry.counter("serve_requests_total",
                             "completed requests", ("endpoint", "tenant"))
    depth = registry.gauge("serve_queue_depth", "admission queue depth")
    lat   = registry.histogram("serve_request_latency_seconds",
                               "request latency", ("endpoint",))

    reqs.labels("scan-add", "pro").inc()
    depth.set(7)
    lat.labels("scan-add").observe(0.0042)

* :class:`Counter` — monotone float, ``inc(n)``.
* :class:`Gauge` — settable float, ``set``/``inc``/``dec``, or backed by
  a callback (``set_function``) evaluated at snapshot time.
* :class:`Histogram` — cumulative exponential buckets (the conventional
  latency shape: each bucket boundary doubles), plus ``sum``/``count``
  and a nearest-bucket :meth:`Histogram.quantile` estimate.

Locking is deliberately cheap: one registry lock guards family/child
*creation* only; each child carries its own tiny lock around its one or
two field updates, so concurrent workers updating disjoint label sets
never contend.  Components treat the registry as optional — every
instrumented hot path is behind an ``if metrics is not None`` guard, and
the disabled path is the one the ``serve_burst`` / ``serve_solo``
workloads of ``BENCHMARK.json`` measure, so a cost creeping into it
shows up there.

Exports:

* :meth:`MetricsRegistry.snapshot` — a point-in-time
  :class:`MetricsSnapshot` of every series;
* :meth:`MetricsRegistry.render_prometheus` / :func:`render_prometheus`
  — Prometheus-style text exposition (``# HELP`` / ``# TYPE`` /
  ``name{label="v"} value``);
* :class:`PeriodicSnapshotter` — a background thread collecting
  snapshots on an interval, optionally streaming them as JSONL;
* :func:`metrics_artifact` — the ``repro.obs.metrics/v1`` JSON artifact
  (what ``python -m repro serve --metrics-out`` writes and the CI
  ``metrics-smoke`` job validates).

:class:`SloMonitor` sits on top: a rolling latency window with
nearest-rank p50/p99 against a target.  :class:`~repro.serve.Service`
uses it for latency-aware admission — shedding with a structured
``Rejection(reason="slo-shed")`` while the rolling p99 breaches the
target and recovering once the window clears.
"""

from __future__ import annotations

import dataclasses
import json
import threading
import time
from collections import deque
from typing import Any, Callable, IO, Iterable, Mapping, Sequence

from repro.errors import SclError
from repro.obs.latency import quantile

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "METRICS_SCHEMA",
    "MetricsRegistry",
    "MetricsSnapshot",
    "PeriodicSnapshotter",
    "SloMonitor",
    "exponential_buckets",
    "metrics_artifact",
    "observe_fault_counters",
    "register_plan_cache_gauges",
    "render_prometheus",
]

METRICS_SCHEMA = "repro.obs.metrics/v1"


class MetricsError(SclError):
    """Raised on inconsistent registry use (type/label conflicts)."""


def exponential_buckets(start: float, factor: float,
                        count: int) -> tuple[float, ...]:
    """``count`` bucket upper bounds: ``start, start*factor, ...``.

    The implicit ``+Inf`` bucket is always appended by
    :class:`Histogram`, so ``count`` is the number of *finite* bounds.
    """
    if start <= 0 or factor <= 1 or count < 1:
        raise MetricsError(
            f"exponential_buckets needs start > 0, factor > 1, count >= 1; "
            f"got {start}, {factor}, {count}")
    return tuple(start * factor ** i for i in range(count))


#: Default latency buckets: 0.1 ms doubling up to ~13 s — the range a
#: simulated-service request can actually live in, from a cache-hit plan
#: run to a deeply queued overload victim.
DEFAULT_LATENCY_BUCKETS = exponential_buckets(1e-4, 2.0, 17)


class _Child:
    """Shared label-child plumbing: one value cell, one tiny lock."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._value = 0.0

    @property
    def value(self) -> float:
        return self._value


class Counter(_Child):
    """A monotone counter (one label combination of a counter family)."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise MetricsError(f"counter increments must be >= 0, "
                               f"got {amount}")
        with self._lock:
            self._value += amount


class Gauge(_Child):
    """A settable value, or a callback evaluated at snapshot time."""

    __slots__ = ("_fn",)

    def __init__(self) -> None:
        super().__init__()
        self._fn: Callable[[], float] | None = None

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    def set_function(self, fn: Callable[[], float]) -> None:
        """Back this gauge by ``fn`` — read fresh at every snapshot."""
        self._fn = fn

    @property
    def value(self) -> float:
        if self._fn is not None:
            return float(self._fn())
        return self._value


class Histogram:
    """Cumulative-bucket histogram (one label combination of a family).

    ``buckets`` are the finite upper bounds in increasing order; the
    ``+Inf`` bucket is implicit.  :meth:`observe` is O(log buckets).
    """

    __slots__ = ("_lock", "buckets", "_counts", "_sum", "_count")

    def __init__(self, buckets: Sequence[float]) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise MetricsError(
                f"histogram buckets must be non-empty and strictly "
                f"increasing, got {buckets!r}")
        self._lock = threading.Lock()
        self.buckets = bounds
        self._counts = [0] * (len(bounds) + 1)  # last = +Inf
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        import bisect

        idx = bisect.bisect_left(self.buckets, value)
        with self._lock:
            self._counts[idx] += 1
            self._sum += value
            self._count += 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    def bucket_counts(self) -> list[int]:
        """Per-bucket (non-cumulative) counts, ``+Inf`` last."""
        with self._lock:
            return list(self._counts)

    def quantile(self, q: float) -> float | None:
        """Nearest-bucket quantile estimate (upper bound of the bucket
        holding the ``ceil(q * count)``-th observation), ``None`` when
        empty.  Observations in the ``+Inf`` bucket report the last
        finite bound — an underestimate, flagged by the caller if the
        distinction matters."""
        import math

        if not 0 < q <= 1:
            raise MetricsError(f"q must be in (0, 1], got {q}")
        with self._lock:
            total = self._count
            counts = list(self._counts)
        if total == 0:
            return None
        rank = math.ceil(q * total)
        seen = 0
        for idx, n in enumerate(counts):
            seen += n
            if seen >= rank:
                return self.buckets[min(idx, len(self.buckets) - 1)]
        return self.buckets[-1]  # pragma: no cover - rank <= total


@dataclasses.dataclass
class _Family:
    """One named metric and its per-label-combination children."""

    name: str
    kind: str  # "counter" | "gauge" | "histogram"
    help: str
    labelnames: tuple[str, ...]
    buckets: tuple[float, ...] | None
    _children: dict[tuple[str, ...], Any] = \
        dataclasses.field(default_factory=dict)
    _lock: threading.Lock = dataclasses.field(default_factory=threading.Lock)

    def labels(self, *values: Any, **kwvalues: Any) -> Any:
        """The child for one label-value combination (created on first
        use).  Accepts positional values in ``labelnames`` order or the
        same set as keywords."""
        if kwvalues:
            if values or set(kwvalues) != set(self.labelnames):
                raise MetricsError(
                    f"{self.name}: labels() takes exactly "
                    f"{self.labelnames}, got {values!r} / {kwvalues!r}")
            values = tuple(kwvalues[n] for n in self.labelnames)
        if len(values) != len(self.labelnames):
            raise MetricsError(
                f"{self.name}: expected {len(self.labelnames)} label "
                f"value(s) {self.labelnames}, got {len(values)}")
        key = tuple(str(v) for v in values)
        child = self._children.get(key)
        if child is None:
            with self._lock:
                child = self._children.get(key)
                if child is None:
                    child = self._make_child()
                    self._children[key] = child
        return child

    def _make_child(self) -> Any:
        if self.kind == "counter":
            return Counter()
        if self.kind == "gauge":
            return Gauge()
        return Histogram(self.buckets or DEFAULT_LATENCY_BUCKETS)

    # Label-less families act as their own single child.
    def _solo(self) -> Any:
        return self.labels()

    def inc(self, amount: float = 1.0) -> None:
        self._solo().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._solo().dec(amount)

    def set(self, value: float) -> None:
        self._solo().set(value)

    def set_function(self, fn: Callable[[], float]) -> None:
        self._solo().set_function(fn)

    def observe(self, value: float) -> None:
        self._solo().observe(value)

    def children(self) -> list[tuple[tuple[str, ...], Any]]:
        with self._lock:
            return sorted(self._children.items())


@dataclasses.dataclass(frozen=True)
class MetricsSnapshot:
    """A point-in-time copy of every series in a registry.

    ``series`` is a tuple of plain dicts — one per label combination —
    each carrying ``name``/``type``/``help``/``labels`` plus ``value``
    (counter/gauge) or ``sum``/``count``/``buckets`` (histogram, with
    *cumulative* bucket counts keyed by upper bound, ``"+Inf"`` last).
    """

    t: float
    series: tuple[dict[str, Any], ...]

    def to_dict(self) -> dict[str, Any]:
        return {"t": round(self.t, 6), "series": list(self.series)}

    def value(self, name: str, labels: Mapping[str, str] | None = None,
              field: str = "value") -> Any:
        """Look up one series' ``field`` (``None`` when absent)."""
        want = dict(labels or {})
        for s in self.series:
            if s["name"] == name and s.get("labels", {}) == want:
                return s.get(field)
        return None


class MetricsRegistry:
    """The in-process metric store every instrumented layer shares.

    Families are created idempotently: asking twice for the same name
    returns the same family (a kind/label mismatch raises) — so layers
    can instrument independently without coordinating creation order.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: dict[str, _Family] = {}
        self._collectors: list[Callable[["MetricsRegistry"], None]] = []

    def _family(self, name: str, kind: str, help: str,
                labelnames: Sequence[str],
                buckets: Sequence[float] | None = None) -> _Family:
        names = tuple(labelnames)
        with self._lock:
            fam = self._families.get(name)
            if fam is not None:
                if fam.kind != kind or fam.labelnames != names:
                    raise MetricsError(
                        f"metric {name!r} already registered as "
                        f"{fam.kind}{fam.labelnames}, not {kind}{names}")
                return fam
            fam = _Family(name, kind, help, names,
                          tuple(buckets) if buckets else None)
            self._families[name] = fam
            return fam

    def counter(self, name: str, help: str = "",
                labelnames: Sequence[str] = ()) -> _Family:
        return self._family(name, "counter", help, labelnames)

    def gauge(self, name: str, help: str = "",
              labelnames: Sequence[str] = ()) -> _Family:
        return self._family(name, "gauge", help, labelnames)

    def histogram(self, name: str, help: str = "",
                  labelnames: Sequence[str] = (),
                  buckets: Sequence[float] | None = None) -> _Family:
        bounds = tuple(buckets) if buckets else DEFAULT_LATENCY_BUCKETS
        Histogram(bounds)  # validate eagerly, not at first labels() use
        return self._family(name, "histogram", help, labelnames, bounds)

    def add_collector(self, fn: Callable[["MetricsRegistry"], None]) -> None:
        """Register ``fn(registry)`` to run before every snapshot —
        the pull-model hook for stats kept elsewhere (cache counters)."""
        with self._lock:
            self._collectors.append(fn)

    # -- export -------------------------------------------------------------

    def snapshot(self, t: float | None = None) -> MetricsSnapshot:
        for fn in list(self._collectors):
            fn(self)
        with self._lock:
            families = list(self._families.values())
        series: list[dict[str, Any]] = []
        for fam in families:
            for key, child in fam.children():
                rec: dict[str, Any] = {
                    "name": fam.name, "type": fam.kind, "help": fam.help,
                    "labels": dict(zip(fam.labelnames, key)),
                }
                if fam.kind == "histogram":
                    counts = child.bucket_counts()
                    cum, buckets = 0, {}
                    for bound, n in zip(child.buckets, counts):
                        cum += n
                        buckets[repr(bound)] = cum
                    buckets["+Inf"] = cum + counts[-1]
                    rec["count"] = child.count
                    rec["sum"] = round(child.sum, 9)
                    rec["buckets"] = buckets
                    p50, p99 = child.quantile(0.5), child.quantile(0.99)
                    if p50 is not None:
                        rec["p50_est"] = p50
                        rec["p99_est"] = p99
                else:
                    rec["value"] = child.value
                series.append(rec)
        return MetricsSnapshot(time.time() if t is None else t,
                               tuple(series))

    def render_prometheus(self) -> str:
        return render_prometheus(self.snapshot())


def _escape_label(value: Any) -> str:
    return str(value).replace("\\", "\\\\").replace('"', '\\"')


def _prom_labels(labels: Mapping[str, str],
                 extra: Mapping[str, str] | None = None) -> str:
    items = {**labels, **(extra or {})}
    if not items:
        return ""
    body = ",".join(f'{k}="{_escape_label(v)}"' for k, v in items.items())
    return "{" + body + "}"


def render_prometheus(snapshot: MetricsSnapshot) -> str:
    """Prometheus text exposition (format 0.0.4) of one snapshot."""
    lines: list[str] = []
    seen: set[str] = set()
    for s in snapshot.series:
        name = s["name"]
        if name not in seen:
            seen.add(name)
            if s.get("help"):
                lines.append(f"# HELP {name} {s['help']}")
            lines.append(f"# TYPE {name} {s['type']}")
        labels = s.get("labels", {})
        if s["type"] == "histogram":
            for bound, cum in s["buckets"].items():
                lines.append(f"{name}_bucket"
                             f"{_prom_labels(labels, {'le': bound})} {cum}")
            lines.append(f"{name}_sum{_prom_labels(labels)} {s['sum']}")
            lines.append(f"{name}_count{_prom_labels(labels)} {s['count']}")
        else:
            value = s["value"]
            rendered = repr(value) if isinstance(value, float) else str(value)
            lines.append(f"{name}{_prom_labels(labels)} {rendered}")
    return "\n".join(lines) + "\n"


class PeriodicSnapshotter:
    """A background thread snapshotting a registry on an interval.

    Snapshots accumulate in :attr:`snapshots`; with ``jsonl`` (a path or
    file object) each snapshot is also streamed as one JSON line the
    moment it is taken.  :meth:`stop` takes one final snapshot so the
    series always ends with the post-run state.  Usable as a context
    manager.
    """

    def __init__(self, registry: MetricsRegistry, *,
                 interval_s: float = 0.25,
                 jsonl: "str | IO[str] | None" = None):
        if interval_s <= 0:
            raise MetricsError(f"interval_s must be > 0, got {interval_s}")
        self.registry = registry
        self.interval_s = interval_s
        self.snapshots: list[MetricsSnapshot] = []
        self._fh: IO[str] | None = None
        self._owns = False
        if isinstance(jsonl, str):
            self._fh = open(jsonl, "w", encoding="utf-8")
            self._owns = True
        elif jsonl is not None:
            self._fh = jsonl
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._t0 = 0.0

    def _take(self) -> None:
        snap = self.registry.snapshot(t=time.perf_counter() - self._t0)
        self.snapshots.append(snap)
        if self._fh is not None:
            self._fh.write(json.dumps(snap.to_dict(), default=repr))
            self._fh.write("\n")

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            self._take()

    def start(self) -> "PeriodicSnapshotter":
        if self._thread is not None:
            return self
        self._t0 = time.perf_counter()
        self._stop.clear()
        self._thread = threading.Thread(target=self._loop, daemon=True,
                                        name="metrics-snapshotter")
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._thread is None:
            return
        self._stop.set()
        self._thread.join()
        self._thread = None
        self._take()  # final state
        if self._fh is not None:
            if self._owns:
                self._fh.close()
            else:
                self._fh.flush()

    def __enter__(self) -> "PeriodicSnapshotter":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()


def metrics_artifact(snapshots: Sequence[MetricsSnapshot], *,
                     generated_by: str,
                     interval_s: float | None = None) -> dict[str, Any]:
    """The ``repro.obs.metrics/v1`` JSON artifact of a snapshot series.

    ``final`` is the last snapshot (the post-run totals — what the CI
    ``metrics-smoke`` job asserts against); ``snapshots`` keeps the whole
    series so the dashboard can render deltas over time.
    """
    if not snapshots:
        raise MetricsError("metrics_artifact needs at least one snapshot")
    doc: dict[str, Any] = {
        "schema": METRICS_SCHEMA,
        "generated_by": generated_by,
        "snapshot_count": len(snapshots),
        "final": snapshots[-1].to_dict(),
        "snapshots": [s.to_dict() for s in snapshots],
    }
    if interval_s is not None:
        doc["interval_s"] = interval_s
    return doc


class SloMonitor:
    """A rolling latency window scored against a p99 target.

    ``observe`` records one request latency; ``breached(now)`` answers
    "is the rolling p99 over target *right now*" — entries older than
    ``window_s`` are pruned first, so a quiet period clears the breach
    (latencies age out) exactly as sustained overload sustains it.
    Verdicts need at least ``min_samples`` live entries: an empty or
    thin window never sheds.

    The monitor is independent of any registry; when one is attached
    (:meth:`bind_gauges`) it exports its rolling state as gauges.
    """

    def __init__(self, p99_target_s: float, *, window_s: float = 2.0,
                 min_samples: int = 20):
        if p99_target_s <= 0 or window_s <= 0 or min_samples < 1:
            raise MetricsError(
                f"SloMonitor needs p99_target_s > 0, window_s > 0, "
                f"min_samples >= 1; got {p99_target_s}, {window_s}, "
                f"{min_samples}")
        self.p99_target_s = p99_target_s
        self.window_s = window_s
        self.min_samples = min_samples
        self._lock = threading.Lock()
        self._window: deque[tuple[float, float]] = deque()  # (t, latency_s)
        #: Total observations ever (not just the live window).
        self.observed = 0
        #: Number of :meth:`breached` verdicts that answered True.
        self.breach_verdicts = 0

    def _prune(self, now: float) -> None:
        horizon = now - self.window_s
        window = self._window
        while window and window[0][0] < horizon:
            window.popleft()

    def observe(self, latency_s: float, now: float) -> None:
        with self._lock:
            self._window.append((now, latency_s))
            self.observed += 1
            self._prune(now)

    def rolling(self, now: float) -> dict[str, Any]:
        """Current window state: sample count, p50/p99, target, breach."""
        with self._lock:
            self._prune(now)
            lats = [lat for _, lat in self._window]
        state: dict[str, Any] = {
            "samples": len(lats),
            "min_samples": self.min_samples,
            "window_s": self.window_s,
            "p99_target_ms": round(self.p99_target_s * 1e3, 3),
        }
        if lats:
            state["p50_ms"] = round(quantile(lats, 0.5) * 1e3, 3)
            state["p99_ms"] = round(quantile(lats, 0.99) * 1e3, 3)
        state["breached"] = (len(lats) >= self.min_samples
                             and quantile(lats, 0.99) > self.p99_target_s)
        return state

    def breached(self, now: float) -> bool:
        with self._lock:
            self._prune(now)
            lats = [lat for _, lat in self._window]
            if len(lats) < self.min_samples:
                return False
            hit = quantile(lats, 0.99) > self.p99_target_s
            if hit:
                self.breach_verdicts += 1
            return hit

    def bind_gauges(self, registry: MetricsRegistry,
                    now_fn: Callable[[], float], *,
                    prefix: str = "serve_slo") -> None:
        """Export the rolling state as callback gauges on ``registry``."""
        registry.gauge(f"{prefix}_p99_target_ms",
                       "SLO p99 latency target").set(
            self.p99_target_s * 1e3)
        p99 = registry.gauge(f"{prefix}_rolling_p99_ms",
                             "rolling-window p99 latency")
        breached = registry.gauge(f"{prefix}_breached",
                                  "1 while the rolling p99 is over target")

        def _p99() -> float:
            return self.rolling(now_fn()).get("p99_ms", 0.0)

        p99.set_function(_p99)
        breached.set_function(
            lambda: 1.0 if self.rolling(now_fn())["breached"] else 0.0)


def register_plan_cache_gauges(registry: MetricsRegistry) -> None:
    """Export :func:`repro.plan.lower.plan_cache_stats` as gauges.

    Pull-model: the cache keeps its own counters (its hot path must not
    know about registries); a snapshot collector copies them into
    ``plan_cache_*`` gauges at read time.  Idempotent per registry.
    """
    from repro.plan.lower import plan_cache_stats

    if getattr(registry, "_plan_cache_bound", False):
        return
    registry._plan_cache_bound = True
    gauges = {key: registry.gauge(f"plan_cache_{key}",
                                  f"plan cache counter {key!r}")
              for key in plan_cache_stats()}

    def collect(_reg: MetricsRegistry) -> None:
        for key, value in plan_cache_stats().items():
            gauges[key].set(value)

    collect(registry)
    registry.add_collector(collect)


def observe_fault_counters(registry: MetricsRegistry,
                           counters: Mapping[str, int], *,
                           labels: Mapping[str, str] | None = None) -> None:
    """Fold one run's fault counters into ``machine_faults_total``.

    ``counters`` is the dict :func:`repro.machine.metrics.fault_counters`
    returns (``retransmits``/``timeouts``/``dropped``/``crashed``); each
    kind becomes one labelled counter series, plus any extra ``labels``
    (the chaos harness labels by app and drop rate).
    """
    label_names = ("kind", *sorted(labels or {}))
    fam = registry.counter("machine_faults_total",
                           "fault-layer events observed by the simulator",
                           label_names)
    extra = tuple((labels or {})[k] for k in label_names[1:])
    for kind, value in counters.items():
        fam.labels(kind, *extra).inc(float(value))


def iter_snapshot_dicts(source: Iterable[Mapping[str, Any]]
                        ) -> list[MetricsSnapshot]:
    """Rebuild :class:`MetricsSnapshot` objects from ``to_dict`` output
    (artifact ``snapshots`` entries or JSONL lines)."""
    out = []
    for rec in source:
        out.append(MetricsSnapshot(float(rec["t"]),
                                   tuple(dict(s) for s in rec["series"])))
    return out
