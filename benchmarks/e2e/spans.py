"""Outside-in tracing: wrap each layer's public functions at run time.

The traced run makes the same end-to-end calls as the untraced one.
Before it, :meth:`Tracer.install` rebinds every module global that *is*
one of the layer functions below (in ``repro`` and in this package) and
every listed method on its class; :meth:`Tracer.uninstall` puts every
original back.  Nothing in ``src/`` is edited, and a function that a
later change deletes simply marks its layer ``absent``.

A span is ``(id, layer, name, start, end, parent, ident)``: ``parent`` is
the id of the span that caused it and ``ident`` the iteration, or the
``Ticket.request_id`` for spans of one service request.  Self time is a
span's duration minus the part of that interval its children cover.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from typing import Any, Callable, NamedTuple

#: layer -> ((module, dotted attribute), ...).  Span layers are timed;
#: generators cannot be timed from outside (their body runs interleaved
#: by the engine), so ``COUNT_ONLY`` layers record calls alone.
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "scl.compile": (("repro.scl.compile", "run_expression"),),
    "plan.lower": (("repro.plan.lower", "lower"),
                   ("repro.plan.lower", "lower_uncached"),
                   ("repro.plan.lower", "tuned_lower")),
    "plan.opt": (("repro.plan.opt", "optimize_plan"),),
    "plan.cost": (("repro.plan.cost", "plan_cost"),),
    "tune": (("repro.tune.search", "tune_expression"),),
    "scl.rewrite": (("repro.scl.rewrite", "RewriteEngine.applications"),),
    "plan.vexec": (("repro.plan.vexec", "precompute"),
                   ("repro.plan.vexec", "replay_program")),
    "plan.kernels": (("repro.plan.kernels", "batched_apply"),
                     ("repro.plan.kernels", "group_uniform"),
                     ("repro.plan.kernels", "stack_uniform")),
    "machine.cost": (("repro.machine.cost", "estimate_nbytes"),),
    "machine": (("repro.machine.simulator", "Machine.run"),),
    "core": (("repro.core.config", "partition"),
             ("repro.core.elementary", "parmap")),
    "serve.submit": (("repro.serve.service", "Service.submit"),),
    "serve.execute": (("repro.serve.service", "PlanEndpoint.execute"),
                      ("repro.serve.service", "StreamEndpoint.execute"),
                      ("repro.serve.service", "PyEndpoint.execute")),
    "stream": (("repro.stream.plan", "StreamPlan.run"),
               ("repro.stream.plan", "StreamPlan.run_seq"),
               ("repro.stream.plan", "MapPlan.run_chunk")),
    "machine.plan_exec": (("repro.machine.plan_exec", "execute_plan"),),
}
COUNT_ONLY = frozenset({"machine.plan_exec"})

#: Modules whose globals are rebound.
_REBIND_PREFIXES = ("repro", "benchmarks.e2e")


class Span(NamedTuple):
    id: int
    layer: str
    name: str
    start: float
    end: float
    parent: int | None
    ident: Any


def _probe_machine_run(result: Any) -> dict[str, float]:
    return {
        "machine.events": result.events,
        "machine.idle_s": result.total_idle_seconds,
        "machine.proc_s": result.makespan * result.nprocs,
    }


def _probe_tune(result: Any) -> dict[str, float]:
    return {"tune.rounds": result.rounds}


#: Values read off a wrapped call's result, summed per iteration.
_PROBES: dict[str, Callable[[Any], dict[str, float]]] = {
    "Machine.run": _probe_machine_run,
    "tune_expression": _probe_tune,
}


class Tracer:
    """Records spans from wrappers it installs around the layer functions."""

    def __init__(self, layers: dict[str, tuple[tuple[str, str], ...]] = LAYERS):
        self.layers = layers
        self.spans: list[Span] = []
        self.probed: list[tuple[str, float]] = []
        #: Layers none of whose functions exist (any more).
        self.absent: set[str] = set()
        #: Identifier given to spans opened on the calling thread.
        self.ident: Any = None
        self._ids = itertools.count()
        self._local = threading.local()
        #: ``(namespace, key, original)`` for every rebinding made.
        self._undo: list[tuple[Any, str, Any]] = []
        #: id(payload) -> [request_id, submit span id], filled by the
        #: ``Service.submit`` wrapper and read by the endpoint wrappers on
        #: the worker threads.
        self._requests: dict[int, list] = {}

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list[tuple[int, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        probe = _PROBES.get(name)
        count_only = layer in COUNT_ONLY
        is_submit = name == "Service.submit"
        is_execute = layer == "serve.execute"

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = self._stack()
            sid = next(self._ids)
            # A span inherits the identifier of the span that caused it.
            parent, ident = stack[-1] if stack else (None, self.ident)
            request = None
            if is_submit:
                # args = (service, endpoint, payload).  Keyed before the call
                # because a worker may start executing before it returns;
                # the cell is filled after it and read at drain time.
                payload = args[2] if len(args) > 2 else kwargs.get("payload")
                request = ident = self._requests[id(payload)] = [None, sid]
            elif is_execute:
                # args = (endpoint, payload, machines), on a worker thread.
                request = self._requests.get(id(args[1]))
                if request is not None:
                    ident = request
                    if parent is None:
                        parent = request[1]
            if count_only:
                now = time.perf_counter()
                self.spans.append(Span(sid, layer, name, now, now, parent,
                                       ident))
                return fn(*args, **kwargs)
            stack.append((sid, ident))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(Span(sid, layer, name, start, end, parent,
                                       ident))
            if is_submit:
                request[0] = result.request_id
            if probe is not None:
                self.probed.extend(probe(result).items())
            return result

        return wrapper

    def drain(self) -> tuple[list[Span], dict[str, float]]:
        """Spans and summed probe values recorded since the last drain.

        Call only while no wrapped function is running on any thread.
        """
        spans, self.spans = self.spans, []
        probed, self.probed = self.probed, []
        self._requests.clear()
        spans = [s._replace(ident=s.ident[0]) if isinstance(s.ident, list)
                 else s for s in spans]
        sums: dict[str, float] = {}
        for key, value in probed:
            sums[key] = sums.get(key, 0.0) + value
        return spans, sums

    # -- install / uninstall --------------------------------------------------

    def install(self) -> None:
        for layer, targets in self.layers.items():
            found = 0
            for modname, dotted in targets:
                try:
                    owner: Any = importlib.import_module(modname)
                    *path, leaf = dotted.split(".")
                    for part in path:
                        owner = getattr(owner, part)
                    original = vars(owner)[leaf]
                except (ImportError, AttributeError, KeyError):
                    continue
                found += 1
                wrapper = self._wrap(layer, dotted, original)
                if path:
                    self._rebind(owner, leaf, original, wrapper)
                    continue
                for name, module in list(sys.modules.items()):
                    if module is None or not name.startswith(_REBIND_PREFIXES):
                        continue
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._rebind(module, key, original, wrapper)
            if not found:
                self.absent.add(layer)

    def _rebind(self, namespace: Any, key: str, original: Any,
                wrapper: Any) -> None:
        setattr(namespace, key, wrapper)
        self._undo.append((namespace, key, original))

    def uninstall(self) -> None:
        while self._undo:
            namespace, key, original = self._undo.pop()
            setattr(namespace, key, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.uninstall()


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time in seconds of every span, keyed by span id.

    A child may run on another thread and outlive its parent, so each
    child is clipped to the parent's interval and overlapping children
    are merged before their cover is subtracted.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(
                (span.start, span.end))
    out: dict[int, float] = {}
    for span in spans:
        covered = 0.0
        reach = span.start
        for start, end in sorted(children.get(span.id, ())):
            start = max(start, reach)
            end = min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out[span.id] = (span.end - span.start) - covered
    return out


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per layer: ``calls``, ``total_ms`` and ``self_ms`` over ``spans``.

    ``total_ms`` counts a layer's outermost spans only, so a function
    that re-enters its own layer (``tuned_lower`` -> ``lower``) is not
    counted twice.
    """
    selfs = self_times(spans)
    by_id = {span.id: span for span in spans}
    out: dict[str, dict[str, float]] = {}
    for span in spans:
        row = out.setdefault(span.layer,
                             {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
        row["calls"] += 1
        row["self_ms"] += selfs[span.id] * 1e3
        ancestor = by_id.get(span.parent)
        while ancestor is not None and ancestor.layer != span.layer:
            ancestor = by_id.get(ancestor.parent)
        if ancestor is None:
            row["total_ms"] += (span.end - span.start) * 1e3
    return out
