"""The seven workloads.

Each workload owns its inputs (generated from the seed; the program only
ever sees the generated values), one timed ``iterate()`` and a ``check()``
that verifies the iteration's output *outside* the timed span against a
reference that is not the code under test.  Every iteration of a workload
repeats the same inputs, so the simulated statistics (``makespan_s``,
``messages``) are identical from iteration to iteration and independent
of how many iterations a run fits in.

The system is reached only through public entry points.  ``repro`` names
are imported at module level on purpose: the tracer rebinds them here the
same way it rebinds them inside ``repro`` itself.
"""

from __future__ import annotations

import dataclasses
import importlib
import operator
import time
from typing import Any

import numpy as np

from repro.apps.linalg import gauss_jordan_compiled, gauss_jordan_expression
from repro.apps.sort import (
    hyperquicksort_expression,
    hyperquicksort_machine,
    seq_quicksort,
)
from repro.core import parmap, partition
from repro.core.partition import Block
from repro.machine import AP1000, Comm, Machine, collectives
from repro.machine.events import ANY
from repro.machine.topology import FullyConnected, Hypercube, Ring
from repro.plan.opt import OptConfig
from repro.scl.compile import run_expression
from repro.scl.interp import evaluate
from repro.scl.nodes import Fold, Map, Rotate, Scan, compose_nodes
from repro.serve.service import (
    AdmissionError,
    PlanEndpoint,
    Service,
    StreamEndpoint,
)
from repro.stream.plan import Chunk, MapPlan
from repro.tune.workloads import tuned_sort_pipeline

# ``repro.plan`` re-exports a function named ``lower`` that shadows the
# submodule attribute, so the module is fetched by its dotted name.
_plan_lower = importlib.import_module("repro.plan.lower")
tuned_lower = _plan_lower.tuned_lower
clear_plan_cache = _plan_lower.clear_plan_cache


@dataclasses.dataclass
class Outcome:
    """What ``check()`` learned about one iteration."""

    #: Units (iterations or requests) that raised, were rejected or failed
    #: verification.
    failed: int
    #: Sum of the simulated makespans of the iteration's machine runs.
    makespan_s: float
    #: Simulated messages sent in the iteration.
    messages: int
    #: Extra per-iteration values for the per-layer section.
    extras: dict[str, float] = dataclasses.field(default_factory=dict)
    #: ``Ticket.record`` of every request that completed (serve workloads).
    records: list[dict] = dataclasses.field(default_factory=list)


@dataclasses.dataclass(frozen=True)
class PlanShape:
    """The expression a compiled workload lowers, for instruction counts."""

    expr: Any
    nprocs: int
    config: OptConfig


class Workload:
    """Base: one unit per iteration, no plan, nothing to release."""

    name = ""
    why = ""
    #: Units counted in ``attempted`` per iteration.
    units = 1
    #: Divisor from iteration time to the reported ``iter_ms``.
    time_divisor = 1
    #: The whole workload runs on the calling thread (cProfile can count it).
    single_threaded = True

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def iterate(self) -> Any:
        raise NotImplementedError

    def check(self, out: Any) -> Outcome:
        raise NotImplementedError

    def plan_shape(self) -> PlanShape | None:
        return None

    def close(self) -> None:
        pass


def _keys(seed: int, n: int) -> np.ndarray:
    return np.random.default_rng(seed).integers(
        0, 2**31, size=n).astype(np.int32)


def _sorted_blocks(values: np.ndarray, p: int):
    """``map SEQ_QUICKSORT . partition``: the prologue of the §5 program."""
    return parmap(seq_quicksort, partition(Block(p), values))


class _CompiledSort(Workload):
    """The §5 hyperquicksort expression through ``run_expression``."""

    dim = 0
    keys = 0
    record_trace = False

    def setup(self, seed: int) -> None:
        self.values = _keys(seed, self.keys)
        self.expected = np.sort(self.values)
        self.expr = hyperquicksort_expression(self.dim)
        self.machine = Machine(Hypercube(self.dim), spec=AP1000,
                               record_trace=self.record_trace)

    def iterate(self):
        blocks = _sorted_blocks(self.values, 1 << self.dim)
        return run_expression(self.expr, blocks, self.machine)

    def check(self, out) -> Outcome:
        blocks, res = out
        got = np.concatenate([np.asarray(b) for b in blocks])
        ok = np.array_equal(got, self.expected)
        return Outcome(0 if ok else 1, res.makespan, res.total_messages)

    def plan_shape(self) -> PlanShape:
        return PlanShape(self.expr, 1 << self.dim,
                         OptConfig.for_machine(self.machine))


class SortWarm(_CompiledSort):
    # The production profile and the ROADMAP's headline row: the plan cache
    # is warm, so plan.vexec precompute and machine replay do the work and
    # plan.lower none.
    name = "sort_warm"
    why = ("compiled hyperquicksort, p=256, 100000 keys, plan cache warm: "
           "plan.vexec precompute does ~60% and machine replay ~35%")
    dim = 8
    keys = 100_000


class SortTraced(_CompiledSort):
    # Forces the oracle path (plan interpreter + per-event engine + obs
    # sinks) that tracing and fault-injection users pay for; walker
    # unification and sampled tracing show here and nowhere else.
    name = "sort_traced"
    why = ("the same expression at p=64 on a record_trace machine: the "
           "plan interpreter, per-event engine and obs sinks do the work")
    dim = 6
    keys = 100_000
    record_trace = True

    def setup(self, seed: int) -> None:
        super().setup(seed)
        # The contract of the system: the traced interpreter run and the
        # untraced scripted run agree bit for bit.
        blocks_t, res_t = self.iterate()
        plain = Machine(Hypercube(self.dim), spec=AP1000)
        blocks_u, res_u = run_expression(
            self.expr, _sorted_blocks(self.values, 1 << self.dim), plain)
        same_values = all(np.array_equal(np.asarray(a), np.asarray(b))
                          for a, b in zip(blocks_t, blocks_u))
        if not (same_values and res_t.makespan == res_u.makespan
                and res_t.total_messages == res_u.total_messages):
            raise AssertionError(
                "traced interpreter run and untraced scripted run disagree: "
                f"makespan {res_t.makespan!r} vs {res_u.makespan!r}, messages "
                f"{res_t.total_messages} vs {res_u.total_messages}, "
                f"values equal: {same_values}")

    def check(self, out) -> Outcome:
        outcome = super().check(out)
        outcome.extras["obs.events"] = len(out[1].trace)
        return outcome


class GaussWarm(Workload):
    # The same layers as sort_warm used differently: a 96-trip Loop of
    # Collective broadcasts over uniform batched kernels at small p instead
    # of ragged Exchanges at large p, so a data-plane gain bought for one
    # shape at the other's cost shows here.
    name = "gauss_warm"
    why = ("compiled Gauss-Jordan n=96 p=8: a 96-trip loop of broadcasts "
           "over uniform batched kernels, the opposite shape to sort_warm")
    n = 96
    p = 8

    def setup(self, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.A = rng.normal(size=(self.n, self.n)) + self.n * np.eye(self.n)
        self.b = rng.normal(size=self.n)

    def iterate(self):
        return gauss_jordan_compiled(self.A, self.b, self.p)

    def check(self, out) -> Outcome:
        x, res = out
        ok = np.allclose(self.A @ x, self.b)
        return Outcome(0 if ok else 1, res.makespan, res.total_messages)

    def plan_shape(self) -> PlanShape:
        machine = Machine(FullyConnected(self.p), spec=AP1000)
        expr = gauss_jordan_expression(self.n, self.p, (self.n, self.n + 1))
        return PlanShape(expr, self.p, OptConfig.for_machine(machine))


class TuneCold(Workload):
    # The mirror image of sort_warm: tune, scl.rewrite, plan.lower, plan.opt
    # and plan.cost do nearly all the work and execution almost none, and
    # it is the only place compile time and searched-plan quality
    # (makespan_s) are both visible.
    name = "tune_cold"
    why = ("cold beam search of the tuned sort pipeline at p=32, then one "
           "run of the winner: compile layers do the work, execution little")
    dim = 5
    keys = 20_000
    repeats = 3
    beam = 4

    def setup(self, seed: int) -> None:
        p = 1 << self.dim
        self.values = _keys(seed, self.keys)
        self.expr = tuned_sort_pipeline(self.dim, repeats=self.repeats)
        self.machine = Machine(Hypercube(self.dim), spec=AP1000,
                               single_port=True)
        self.config = OptConfig.for_machine(self.machine)
        # The interpreter on the *original* expression is the reference for
        # whatever expression the search picks.
        self.expected = [np.asarray(b) for b in
                         evaluate(self.expr, _sorted_blocks(self.values, p))]
        self.winner = None

    def iterate(self):
        clear_plan_cache()
        tuned = tuned_lower(self.expr, 1 << self.dim, opt=self.config,
                            beam=self.beam)
        blocks = _sorted_blocks(self.values, 1 << self.dim)
        return tuned, run_expression(tuned.expr, blocks, self.machine)

    def check(self, out) -> Outcome:
        tuned, (blocks, res) = out
        self.winner = tuned.expr
        got = list(blocks)
        ok = len(got) == len(self.expected) and all(
            np.array_equal(np.asarray(a), b)
            for a, b in zip(got, self.expected))
        before, after = tuned.cost_before.seconds, tuned.cost_after.seconds
        return Outcome(0 if ok else 1, res.makespan, res.total_messages, {
            "tune.explored": tuned.explored,
            "tune.steps": len(tuned.steps),
            "tune.predicted_speedup": before / after if after else 1.0,
        })

    def plan_shape(self) -> PlanShape | None:
        if self.winner is None:
            return None
        return PlanShape(self.winner, 1 << self.dim, self.config)


class EngineRaw(Workload):
    # No plan layer at all: isolates machine.batch / simulator /
    # collectives.  Anything aimed at the compiled path must leave it flat.
    name = "engine_raw"
    why = ("four hand-written message-passing programs straight on "
           "Machine.run (ring, wildcard funnel, allreduce, Table 1 sort)")
    ring_p, ring_rounds = 1024, 50
    funnel_p, funnel_per_src = 256, 40
    allreduce_p, allreduce_reps = 256, 10
    table1_dim, table1_keys = 5, 100_000

    def setup(self, seed: int) -> None:
        self.values = _keys(seed, self.table1_keys)
        self.expected = np.sort(self.values)
        self.ring = Machine(Ring(self.ring_p), spec=AP1000)
        self.funnel = Machine(FullyConnected(self.funnel_p), spec=AP1000)
        self.allreduce = Machine(Hypercube.of_size(self.allreduce_p),
                                 spec=AP1000)

    def _ring_program(self, env):
        right = (env.pid + 1) % env.nprocs
        left = (env.pid - 1) % env.nprocs
        total = 0
        for r in range(self.ring_rounds):
            yield env.work(ops=50)
            yield env.send(right, env.pid + r, tag=1, nbytes=64)
            msg = yield env.recv(left, tag=1)
            total += msg.payload
        return total

    def _funnel_program(self, env):
        if env.pid == 0:
            total = 0
            for _ in range((env.nprocs - 1) * self.funnel_per_src):
                msg = yield env.recv(ANY, tag=ANY)
                total += msg.payload
            return total
        for _ in range(self.funnel_per_src):
            yield env.work(ops=20 * env.pid)
            yield env.send(0, env.pid, tag=env.pid % 5, nbytes=16)
        return None

    def _allreduce_program(self, env):
        comm = Comm.world(env)
        acc = float(env.pid)
        for _ in range(self.allreduce_reps):
            acc = yield from collectives.allreduce(comm, acc, operator.add,
                                                   nbytes=8)
        return acc

    def iterate(self):
        runs = {}
        for part, thunk in (
                ("ring", lambda: self.ring.run(self._ring_program)),
                ("funnel", lambda: self.funnel.run(self._funnel_program)),
                ("allreduce",
                 lambda: self.allreduce.run(self._allreduce_program)),
                ("table1", lambda: hyperquicksort_machine(
                    self.values, self.table1_dim))):
            t0 = time.perf_counter()
            result = thunk()
            runs[part] = (result, (time.perf_counter() - t0) * 1e3)
        return runs

    def check(self, out) -> Outcome:
        ring, funnel, allreduce = (out[k][0] for k in
                                   ("ring", "funnel", "allreduce"))
        sorted_values, table1 = out["table1"][0]
        p, rounds = self.ring_p, self.ring_rounds
        tri = rounds * (rounds - 1) // 2
        fp, ap = self.funnel_p, self.allreduce_p
        ok = (
            ring.values == [rounds * ((r - 1) % p) + tri for r in range(p)]
            and funnel.values[0] == self.funnel_per_src * fp * (fp - 1) // 2
            and allreduce.values == [float(ap * (ap - 1) // 2)
                                     * float(ap) ** (self.allreduce_reps - 1)
                                     ] * ap
            and np.array_equal(sorted_values, self.expected))
        results = (ring, funnel, allreduce, table1)
        return Outcome(
            0 if ok else 1,
            sum(r.makespan for r in results),
            sum(r.total_messages for r in results),
            {f"machine.{part}_ms": ms for part, (_r, ms) in out.items()})


# -- the skeleton service ----------------------------------------------------

SERVE_NPROCS = 4
SERVE_WORKERS = 2
SERVE_MAX_QUEUE = 256
SERVE_TENANTS = {"free": 1.0, "pro": 3.0}
#: The 10-slot endpoint x tenant order of ``repro.serve.cli.default_mix``.
SERVE_MIX = (
    ("scan-add", "pro"), ("sumsq", "free"), ("stream-scan", "pro"),
    ("scan-add", "free"), ("sumsq-tuned", "pro"), ("sumsq", "pro"),
    ("scan-add", "pro"), ("stream-scan", "free"), ("sumsq-tuned", "free"),
    ("sumsq", "pro"),
)


def _square(x: float) -> float:
    return x * x


def _halve(x: float) -> float:
    return x * 0.5


def build_service() -> Service:
    """The four default-registry endpoints, rebuilt here so the benchmark
    does not depend on the CLI module that also defines them."""
    service = Service(workers=SERVE_WORKERS, max_queue=SERVE_MAX_QUEUE,
                      tenants=dict(SERVE_TENANTS))
    service.register(PlanEndpoint("scan-add", Scan(operator.add),
                                  nprocs=SERVE_NPROCS))
    service.register(PlanEndpoint(
        "sumsq", compose_nodes(Fold(operator.add), Map(_square)),
        nprocs=SERVE_NPROCS))
    service.register(PlanEndpoint(
        "sumsq-tuned",
        compose_nodes(Fold(operator.add), Map(_halve), Map(_square),
                      Rotate(1), Rotate(-1)),
        nprocs=SERVE_NPROCS, tune=True))
    service.register(StreamEndpoint(
        "stream-scan", (Chunk(SERVE_NPROCS), MapPlan(Scan(operator.add)))))
    return service


def _serve_reference(endpoint: str, payload: list[float]) -> np.ndarray:
    """Closed-form answer of one request, in numpy."""
    xs = np.asarray(payload, dtype=float)
    if endpoint == "scan-add":
        return np.cumsum(xs)
    if endpoint == "sumsq":
        return np.asarray(np.sum(xs * xs))
    if endpoint == "sumsq-tuned":
        return np.asarray(np.sum(xs * xs * 0.5))
    return np.cumsum(xs.reshape(-1, SERVE_NPROCS), axis=1)


class _Serve(Workload):
    """A seeded request list against the rebuilt default registry."""

    single_threaded = False

    def setup(self, seed: int) -> None:
        self.service = build_service().start()
        self.requests_list = []
        for i in range(self.units):
            name, tenant = SERVE_MIX[i % len(SERVE_MIX)]
            payload = self.service.endpoint(name).default_payload(
                np.random.default_rng((seed, i)))
            self.requests_list.append(
                (name, tenant, payload, _serve_reference(name, payload)))

    def _submit(self, name: str, tenant: str, payload: list[float]):
        """A ticket, or the exception that refused the request."""
        try:
            # A fresh list per request: the tracer keys a request's spans
            # on the payload object while it is in flight.
            return self.service.submit(name, list(payload), tenant=tenant)
        except AdmissionError as exc:
            return exc

    def check(self, tickets) -> Outcome:
        failed = 0
        rejected = 0
        events = 0
        makespan = 0.0
        records = []
        for ticket, (_n, _t, _p, expected) in zip(tickets,
                                                  self.requests_list):
            try:
                if isinstance(ticket, Exception):
                    rejected += 1
                    raise ticket
                value = ticket.result(timeout=60.0)
                good = np.allclose(np.asarray(value, dtype=float), expected)
            except Exception:
                good = False
            else:
                records.append(ticket.record)
                events += ticket.record["events"]
                makespan += ticket.record["virtual_seconds"]
            failed += not good
        # The service reports sends + receives; every message is one of each.
        return Outcome(failed, makespan, events // 2,
                       {"serve.rejected": rejected}, records)

    def close(self) -> None:
        self.service.stop()


class ServeBurst(_Serve):
    # The queue is always full: throughput at saturation, where request
    # coalescing or cheaper dispatch pays.
    name = "serve_burst"
    why = ("200-request bursts into the four-endpoint service, then drain: "
           "throughput at saturation, latency is almost all queue wait")
    units = 200

    def iterate(self):
        tickets = [self._submit(n, t, p)
                   for n, t, p, _e in self.requests_list]
        self.service.wait_idle()
        return tickets


class ServeSolo(_Serve):
    # No queue ever forms: a linger, batching window or extra hand-off
    # added for serve_burst shows here as a loss.
    name = "serve_solo"
    why = ("the same service one request at a time in blocks of 20: no "
           "queue forms, so hand-off and service time are the whole cost")
    units = 20
    time_divisor = 20

    def iterate(self):
        tickets = []
        for n, t, p, _e in self.requests_list:
            ticket = self._submit(n, t, p)
            if not isinstance(ticket, Exception):
                try:
                    ticket.result(timeout=60.0)
                except Exception:
                    pass  # check() reads the error from the ticket
            tickets.append(ticket)
        return tickets


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (SortWarm, GaussWarm, TuneCold, EngineRaw,
                              SortTraced, ServeBurst, ServeSolo)}
