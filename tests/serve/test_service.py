"""Tests for repro.serve.service — registry, scheduling, admission."""

from __future__ import annotations

import operator
import threading
import time

import pytest

from repro.errors import SkeletonError
from repro.obs import MemorySink
from repro.scl import Fold, Map, Rotate, Scan, compose_nodes
from repro.serve import (
    AdmissionError,
    MetricsRegistry,
    PlanEndpoint,
    PyEndpoint,
    Service,
    SloMonitor,
    StreamEndpoint,
)
from repro.stream.plan import (
    Chunk,
    MapPlan,
    MapSeq,
    Source,
    Stop,
    StreamPlan,
    StreamRunStats,
    UnChunk,
)


def _refuse_13(x):
    if x == 13:
        raise ValueError("13 refused")
    return x


def make_service(**kwargs):
    svc = Service(**kwargs)
    svc.register(PlanEndpoint("scan-add", Scan(operator.add), nprocs=4))
    svc.register(PlanEndpoint("fold-add", Fold(operator.add), nprocs=4))
    return svc


class TestRegistry:
    def test_register_and_list(self):
        svc = make_service()
        assert svc.endpoints == ["fold-add", "scan-add"]

    def test_duplicate_name_rejected(self):
        svc = make_service()
        with pytest.raises(SkeletonError, match="scan-add"):
            svc.register(PyEndpoint("scan-add", lambda p: p))

    def test_unknown_endpoint_lookup(self):
        with pytest.raises(SkeletonError, match="nope"):
            make_service().endpoint("nope")

    def test_endpoint_validation(self):
        with pytest.raises(SkeletonError, match="nprocs"):
            PlanEndpoint("x", Scan(operator.add), nprocs=0)


class TestExecution:
    def test_plan_endpoint_result(self):
        with make_service() as svc:
            ticket = svc.submit("scan-add", [1.0, 2.0, 3.0, 4.0])
            assert ticket.result(timeout=30) == pytest.approx(
                [1.0, 3.0, 6.0, 10.0])
            assert ticket.done()
            assert ticket.record["status"] == "ok"
            assert ticket.record["events"] > 0

    def test_fold_endpoint_scalar(self):
        with make_service() as svc:
            assert svc.submit("fold-add", [1.0, 2.0, 3.0, 4.0]).result(
                timeout=30) == pytest.approx(10.0)

    def test_stream_endpoint(self):
        svc = Service(workers=2)
        svc.register(StreamEndpoint(
            "s", (Chunk(2), MapPlan(Fold(operator.add)))))
        with svc:
            out = svc.submit("s", [1.0, 2.0, 3.0]).result(timeout=30)
        assert out == pytest.approx([3.0, 3.0])

    def test_wrong_payload_size_is_error_completion(self):
        with make_service() as svc:
            ticket = svc.submit("scan-add", [1.0, 2.0])  # needs 4
            with pytest.raises(SkeletonError):
                ticket.result(timeout=30)
            assert ticket.record["status"] == "error"
        assert svc.summary()["errors"] == 1

    def test_default_payload_round_trip(self):
        import numpy as np

        with make_service() as svc:
            endpoint = svc.endpoint("scan-add")
            payload = endpoint.default_payload(np.random.default_rng(0))
            assert len(payload) == 4
            assert svc.submit("scan-add", payload).result(timeout=30)

    def test_results_independent_across_requests(self):
        with make_service(workers=4) as svc:
            tickets = [(i, svc.submit("fold-add",
                                      [float(i)] * 4)) for i in range(32)]
            for i, ticket in tickets:
                assert ticket.result(timeout=30) == pytest.approx(4.0 * i)


class TestAdmissionControl:
    def test_not_running_rejected(self):
        svc = make_service()
        with pytest.raises(AdmissionError) as excinfo:
            svc.submit("scan-add", [1.0] * 4)
        assert excinfo.value.rejection.reason == "not-running"

    def test_unknown_endpoint_rejected(self):
        with make_service() as svc:
            with pytest.raises(AdmissionError) as excinfo:
                svc.submit("nope")
            assert excinfo.value.rejection.reason == "unknown-endpoint"

    def test_queue_full_sheds_with_structured_rejection(self):
        release = threading.Event()
        svc = Service(workers=1, max_queue=2)
        svc.register(PyEndpoint("block", lambda p: release.wait(10)))
        with svc:
            tickets = [svc.submit("block")]  # taken by the worker
            # Fill the queue bound, then overflow it.
            deadline = time.monotonic() + 5
            shed = []
            while len(shed) < 3 and time.monotonic() < deadline:
                try:
                    tickets.append(svc.submit("block", tenant="t1"))
                except AdmissionError as exc:
                    shed.append(exc.rejection)
            release.set()
            for ticket in tickets:
                ticket.result(timeout=30)
        assert len(shed) == 3
        rejection = shed[0]
        assert rejection.reason == "queue-full"
        assert rejection.tenant == "t1"
        assert rejection.queue_depth == 2
        assert rejection.max_queue == 2
        d = rejection.to_dict()
        assert d["reason"] == "queue-full" and "request_id" in d
        assert svc.summary()["rejected_by_reason"]["queue-full"] == 3


class TestSloShedding:
    @staticmethod
    def _slow_service(**slo_kwargs):
        """One worker whose endpoint takes ~5 ms — far over the 1 ms
        target — so the rolling p99 breaches as soon as the window has
        ``min_samples`` completions."""
        slo = SloMonitor(0.001, **{"window_s": 0.5, "min_samples": 4,
                                   **slo_kwargs})
        svc = Service(workers=1, max_queue=64, slo=slo)
        svc.register(PyEndpoint("slow", lambda p: time.sleep(0.005)))
        return svc, slo

    def test_sheds_on_p99_breach_with_structured_rejection(self):
        svc, slo = self._slow_service()
        with svc:
            for _ in range(4):
                svc.submit("slow").result(timeout=30)
            with pytest.raises(AdmissionError) as excinfo:
                svc.submit("slow", tenant="t1")
        rejection = excinfo.value.rejection
        assert rejection.reason == "slo-shed"
        assert rejection.tenant == "t1"
        assert svc.summary()["rejected_by_reason"]["slo-shed"] == 1
        assert slo.breach_verdicts >= 1

    def test_recovers_once_the_window_ages_out(self):
        svc, slo = self._slow_service()
        with svc:
            for _ in range(4):
                svc.submit("slow").result(timeout=30)
            with pytest.raises(AdmissionError):
                svc.submit("slow")
            # A quiet window_s later every slow sample has aged out and
            # admission is open again (the thin window never sheds).
            time.sleep(slo.window_s + 0.05)
            ticket = svc.submit("slow")
            assert ticket.result(timeout=30) is None
        summary = svc.summary()
        assert summary["slo"]["shed"] == 1
        assert summary["completed"] == 5

    def test_thin_window_never_sheds(self):
        svc, _ = self._slow_service(min_samples=50)
        with svc:
            for _ in range(10):
                svc.submit("slow").result(timeout=30)
            svc.submit("slow").result(timeout=30)  # still admitted
        assert svc.summary()["rejected_by_reason"] == {}

    def test_summary_slo_block(self):
        svc, _ = self._slow_service()
        with svc:
            for _ in range(4):
                svc.submit("slow").result(timeout=30)
            summary = svc.summary()
        slo = summary["slo"]
        assert slo["samples"] == 4
        assert slo["p99_ms"] > slo["p99_target_ms"] == 1.0
        assert slo["breached"] is True
        assert svc.summary()["slo"] is not None
        assert make_service().summary()["slo"] is None


class TestMetricsWiring:
    def test_requests_latency_and_gauges(self):
        reg = MetricsRegistry()
        with make_service(metrics=reg) as svc:
            for _ in range(3):
                svc.submit("scan-add", [1.0] * 4,
                           tenant="pro").result(timeout=30)
            svc.submit("fold-add", [1.0] * 4).result(timeout=30)
        snap = reg.snapshot()
        assert snap.value("serve_requests_total",
                          {"endpoint": "scan-add", "tenant": "pro",
                           "status": "ok"}) == 3.0
        assert snap.value("serve_requests_total",
                          {"endpoint": "fold-add", "tenant": "default",
                           "status": "ok"}) == 1.0
        latency = [s for s in snap.series
                   if s["name"] == "serve_request_latency_seconds"
                   and s["labels"]["endpoint"] == "scan-add"]
        assert sum(s["count"] for s in latency) == 3
        assert snap.value("serve_queue_depth") == 0.0
        assert snap.value("serve_in_flight") == 0.0
        # The plan-cache gauges ride along on any instrumented service.
        assert snap.value("plan_cache_hits") is not None

    def test_rejections_are_labelled_by_reason(self):
        reg = MetricsRegistry()
        release = threading.Event()
        svc = Service(workers=1, max_queue=1, metrics=reg)
        svc.register(PyEndpoint("block", lambda p: release.wait(10)))
        with svc:
            tickets = [svc.submit("block")]
            deadline = time.monotonic() + 5
            shed = 0
            while shed < 2 and time.monotonic() < deadline:
                try:
                    tickets.append(svc.submit("block", tenant="t1"))
                except AdmissionError:
                    shed += 1
            release.set()
            for t in tickets:
                t.result(timeout=30)
        assert reg.snapshot().value(
            "serve_rejections_total",
            {"endpoint": "block", "tenant": "t1",
             "reason": "queue-full"}) == 2.0

    def test_slo_gauges_exported_when_both_given(self):
        reg = MetricsRegistry()
        slo = SloMonitor(0.001, window_s=0.5, min_samples=4)
        svc = Service(workers=1, slo=slo, metrics=reg)
        svc.register(PyEndpoint("slow", lambda p: time.sleep(0.005)))
        with svc:
            for _ in range(4):
                svc.submit("slow").result(timeout=30)
            snap = reg.snapshot()
        assert snap.value("serve_slo_p99_target_ms") == 1.0
        assert snap.value("serve_slo_rolling_p99_ms") > 1.0
        assert snap.value("serve_slo_breached") == 1.0

    def test_uninstrumented_service_keeps_plain_endpoints_working(self):
        # A 2-arg execute() (the pre-metrics protocol) must keep working
        # when the service is not instrumented.
        class Legacy:
            name = "legacy"
            nprocs = 1

            def execute(self, payload, machines):
                return payload, 0, 0.0

        svc = Service(workers=1)
        svc.register(Legacy())
        with svc:
            assert svc.submit("legacy", "x").result(timeout=30) == "x"


class TestFairScheduling:
    @staticmethod
    def _gate_service(weights):
        """One worker; the 'gate' endpoint blocks on an Event payload
        (quick no-op on None).  Holding the worker on a blocked prime
        request while the contended batch enqueues makes the dispatch
        order the pure stride schedule — fully deterministic."""
        svc = Service(workers=1, max_queue=10_000, tenants=weights)
        svc.register(PyEndpoint(
            "gate", lambda p: p.wait(10) if p is not None else None))
        return svc

    @staticmethod
    def _hold_worker(svc, tenant):
        gate = threading.Event()
        prime = svc.submit("gate", gate, tenant=tenant)
        deadline = time.monotonic() + 5
        while svc.queue_depth() > 0:  # worker has dequeued the prime
            assert time.monotonic() < deadline
            time.sleep(0.001)
        return gate, prime

    def _run_contended(self, weights, per_tenant=20):
        svc = self._gate_service(weights)
        with svc:
            gate, prime = self._hold_worker(svc, list(weights)[0])
            tickets = [svc.submit("gate", None, tenant=tenant)
                       for _ in range(per_tenant) for tenant in weights]
            gate.set()
            prime.result(timeout=30)
            for ticket in tickets:
                ticket.result(timeout=60)
        order = [rec["tenant"] for rec in svc.completions]
        return order[1:]  # drop the priming request

    def test_weighted_shares_under_contention(self):
        order = self._run_contended({"free": 1.0, "pro": 3.0})
        # Stride scheduling: pro (weight 3) gets exactly 6 of every 8
        # dispatches while both tenants are backlogged.
        window = order[:8]
        assert window.count("pro") == 6
        assert window.count("free") == 2

    def test_equal_weights_alternate(self):
        order = self._run_contended({"a": 1.0, "b": 1.0})
        window = order[:10]
        assert window.count("a") == 5
        assert window.count("b") == 5

    def test_idle_tenant_does_not_bank_credit(self):
        """A tenant that sat idle must not burst ahead of active ones
        when it returns: it resumes at the current virtual time."""
        svc = self._gate_service({"active": 1.0, "lazy": 1.0})
        with svc:
            gate, prime = self._hold_worker(svc, "active")
            first = [svc.submit("gate", None, tenant="active")
                     for _ in range(20)]
            gate.set()
            prime.result(timeout=30)
            for t in first:
                t.result(timeout=30)
            # "lazy" arrives after "active" consumed 21 dispatches; both
            # now enqueue 10 each -> dispatches must interleave 1:1, not
            # give lazy 10 catch-up dispatches first.
            gate2, prime2 = self._hold_worker(svc, "active")
            second = [svc.submit("gate", None, tenant=tenant)
                      for _ in range(10) for tenant in ("active", "lazy")]
            gate2.set()
            prime2.result(timeout=30)
            for t in second:
                t.result(timeout=30)
        tail = [r["tenant"] for r in svc.completions][22:]
        assert tail[:8].count("lazy") == 4

    def test_unknown_tenant_gets_default_weight(self):
        with make_service() as svc:
            svc.submit("fold-add", [1.0] * 4,
                       tenant="walk-in").result(timeout=30)
        assert "walk-in" in svc.summary()["by_tenant"]


def _square(x):
    return x * x


def _halve(x):
    return x * 0.5


def _typed(value):
    """``value`` with the type of every element spelled out: ``==`` on
    these tells ``1`` from ``1.0``."""
    if isinstance(value, (list, tuple)):
        return type(value), [_typed(v) for v in value]
    return type(value), value


class TestCoalescing:
    """A worker that takes a request for a plan or stream endpoint also
    takes that endpoint's other queued requests and runs them as copies
    of one plan in one walk (a stream endpoint: one walk per chunk size
    and ``MapPlan`` stage); each ticket still gets exactly its solo
    run."""

    ENDPOINTS = {
        "scan": PlanEndpoint("scan", Scan(operator.add), nprocs=4),
        "fold": PlanEndpoint("fold", Fold(operator.add), nprocs=4),
        "tuned": PlanEndpoint(
            "tuned", compose_nodes(Fold(operator.add), Map(_halve),
                                   Map(_square), Rotate(1), Rotate(-1)),
            nprocs=4, tune=True),
        "one": PlanEndpoint("one", Scan(operator.add), nprocs=1),
    }

    @staticmethod
    def _payloads(nprocs):
        """Int and float payloads, and one of the wrong length."""
        good = [[i + r for r in range(nprocs)] if i % 2 else
                [float(i + r) * 1.5 for r in range(nprocs)]
                for i in range(7)]
        return good[:3] + [[1] * (nprocs + 1)] + good[3:]

    @staticmethod
    def _queued(submissions, *endpoints, metrics=None):
        """Hold the one worker, queue ``submissions`` (endpoint name,
        payload, tenant) for ``endpoints``, then release it; returns the
        service and the tickets, all done."""
        svc = Service(workers=1, max_queue=10_000, metrics=metrics,
                      tenants={"free": 1.0, "pro": 3.0})
        svc.register(PyEndpoint("gate", lambda gate: gate.wait(10)))
        for endpoint in endpoints:
            svc.register(endpoint)
        with svc:
            gate, prime = TestFairScheduling._hold_worker(svc, "free")
            tickets = [svc.submit(name, payload, tenant=tenant)
                       for name, payload, tenant in submissions]
            gate.set()
            prime.result(timeout=30)
            for ticket in tickets:
                assert ticket._done.wait(30)
        return svc, tickets

    @pytest.mark.parametrize("name", sorted(ENDPOINTS))
    def test_every_ticket_is_its_solo_run(self, name):
        endpoint = self.ENDPOINTS[name]
        payloads = self._payloads(endpoint.nprocs)
        _svc, tickets = self._queued(
            [(name, p, ("free", "pro")[i % 2])
             for i, p in enumerate(payloads)], endpoint)
        machines = {}
        for payload, ticket in zip(payloads, tickets):
            assert ticket.record["batch"] == len(payloads)
            try:
                value, events, makespan = endpoint.execute(payload,
                                                           machines)
            except SkeletonError as exc:
                # the wrong-length payload fails alone, as it does solo
                with pytest.raises(SkeletonError) as err:
                    ticket.result(0)
                assert str(err.value) == str(exc)
                assert ticket.record["status"] == "error"
                continue
            assert _typed(ticket.result(0)) == _typed(value)
            assert ticket.record["events"] == events
            assert ticket.record["virtual_seconds"] == makespan

    STREAMS = {
        "stream-scan": StreamEndpoint(
            "stream-scan", (Chunk(4), MapPlan(Scan(operator.add)))),
        "stream-fold": StreamEndpoint(
            "stream-fold", (Chunk(4), MapPlan(Fold(operator.add)))),
        "stream-seq": StreamEndpoint(
            "stream-seq", (Chunk(3), MapPlan(Scan(operator.add)), UnChunk(),
                           MapSeq(_halve))),
        "stream-stop": StreamEndpoint(
            "stream-stop", (Chunk(4), MapPlan(Scan(operator.add)), UnChunk(),
                            Stop(operator.add, 0, lambda acc: acc > 60))),
    }

    @staticmethod
    def _stream_payloads():
        """Int and float items; lengths that leave short last chunks of
        one size and another, none at all, and an empty stream."""
        return [[i + k for k in range(n)] if i % 2 else
                [float(i + k) * 1.5 for k in range(n)]
                for i, n in enumerate((8, 10, 0, 5, 12, 7))]

    @pytest.mark.parametrize("name", sorted(STREAMS))
    def test_every_stream_ticket_is_its_solo_run(self, name):
        endpoint = self.STREAMS[name]
        payloads = self._stream_payloads()
        _svc, tickets = self._queued(
            [(name, p, ("free", "pro")[i % 2])
             for i, p in enumerate(payloads)], endpoint)
        machines = {}
        for payload, ticket in zip(payloads, tickets):
            assert ticket.record["batch"] == len(payloads)
            value, events, makespan = endpoint.execute(payload, machines)
            stats = StreamRunStats()
            ref = list(StreamPlan(Source.of(payload),
                                  endpoint.ops).run_seq(stats=stats))
            assert _typed(value) == _typed(ref)
            assert (events, makespan) == (stats.sim_events,
                                          stats.virtual_seconds)
            assert _typed(ticket.result(0)) == _typed(value)
            assert ticket.record["events"] == events
            assert ticket.record["virtual_seconds"] == makespan

    @pytest.mark.parametrize("name", ["stream-scan", "stream-stop"])
    def test_a_none_stream_payload_fails_alone(self, name):
        endpoint = self.STREAMS[name]
        payloads = self._stream_payloads()
        payloads.insert(2, None)
        _svc, tickets = self._queued([(name, p, "pro") for p in payloads],
                                     endpoint)
        with pytest.raises(SkeletonError) as solo:
            endpoint.execute(None, {})
        for payload, ticket in zip(payloads, tickets):
            assert ticket.record["batch"] == len(payloads)
            if payload is not None:
                assert _typed(ticket.result(0)) == _typed(
                    endpoint.execute(payload, {})[0])
                continue
            with pytest.raises(SkeletonError) as err:
                ticket.result(0)
            assert str(err.value) == str(solo.value)
            assert ticket.record["status"] == "error"

    def test_stream_batch_counters_are_the_solo_runs_sum(self):
        """A batch leaves every ``stream_*_total`` counter at the sum of
        the requests' solo runs, except ``stream_walks_total``: one walk
        per chunk size, 4 and the short lasts' 1, 2 and 3."""
        endpoint = self.STREAMS["stream-scan"]
        payloads = [p for p in self._stream_payloads() if p]
        reg = MetricsRegistry()
        _svc, tickets = self._queued([("stream-scan", p, "pro")
                                      for p in payloads], endpoint,
                                     metrics=reg)
        assert [t.record["batch"] for t in tickets] == [len(payloads)] * 5
        solo = []
        for payload in payloads:
            stats = StreamRunStats()
            list(StreamPlan(Source.of(payload),
                            endpoint.ops).run_seq(stats=stats))
            solo.append(stats)
        snapshot = reg.snapshot()

        def counter(name):
            return snapshot.value(name, {"stream": "stream-scan"})

        assert counter("stream_chunks_total") == sum(s.chunks for s in solo)
        assert counter("stream_plan_runs_total") == sum(
            s.plan_runs for s in solo)
        assert counter("stream_sim_events_total") == sum(
            s.sim_events for s in solo)
        assert counter("stream_walks_total") == 4
        assert sum(s.walks for s in solo) == 8

    def test_a_failed_stream_batch_counts_each_request_once(self):
        """A batch with one failing stream request is re-run request by
        request, and every ``stream_*_total`` counter reads the sum of
        the solo runs — the failing one's up to its failure — not the
        batch's counts on top of them."""
        endpoint = StreamEndpoint("s", (Chunk(4), MapPlan(Scan(operator.add)),
                                        UnChunk(), MapSeq(_refuse_13)))
        payloads = [[1, 2, 3, 4, 5], [13, 0, 0, 0], [2] * 8, [3, 3, 3]]
        reg = MetricsRegistry()
        _svc, tickets = self._queued([("s", p, "pro") for p in payloads],
                                     endpoint, metrics=reg)
        assert [t.record["batch"] for t in tickets] == [4] * 4
        assert [t.record["status"] for t in tickets] == ["ok", "error",
                                                         "ok", "ok"]
        solo = [StreamRunStats() for _ in payloads]
        for payload, stats in zip(payloads, solo):
            try:
                list(StreamPlan(Source.of(payload),
                                endpoint.ops).run_seq(stats=stats))
            except ValueError:
                assert payload[0] == 13
        snapshot = reg.snapshot()
        for name, field in (("stream_chunks_total", "chunks"),
                            ("stream_plan_runs_total", "plan_runs"),
                            ("stream_sim_events_total", "sim_events"),
                            ("stream_walks_total", "walks")):
            assert snapshot.value(name, {"stream": "s"}) == sum(
                getattr(st, field) for st in solo), name

    def test_completion_order_is_the_stride_order(self):
        """Inside a batch, tickets complete in the order the stride
        schedule dispatches the same requests one by one."""
        submissions = [("scan", [float(i)] * 4, tenant)
                       for i in range(6) for tenant in ("free", "pro")]
        svc, _tickets = self._queued(submissions, self.ENDPOINTS["scan"])
        solo, _tickets = self._queued(submissions,
                                      PyEndpoint("scan", lambda p: p))
        order = [(r["request_id"], r["tenant"]) for r in svc.completions]
        assert [r["batch"] for r in svc.completions[1:]] == [12] * 12
        assert [r["batch"] for r in solo.completions] == [1] * 13
        assert order == [(r["request_id"], r["tenant"])
                         for r in solo.completions]
        assert [t for _, t in order[1:9]].count("pro") == 6

    def test_a_batch_with_mixed_tenant_queues(self):
        """With other endpoints' requests queued between, a batch leaves
        in the stride order of its endpoint's requests alone: each
        tenant's scans in FIFO order, and free's fold, passed by its
        later scan, keeps its place at the head of free's queue."""
        submissions = [("scan", [1.0] * 4, "free"), ("scan", [2.0] * 4, "pro"),
                       ("fold", [3.0] * 4, "free"), ("scan", [4.0] * 4, "pro"),
                       ("scan", [5.0] * 4, "free"), ("scan", [6.0] * 4, "pro")]
        svc, _tickets = self._queued(submissions, self.ENDPOINTS["scan"],
                                     self.ENDPOINTS["fold"])
        order = [(r["request_id"], r["endpoint"], r["batch"])
                 for r in svc.completions[1:]]
        assert order == [(1, "scan", 5), (2, "scan", 5), (4, "scan", 5),
                         (6, "scan", 5), (5, "scan", 5), (3, "fold", 1)]
        scans = [(name, payload, tenant)
                 for name, payload, tenant in submissions if name == "scan"]
        solo, _tickets = self._queued(scans, PyEndpoint("scan", lambda p: p))
        assert [r["tenant"] for r in svc.completions[1:6]] == \
            [r["tenant"] for r in solo.completions[1:]]

    def test_a_batch_that_raises_reruns_each_request_alone(self):
        class Broken(PlanEndpoint):
            def execute_many(self, payloads, machines, metrics=None):
                raise RuntimeError("the batch broke")

        endpoint = Broken("scan", Scan(operator.add), nprocs=4)
        payloads = self._payloads(4)
        _svc, tickets = self._queued([("scan", p, "pro") for p in payloads],
                                     endpoint)
        bad = [t for t in tickets if t.record["status"] == "error"]
        assert len(bad) == 1 and "got 5" in bad[0].record["error"]
        for payload, ticket in zip(payloads, tickets):
            assert ticket.record["batch"] == len(payloads)
            if ticket not in bad:
                assert _typed(ticket.result(0)) == _typed(
                    endpoint.execute(payload, {})[0])

    def test_workers_racing_on_a_tuned_endpoint_search_once(self):
        """A worker that asks for the tuned plan while another searches
        for it waits for that winner: one miss, every other lookup a
        hit."""
        from repro.plan.lower import clear_plan_cache, plan_cache_stats

        endpoint = self.ENDPOINTS["tuned"]
        clear_plan_cache()
        start = threading.Barrier(4)
        values = []

        def worker():
            start.wait()
            values.append(endpoint.execute([1.0, 2.0, 3.0, 4.0], {})[0])

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
        stats = plan_cache_stats()
        assert values == [15.0] * 4
        assert (stats["tuned_misses"], stats["tuned_hits"]) == (1, 3)

    def test_metrics_and_records_are_per_ticket(self):
        reg = MetricsRegistry()
        svc, tickets = self._queued([("fold", [1.0] * 4, "pro")] * 5,
                                    self.ENDPOINTS["fold"], metrics=reg)
        snapshot = reg.snapshot()
        assert snapshot.value("serve_requests_total",
                              {"endpoint": "fold", "tenant": "pro",
                               "status": "ok"}) == 5.0
        records = svc.completions[1:]
        assert len({r["request_id"] for r in records}) == 5
        assert len({r["service_s"] for r in records}) == 1
        for record in records:
            assert record["latency_s"] == pytest.approx(
                record["queue_s"] + record["service_s"])
        assert svc.summary()["by_endpoint"]["fold"]["count"] == 5


class TestObservability:
    def test_sink_records_requests_and_rejections(self):
        sink = MemorySink()
        svc = Service(workers=1, max_queue=1, sink=sink)
        release = threading.Event()
        svc.register(PyEndpoint("block", lambda p: release.wait(10)))
        with svc:
            tickets = [svc.submit("block")]
            deadline = time.monotonic() + 5
            shed = 0
            while shed < 1 and time.monotonic() < deadline:
                try:
                    tickets.append(svc.submit("block"))
                except AdmissionError:
                    shed += 1
            release.set()
            for t in tickets:
                t.result(timeout=30)
        kinds = [e.kind for e in sink.events]
        assert kinds.count("request") == len(tickets)
        assert kinds.count("reject") == shed
        request_event = next(e for e in sink.events if e.kind == "request")
        assert request_event.detail["endpoint"] == "block"
        assert request_event.span.label == "block"

    def test_summary_shape(self):
        with make_service() as svc:
            for _ in range(5):
                svc.submit("scan-add", [1.0] * 4).result(timeout=30)
        summary = svc.summary()
        assert summary["completed"] == 5
        assert summary["errors"] == 0
        assert summary["latency_ms"]["count"] == 5
        assert summary["latency_ms"]["p99_ms"] >= summary["latency_ms"]["p50_ms"]
        assert "scan-add" in summary["by_endpoint"]
        assert summary["sim_events"] > 0

    def test_cache_steady_state(self):
        with make_service() as svc:
            for _ in range(25):
                svc.submit("scan-add", [1.0] * 4).result(timeout=30)
            cache = svc.cache_stats()
        assert cache["hit_rate"] > 0.9

    def test_wait_idle_and_queue_depth(self):
        with make_service() as svc:
            svc.submit("scan-add", [1.0] * 4)
            assert svc.wait_idle(timeout=30)
            assert svc.queue_depth() == 0


class TestLifecycle:
    def test_stop_drains_queued_requests(self):
        svc = make_service(workers=2)
        svc.start()
        tickets = [svc.submit("fold-add", [1.0] * 4) for _ in range(10)]
        svc.stop(drain=True)
        assert all(t.done() for t in tickets)

    def test_stop_without_drain_sheds_queued_requests(self):
        reg = MetricsRegistry()
        gate = threading.Event()
        svc = Service(workers=1, metrics=reg)
        svc.register(PyEndpoint("gate", lambda p: gate.wait(10)))
        svc.start()
        running = svc.submit("gate")
        deadline = time.monotonic() + 5
        while svc.queue_depth() > 0:  # the one worker holds it
            assert time.monotonic() < deadline
            time.sleep(0.001)
        queued = [svc.submit("gate", tenant="t1") for _ in range(3)]
        # stop() joins the worker, which is parked on the gate
        stopper = threading.Thread(target=svc.stop, kwargs={"drain": False})
        stopper.start()
        for ticket in queued:
            with pytest.raises(AdmissionError) as excinfo:
                ticket.result(timeout=10)
            assert excinfo.value.rejection.reason == "not-running"
            assert ticket.record["status"] == "rejected"
        assert svc.queue_depth() == 0
        gate.set()
        stopper.join(10)
        assert not stopper.is_alive()
        assert running.result(timeout=10) is True
        assert svc.wait_idle(timeout=10)
        assert [(r.request_id, r.reason) for r in svc.rejections] \
            == [(t.request_id, "not-running") for t in queued]
        assert reg.snapshot().value(
            "serve_rejections_total",
            {"endpoint": "gate", "tenant": "t1",
             "reason": "not-running"}) == 3.0

    def test_validation(self):
        with pytest.raises(SkeletonError, match="workers"):
            Service(workers=0)
        with pytest.raises(SkeletonError, match="max_queue"):
            Service(max_queue=0)

    def test_restart_after_stop(self):
        svc = make_service()
        with svc:
            svc.submit("fold-add", [1.0] * 4).result(timeout=30)
        with svc:
            svc.submit("fold-add", [2.0] * 4).result(timeout=30)
        assert svc.summary()["completed"] == 2
