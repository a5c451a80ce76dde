"""Tests for repro.serve.service — registry, scheduling, admission."""

from __future__ import annotations

import operator
import threading
import time

import pytest

from repro.errors import SkeletonError
from repro.obs import MemorySink
from repro.scl import Fold, Scan
from repro.serve import (
    AdmissionError,
    MetricsRegistry,
    PlanEndpoint,
    PyEndpoint,
    Service,
    SloMonitor,
    StreamEndpoint,
)
from repro.stream.plan import Chunk, MapPlan


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
