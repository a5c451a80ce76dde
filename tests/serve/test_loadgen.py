"""Tests for repro.serve.loadgen — closed- and open-loop generators."""

from __future__ import annotations

import operator
import threading
import time

import pytest

from repro.errors import SkeletonError
from repro.scl import Fold, Scan
from repro.serve import (
    MetricsRegistry,
    PlanEndpoint,
    PyEndpoint,
    Service,
    SloMonitor,
    closed_loop,
    open_loop,
)


def make_service(**kwargs):
    svc = Service(**kwargs)
    svc.register(PlanEndpoint("scan-add", Scan(operator.add), nprocs=4))
    svc.register(PlanEndpoint("fold-add", Fold(operator.add), nprocs=4))
    return svc


MIX = [("scan-add", "free"), ("fold-add", "pro")]


class TestClosedLoop:
    def test_completes_all_requests(self):
        with make_service(workers=2) as svc:
            report = closed_loop(svc, MIX, requests=40, concurrency=4)
        assert report["completed"] == 40
        assert report["ok"] == 40
        assert report["rejected"] == 0
        assert report["throughput_rps"] > 0
        summary = svc.summary()
        assert summary["completed"] == 40
        assert set(summary["by_tenant"]) == {"free", "pro"}
        assert set(summary["by_endpoint"]) == {"scan-add", "fold-add"}

    def test_deterministic_workload_content(self):
        """The same seed must execute the same simulated work regardless
        of concurrency (thread interleaving changes latencies only) and
        of whether the metrics plane and an SLO monitor are watching."""
        def run(concurrency, **service_kw):
            with make_service(workers=2, **service_kw) as svc:
                closed_loop(svc, MIX, requests=30, seed=7,
                            concurrency=concurrency)
            return (svc.summary()["sim_events"],
                    sorted((r["endpoint"], r["tenant"])
                           for r in svc.completions))

        assert run(1) == run(4)
        # a p99 target no request can breach: every instrument updates on
        # the hot path, nothing is shed
        assert run(4, metrics=MetricsRegistry(),
                   slo=SloMonitor(1e6, min_samples=8)) == run(1)

    def test_error_completions_counted(self):
        svc = Service(workers=2)
        calls = {"n": 0}
        lock = threading.Lock()

        def sometimes(payload):
            with lock:
                calls["n"] += 1
                if calls["n"] % 3 == 0:
                    raise ValueError("flaky")

        svc.register(PyEndpoint("flaky", sometimes))
        with svc:
            report = closed_loop(svc, [("flaky", "default")], requests=30,
                                 concurrency=2)
        assert report["errors"] == 10
        assert report["ok"] == 20
        assert report["completed"] == 30

    def test_validation(self):
        svc = make_service()
        with pytest.raises(SkeletonError):
            closed_loop(svc, MIX, requests=0, concurrency=1)
        with pytest.raises(SkeletonError):
            closed_loop(svc, [], requests=1, concurrency=1)


class TestOpenLoop:
    def test_sheds_when_offered_exceeds_capacity(self):
        svc = Service(workers=1, max_queue=2)
        svc.register(PyEndpoint("slow", lambda p: time.sleep(0.01)))
        with svc:
            report = open_loop(svc, [("slow", "default")], requests=50,
                               rate_rps=2000)
        assert report["rejected"] > 0
        assert report["accepted"] + report["rejected"] == 50
        assert report["completed"] == report["accepted"]
        assert svc.summary()["rejected_by_reason"] == {
            "queue-full": report["rejected"]}

    def test_completes_when_under_capacity(self):
        with make_service(workers=4, max_queue=64) as svc:
            report = open_loop(svc, MIX, requests=20, rate_rps=100)
        assert report["rejected"] == 0
        assert report["ok"] == 20

    def test_validation(self):
        svc = make_service()
        with pytest.raises(SkeletonError):
            open_loop(svc, MIX, requests=1, rate_rps=0)
        with pytest.raises(SkeletonError):
            open_loop(svc, [], requests=1, rate_rps=10)
