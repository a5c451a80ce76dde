"""Tests for ``python -m repro serve`` and its JSON latency artifact.

:func:`validate_serve_artifact` is the schema check the CI
``serve-smoke`` job runs against the uploaded artifact; keeping it here
means the schema and its validator evolve together.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from repro.serve.cli import SCHEMA, default_mix, main, run_serve


def validate_serve_artifact(artifact: dict) -> None:
    """Assert the ``repro serve`` JSON artifact has the v3 shape."""
    assert artifact["schema"] == SCHEMA == "repro.serve.latency/v3"
    assert artifact["mode"] in ("smoke", "full")
    config = artifact["config"]
    for key in ("requests", "concurrency", "workers", "nprocs", "seed",
                "endpoints", "tenants", "burst", "slo"):
        assert key in config, f"config missing {key!r}"
    assert len(config["endpoints"]) >= 2
    assert len(config["tenants"]) >= 2

    sustained = artifact["sustained"]
    load, summary = sustained["load"], sustained["summary"]
    assert load["mode"] == "closed-loop"
    assert load["completed"] == config["requests"]
    assert load["errors"] == 0
    latency = summary["latency_ms"]
    assert latency["count"] == load["completed"]
    for field in ("p50_ms", "p90_ms", "p99_ms", "max_ms", "throughput_rps"):
        assert latency[field] > 0, f"latency_ms.{field} missing or zero"
    assert latency["p50_ms"] <= latency["p99_ms"] <= latency["max_ms"]
    # Every configured endpoint and at least two tenants saw traffic.
    assert set(summary["by_endpoint"]) == set(config["endpoints"])
    assert len(summary["by_tenant"]) >= 2
    assert summary["sim_events"] > 0
    # Steady state: the lowering cache absorbs every request after each
    # endpoint's first lowering — one raw and one optimized plan, with
    # two more for workers racing to build the same plan — and the tuned
    # tier (v2) absorbs every tuned request after the first worker's beam
    # search.  Misses are bounded, not the hit rate, because a stream
    # request looks its plan up once per batch of chunks, not per chunk.
    cache = summary["plan_cache"]
    assert cache["misses"] <= 2 * len(config["endpoints"]) + 2
    assert cache["hits"] > 0
    assert cache["tuned_hits"] > 0
    assert cache["tuned_hit_rate"] > 0.5

    burst = artifact["burst"]
    assert burst["load"]["mode"] == "open-loop"
    assert burst["load"]["rejected"] > 0, "burst phase must shed load"
    assert burst["summary"]["rejected_by_reason"].get("queue-full", 0) \
        == burst["load"]["rejected"]

    # v3: the SLO overload phase must show latency-aware shedding engage
    # (rolling p99 over target -> reason "slo-shed", never "queue-full")
    # and then clear (every recovery probe admitted).
    slo = artifact["slo"]
    slo_config = config["slo"]
    for key in ("requests", "rate_rps", "p99_target_ms", "window_s",
                "min_samples"):
        assert key in slo_config, f"config.slo missing {key!r}"
    assert slo["load"]["mode"] == "open-loop"
    assert slo["shed"] > 0, "slo phase must shed on the p99 breach"
    by_reason = slo["summary"]["rejected_by_reason"]
    assert by_reason.get("slo-shed", 0) >= slo["shed"]
    assert by_reason.get("queue-full", 0) == 0, \
        "slo phase queue is deep enough that only the SLO sheds"
    assert slo["summary"]["slo"]["shed"] == by_reason["slo-shed"]
    assert slo["summary"]["slo"]["p99_target_ms"] == \
        slo_config["p99_target_ms"]
    assert slo["probes"]["admitted"] == slo["probes"]["attempted"]
    assert slo["recovered"] is True, "admission must recover post-overload"


@pytest.fixture(scope="module")
def smoke_run():
    return run_serve(requests=64, concurrency=8, workers=2, nprocs=4,
                     seed=0, burst_requests=40, burst_rate=4000.0,
                     smoke=True, slo_requests=100)


@pytest.fixture(scope="module")
def smoke_artifact(smoke_run):
    return smoke_run[0]


class TestRunServe:
    def test_artifact_validates(self, smoke_artifact):
        validate_serve_artifact(smoke_artifact)

    def test_metrics_artifact_validates(self, smoke_run):
        from tests.obs.test_metrics import validate_metrics_artifact

        validate_metrics_artifact(smoke_run[1], expect_slo_shed=True)

    def test_artifact_is_json_serializable(self, smoke_artifact):
        parsed = json.loads(json.dumps(smoke_artifact, default=str))
        assert parsed["schema"] == SCHEMA

    def test_mix_covers_endpoints_and_tenants(self):
        mix = default_mix()
        assert {e for e, _ in mix} == {"scan-add", "sumsq", "sumsq-tuned",
                                       "stream-scan"}
        assert {t for _, t in mix} == {"free", "pro"}


class TestCliEntry:
    def test_main_writes_artifact(self, tmp_path, capsys):
        out = tmp_path / "latency.json"
        code = main(["--smoke", "--requests", "48", "--concurrency", "6",
                     "--workers", "2", "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "sustained closed-loop" in printed
        assert "by tenant" in printed
        artifact = json.loads(out.read_text())
        validate_serve_artifact(artifact)
        assert artifact["config"]["requests"] == 48

    def test_module_entry_point(self, tmp_path):
        """`python -m repro serve --smoke` end to end (the CI job)."""
        out = tmp_path / "latency.json"
        result = subprocess.run(
            [sys.executable, "-m", "repro", "serve", "--smoke",
             "--requests", "48", "--out", str(out)],
            capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr
        validate_serve_artifact(json.loads(out.read_text()))
