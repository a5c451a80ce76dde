"""``python -m repro metrics`` — a live-ish dashboard over metric snapshots.

Two modes:

* ``python -m repro metrics serve`` — drive a short, seeded load run
  (the three phases of ``python -m repro serve``, shrunk) against a
  fresh :class:`~repro.obs.metrics.MetricsRegistry`, snapshotting on an
  interval, then render the snapshot series as a dashboard table: one
  row per snapshot, counters as cumulative totals with per-interval
  deltas visible in the rate column.  The overload phase is part of the
  run, so the table shows the slo-shed counter climb and the rolling
  p99 breach-then-clear.
* ``python -m repro metrics --from FILE`` — render the same dashboard
  from a previously written ``repro.obs.metrics/v1`` artifact (or a
  snapshot-per-line JSONL stream), e.g. the ``--metrics-out`` of a real
  run.

``--prom`` additionally prints the final snapshot as Prometheus text
exposition; ``--out`` writes the collected ``repro.obs.metrics/v1``
artifact (no-op with ``--from``: the file already exists).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Mapping, Sequence

from repro.obs.metrics import (
    METRICS_SCHEMA,
    MetricsSnapshot,
    iter_snapshot_dicts,
    render_prometheus,
)
from repro.util.tables import render_table

__all__ = ["main", "build_parser", "dashboard", "load_snapshots"]


def _total(snap: MetricsSnapshot, name: str,
           where: Mapping[str, str] | None = None,
           field: str = "value") -> float:
    """Sum ``field`` over every series of ``name`` whose labels include
    ``where`` (counters aggregate across label combinations)."""
    total = 0.0
    for s in snap.series:
        if s["name"] != name or field not in s:
            continue
        labels = s.get("labels", {})
        if where and any(labels.get(k) != v for k, v in where.items()):
            continue
        total += s[field]
    return total


def dashboard(snapshots: Sequence[MetricsSnapshot], *,
              tail: int = 0) -> str:
    """The snapshot series as one aligned table (latest ``tail`` rows,
    0 = all)."""
    if not snapshots:
        return "(no snapshots)"
    shown = list(snapshots)[-tail:] if tail else list(snapshots)
    prev_done: float | None = None
    prev_t: float | None = None
    rows = []
    for snap in shown:
        done = _total(snap, "serve_requests_total")
        rate = "-"
        if prev_done is not None and snap.t > prev_t:
            rate = f"{(done - prev_done) / (snap.t - prev_t):.0f}"
        prev_done, prev_t = done, snap.t
        p99 = snap.value("serve_slo_rolling_p99_ms")
        shed = _total(snap, "serve_rejections_total",
                      {"reason": "slo-shed"})
        rows.append([
            f"{snap.t:.2f}",
            int(done),
            rate,
            int(_total(snap, "serve_rejections_total")),
            int(shed),
            int(snap.value("serve_queue_depth") or 0),
            int(snap.value("serve_in_flight") or 0),
            "-" if p99 is None else f"{p99:.1f}",
            int(snap.value("plan_cache_hits") or 0),
            int(_total(snap, "stream_chunks_total")),
        ])
    return render_table(
        f"metrics dashboard — {len(shown)}/{len(snapshots)} snapshots",
        ["t (s)", "done", "rps", "rej", "slo-shed", "queue", "busy",
         "p99 (ms)", "cache-hits", "chunks"],
        rows,
        notes="counters are cumulative; 'rps' is the completion rate "
              "over the preceding interval; 'p99' is the rolling SLO "
              "window (blank when no SloMonitor is bound).")


def load_snapshots(path: str) -> list[MetricsSnapshot]:
    """Snapshots from a ``repro.obs.metrics/v1`` artifact or a JSONL
    stream of snapshot dicts."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        # Not one document: a snapshot-per-line JSONL stream.
        return iter_snapshot_dicts(
            json.loads(line) for line in text.splitlines() if line.strip())
    if isinstance(doc, dict) and "snapshots" in doc:
        if doc.get("schema") != METRICS_SCHEMA:
            raise SystemExit(
                f"error: {path} has schema "
                f"{doc.get('schema')!r}, expected {METRICS_SCHEMA}")
        return iter_snapshot_dicts(doc["snapshots"])
    return iter_snapshot_dicts([doc])


def _run_serve_demo(args: argparse.Namespace
                    ) -> tuple[list[MetricsSnapshot], dict[str, Any]]:
    from repro.serve.cli import run_serve

    _, doc = run_serve(
        requests=args.requests, concurrency=8, workers=2, nprocs=4,
        seed=args.seed, burst_requests=40, burst_rate=4000.0,
        smoke=True, slo_requests=120,
        snapshot_interval_s=args.interval)
    return iter_snapshot_dicts(doc["snapshots"]), doc


def build_parser() -> argparse.ArgumentParser:
    """Argument parser for ``python -m repro metrics``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro metrics",
        description="dashboard over repro.obs.metrics snapshots")
    parser.add_argument("app", nargs="?", choices=["serve"],
                        default="serve",
                        help="which app to drive when not using --from")
    parser.add_argument("--from", dest="from_path", default=None,
                        metavar="FILE",
                        help="render an existing repro.obs.metrics/v1 "
                             "artifact (or snapshot JSONL) instead of "
                             "running a load")
    parser.add_argument("--requests", type=int, default=96,
                        help="closed-loop budget of the demo run "
                             "(default 96)")
    parser.add_argument("--interval", type=float, default=0.1,
                        help="snapshot interval in seconds (default 0.1)")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed (default 0)")
    parser.add_argument("--tail", type=int, default=0,
                        help="show only the last N snapshots (default all)")
    parser.add_argument("--prom", action="store_true",
                        help="also print the final snapshot as Prometheus "
                             "text exposition")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the repro.obs.metrics/v1 artifact")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point of ``python -m repro metrics``; returns an exit code."""
    args = build_parser().parse_args(argv)

    doc: dict[str, Any] | None = None
    if args.from_path:
        snapshots = load_snapshots(args.from_path)
    else:
        snapshots, doc = _run_serve_demo(args)
    if not snapshots:
        print("error: no snapshots to render", file=sys.stderr)
        return 1

    print(dashboard(snapshots, tail=args.tail))
    if args.prom:
        print()
        print(render_prometheus(snapshots[-1]), end="")
    if args.out:
        if doc is None:
            print("error: --out needs a live run (with --from the "
                  "artifact already exists)", file=sys.stderr)
            return 1
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, default=str)
            fh.write("\n")
        print(f"\nwrote {args.out}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
