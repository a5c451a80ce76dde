"""Chaos harness: sweep fault rates over the fault-tolerant example apps.

::

    python -m repro chaos --app hyperquicksort --p 32 --drop-rate 0.01 --seed 7
    python -m repro chaos --app mapreduce --p 16 --crash-master
    python -m repro chaos                      # default low-rate drop sweep

Every requested fault rate produces one run of the chosen app under a
seeded :class:`~repro.faults.models.FaultSpec`; the harness verifies the
*result is still correct* (sorted output / map-reduce total), and prints a
survival/overhead table: virtual makespan, slowdown relative to the
fault-free baseline, and the retransmit/timeout/drop/crash counters from
:func:`repro.machine.metrics.fault_counters`.  Same seed, same table —
every fault decision is a pure hash of the seed (see
:mod:`repro.faults.models`).

``--out`` additionally writes the table as a JSON artifact (used by the
CI chaos smoke job).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any

import numpy as np

from repro.machine import SPECS
from repro.machine.metrics import fault_counters
from repro.runtime.chunking import chunk_indices
from repro.util.tables import render_table
from repro.faults.models import FaultSpec
from repro.faults.apps import ft_hyperquicksort_machine
from repro.faults.runtime import CheckpointStore, ft_map_machine

__all__ = ["main", "build_parser", "run_sweep"]

#: Default drop-rate sweep when no rates are given on the command line.
_DEFAULT_SWEEP = [0.0, 0.005, 0.01, 0.02]


def build_parser() -> argparse.ArgumentParser:
    """Argument parser for the chaos harness (``python -m repro chaos``)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro chaos",
        description="Fault-injection sweep over the fault-tolerant apps.")
    parser.add_argument("--app", choices=["hyperquicksort", "mapreduce"],
                        default="hyperquicksort",
                        help="which fault-tolerant app to stress")
    parser.add_argument("--p", type=int, default=32,
                        help="processor count (power of two for "
                             "hyperquicksort)")
    parser.add_argument("-n", type=int, default=20_000,
                        help="workload size")
    parser.add_argument("--seed", type=int, default=7,
                        help="seed for both the workload and every fault "
                             "decision")
    parser.add_argument("--drop-rate", type=float, action="append",
                        default=None, metavar="R",
                        help="message drop probability (repeatable; default "
                             f"sweep {_DEFAULT_SWEEP})")
    parser.add_argument("--dup-rate", type=float, default=0.0,
                        help="message duplication probability")
    parser.add_argument("--delay-rate", type=float, default=0.0,
                        help="message delay probability")
    parser.add_argument("--delay-seconds", type=float, default=0.002,
                        help="virtual lateness of a delayed message")
    parser.add_argument("--corrupt-rate", type=float, default=0.0,
                        help="payload corruption probability")
    parser.add_argument("--crash", action="append", default=[],
                        metavar="PID@TIME",
                        help="crash processor PID at virtual TIME seconds "
                             "(repeatable; mapreduce only)")
    parser.add_argument("--crash-master", action="store_true",
                        help="mapreduce: crash the master mid-run to "
                             "exercise checkpoint/restart")
    parser.add_argument("--spec", choices=sorted(SPECS), default="ap1000",
                        help="machine cost model")
    parser.add_argument("--out", default=None,
                        help="also write the table as JSON to this path")
    parser.add_argument("--metrics-out", default=None, metavar="PATH",
                        help="write a repro.obs.metrics/v1 artifact with "
                             "the machine_faults_total counters per rate")
    return parser


def _parse_crashes(entries: list[str]) -> dict[int, float]:
    crashes: dict[int, float] = {}
    for entry in entries:
        try:
            pid_s, time_s = entry.split("@", 1)
            crashes[int(pid_s)] = float(time_s)
        except ValueError:
            raise SystemExit(
                f"error: --crash expects PID@TIME, got {entry!r}") from None
    return crashes


def _run_hyperquicksort(args: argparse.Namespace, fs: FaultSpec,
                        values: np.ndarray, expected: np.ndarray
                        ) -> dict[str, Any]:
    d = args.p.bit_length() - 1
    out, res = ft_hyperquicksort_machine(values, d, spec=args.spec,
                                         faults=fs)
    counters = fault_counters(res)
    return {
        "ok": bool(np.array_equal(np.asarray(out), expected)),
        "makespan": res.makespan,
        "restarts": 0,
        **counters,
    }


def _run_mapreduce(args: argparse.Namespace, fs: FaultSpec,
                   values: np.ndarray, expected: int) -> dict[str, Any]:
    jobs = [values[lo:hi] for lo, hi in
            chunk_indices(len(values), max(4 * args.p, args.p))]
    results, runs = ft_map_machine(
        jobs, lambda chunk: int(np.sum(np.asarray(chunk, dtype=np.int64) ** 2)),
        nprocs=args.p, spec=args.spec, faults=fs,
        cost_fn=lambda chunk: 3.0 * len(chunk),
        checkpoint=CheckpointStore())
    total = sum(results)
    counters = {"retransmits": 0, "timeouts": 0, "dropped": 0, "crashed": 0}
    for run in runs:
        for key, value in fault_counters(run).items():
            counters[key] += value
    return {
        "ok": bool(total == expected),
        "makespan": sum(run.makespan for run in runs),
        "restarts": len(runs) - 1,
        **counters,
    }


def run_sweep(args: argparse.Namespace) -> list[dict[str, Any]]:
    """Run the sweep and return one row dict per (baseline + rate) run."""
    rng = np.random.default_rng(args.seed)
    values = rng.integers(0, 2**20, size=args.n).astype(np.int64)
    crashes = _parse_crashes(args.crash)

    rates = args.drop_rate if args.drop_rate else list(_DEFAULT_SWEEP)
    if 0.0 not in rates:
        rates = [0.0] + rates  # the fault-free baseline anchors overhead

    if args.app == "hyperquicksort":
        if args.p < 2 or args.p & (args.p - 1):
            raise SystemExit("error: --p must be a power of two >= 2 for "
                             "hyperquicksort")
        if crashes or args.crash_master:
            raise SystemExit("error: crash scenarios need --app mapreduce "
                             "(a crashed sorter loses its data block; see "
                             "repro.faults.apps)")
        expected: Any = np.sort(values)
        runner = _run_hyperquicksort
    else:
        expected = int(np.sum(values.astype(np.int64) ** 2))
        runner = _run_mapreduce

    rows: list[dict[str, Any]] = []
    baseline: float | None = None
    for rate in rates:
        fs = FaultSpec(
            seed=args.seed,
            drop_rate=rate,
            dup_rate=args.dup_rate,
            delay_rate=args.delay_rate,
            delay_seconds=args.delay_seconds,
            corrupt_rate=args.corrupt_rate,
            crash_at={} if rate == 0.0 else dict(crashes),
        )
        if args.crash_master and rate != 0.0 and baseline is not None:
            # Kill the coordinator a third of the way into the (baseline)
            # schedule: late enough to have committed work, early enough
            # that the restart has real work left.
            fs = fs.replace(crash_at={**fs.crash_at, 0: baseline / 3.0})
        row = runner(args, fs, values, expected)
        row["drop_rate"] = rate
        if rate == 0.0:
            baseline = row["makespan"]
        row["overhead"] = (row["makespan"] / baseline
                           if baseline else float("nan"))
        rows.append(row)
    return rows


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro chaos``; returns an exit code."""
    args = build_parser().parse_args(argv)
    args.spec = SPECS[args.spec]

    rows = run_sweep(args)

    table_rows = [[f"{r['drop_rate']:.3f}",
                   "ok" if r["ok"] else "FAILED",
                   f"{r['makespan']:.4f}",
                   f"{r['overhead']:.2f}x",
                   r["retransmits"], r["timeouts"], r["dropped"],
                   r["crashed"], r["restarts"]]
                  for r in rows]
    print(render_table(
        f"Chaos sweep: {args.app}, p={args.p}, n={args.n}, "
        f"seed={args.seed} ({args.spec.name})",
        ["drop", "result", "makespan (s)", "overhead", "rtx", "timeouts",
         "dropped", "crashed", "restarts"],
        table_rows,
        notes="Deterministic: same seed + spec => identical table."))

    if args.out:
        artifact = {
            "app": args.app, "p": args.p, "n": args.n, "seed": args.seed,
            "spec": args.spec.name, "rows": rows,
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(artifact, fh, indent=2, default=float)
        print(f"wrote {args.out}")

    if args.metrics_out:
        from repro.obs.metrics import (MetricsRegistry, metrics_artifact,
                                       observe_fault_counters)

        registry = MetricsRegistry()
        for row in rows:
            observe_fault_counters(
                registry,
                {k: row[k] for k in ("retransmits", "timeouts", "dropped",
                                     "crashed")},
                labels={"app": args.app,
                        "drop_rate": f"{row['drop_rate']:g}"})
        doc = metrics_artifact([registry.snapshot()],
                               generated_by="python -m repro chaos")
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, default=str)
        print(f"wrote {args.metrics_out}")

    return 0 if all(r["ok"] for r in rows) else 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
