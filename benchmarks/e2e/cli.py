"""``python -m benchmarks.e2e {run,trace,compare,repeat}``.

Run from the repository root.  Each workload runs in a fresh process of
``run.py``; this module only starts them and gathers what they report.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import subprocess
import sys
import tempfile
from typing import Any

from . import compare as C
from . import metrics as M

HERE = os.path.dirname(os.path.abspath(__file__))
RESULTS = os.path.join(HERE, "results")
SCHEMA = "benchmarks.e2e/v1"
#: Two hash seeds under which simulated statistics and call counts must
#: not differ.
HASH_SEEDS = ("1", "2")


def run_workload(name: str, *, trace: int, seed: int, seconds: float,
                 iterations: int | None, setup_samples: int = 5,
                 env: dict[str, str] | None = None) -> dict[str, Any]:
    """One fresh ``run.py`` process; returns its ``--detail`` document."""
    with tempfile.TemporaryDirectory(dir=RESULTS) as tmp:
        detail = os.path.join(tmp, "detail.json")
        argv = [sys.executable, os.path.join(HERE, "run.py"),
                "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace),
                "--setup-samples", str(setup_samples), "--detail", detail]
        if iterations is not None:
            argv += ["--iterations", str(iterations)]
        subprocess.run(argv, check=True, stdout=subprocess.DEVNULL,
                       env={**os.environ, **(env or {})}, timeout=600)
        with open(detail, encoding="utf-8") as fh:
            return json.load(fh)


def run_set(args: argparse.Namespace, *, trace: int) -> dict[str, Any]:
    """Every selected workload once; the result-file document."""
    os.makedirs(RESULTS, exist_ok=True)
    doc: dict[str, Any] = {"schema": SCHEMA, "trace": trace,
                           "seed": args.seed, "seconds": args.seconds,
                           "iterations": args.iterations, "workloads": {}}
    for name in args.workloads:
        print(f"[{name}] running...", file=sys.stderr, flush=True)
        doc["workloads"][name] = run_workload(
            name, trace=trace, seed=args.seed, seconds=args.seconds,
            iterations=args.iterations,
            setup_samples=1 if args.smoke else 5)
    return doc


def write(doc: dict[str, Any], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print(f"wrote {os.path.relpath(path)}", file=sys.stderr)


def render_run(doc: dict[str, Any]) -> str:
    lines = []
    for name, result in doc["workloads"].items():
        lines.append(f"{name}: {result['iterations']} iterations, "
                     f"{result['failed']} of {result['attempted']} failed")
        for metric, record in result["metrics"].items():
            spread = ""
            if record.get("n", 1) > 1:
                spread = (f"  [q1 {record['q1']:.6g}, q3 {record['q3']:.6g}, "
                          f"n {record['n']}]")
            lines.append(f"  {metric:<34} {record['value']:>14.6g} "
                         f"{record['unit']}{spread}")
    return "\n".join(lines)


def render_shares(doc: dict[str, Any]) -> str:
    """Each layer's self time as a share of all layers' self time."""
    lines = []
    for name, result in doc["workloads"].items():
        values = {k: v["value"] for k, v in result["metrics"].items()}
        total = sum(values[f"{layer}.self_ms"] for layer in M.SPAN_LAYERS)
        lines.append(f"{name}: layers' self time {total:.3f} ms per iteration"
                     f" (scl.compile.total_ms {values['scl.compile.total_ms']:.3f},"
                     f" trace overhead x{values['harness.trace_overhead']:.2f})")
        for layer in M.SPAN_LAYERS:
            self_ms = values[f"{layer}.self_ms"]
            if self_ms:
                lines.append(
                    f"  {layer:<14} calls {values[f'{layer}.calls']:>8.0f}  "
                    f"self {self_ms:>9.3f} ms  {self_ms / total:>6.1%}")
        if result.get("absent_layers"):
            lines.append(f"  absent: {', '.join(result['absent_layers'])}")
    return "\n".join(lines)


def load(path: str) -> dict[str, Any]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def cmd_run(args: argparse.Namespace) -> int:
    """``run`` (untraced) and ``trace`` (traced): one set, printed and saved."""
    doc = run_set(args, trace=args.trace)
    print(render_run(doc))
    if args.trace:
        print()
        print(render_shares(doc))
    default = "latest_trace.json" if args.trace else "latest_run.json"
    write(doc, args.out or os.path.join(RESULTS, default))
    return 1 if any(w["failed"] for w in doc["workloads"].values()) else 0


def cmd_compare(args: argparse.Namespace) -> int:
    rows = C.compare(load(args.base), load(args.new))
    print(C.render(rows, os.path.basename(args.base),
                   os.path.basename(args.new)))
    return 1 if C.failed(rows) else 0


def hash_seed_differences(args: argparse.Namespace) -> list[str]:
    """Exact metrics that differ between two ``PYTHONHASHSEED`` values."""
    differences = []
    for name in args.workloads:
        first, second = (
            run_workload(name, trace=1, seed=args.seed, seconds=args.seconds,
                         iterations=1, env={"PYTHONHASHSEED": hash_seed})
            for hash_seed in HASH_SEEDS)
        for metric in first["metrics"]:
            if metric in ("makespan_s", "messages") \
                    or metric.startswith("pycalls."):
                a = first["metrics"][metric]["value"]
                b = second["metrics"][metric]["value"]
                if a != b:
                    differences.append(f"{name} {metric}: {a!r} != {b!r}")
    return differences


def cmd_repeat(args: argparse.Namespace) -> int:
    sets = [run_set(args, trace=0) for _ in range(args.sets)]
    rows: list[C.Row] = []
    for base, new in zip(sets, sets[1:]):
        rows += C.compare(base, new)
    print(C.render(rows, "set n", "set n+1"))
    differences = hash_seed_differences(args)
    for line in differences:
        print(f"differs across PYTHONHASHSEED: {line}")
    agree = all(row.verdict == "unchanged" for row in rows)
    write({"schema": SCHEMA, "sets": sets,
           "rows": [dataclasses.asdict(row) for row in rows],
           "hash_seed_differences": differences, "agree": agree},
          args.out or os.path.join(RESULTS, "seed_repeat.json"))
    return 0 if agree and not differences else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def measuring(name: str, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.add_argument("--workloads", type=lambda s: s.split(","),
                       default=list(M.ALL), metavar="A,B",
                       help="comma-separated subset (default: all seven)")
        p.add_argument("--seed", type=int, default=M.DEFAULT_SEED)
        p.add_argument("--seconds", type=float, default=12.0,
                       help="timed-loop length per workload (default 12, "
                            "the run_seconds of BENCHMARK.json)")
        p.add_argument("--iterations", type=int, default=None,
                       help="exact iteration count instead of --seconds")
        p.add_argument("--smoke", action="store_true",
                       help="2 iterations per workload, one set-up sample")
        p.add_argument("--out", default=None, metavar="PATH")
        return p

    measuring("run", "untraced set: the end-to-end metrics"
              ).set_defaults(fn=cmd_run, trace=0)
    measuring("trace", "traced set: the per-layer metrics"
              ).set_defaults(fn=cmd_run, trace=1)
    p = measuring("repeat", "untraced sets back to back, compared")
    p.add_argument("--sets", type=int, default=2)
    p.set_defaults(fn=cmd_repeat)
    p = sub.add_parser("compare", help="compare two result files of 'run'")
    p.add_argument("base")
    p.add_argument("new")
    p.set_defaults(fn=cmd_compare)

    args = parser.parse_args(argv)
    if getattr(args, "smoke", False):
        args.iterations = 2
    unknown = [w for w in getattr(args, "workloads", ()) if w not in M.ALL]
    if unknown:
        parser.error(f"unknown workloads: {', '.join(unknown)}")
    return args.fn(args)
