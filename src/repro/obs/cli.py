"""``python -m repro trace`` — run an app traced and explain its makespan.

Runs one of the compiled example applications on a traced machine, then
prints the observability report: per-skeleton and per-instruction
rollups (with the plan cost model's *predicted* seconds next to each
*observed* window), the critical path through the event graph, and the
who-waited-on-whom idle table.  ``--sink`` additionally streams every
event to an artifact as it is recorded:

* ``jsonl`` — one JSON object per line (``span`` as a root-to-leaf frame
  list), the machine-readable interchange format,
* ``chrome`` — the Chrome trace-event JSON array; open the file in
  ``chrome://tracing`` or https://ui.perfetto.dev to see one timeline
  track per virtual processor.

::

    python -m repro trace hyperquicksort
    python -m repro trace hyperquicksort --sink chrome --out hq.trace.json
    python -m repro trace gauss-jordan -n 24 --procs 6 --critical-path
    python -m repro trace hyperquicksort --limit 10000   # bounded memory
"""

from __future__ import annotations

import argparse
import sys

from repro.obs import analyze, report
from repro.obs.sinks import ChromeTraceSink, JsonlSink
from repro.plan.cli import APPS, SPECS
from repro.plan.lower import lower

__all__ = ["main"]

_DEFAULT_OUT = {"jsonl": "trace.jsonl", "chrome": "trace.json"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro trace",
        description="Run a compiled example app with span tracing on and "
                    "print per-instruction predicted-vs-observed costs, "
                    "rollups and the critical path.")
    parser.add_argument("app", choices=sorted(APPS))
    parser.add_argument("-n", type=int, default=None,
                        help="workload size (keys to sort / matrix order; "
                             "defaults: 4096 keys, n=24 system)")
    parser.add_argument("--dim", type=int, default=3,
                        help="hypercube dimension for hyperquicksort (p=2^dim)")
    parser.add_argument("--procs", type=int, default=6,
                        help="processor count for gauss-jordan")
    parser.add_argument("--seed", type=int, default=19950701)
    parser.add_argument("--spec", choices=sorted(SPECS), default="ap1000",
                        help="machine cost model")
    parser.add_argument("--fn-ops", type=float, default=50.0,
                        help="assumed ops per opaque function application "
                             "in the predicted column")
    parser.add_argument("--sink", choices=sorted(_DEFAULT_OUT), default=None,
                        help="also stream every event to an export artifact")
    parser.add_argument("--out", default=None,
                        help="artifact path (defaults: trace.jsonl / "
                             "trace.json per --sink)")
    parser.add_argument("--top", type=int, default=10,
                        help="rows in the top-segments and idle tables")
    parser.add_argument("--critical-path", action="store_true",
                        help="print the full critical-path breakdown "
                             "(the summary line is always printed)")
    parser.add_argument("--limit", type=int, default=None,
                        help="bound the in-memory trace to the last N events "
                             "(ring buffer; analysis needing the full event "
                             "graph is skipped when events were evicted)")
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    args.spec = SPECS[args.spec]
    if args.n is None:
        args.n = 4096 if args.app == "hyperquicksort" else 24
    if args.app == "hyperquicksort" and not (1 <= args.dim <= 10):
        print("error: --dim must be between 1 and 10", file=sys.stderr)
        return 2

    sink = None
    out_path = None
    if args.sink is not None:
        out_path = args.out or _DEFAULT_OUT[args.sink]
        sink = (JsonlSink(out_path) if args.sink == "jsonl"
                else ChromeTraceSink(out_path))
    machine_kw = {"record_trace": True, "trace_sink": sink,
                  "trace_limit": args.limit}

    try:
        expr, p, res, detail, eb = APPS[args.app](args, machine_kw, args.app,
                                                  "auto")
    finally:
        if sink is not None:
            sink.close()

    plan = lower(expr, p)
    trace = res.trace
    title = f"traced {args.app}, {detail}"
    print(title)
    print("=" * len(title))
    print()
    print(report.skeleton_report(trace))
    print(report.instruction_report(trace, plan, spec=args.spec,
                                    fn_ops=args.fn_ops, element_bytes=eb,
                                    makespan=res.makespan))
    if trace.dropped:
        print(f"[ring buffer kept the last {len(trace.events())} of "
              f"{len(trace.events()) + trace.dropped} events; critical path "
              "and idle analysis need the full graph — rerun without "
              "--limit]")
    else:
        cp = analyze.critical_path(trace, spec=args.spec)
        print(f"critical path: {len(cp.steps)} events, length "
              f"{cp.length:.6e} s (makespan {res.makespan:.6e} s)")
        print()
        if args.critical_path:
            print(report.critical_path_report(cp, top=args.top))
        print(report.idle_report(trace, spec=args.spec, top=args.top))
    if sink is not None:
        print(f"wrote {sink.count} {args.sink} records to {out_path}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
