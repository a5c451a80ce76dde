"""One workload, one process: the driver's entry point.

    python3 benchmarks/e2e/run.py --workload sort_warm --seed 1 \
        --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, every per-layer metric with ``--trace 1``.
``python -m benchmarks.e2e`` runs this file once per workload, so each
workload gets a fresh process (its own plan caches and peak RSS).
"""

import time

T0 = time.perf_counter()  # set-up time is counted from here, imports included

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RESULTS = os.path.join(HERE, "results")
#: Reference-kernel time run after set-up to normalise the set-up time.
SETUP_REF_MS = 100.0


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=19950701)
    parser.add_argument("--seconds", type=float, default=12.0,
                        help="how long the timed loop runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--iterations", type=int, default=None,
                        help="run exactly this many iterations instead")
    parser.add_argument("--setup-samples", type=int, default=5,
                        help="processes whose set-up time is sampled")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time, exit")
    parser.add_argument("--detail", default=None, metavar="PATH",
                        help="also write quartiles and counts here")
    return parser.parse_args(argv)


def sample_setup(args, own):
    """Set-up times of this process and of fresh ones that only set up."""
    samples = [own]
    for _ in range(args.setup_samples - 1):
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload",
             args.workload, "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=150, check=True)
        samples.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return samples


def main(argv=None):
    args = parse(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"run.py: no src/repro under {ROOT}: nothing to measure",
              file=sys.stderr)
        return 2
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    from benchmarks.e2e import harness, metrics
    from benchmarks.e2e.spans import Tracer
    from benchmarks.e2e.timing import ReferenceKernel, normalise

    if args.workload not in harness.WORKLOADS:
        print(f"run.py: unknown workload {args.workload!r}; one of "
              f"{', '.join(harness.WORKLOADS)}", file=sys.stderr)
        return 2
    if not harness.WORKLOADS[args.workload].single_threaded:
        # Threads that take turns on the interpreter lock gain nothing from
        # a second CPU, and a cross-CPU wake-up on the authoring host costs
        # 7 us or 50 us depending on the minute; on one CPU it is a context
        # switch.  Unpinned, serve_solo's medians spread 22% run to run.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    workload = harness.ready(args.workload, args.seed)
    setup_raw_s = time.perf_counter() - T0
    setup_s = normalise(setup_raw_s, ReferenceKernel().sample(SETUP_REF_MS))
    try:
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        detail = {"workload": args.workload, "seed": args.seed,
                  "trace": args.trace, "setup_raw_s": setup_raw_s}
        if args.trace == 0:
            m = harness.measure(workload, seconds=args.seconds,
                                iterations=args.iterations)
            full = harness.end_to_end(workload, m, sample_setup(args, setup_s))
            attempted, failed = m.attempted, m.failed
            printed = {name: full[name] for name in metrics.DRIVER_END_TO_END}
            detail["iterations"] = m.iterations
            detail["iter_ms_raw"] = harness.summary(m.raw_ms, "ms")
        else:
            # A short untraced loop first: its ratio to the traced loop is
            # the tracing overhead.
            untraced = harness.measure(workload, seconds=0.3 * args.seconds,
                                       iterations=args.iterations)
            tracer = Tracer()
            with tracer:
                traced = harness.measure(
                    workload, seconds=0.7 * args.seconds,
                    iterations=args.iterations, tracer=tracer)
            values = harness.per_layer(workload, traced, untraced,
                                       harness.count_pycalls(workload))
            full = {name: {"value": values[name], "unit": unit}
                    for name, (unit, _better) in metrics.PER_LAYER.items()}
            attempted = traced.attempted + untraced.attempted
            failed = traced.failed + untraced.failed
            printed = full
            detail["iterations"] = traced.iterations
            detail["absent_layers"] = sorted(tracer.absent)
            os.makedirs(RESULTS, exist_ok=True)
            with open(os.path.join(RESULTS, f"spans_{args.workload}.json"),
                      "w", encoding="utf-8") as fh:
                json.dump({"workload": args.workload, "seed": args.seed,
                           "fields": list(traced.span_sample[0]._fields)
                           if traced.span_sample else [],
                           "spans": traced.span_sample}, fh)
    finally:
        workload.close()
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": record["value"], "unit": record["unit"]}
                    for name, record in printed.items()},
    }
    if args.detail:
        detail.update(attempted=attempted, failed=failed, metrics=full)
        with open(args.detail, "w", encoding="utf-8") as fh:
            json.dump(detail, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
