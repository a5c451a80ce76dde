"""Command-line driver: regenerate the paper's evaluation without pytest.

::

    python -m repro table1               # hyperquicksort runtimes (Table 1)
    python -m repro figure3              # speedup series (Figure 3)
    python -m repro figure2              # stage-by-stage trace (Figure 2)
    python -m repro ablations            # the four §4 transformation studies
    python -m repro baselines            # hyperquicksort vs bitonic sort
    python -m repro all                  # everything above
    python -m repro chaos                # fault-injection survival sweep
    python -m repro plan hyperquicksort  # dump a lowered plan + its costs
    python -m repro trace hyperquicksort # traced run: spans, critical path
    python -m repro serve                # skeleton service under load
    python -m repro metrics serve        # live metrics dashboard of a run
    python -m repro table1 -n 20000 --seed 7   # smaller/quicker variants

Each command prints the reproduced table to stdout; ``--spec`` switches the
machine model (``ap1000`` / ``modern`` / ``perfect``).

``chaos`` and ``plan`` are different from the rest: ``chaos`` sweeps
fault rates over the fault-tolerant apps (see :mod:`repro.faults.chaos`),
``plan`` dumps a lowered Plan-IR program with predicted-vs-simulated cost
columns (see :mod:`repro.plan.cli`); each takes its own flags —
``python -m repro chaos --help`` / ``python -m repro plan --help``.
"""

from __future__ import annotations

import argparse
import operator
import sys
from typing import Callable

import numpy as np

from repro.machine import AP1000, MODERN_CLUSTER, PERFECT, MachineSpec
from repro.machine.metrics import scaling_series
from repro.util.tables import render_table

__all__ = ["main", "cmd_table1", "cmd_figure3", "cmd_figure2",
           "cmd_ablations", "cmd_baselines"]

_SPECS = {"ap1000": AP1000, "modern": MODERN_CLUSTER, "perfect": PERFECT}


def _workload(n: int, seed: int) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 2**31, size=n).astype(np.int32)


def _sort_times(values: np.ndarray, spec: MachineSpec, max_dim: int):
    from repro.apps.sort import hyperquicksort_machine, sequential_sort_machine

    expected = np.sort(values)
    times: dict[int, float] = {}
    extras: dict[int, tuple[int, float]] = {}
    _out, seq = sequential_sort_machine(values, spec=spec)
    times[1] = seq.makespan
    extras[1] = (0, 1.0)
    for d in range(1, max_dim + 1):
        out, res = hyperquicksort_machine(values, d, spec=spec)
        if not np.array_equal(out, expected):
            raise AssertionError(f"sort incorrect at d={d}")
        times[1 << d] = res.makespan
        extras[1 << d] = (res.total_messages, res.efficiency())
    return times, extras


def cmd_table1(args: argparse.Namespace) -> str:
    """Regenerate Table 1: hyperquicksort runtime vs processor count."""
    values = _workload(args.n, args.seed)
    times, extras = _sort_times(values, args.spec, args.max_dim)
    rows = [[p, f"{t:.3f}", extras[p][0], f"{extras[p][1]:.0%}"]
            for p, t in sorted(times.items())]
    return render_table(
        f"Table 1: hyperquicksort of {args.n} random integers "
        f"(simulated {args.spec.name})",
        ["procs", "runtime (s)", "messages", "efficiency"], rows)


def cmd_figure3(args: argparse.Namespace) -> str:
    """Regenerate Figure 3: the speedup-vs-linear series."""
    values = _workload(args.n, args.seed)
    times, _ = _sort_times(values, args.spec, args.max_dim)
    series = scaling_series(times)
    rows = [[pt.procs, f"{pt.speedup:.2f}", pt.procs, f"{pt.efficiency:.0%}"]
            for pt in series if pt.procs > 1]
    return render_table(
        f"Figure 3: speedup of sorting {args.n} integers "
        f"(simulated {args.spec.name})",
        ["procs", "speedup", "linear", "efficiency"], rows,
        notes="Sub-linear and bending away from the diagonal, as in the paper.")


def cmd_figure2(args: argparse.Namespace) -> str:
    """Regenerate Figure 2: the 32-value stage-by-stage trace."""
    from repro.apps.sort import hyperquicksort_trace

    rng = np.random.default_rng(args.seed)
    values = rng.integers(1, 100, size=32)
    lines = ["Figure 2: hyperquicksort of 32 values on a 2-dim hypercube",
             "=" * 58, ""]
    for panel, snap in zip("abcdefgh", hyperquicksort_trace(values, 2)):
        lines.append(f"({panel}) {snap.label}")
        for pid, contents in enumerate(snap.contents):
            lines.append(f"    p{pid}: {' '.join(str(int(v)) for v in contents)}")
        lines.append("")
    return "\n".join(lines)


def cmd_ablations(args: argparse.Namespace) -> str:
    """Summarise the §4 transformation ablations (predicted gains)."""
    from repro.scl import (FoldrFused, Map, Rotate, compose_nodes,
                           default_engine, estimate_cost, pretty)

    engine = default_engine()
    out = []
    studies = [
        ("A. map fusion",
         compose_nodes(Map(lambda x: x + 1), Map(lambda x: x * 2),
                       Map(lambda x: x - 3))),
        ("B. communication algebra",
         compose_nodes(Rotate(1), Rotate(1), Rotate(1), Rotate(1))),
        ("D. map distribution",
         FoldrFused(operator.add, lambda x: x * x, op_associative=True)),
    ]
    rows = []
    for name, prog in studies:
        rewritten, steps = engine.rewrite(prog)
        before = estimate_cost(prog, n=64, spec=args.spec, fn_ops=50)
        after = estimate_cost(rewritten, n=64, spec=args.spec, fn_ops=50)
        rows.append([name, pretty(rewritten)[:40], len(steps),
                     f"{before.seconds / max(after.seconds, 1e-30):.2f}x"])
    out.append(render_table(
        f"§4 transformation ablations (64 procs, {args.spec.name} model)",
        ["study", "rewritten form", "rules fired", "predicted gain"], rows,
        notes="Full measured versions: pytest benchmarks/ --benchmark-only"))
    return "\n".join(out)


def cmd_baselines(args: argparse.Namespace) -> str:
    """Compare hyperquicksort against the bitonic-sort baseline."""
    from repro.apps.bitonic import bitonic_sort_machine
    from repro.apps.sort import hyperquicksort_machine

    n = args.n - args.n % 32  # keep divisible for bitonic blocks
    values = _workload(n, args.seed)
    rows = []
    for d in range(1, args.max_dim + 1):
        _h, hq = hyperquicksort_machine(values, d, spec=args.spec,
                                        include_distribution=False)
        _b, bt = bitonic_sort_machine(values, d, spec=args.spec)
        rows.append([1 << d, f"{hq.makespan:.3f}", f"{bt.makespan:.3f}",
                     f"{bt.makespan / hq.makespan:.2f}x"])
    return render_table(
        f"Hyperquicksort vs bitonic sort, {n} integers ({args.spec.name})",
        ["procs", "hyperqs (s)", "bitonic (s)", "ratio"], rows)


_COMMANDS: dict[str, Callable[[argparse.Namespace], str]] = {
    "table1": cmd_table1,
    "figure3": cmd_figure3,
    "figure2": cmd_figure2,
    "ablations": cmd_ablations,
    "baselines": cmd_baselines,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the evaluation of 'Parallel Skeletons for "
                    "Structured Composition' (PPoPP 1995).")
    parser.add_argument("command",
                        choices=[*_COMMANDS, "all", "chaos", "plan",
                                 "trace", "serve", "metrics"],
                        help="which artefact to regenerate ('chaos' runs the "
                             "fault-injection sweep, 'plan' dumps a lowered "
                             "Plan-IR program; see "
                             "'python -m repro chaos --help' / "
                             "'python -m repro plan --help')")
    parser.add_argument("-n", type=int, default=100_000,
                        help="workload size (default: the paper's 100,000)")
    parser.add_argument("--seed", type=int, default=19950701,
                        help="workload RNG seed")
    parser.add_argument("--spec", choices=sorted(_SPECS), default="ap1000",
                        help="machine cost model")
    parser.add_argument("--max-dim", type=int, default=5,
                        help="largest hypercube dimension (p = 2^dim)")
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    if argv is None:
        argv = sys.argv[1:]
    if argv[:1] == ["chaos"]:
        # The chaos harness has its own flag set (--app/--drop-rate/
        # --crash/...); delegate everything after the subcommand to it.
        from repro.faults import chaos

        return chaos.main(argv[1:])
    if argv[:1] == ["plan"]:
        # And the plan dumper (<app>/--dim/--tables/...).
        from repro.plan import cli as plan_cli

        return plan_cli.main(argv[1:])
    if argv[:1] == ["trace"]:
        # And the traced-run reporter (<app>/--sink/--critical-path/...).
        from repro.obs import cli as obs_cli

        return obs_cli.main(argv[1:])
    if argv[:1] == ["serve"]:
        # And the skeleton-service load run (--smoke/--requests/--out/...).
        from repro.serve import cli as serve_cli

        return serve_cli.main(argv[1:])
    if argv[:1] == ["metrics"]:
        # And the live-metrics dashboard (<app>/--from/--prom/...).
        from repro.obs import metrics_cli

        return metrics_cli.main(argv[1:])
    args = build_parser().parse_args(argv)
    args.spec = _SPECS[args.spec]
    if args.max_dim < 1 or args.max_dim > 10:
        print("error: --max-dim must be between 1 and 10", file=sys.stderr)
        return 2
    commands = list(_COMMANDS) if args.command == "all" else [args.command]
    for name in commands:
        print(_COMMANDS[name](args))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
