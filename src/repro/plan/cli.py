"""``python -m repro plan`` — dump lowered plans with their costs.

The inspection window onto the Plan IR: lower one of the compiled example
applications, print the instruction listing
(:func:`repro.scl.plan_pretty.pretty_plan`), then price the **same plan
object** two ways —

* *predicted*: the optimizer's model (:func:`repro.plan.cost.plan_cost`)
  walking the instruction stream, per instruction and in total,
* *simulated*: the machine executing the plan on real data
  (:func:`repro.scl.compile.run_expression`), whose makespan and message
  count land in the final table row.

Because prediction and simulation consume the identical program, the two
columns are directly comparable — the gap *is* the model error, not a
compilation difference.

Since PR 5 the dump reflects the plan *optimizer* (:mod:`repro.plan.opt`):
the listing, prediction and simulation all use the same optimization
setting, so the three stay comparable.  ``--no-opt`` shows the raw
lowering; ``--diff`` prints the unoptimised listing, the pass notes
(which rule fired where), and the optimised listing side by side.

``--search`` switches to the cost-driven rewrite search
(:func:`repro.tune.tune_expression`): instead of dumping one plan it
prints the explored frontier — each candidate's rule provenance next to
its pipeline-predicted cost — and, for hyperquicksort, runs both the
searched winner and the greedy fixpoint on a single-port machine so the
final table shows predicted *and* simulated cost of each plus
``speedup_vs_greedy``.  The hyperquicksort search uses
:func:`repro.tune.tuned_sort_pipeline` (the sort plus a naive epilogue
whose fetch fusion is a trap for rewriting to fixpoint) and defaults to
``--dim 5``; ``--beam`` sets the beam width and ``--out`` writes the
frontier as a JSON artifact (schema ``repro.tune.frontier/v1``).

::

    python -m repro plan hyperquicksort            # d=3 rounds, 4096 keys
    python -m repro plan hyperquicksort --dim 5
    python -m repro plan gauss-jordan -n 24 --procs 6
    python -m repro plan hyperquicksort --tables   # full send/recv tables
    python -m repro plan hyperquicksort --diff     # before/after the passes
    python -m repro plan hyperquicksort --no-opt   # raw lowering only
    python -m repro plan hyperquicksort --search --beam 4   # rewrite search
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro.machine import SPECS
from repro.plan import ir
from repro.plan.cost import plan_cost
from repro.plan.lower import lower, plan_cache_stats
from repro.plan.opt import OptConfig, optimize_plan_report
from repro.util.tables import render_table

__all__ = ["main", "run_hyperquicksort", "run_gauss_jordan", "APPS"]


def _cost_rows(plan: ir.Plan, spec, fn_ops: float, element_bytes: int | None):
    """Predicted cost per top-level instruction plus the predicted total."""
    rows = []
    total = plan_cost(plan, spec=spec, fn_ops=fn_ops,
                      element_bytes=element_bytes)
    for i, instr in enumerate(plan.instrs):
        one = plan_cost(ir.Plan((instr,), plan.nprocs, plan.grid),
                        spec=spec, fn_ops=fn_ops, element_bytes=element_bytes)
        rows.append([f"[{i:>2}] {ir.instr_title(instr)}",
                     f"{one.seconds:.3e}", one.messages, one.barriers])
        if isinstance(instr, ir.Loop):
            for it, body in enumerate(instr.bodies):
                c = plan_cost(ir.Plan(tuple(body), plan.nprocs, plan.grid),
                              spec=spec, fn_ops=fn_ops,
                              element_bytes=element_bytes)
                rows.append([f"      iter {it}", f"{c.seconds:.3e}",
                             c.messages, c.barriers])
    rows.append(["predicted total", f"{total.seconds:.3e}",
                 total.messages, total.barriers])
    return rows, total


def run_hyperquicksort(args, machine_kw, label, opt):
    """Run the compiled sort on ``args.seed``'s keys and check it (shared
    with ``python -m repro trace``); returns ``(expr, nprocs, run result,
    title detail, element bytes on the wire)``."""
    from repro.apps.sort import hyperquicksort_expression, seq_quicksort
    from repro.core import parmap, partition
    from repro.core.partition import Block
    from repro.machine import Hypercube, Machine
    from repro.scl.compile import run_expression

    d = args.dim
    p = 1 << d
    expr = hyperquicksort_expression(d)
    rng = np.random.default_rng(args.seed)
    values = rng.integers(0, 2**31, size=args.n).astype(np.int32)
    blocks = parmap(seq_quicksort, partition(Block(p), values))
    machine = Machine(Hypercube(d), spec=args.spec, **machine_kw)
    out, res = run_expression(expr, blocks, machine, label=label, opt=opt)
    merged = np.concatenate([np.asarray(b) for b in out])
    assert np.array_equal(merged, np.sort(values)), "compiled sort incorrect"
    detail = f"d={d} (p={p}), {args.n} keys, {args.spec.name}"
    eb = int(np.ceil(args.n / p)) * 4  # one block of int32 keys on the wire
    return expr, p, res, detail, eb


def run_gauss_jordan(args, machine_kw, label, opt):
    """Run the compiled solve on ``args.seed``'s system and check it
    (same contract as :func:`run_hyperquicksort`)."""
    from repro.apps.linalg import gauss_jordan_expression
    from repro.core import ColBlock, ParArray, gather, partition
    from repro.machine import Machine
    from repro.machine.topology import FullyConnected
    from repro.scl.compile import run_expression

    n, p = args.n, args.procs
    rng = np.random.default_rng(args.seed)
    A = rng.normal(size=(n, n)) + n * np.eye(n)
    b = rng.normal(size=n)
    aug = np.hstack([A, b.reshape(n, -1)])
    pattern = ColBlock(p)
    expr = gauss_jordan_expression(n, p, aug.shape)
    machine = Machine(FullyConnected(p), spec=args.spec, **machine_kw)
    out, res = run_expression(expr, partition(pattern, aug), machine,
                              label=label, opt=opt)
    solved = np.asarray(gather(ParArray(out.to_list(), dist=pattern)))
    x = solved[:, n:].reshape(b.shape)
    assert np.allclose(A @ x, b), "compiled solve incorrect"
    detail = f"n={n}, p={p}, {args.spec.name}"
    eb = n * int(np.ceil((n + 1) / p)) * 8  # one float64 column block
    return expr, p, res, detail, eb


#: app name -> runner ``(args, machine_kw, label, opt)``.
APPS = {
    "hyperquicksort": run_hyperquicksort,
    "gauss-jordan": run_gauss_jordan,
}

FRONTIER_SCHEMA = "repro.tune.frontier/v1"


def _rule_summary(rules) -> str:
    """Compress a rule chain: ``('a','a','b') -> 'a x2, b'``."""
    if not rules:
        return "(original)"
    counts: dict[str, int] = {}
    for name in rules:
        counts[name] = counts.get(name, 0) + 1
    return ", ".join(f"{name} x{c}" if c > 1 else name
                     for name, c in counts.items())


def _search_main(args) -> int:
    """``--search``: print the explored frontier, then (hyperquicksort)
    run searched winner and greedy fixpoint for simulated columns."""
    import json

    from repro.machine import Hypercube, Machine
    from repro.tune import tune_expression, tuned_sort_pipeline

    if args.app == "hyperquicksort":
        d, p = args.dim, 1 << args.dim
        expr = tuned_sort_pipeline(d)
        title = (f"rewrite search: tuned_sort_pipeline d={d} (p={p}), "
                 f"beam={args.beam}, {args.spec.name}")
    else:
        from repro.apps.linalg import gauss_jordan_expression

        n, p = args.n, args.procs
        expr = gauss_jordan_expression(n, p, (n, n + 1))
        title = (f"rewrite search: gauss-jordan n={n}, p={p}, "
                 f"beam={args.beam}, {args.spec.name}")

    res = tune_expression(expr, nprocs=p, spec=args.spec,
                          beam=args.beam, fn_ops=args.fn_ops)
    print(title)
    print("=" * len(title))
    print()
    print(f"explored {res.explored} candidates in {res.rounds} rounds "
          f"(beam {res.beam}); winner applied {len(res.best.steps)} "
          f"rewrites, predicted speedup {res.predicted_speedup:.3f}x")
    print()
    rows = []
    for i, c in enumerate(res.frontier):
        tag = ("original" if c is res.original
               else "winner" if c is res.best else "")
        rows.append([i, tag, _rule_summary(c.rules),
                     f"{c.cost.seconds:.3e}", c.cost.messages,
                     c.cost.barriers, c.size])
    print(render_table(
        "explored frontier (pipeline-predicted cost, best first)",
        ["#", "", "rules applied", "pred seconds", "msgs", "barriers",
         "size"], rows,
        notes="Every candidate scored by lower -> plan.opt -> plan_cost; "
              "ties broken toward the smaller expression."))

    simulated = None
    if args.app == "hyperquicksort":
        from repro.apps.sort import seq_quicksort
        from repro.core import Block, parmap, partition
        from repro.scl.compile import run_expression
        from repro.scl.optimize import estimate_cost
        from repro.scl.rules import default_engine

        rng = np.random.default_rng(args.seed)
        values = rng.integers(0, 2**31, size=args.n).astype(np.int32)
        blocks = parmap(seq_quicksort, partition(Block(p), values))
        # "greedy" is every rule applied to fixpoint, priced on the raw
        # lowering at the model's default fragment cost — the view under
        # which its fetch fusion pays (see repro.tune.workloads)
        fixpoint, fixpoint_steps = default_engine().rewrite(expr)
        greedy_cost = estimate_cost(fixpoint, n=p, spec=args.spec)
        out_s, sim_s = run_expression(
            res.winner.expr, blocks,
            Machine(Hypercube(args.dim), spec=args.spec, single_port=True),
            opt="auto")
        out_g, sim_g = run_expression(
            fixpoint, blocks,
            Machine(Hypercube(args.dim), spec=args.spec, single_port=True),
            opt="auto")
        identical = all(np.array_equal(np.asarray(a), np.asarray(b))
                        for a, b in zip(list(out_s), list(out_g)))
        speedup = sim_g.makespan / sim_s.makespan
        greedy_rules = tuple(s.rule for s in fixpoint_steps)
        print()
        print(render_table(
            "searched winner vs greedy fixpoint "
            "(single-port hypercube run)",
            ["strategy", "pred seconds", "sim makespan", "sim msgs",
             "rules"],
            [["search", f"{res.best.cost.seconds:.3e}",
              f"{sim_s.makespan:.3e}", sim_s.total_messages,
              _rule_summary(res.best.rules)],
             ["greedy", f"{greedy_cost.seconds:.3e}",
              f"{sim_g.makespan:.3e}", sim_g.total_messages,
              _rule_summary(greedy_rules)]],
            notes=f"speedup_vs_greedy = {speedup:.3f}x; outputs identical: "
                  f"{'yes' if identical else 'NO'}"))
        if not identical:
            print("error: searched and greedy outputs differ",
                  file=sys.stderr)
            return 1
        simulated = {
            "search": {"makespan": sim_s.makespan,
                       "messages": sim_s.total_messages,
                       "rules": list(res.best.rules)},
            "greedy": {"makespan": sim_g.makespan,
                       "messages": sim_g.total_messages,
                       "rules": list(greedy_rules)},
            "speedup_vs_greedy": speedup,
            "outputs_identical": identical,
        }

    if args.out:
        artifact = {
            "schema": FRONTIER_SCHEMA,
            "generated_by": "python -m repro plan --search",
            "app": args.app,
            "spec": args.spec.name,
            "nprocs": p,
            "beam": res.beam,
            "explored": res.explored,
            "rounds": res.rounds,
            "predicted_speedup": res.predicted_speedup,
            "frontier": [{
                "rules": list(c.rules),
                "predicted_seconds": c.cost.seconds,
                "messages": c.cost.messages,
                "barriers": c.cost.barriers,
                "size": c.size,
                "depth": c.depth,
                "is_winner": c is res.best,
                "is_original": c is res.original,
            } for c in res.frontier],
            "simulated": simulated,
        }
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(artifact, fh, indent=2)
            fh.write("\n")
        print(f"\nwrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro plan",
        description="Lower a compiled example app to the Plan IR and dump "
                    "the program with predicted vs simulated cost.")
    parser.add_argument("app", choices=sorted(APPS))
    parser.add_argument("-n", type=int, default=None,
                        help="workload size (keys to sort / matrix order; "
                             "defaults: 4096 keys, n=24 system)")
    parser.add_argument("--dim", type=int, default=None,
                        help="hypercube dimension for hyperquicksort "
                             "(p=2^dim; default 3, or 5 with --search)")
    parser.add_argument("--procs", type=int, default=6,
                        help="processor count for gauss-jordan")
    parser.add_argument("--seed", type=int, default=19950701)
    parser.add_argument("--spec", choices=sorted(SPECS), default="ap1000",
                        help="machine cost model")
    parser.add_argument("--fn-ops", type=float, default=50.0,
                        help="assumed ops per opaque function application "
                             "in the predicted column")
    parser.add_argument("--tables", action="store_true",
                        help="print full per-rank send/recv tables")
    opt_group = parser.add_mutually_exclusive_group()
    opt_group.add_argument("--opt", dest="opt", action="store_true",
                           default=True,
                           help="run the plan optimizer passes (default)")
    opt_group.add_argument("--no-opt", dest="opt", action="store_false",
                           help="dump the raw lowering, passes disabled")
    parser.add_argument("--diff", action="store_true",
                        help="print the unoptimised listing, the pass notes, "
                             "and the optimised listing")
    parser.add_argument("--search", action="store_true",
                        help="run the cost-driven rewrite search and print "
                             "the explored frontier (predicted vs simulated, "
                             "rule provenance) instead of one plan dump")
    parser.add_argument("--beam", type=int, default=4,
                        help="beam width for --search (default 4)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="with --search: write the frontier as a JSON "
                             "artifact (schema repro.tune.frontier/v1)")
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    args.spec = SPECS[args.spec]
    if args.dim is None:
        args.dim = 5 if args.search else 3
    if args.n is None:
        args.n = 4096 if args.app == "hyperquicksort" else 24
    if args.app == "hyperquicksort" and not (1 <= args.dim <= 10):
        print("error: --dim must be between 1 and 10", file=sys.stderr)
        return 2
    if args.search and args.app == "hyperquicksort" and (1 << args.dim) % 16:
        print("error: --search needs 16 | 2^dim (--dim >= 4): the tuned "
              "pipeline groups ranks into blocks of 16", file=sys.stderr)
        return 2
    args.opt_cfg = OptConfig(spec=args.spec) if args.opt else None
    if args.search:
        return _search_main(args)

    from repro.scl.plan_pretty import pretty_plan

    expr, p, res, detail, eb = APPS[args.app](args, {}, "program",
                                              args.opt_cfg)
    plan = lower(expr, p, opt=args.opt_cfg)
    title = f"{args.app} expression, {detail}"
    print(title + ("" if args.opt else "  [passes disabled]"))
    print("=" * len(title))
    print()
    if args.diff:
        raw = lower(expr, plan.nprocs, plan.grid)
        opt_plan, notes = optimize_plan_report(
            raw, args.opt_cfg or OptConfig(spec=args.spec))
        print("--- unoptimised plan " + "-" * 30)
        print(pretty_plan(raw, tables=args.tables))
        print()
        print("--- optimizer passes " + "-" * 30)
        if notes:
            for note in notes:
                print(f"[{note.pass_name}] {note.detail}")
        else:
            print("(no pass fired)")
        print()
        print("--- optimised plan " + "-" * 32)
        print(pretty_plan(opt_plan, tables=args.tables))
    else:
        print(pretty_plan(plan, tables=args.tables))
    print()
    rows, _total = _cost_rows(plan, args.spec, args.fn_ops, eb)
    rows.append(["simulated run", f"{res.makespan:.3e}",
                 res.total_messages, "-"])
    print(render_table(
        "predicted (plan cost model) vs simulated (machine run)"
        + ("" if args.opt else " — passes disabled"),
        ["instruction", "seconds", "messages", "barriers"], rows,
        notes="Predicted rows price the plan structurally "
              f"(fn_ops={args.fn_ops:g}, element_bytes={eb}); the simulated "
              "row is the same plan executed on real data."))
    stats = plan_cache_stats()
    print(f"plan cache: size={stats['size']} hits={stats['hits']} "
          f"misses={stats['misses']} uncachable={stats['uncachable']} "
          f"optimized={stats['optimized']}")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
