#!/usr/bin/env python3
"""The §4 transformation rules, demonstrated one by one.

Each section builds a program as a skeleton expression, rewrites it with
one of the paper's laws, shows the before/after in SCL notation, proves
semantic equality on sample data, and reports the cost model's prediction
on the simulated AP1000.

Run:  python examples/transformations.py
"""

import operator

from repro.core import Block, ParArray
from repro.machine import AP1000
from repro.scl import (
    Fetch,
    FoldrFused,
    Map,
    Rotate,
    Spmd,
    Split,
    Stage,
    compose_nodes,
    default_engine,
    estimate_cost,
    evaluate,
    pretty,
)
from repro.tune import tune_expression

PA = ParArray([3, 1, 4, 1, 5, 9, 2, 6])
ENGINE = default_engine()


def show(title, prog, n=64, fn_ops=50):
    out, steps = ENGINE.rewrite(prog)
    print(f"\n--- {title} " + "-" * max(0, 55 - len(title)))
    print("  before:", pretty(prog))
    print("  after: ", pretty(out))
    for s in steps:
        print("  rule:  ", s.rule)
    before = estimate_cost(prog, n=n, spec=AP1000, fn_ops=fn_ops)
    after = estimate_cost(out, n=n, spec=AP1000, fn_ops=fn_ops)
    print(f"  predicted: {before.seconds:.3e}s -> {after.seconds:.3e}s "
          f"({before.messages}->{after.messages} msgs, "
          f"{before.barriers}->{after.barriers} barriers)")
    same = evaluate(prog, PA) == evaluate(out, PA)
    print(f"  semantics preserved on sample data: {same}")
    return out


def main():
    print("Meaning-preserving transformations (paper §4)")

    show("map fusion: map f . map g = map (f . g)",
         compose_nodes(Map(lambda x: x + 1), Map(lambda x: x * 2)))

    show("map distribution: foldr (f . g) = fold f . map g",
         FoldrFused(operator.add, lambda x: x * x, op_associative=True))

    show("communication algebra: fetch f . fetch g = fetch (g . f)",
         compose_nodes(Fetch(lambda i: (i + 1) % 8),
                       Fetch(lambda i: (i * 3) % 8), ), n=8)

    show("rotation algebra: rotate j . rotate k = rotate (j + k)",
         compose_nodes(Rotate(3), Rotate(5), Rotate(-8)), n=8)

    show("SPMD flattening: nested SPMD -> flat segmented SPMD",
         compose_nodes(
             Spmd((Stage(global_=Map(lambda s: s)),)),
             Map(Spmd((Stage(global_=Rotate(1), local=lambda x: x * 2),))),
             Split(Block(2)),
         ), n=8)

    print("\n--- cost-guided optimisation " + "-" * 28)
    prog = FoldrFused(operator.add, lambda x: x, op_associative=True)
    cheap = tune_expression(prog, nprocs=256, spec=AP1000, fn_ops=1)
    dear = tune_expression(prog, nprocs=256, spec=AP1000, fn_ops=500)
    print("  trivial elements (1 op):   rewrite accepted =", cheap.improved,
          "(latency dominates — stay sequential)")
    print("  heavy elements (500 ops):  rewrite accepted =", dear.improved,
          f"(predicted speedup {dear.predicted_speedup:.1f}x)")


if __name__ == "__main__":
    main()
