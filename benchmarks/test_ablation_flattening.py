"""Ablation C (§4) — SPMD flattening of nested parallelism.

"Nested SPMD computation can be transformed into a flat data parallel
computation with a segmented global function" — the NESL-style segmented
instructions.  Hyperquicksort itself is the paper's worked example: §5
flattens the recursive divide-and-conquer into a linear iterative program
before hand-compiling it.

We measure (1) the rewrite on a synthetic nested pipeline, and (2) the real
flattening on hyperquicksort: the recursive (§3) and flat (§5) expressions
give the same values, and compiled onto the simulated machine — the
recursion as processor-group splits — the same messages and virtual time.
Results → ``benchmarks/results/ablation_flattening.txt`` and
``ablation_flattening_machine.txt``.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import write_table
from repro.apps.sort import hyperquicksort, hyperquicksort_flat
from repro.core import Block, ParArray, partition
from repro.scl import (
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
from repro.machine import AP1000

N = 64
GROUPS = 8


def _nested_program():
    return compose_nodes(
        Spmd((Stage(global_=Map(lambda sub: sub)),)),
        Map(Spmd((Stage(global_=Rotate(1), local=lambda x: x * 3 + 1),))),
        Split(Block(GROUPS)),
    )


def test_ablation_spmd_flattening(benchmark, results_dir):
    nested = _nested_program()
    flat, steps = default_engine().rewrite(nested)
    assert any(s.rule == "spmd-flattening" for s in steps)
    assert isinstance(flat, Spmd) and len(flat.stages) == 1

    pa = ParArray(list(range(N)))
    assert evaluate(nested, pa) == evaluate(flat, pa)

    c_nested = estimate_cost(nested, n=N, spec=AP1000, fn_ops=50)
    c_flat = estimate_cost(flat, n=N, spec=AP1000, fn_ops=50)

    write_table(
        results_dir, "ablation_flattening",
        f"Ablation C: SPMD flattening — {GROUPS} groups of {N // GROUPS}, "
        f"{N} processors",
        ["variant", "expression", "predicted (s)", "barriers"],
        [["nested", pretty(nested)[:60], f"{c_nested.seconds:.3e}",
          c_nested.barriers],
         ["flattened", pretty(flat)[:60], f"{c_flat.seconds:.3e}",
          c_flat.barriers]],
        notes=("The flattened form farms local work once over the whole flat "
               "array (one barrier per stage) instead of per nested group."))

    benchmark(lambda: evaluate(flat, pa))


def test_flattening_on_hyperquicksort(benchmark, bench_rng):
    """§5's actual flattening: recursive and iterative hyperquicksort agree,
    and the flat form is what the machine-level program compiles from."""
    vals = bench_rng.integers(0, 10**6, size=2048)
    rec = hyperquicksort(vals, 3)
    flat = benchmark.pedantic(lambda: hyperquicksort_flat(vals, 3),
                              rounds=3, iterations=1)
    assert np.array_equal(rec, flat)


def _compiled(expr, vals, d):
    """``expr ∘ map SEQ_QUICKSORT`` compiled onto a ``d``-cube AP1000."""
    from repro.apps.sort import seq_quicksort
    from repro.machine import Hypercube, Machine
    from repro.scl.compile import run_expression

    out, res = run_expression(compose_nodes(expr, Map(seq_quicksort)),
                              partition(Block(1 << d), vals),
                              Machine(Hypercube(d), spec=AP1000))
    return np.concatenate([np.asarray(b) for b in out]), res


def test_flattening_is_runtime_neutral_on_machine(benchmark, bench_rng,
                                                  results_dir):
    """Measured nested (§3 recursion, processor-group splits) vs flattened
    (§5 ``iterFor``) compiled programs: identical values, message counts
    and virtual times.  Flattening's value is enabling *flat SPMD code
    generation* (the paper targets Fortran+MPI without recursion), not
    saving messages at runtime."""
    from repro.apps.sort import (hyperquicksort_expression,
                                 hyperquicksort_machine,
                                 hyperquicksort_nested_expression)

    vals = bench_rng.integers(0, 2**31, size=16384).astype(np.int32)
    rows, ratios = [], []
    for d in (2, 3, 4):
        nested_out, nested = _compiled(hyperquicksort_nested_expression(d),
                                       vals, d)
        flat_out, flat = _compiled(hyperquicksort_expression(d), vals, d)
        assert np.array_equal(nested_out, flat_out)
        assert np.array_equal(flat_out, np.sort(vals))
        assert nested.total_messages == flat.total_messages
        assert nested.makespan == flat.makespan
        _h, hand = hyperquicksort_machine(vals, d, spec=AP1000,
                                          include_distribution=False)
        ratios.append(f"{flat.makespan / hand.makespan:.3f}x")
        rows.append([1 << d, f"{nested.makespan:.4f}", f"{flat.makespan:.4f}",
                     nested.total_messages])
    write_table(
        results_dir, "ablation_flattening_machine",
        "Nested (recursive groups) vs flattened hyperquicksort, compiled "
        "and measured",
        ["procs", "nested (s)", "flattened (s)", "messages (both)"],
        rows,
        notes=("Identical values, runtimes and traffic: the transformation is "
               "runtime-neutral; it exists so the compiler can emit flat "
               "SPMD code (the paper hand-compiled exactly this way).  Both "
               "columns are compiled expressions, each `... . map "
               "SEQ_QUICKSORT` on pre-distributed blocks; the nested one "
               "runs its splits as processor groups.  They read "
               f"{' / '.join(ratios)} of the hand-written flat program "
               "(Table 1's, without distribution), which the retired "
               "hand-written nested program equalled: the compiled pivot "
               "step fetches each sub-cube leader's block and takes its "
               "median at every rank, where the hand-written one "
               "broadcast a one-word pivot."))
    benchmark.pedantic(
        lambda: _compiled(hyperquicksort_nested_expression(4), vals, 4),
        rounds=2, iterations=1)


def test_flattening_host_wallclock_nested(benchmark):
    pa = ParArray(list(range(N)))
    nested = _nested_program()
    benchmark(lambda: evaluate(nested, pa))
