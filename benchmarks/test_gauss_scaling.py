"""Extension bench — Gauss–Jordan solver scaling (the paper's §3 example 1).

The paper presents the Gauss–Jordan SCL program but evaluates only
hyperquicksort; this bench completes the picture by running the compiled
§3 expression on the simulated AP1000 across processor counts, showing
the same qualitative behaviour: falling runtime with growing p until the
per-iteration pivot broadcast dominates.

Results → ``benchmarks/results/gauss_scaling.txt``.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import write_table
from repro.apps.linalg import gauss_jordan_compiled
from repro.machine import AP1000

N = 96
PROCS = [1, 2, 4, 8, 16, 32]


@pytest.fixture(scope="module")
def system(bench_rng):
    A = bench_rng.standard_normal((N, N)) + N * np.eye(N)
    b = bench_rng.standard_normal(N)
    return A, b


def test_gauss_scaling(benchmark, system, results_dir):
    A, b = system
    x_ref = np.linalg.solve(A, b)
    rows = []
    times = {}
    for p in PROCS:
        x, res = gauss_jordan_compiled(A, b, p, spec=AP1000)
        assert np.allclose(x, x_ref)
        times[p] = res.makespan
        speedup = times[1] / res.makespan
        rows.append([p, f"{res.makespan:.4f}", f"{speedup:.2f}",
                     f"{speedup / p:.0%}", res.total_messages])

    assert times[2] < times[1] and times[4] < times[2]

    write_table(
        results_dir, "gauss_scaling",
        f"Gauss-Jordan solve of a {N}x{N} system (simulated {AP1000.name})",
        ["procs", "runtime (s)", "speedup", "efficiency", "messages"],
        rows,
        notes=("Per-iteration pivot broadcast costs grow with log p while "
               "local update work shrinks as 1/p: efficiency declines, the "
               "same communication/computation trade-off as Table 1.  The "
               "compiled expression runs the n iterations; the final gather "
               "of the column blocks is no longer on the machine, so each "
               "row has p - 1 fewer messages than the hand-written "
               "program's."))

    benchmark.pedantic(lambda: gauss_jordan_compiled(A, b, 8, spec=AP1000),
                       rounds=2, iterations=1)


def test_gauss_efficiency_declines(system):
    A, b = system
    _x1, r1 = gauss_jordan_compiled(A, b, 2, spec=AP1000)
    _x2, r2 = gauss_jordan_compiled(A, b, 32, spec=AP1000)
    eff2 = r1.makespan * 2 / (r2.makespan * 32)
    assert eff2 < 1.0
