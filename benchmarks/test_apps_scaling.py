"""Application-suite scaling — every app on the AP1000 model.

One table: virtual runtime vs processor count for the FFT, the N-body
ring, Cannon's multiply (on the torus), machine Jacobi, and the three
sorts, each at a representative problem size.  This is the "evaluation
the paper would have run with more space": the same machine, many
algorithm/communication patterns, each scaling until its own
communication pattern bites.

Results → ``benchmarks/results/apps_scaling.txt``.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.conftest import write_table
from repro.apps.bitonic import bitonic_sort_compiled
from repro.apps.fft import fft_compiled
from repro.apps.linalg import gauss_jordan_compiled
from repro.apps.matmul import cannon_matmul_compiled
from repro.apps.nbody import forces_compiled
from repro.apps.sort import hyperquicksort_machine, sample_sort_compiled
from repro.apps.stencil import jacobi_machine
from repro.machine import AP1000

PROCS = [1, 4, 16]


@pytest.fixture(scope="module")
def workloads(bench_rng):
    return {
        "fft": bench_rng.standard_normal(16384) + 1j * bench_rng.standard_normal(16384),
        "sortvals": bench_rng.integers(0, 2**31, size=32768).astype(np.int32),
        "bodies": (bench_rng.standard_normal((512, 3)),
                   bench_rng.uniform(0.5, 2.0, size=512)),
        "matA": bench_rng.standard_normal((64, 64)),
        "matB": bench_rng.standard_normal((64, 64)),
        "gaussA": bench_rng.standard_normal((64, 64)) + 64 * np.eye(64),
        "gaussB": bench_rng.standard_normal(64),
        "grid": np.pad(np.zeros((30, 32)), ((1, 1), (0, 0)),
                       constant_values=100.0),
    }


def _rows(workloads):
    pos, mass = workloads["bodies"]
    apps = {
        "hyperquicksort": lambda p, d: hyperquicksort_machine(
            workloads["sortvals"], d, spec=AP1000,
            include_distribution=False)[1].makespan,
        "bitonic sort": lambda p, d: bitonic_sort_compiled(
            workloads["sortvals"], d, spec=AP1000)[1].makespan,
        "sample sort": lambda p, d: sample_sort_compiled(
            workloads["sortvals"], p, spec=AP1000)[1].makespan,
        "FFT 16k": lambda p, d: fft_compiled(
            workloads["fft"], d, spec=AP1000)[1].makespan,
        "N-body 512": lambda p, d: forces_compiled(
            pos, mass, p, spec=AP1000)[1].makespan,
        "Cannon 64x64": lambda p, d: cannon_matmul_compiled(
            workloads["matA"], workloads["matB"], int(round(p ** 0.5)),
            spec=AP1000)[1].makespan,
        "Gauss-Jordan 64": lambda p, d: gauss_jordan_compiled(
            workloads["gaussA"], workloads["gaussB"], p,
            spec=AP1000)[1].makespan,
        "Jacobi 32x32": lambda p, d: jacobi_machine(
            workloads["grid"], p, tol=1e-2, spec=AP1000)[1].makespan,
    }
    rows = []
    series = {}
    for name, run in apps.items():
        times = []
        for p in PROCS:
            d = p.bit_length() - 1
            times.append(run(p, d))
        series[name] = times
        rows.append([name] + [f"{t:.4f}" for t in times]
                    + [f"{times[0] / times[-1]:.1f}x"])
    return rows, series


def test_apps_scaling_table(benchmark, workloads, results_dir):
    rows, series = _rows(workloads)
    write_table(
        results_dir, "apps_scaling",
        f"Application suite on the simulated {AP1000.name} "
        f"(virtual seconds, p = {PROCS})",
        ["application"] + [f"p={p}" for p in PROCS] + ["speedup@16"],
        rows,
        notes=("Every application speeds up with processors at these sizes; "
               "how much depends on its communication pattern — pairwise "
               "exchanges (sorts, FFT) scale best, per-iteration global "
               "collectives (Gauss, Jacobi) pay log-p latency each step.  "
               "Bitonic sort, FFT, Gauss-Jordan, N-body and Cannon run their "
               "compiled SCL expressions on pre-distributed blocks: the "
               "final gather (and FFT's bit-reversal) is no longer on the "
               "machine.  N-body's redistribution moves the visiting block "
               "alone and reproduces its hand-written ring to the bit; "
               "Cannon's moves A and B in two exchange rounds where the "
               "hand-written torus posted both sends before either "
               "receive, so p = 4 and p = 16 read 1.7% and 5.9% above "
               "it with the same messages.  Sample sort runs its compiled "
               "expression too, 1.000x / 1.006x of the retired hand-written "
               "run at p = 4 / 16: its samples' allgather is p - 1 rotation "
               "rounds (24 and 480 messages instead of 18 and 270)."))
    # every app must get faster from p=1 to p=16 at these sizes
    for name, times in series.items():
        assert times[-1] < times[0], name
    benchmark.pedantic(
        lambda: fft_compiled(workloads["fft"], 4, spec=AP1000),
        rounds=2, iterations=1)
