#!/usr/bin/env python3
"""Gauss–Jordan linear solver — the paper's §3 first example.

Solves ``Ax = b`` with the SCL program from the paper (column-block
distribution, ``iterFor`` main loop, ``applybrdcast`` pivot distribution,
``map UPDATE`` parallel elimination), checks it against NumPy, and shows
the same expression's scaling once compiled onto the simulated AP1000.

Run:  python examples/gauss_jordan.py [n]
"""

import sys

import numpy as np

from repro.apps.linalg import gauss_jordan_compiled, gauss_jordan_seq, gauss_jordan_solve
from repro.machine import AP1000


def main():
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 64
    rng = np.random.default_rng(7)
    A = rng.standard_normal((n, n)) + n * np.eye(n)
    b = rng.standard_normal(n)
    x_ref = np.linalg.solve(A, b)

    print(f"Solving a {n}x{n} system with Gauss-Jordan + partial pivoting\n")

    x_seq = gauss_jordan_seq(A, b)
    print(f"sequential reference     max|x - numpy| = "
          f"{np.max(np.abs(x_seq - x_ref)):.2e}")

    for p in (2, 4, 8):
        x = gauss_jordan_solve(A, b, p)
        print(f"skeleton program (p={p})   max|x - numpy| = "
              f"{np.max(np.abs(x - x_ref)):.2e}")

    print(f"\ncompiled onto the simulated {AP1000.name}:")
    print(f"   {'procs':>5}  {'runtime (s)':>12}  {'speedup':>8}")
    t1 = None
    for p in (1, 2, 4, 8, 16, 32):
        x, res = gauss_jordan_compiled(A, b, p, spec=AP1000)
        assert np.allclose(x, x_ref)
        t1 = t1 or res.makespan
        print(f"   {p:>5}  {res.makespan:>12.4f}  {t1 / res.makespan:>8.2f}")

    print("\nThe SCL program (paper §3):")
    print("  gauss A p = iterFor n elimPivot (partition col_block_p [A|b])")
    print("  elimPivot i x = map (UPDATE i) (applybrdcast (PARTIAL_PIVOT i) owner x)")


if __name__ == "__main__":
    main()
