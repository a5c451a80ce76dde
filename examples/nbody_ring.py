#!/usr/bin/env python3
"""N-body forces on a systolic ring — the `rotate` skeleton at work.

All-pairs gravitational forces with the visiting-block rotation pipeline:
p rounds of local block-vs-block interaction, each followed by rotating
the visiting blocks one position.  Prints the program — one SCL
expression — verifies it against the direct O(n²) computation, and
reports the scaling of the same expression compiled onto a simulated ring.

Run:  python examples/nbody_ring.py [n]
"""

import sys

import numpy as np

from repro.apps.nbody import (forces_compiled, forces_parallel, forces_seq,
                              nbody_expression)
from repro.machine import AP1000
from repro.scl import pretty


def main():
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 512
    rng = np.random.default_rng(2)
    pos = rng.standard_normal((n, 3))
    mass = rng.uniform(0.5, 2.0, size=n)

    print(f"All-pairs forces for {n} bodies")
    print(f"round 0 of the program at p=8: "
          f"{pretty(nbody_expression(8).body(0))}\n")
    ref = forces_seq(pos, mass)
    par = forces_parallel(pos, mass, 8)
    print(f"skeleton program (p=8): max deviation from direct O(n^2) = "
          f"{np.max(np.abs(par - ref)):.2e}")

    print(f"\nsystolic ring on the simulated {AP1000.name}:")
    print(f"   {'procs':>5}  {'runtime (s)':>12}  {'speedup':>8}  {'eff':>5}")
    t1 = None
    for p in (1, 2, 4, 8, 16, 32):
        out, res = forces_compiled(pos, mass, p)
        assert np.allclose(out, ref, atol=1e-9)
        t1 = t1 or res.makespan
        sp = t1 / res.makespan
        print(f"   {p:>5}  {res.makespan:>12.4f}  {sp:>8.2f}  {sp / p:>5.0%}")


if __name__ == "__main__":
    main()
