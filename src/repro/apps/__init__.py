"""Applications from §3/§5 of the paper, plus baselines and extensions.

* :mod:`repro.apps.sort` — hyperquicksort: the recursive nested-parallel
  SCL program (§3), its flattened iterative form (§5), the hand-compiled
  machine-level program that reproduces Table 1 / Figure 3, a sample-sort
  baseline, and the Figure 2 stage tracer.
* :mod:`repro.apps.linalg` — the Gauss–Jordan linear solver with partial
  pivoting (§3, first example).
* :mod:`repro.apps.matmul` — Cannon's matrix multiplication (exercises
  ``rotate_row``/``rotate_col`` exactly as §2.2 motivates).
* :mod:`repro.apps.stencil` — Jacobi iteration (exercises ``iter_until``
  and halo exchange with ``fetch``).
* :mod:`repro.apps.bitonic` — block bitonic sort, the classic hypercube
  baseline hyperquicksort is measured against.
* :mod:`repro.apps.fft` — binary-exchange parallel FFT on the hypercube.
* :mod:`repro.apps.nbody` — all-pairs N-body forces on a systolic ring
  (the rotation-pipeline workout for ``rotate``).

Gauss–Jordan, bitonic sort, the FFT, n-body and Cannon's multiply are
each one SCL expression (``*_expression``): the ParArray rendering
interprets it and the ``*_compiled`` rendering runs it through the SCL
compiler on the simulated machine, so the compiler, optimizer and search
see the program the interpreter runs.  Hyperquicksort has an expression
too, beside the hand-written program behind Table 1; Jacobi and sample
sort still pair a ParArray-level program with a hand-written
``*_machine`` twin.
"""

from repro.apps import bitonic, fft, linalg, matmul, nbody, sort, stencil

__all__ = ["sort", "bitonic", "fft", "nbody", "linalg", "matmul", "stencil"]
