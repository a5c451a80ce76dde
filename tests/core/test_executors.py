"""One differential over every ``executor=`` entry point.

Each skeleton, the SCL interpreter and the four ``ParArray``-level app
twins must compute on a two-thread stdlib pool exactly what they compute
in the calling thread (``executor=None``): a pool changes who runs a
fragment, never a result or its order.
"""

from __future__ import annotations

import heapq
import operator

import numpy as np
import pytest

from repro.apps.linalg import gauss_jordan_solve
from repro.apps.matmul import cannon_matmul
from repro.apps.sort import hyperquicksort
from repro.apps.stencil import jacobi_solve
from repro.core import (
    ParArray,
    divide_and_conquer,
    farm,
    fold,
    fold_map,
    imap,
    parmap,
    rotate,
    scan,
    spmd,
)
from repro.scl import IMap, Map, Rotate, Scan, Spmd, Stage, compose_nodes, evaluate

XS = list(range(1, 41))
WORDS = [str(x) for x in XS]  # a non-commutative fold / scan
_RNG = np.random.default_rng(7)
KEYS = _RNG.integers(0, 1000, size=256)
A = _RNG.standard_normal((8, 8)) + 8 * np.eye(8)
B = _RNG.standard_normal((8, 8))
RHS = _RNG.standard_normal(8)
GRID = np.zeros((12, 12))
GRID[0, :] = 100.0


def _farm(executor):
    failed: set[int] = set()

    def job(env, x):
        if x % 3 == 0 and x not in failed:  # every third job fails once
            failed.add(x)
            raise RuntimeError("transient")
        return env + x

    return farm(job, 10, ParArray(XS), executor=executor, retries=1)


def _divide_and_conquer(executor):
    return divide_and_conquer(
        trivial=lambda v: len(v) <= 4,
        solve=sorted,
        divide=lambda v: [v[: len(v) // 2], v[len(v) // 2:]],
        combine=lambda parts: list(heapq.merge(*parts)),
        problem=KEYS.tolist(),
        executor=executor,
        fork_levels=3,
    )


PROGRAM = compose_nodes(
    Scan(operator.add),
    Spmd((Stage(global_=Rotate(1), local=lambda i, x: x * i, indexed=True),)),
    IMap(lambda i, x: x - i),
    Map(lambda x: x * 3),
)

ENTRY_POINTS = {
    "parmap": lambda ex: parmap(lambda x: x * x, ParArray(XS), executor=ex),
    "imap": lambda ex: imap(lambda i, x: i * x, ParArray(XS), executor=ex),
    "fold": lambda ex: fold(operator.add, ParArray(WORDS), executor=ex),
    "scan": lambda ex: scan(operator.add, ParArray(WORDS), executor=ex),
    "fold_map": lambda ex: fold_map(operator.add, str, ParArray(XS),
                                    executor=ex),
    "farm": _farm,
    "spmd": lambda ex: spmd(
        [(lambda pa: rotate(1, pa), lambda i, x: x + i)] * 3,
        executor=ex)(ParArray(XS)),
    "divide_and_conquer": _divide_and_conquer,
    "evaluate": lambda ex: evaluate(PROGRAM, ParArray(XS), executor=ex),
    "hyperquicksort": lambda ex: hyperquicksort(KEYS, 3, executor=ex).tolist(),
    "gauss_jordan_solve": lambda ex: gauss_jordan_solve(
        A, RHS, 4, executor=ex).tolist(),
    "cannon_matmul": lambda ex: cannon_matmul(A, B, 4, executor=ex).tolist(),
    "jacobi_solve": lambda ex: (lambda r: (r.grid.tolist(), r.iterations,
                                           r.residual))(
        jacobi_solve(GRID, 3, tol=1e-2, executor=ex)),
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_a_pool_computes_what_the_calling_thread_does(entry, pool):
    run = ENTRY_POINTS[entry]
    assert run(pool) == run(None)
