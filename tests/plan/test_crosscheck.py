"""Lowered plans compute exactly what the pure interpreter computes.

The compiler's correctness statement, exercised end-to-end on the
§3/§5 applications and the two hypercube baselines written as
expressions (bitonic sort, FFT) and the two ``redistribution`` programs
(the n-body ring, Cannon's multiply): lower the expression, execute the plan on the
simulated machine, and compare element-for-element against
:func:`repro.scl.interp.evaluate` on the same input.  A second set of
checks pins the *cost* side of the contract on the same plans: the plan
cost model's message count equals the simulator's actual message count,
because predictor and machine consume the identical tables.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.bitonic import bitonic_expression
from repro.apps.fft import fft_expression
from repro.apps.linalg import gauss_jordan_expression
from repro.apps.matmul import _initial_states as cannon_states
from repro.apps.matmul import cannon_expression
from repro.apps.nbody import _initial_states as nbody_states
from repro.apps.nbody import nbody_expression
from repro.apps.sort import hyperquicksort_expression, seq_quicksort
from repro.core import parmap, partition
from repro.core.partition import Block, ColBlock
from repro.core.pararray import ParArray
from repro.machine import AP1000, Hypercube, Machine
from repro.machine.topology import FullyConnected, Mesh2D, Ring
from repro.plan.cost import plan_cost
from repro.plan.lower import lower
from repro.scl import evaluate
from repro.scl.compile import run_expression


def _sorted_blocks(rng, n: int, p: int) -> ParArray:
    vals = rng.integers(0, 10**6, size=n).astype(np.int32)
    return parmap(seq_quicksort, partition(Block(p), vals))


def _augmented(rng, n: int) -> np.ndarray:
    A = rng.normal(size=(n, n)) + n * np.eye(n)
    b = rng.normal(size=(n, 1))
    return np.hstack([A, b])


class TestHyperquicksortCrosscheck:
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_compiled_equals_interpreted(self, rng, d):
        p = 1 << d
        expr = hyperquicksort_expression(d)
        blocks = _sorted_blocks(rng, 64 * p, p)
        want = evaluate(expr, blocks)
        got, _res = run_expression(expr, blocks, Machine(Hypercube(d), spec=AP1000))
        for w, g in zip(want, got):
            assert np.array_equal(np.asarray(w), np.asarray(g))

    @pytest.mark.parametrize("d", [2, 3])
    def test_predicted_messages_equal_simulated(self, rng, d):
        p = 1 << d
        expr = hyperquicksort_expression(d)
        blocks = _sorted_blocks(rng, 64 * p, p)
        _got, res = run_expression(expr, blocks, Machine(Hypercube(d), spec=AP1000))
        predicted = plan_cost(lower(expr, p), spec=AP1000)
        assert predicted.messages == res.total_messages


class TestGaussJordanCrosscheck:
    @pytest.mark.parametrize("n,p", [(8, 2), (12, 4), (24, 6)])
    def test_compiled_equals_interpreted(self, rng, n, p):
        aug = _augmented(rng, n)
        expr = gauss_jordan_expression(n, p, aug.shape)
        blocks = partition(ColBlock(p), aug)
        want = evaluate(expr, blocks)
        got, _res = run_expression(expr, blocks,
                                   Machine(FullyConnected(p), spec=AP1000))
        for w, g in zip(want, got):
            assert np.allclose(np.asarray(w, dtype=float),
                               np.asarray(g, dtype=float))

    def test_predicted_messages_equal_simulated(self, rng):
        n, p = 12, 4
        aug = _augmented(rng, n)
        expr = gauss_jordan_expression(n, p, aug.shape)
        blocks = partition(ColBlock(p), aug)
        _got, res = run_expression(expr, blocks,
                                   Machine(FullyConnected(p), spec=AP1000))
        predicted = plan_cost(lower(expr, p), spec=AP1000)
        assert predicted.messages == res.total_messages


#: app -> (expression, 1-D input) builder for a d-cube
HYPERCUBE_APPS = {
    "bitonic": lambda rng, d: (
        bitonic_expression(d),
        partition(Block(1 << d),
                  rng.integers(0, 10**6, size=32 << d).astype(np.int32))),
    "fft": lambda rng, d: (
        fft_expression(256, d),
        partition(Block(1 << d),
                  rng.normal(size=256) + 1j * rng.normal(size=256))),
}


@pytest.mark.parametrize("app", sorted(HYPERCUBE_APPS))
class TestHypercubeAppsCrosscheck:
    @pytest.mark.parametrize("d", [0, 1, 2, 3, 4])
    def test_compiled_equals_interpreted(self, rng, app, d):
        expr, blocks = HYPERCUBE_APPS[app](rng, d)
        want = evaluate(expr, blocks)
        got, _res = run_expression(expr, blocks,
                                   Machine(Hypercube(d), spec=AP1000))
        for w, g in zip(want, got, strict=True):
            assert np.array_equal(np.asarray(w), np.asarray(g))

    @pytest.mark.parametrize("d", [2, 3])
    def test_predicted_messages_equal_simulated(self, rng, app, d):
        expr, blocks = HYPERCUBE_APPS[app](rng, d)
        _got, res = run_expression(expr, blocks,
                                   Machine(Hypercube(d), spec=AP1000))
        predicted = plan_cost(lower(expr, 1 << d), spec=AP1000)
        assert predicted.messages == res.total_messages > 0


def _same(want, got) -> bool:
    if isinstance(want, tuple):
        return isinstance(got, tuple) and len(want) == len(got) \
            and all(_same(w, g) for w, g in zip(want, got))
    return np.array_equal(want, got)


#: app -> (expression, input, machine) builder for ``size`` processors
#: per side: a ring of ``size`` for n-body, a ``size x size`` torus for
#: Cannon
REDISTRIBUTION_APPS = {
    "nbody": lambda rng, size: (
        nbody_expression(size),
        ParArray(nbody_states(rng.normal(size=(7 * size + 3, 3)),
                              rng.uniform(0.5, 2.0, size=7 * size + 3),
                              size)),
        Machine(Ring(size), spec=AP1000) if size > 1
        else Machine(1, spec=AP1000)),
    "cannon": lambda rng, size: (
        cannon_expression(size),
        cannon_states(rng.normal(size=(3 * size, 3 * size)),
                      rng.normal(size=(3 * size, 3 * size)), size),
        Machine(Mesh2D(size, size, torus=True), spec=AP1000)),
}


@pytest.mark.parametrize("app", sorted(REDISTRIBUTION_APPS))
class TestRedistributionAppsCrosscheck:
    @pytest.mark.parametrize("size", [1, 2, 3, 4])
    def test_compiled_equals_interpreted(self, rng, app, size):
        expr, states, machine = REDISTRIBUTION_APPS[app](rng, size)
        want = evaluate(expr, states)
        got, _res = run_expression(expr, states, machine)
        assert got.shape == want.shape
        for w, g in zip(want, got, strict=True):
            assert _same(w, g)

    @pytest.mark.parametrize("size", [2, 3])
    def test_predicted_messages_equal_simulated(self, rng, app, size):
        expr, states, machine = REDISTRIBUTION_APPS[app](rng, size)
        _got, res = run_expression(expr, states, machine)
        grid = states.shape if states.ndim == 2 else None
        predicted = plan_cost(lower(expr, states.size, grid), spec=AP1000)
        assert predicted.messages == res.total_messages > 0
