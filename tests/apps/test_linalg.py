"""Tests for repro.apps.linalg — the Gauss–Jordan solver."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.linalg import (
    gauss_jordan_compiled,
    gauss_jordan_seq,
    gauss_jordan_solve,
)
from repro.errors import SkeletonError
from repro.machine import MODERN_CLUSTER


def well_conditioned(rng, n):
    return rng.standard_normal((n, n)) + n * np.eye(n)


class TestSequentialReference:
    def test_matches_numpy(self, rng):
        A = well_conditioned(rng, 12)
        b = rng.standard_normal(12)
        assert np.allclose(gauss_jordan_seq(A, b), np.linalg.solve(A, b))

    def test_identity_system(self):
        assert np.allclose(gauss_jordan_seq(np.eye(4), np.arange(4.0)),
                           np.arange(4.0))

    def test_requires_pivoting(self):
        """A matrix with a zero leading entry only solves with pivoting."""
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        b = np.array([2.0, 3.0])
        assert np.allclose(gauss_jordan_seq(A, b), [3.0, 2.0])

    def test_singular_matrix_detected(self):
        A = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(SkeletonError, match="singular"):
            gauss_jordan_seq(A, np.array([1.0, 2.0]))


class TestSkeletonSolver:
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 8])
    def test_matches_numpy_any_processor_count(self, rng, p):
        A = well_conditioned(rng, 16)
        b = rng.standard_normal(16)
        assert np.allclose(gauss_jordan_solve(A, b, p), np.linalg.solve(A, b))

    def test_agrees_with_sequential(self, rng):
        A = well_conditioned(rng, 10)
        b = rng.standard_normal(10)
        assert np.allclose(gauss_jordan_solve(A, b, 3), gauss_jordan_seq(A, b))

    def test_more_processors_than_columns(self, rng):
        A = well_conditioned(rng, 4)
        b = rng.standard_normal(4)
        # 4x4 augmented to 5 columns over 5 processors
        assert np.allclose(gauss_jordan_solve(A, b, 5), np.linalg.solve(A, b))

    def test_pivoting_exercised(self):
        A = np.array([[0.0, 2.0, 1.0],
                      [1.0, 0.0, 0.0],
                      [3.0, 0.0, 1.0]])
        b = np.array([1.0, 2.0, 3.0])
        assert np.allclose(gauss_jordan_solve(A, b, 2), np.linalg.solve(A, b))

    def test_non_square_rejected(self, rng):
        with pytest.raises(SkeletonError, match="square"):
            gauss_jordan_solve(rng.standard_normal((3, 4)),
                               rng.standard_normal(3), 2)

    def test_mismatched_rhs_rejected(self, rng):
        with pytest.raises(SkeletonError, match="match"):
            gauss_jordan_solve(well_conditioned(rng, 4),
                               rng.standard_normal(5), 2)

    def test_with_executor(self, rng, pool):
        A = well_conditioned(rng, 8)
        b = rng.standard_normal(8)
        out = gauss_jordan_solve(A, b, 4, executor=pool)
        assert np.allclose(out, np.linalg.solve(A, b))

    @settings(max_examples=20)
    @given(st.integers(2, 12), st.integers(1, 6), st.integers(0, 10**6))
    def test_random_systems_property(self, n, p, seed):
        r = np.random.default_rng(seed)
        A = well_conditioned(r, n)
        b = r.standard_normal(n)
        assert np.allclose(gauss_jordan_solve(A, b, p), np.linalg.solve(A, b),
                           atol=1e-8)


class TestMachineSolver:
    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_solves_correctly(self, rng, p):
        A = well_conditioned(rng, 16)
        b = rng.standard_normal(16)
        x, _res = gauss_jordan_compiled(A, b, p)
        assert np.allclose(x, np.linalg.solve(A, b))

    def test_virtual_time_decreases_with_processors(self, rng):
        A = well_conditioned(rng, 48)
        b = rng.standard_normal(48)
        times = []
        for p in (1, 2, 4, 8):
            _x, res = gauss_jordan_compiled(A, b, p)
            times.append(res.makespan)
        assert times[0] > times[1] > times[2]

    def test_broadcast_cost_eventually_dominates(self, rng):
        """With too many processors for a small matrix, communication wins:
        the speedup curve must flatten or reverse."""
        A = well_conditioned(rng, 12)
        b = rng.standard_normal(12)
        _x1, r1 = gauss_jordan_compiled(A, b, 1)
        _x2, r12 = gauss_jordan_compiled(A, b, 12)
        speedup = r1.makespan / r12.makespan
        assert speedup < 12

    def test_modern_spec(self, rng):
        A = well_conditioned(rng, 8)
        b = rng.standard_normal(8)
        x, res = gauss_jordan_compiled(A, b, 4, spec=MODERN_CLUSTER)
        assert np.allclose(x, np.linalg.solve(A, b))

    def test_non_square_rejected(self, rng):
        with pytest.raises(SkeletonError, match="square"):
            gauss_jordan_compiled(rng.standard_normal((3, 4)),
                                  rng.standard_normal(3), 2)

    def test_mismatched_rhs_rejected(self, rng):
        with pytest.raises(SkeletonError, match="match"):
            gauss_jordan_compiled(well_conditioned(rng, 4),
                                  rng.standard_normal(5), 2)


class TestCompiledGauss:
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 8])
    def test_matches_numpy(self, rng, p):
        from repro.apps.linalg import gauss_jordan_compiled

        A = well_conditioned(rng, 12)
        b = rng.standard_normal(12)
        x, _res = gauss_jordan_compiled(A, b, p)
        assert np.allclose(x, np.linalg.solve(A, b))

    def test_expression_interprets_too(self, rng):
        from repro.apps.linalg import gauss_jordan_expression
        from repro.core import ColBlock, partition, gather
        from repro.core.pararray import ParArray
        from repro.scl import evaluate

        n, p = 10, 3
        A = well_conditioned(rng, n)
        b = rng.standard_normal(n)
        aug = np.hstack([A, b.reshape(n, 1)])
        expr = gauss_jordan_expression(n, p, aug.shape)
        out = evaluate(expr, partition(ColBlock(p), aug))
        solved = np.asarray(gather(ParArray(out.to_list(), dist=ColBlock(p))))
        assert np.allclose(solved[:, -1], np.linalg.solve(A, b))

    def test_second_compiled_call_is_a_plan_cache_hit(self, rng):
        from repro.apps.linalg import gauss_jordan_compiled
        from repro.plan.lower import clear_plan_cache, plan_cache_stats

        A = well_conditioned(rng, 12)
        b = rng.standard_normal(12)
        clear_plan_cache()
        _x, first = gauss_jordan_compiled(A, b, 3)
        cold = plan_cache_stats()
        assert cold["hits"] == 0 and cold["misses"] > 0
        x, second = gauss_jordan_compiled(A, b, 3)
        warm = plan_cache_stats()
        # same expression object, so nothing is lowered or optimized again
        assert warm["hits"] == 1
        assert (warm["misses"], warm["optimized"]) == \
            (cold["misses"], cold["optimized"])
        assert np.allclose(x, np.linalg.solve(A, b))
        assert second.makespan == first.makespan

    def test_compiled_time_close_to_handwritten(self, rng):
        from repro.apps.linalg import gauss_jordan_compiled

        A = well_conditioned(rng, 24)
        b = rng.standard_normal(24)
        _x1, compiled = gauss_jordan_compiled(A, b, 4)
        # the makespan the hand-written message-passing Gauss-Jordan took
        # on this input (75 messages: the compiled run's 72 plus the
        # p - 1 of its final tree gather, which the compiled run leaves
        # off the machine)
        hand = 0.008211679999999996
        ratio = compiled.makespan / hand
        assert 0.5 < ratio < 2.0

    def test_pivoting_exercised_compiled(self):
        from repro.apps.linalg import gauss_jordan_compiled

        A = np.array([[0.0, 2.0], [1.0, 0.0]])
        b = np.array([4.0, 3.0])
        x, _res = gauss_jordan_compiled(A, b, 2)
        assert np.allclose(x, np.linalg.solve(A, b))
