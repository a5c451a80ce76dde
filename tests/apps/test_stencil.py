"""Tests for repro.apps.stencil — Jacobi iteration."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.stencil import JacobiResult, jacobi_seq, jacobi_solve
from repro.errors import SkeletonError


def hot_top_grid(n=16):
    g = np.zeros((n, n))
    g[0, :] = 100.0
    return g


class TestSequential:
    def test_converges(self):
        res = jacobi_seq(hot_top_grid(), tol=1e-3)
        assert res.residual < 1e-3
        assert res.iterations > 1

    def test_boundary_unchanged(self):
        res = jacobi_seq(hot_top_grid(), tol=1e-3)
        assert np.allclose(res.grid[0, :], 100.0)
        assert np.allclose(res.grid[-1, :], 0.0)

    def test_interior_between_boundaries(self):
        res = jacobi_seq(hot_top_grid(), tol=1e-4)
        interior = res.grid[1:-1, 1:-1]
        assert np.all(interior >= 0.0) and np.all(interior <= 100.0)

    def test_monotone_decay_from_hot_edge(self):
        res = jacobi_seq(hot_top_grid(), tol=1e-5)
        mid = res.grid[:, 8]
        assert all(a >= b - 1e-9 for a, b in zip(mid, mid[1:]))

    def test_max_iter_cap(self):
        res = jacobi_seq(hot_top_grid(32), tol=0.0, max_iter=5)
        assert res.iterations == 5

    def test_uniform_grid_converges_immediately(self):
        res = jacobi_seq(np.full((8, 8), 3.0), tol=1e-6)
        assert res.iterations == 1
        assert np.allclose(res.grid, 3.0)


class TestParallel:
    @pytest.mark.parametrize("p", [1, 2, 3, 4, 8])
    def test_matches_sequential_exactly(self, p):
        ref = jacobi_seq(hot_top_grid(), tol=1e-4)
        par = jacobi_solve(hot_top_grid(), p, tol=1e-4)
        assert par.iterations == ref.iterations
        assert np.allclose(par.grid, ref.grid, atol=1e-12)
        assert par.residual == pytest.approx(ref.residual)

    def test_single_row_blocks(self):
        """p equal to the row count: every block is one row (halo-only)."""
        ref = jacobi_seq(hot_top_grid(8), tol=1e-3)
        par = jacobi_solve(hot_top_grid(8), 8, tol=1e-3)
        assert np.allclose(par.grid, ref.grid, atol=1e-12)

    def test_empty_blocks_rejected(self):
        with pytest.raises(SkeletonError, match="empty"):
            jacobi_solve(hot_top_grid(4), 9)

    def test_small_grid_rejected(self):
        with pytest.raises(SkeletonError):
            jacobi_solve(np.zeros((2, 5)), 1)

    def test_1d_rejected(self):
        with pytest.raises(SkeletonError):
            jacobi_solve(np.zeros(10), 1)

    def test_max_iter_respected(self):
        res = jacobi_solve(hot_top_grid(), 2, tol=0.0, max_iter=3)
        assert res.iterations == 3

    def test_with_executor(self, pool):
        ref = jacobi_seq(hot_top_grid(8), tol=1e-3)
        par = jacobi_solve(hot_top_grid(8), 2, tol=1e-3, executor=pool)
        assert np.allclose(par.grid, ref.grid, atol=1e-12)

    def test_result_type(self):
        res = jacobi_solve(hot_top_grid(8), 2, tol=1e-2)
        assert isinstance(res, JacobiResult)
        assert res.grid.shape == (8, 8)

    def test_nonuniform_block_sizes(self):
        """Rows not divisible by p: blocks differ in size, halos must align."""
        ref = jacobi_seq(hot_top_grid(10), tol=1e-3)
        par = jacobi_solve(hot_top_grid(10), 3, tol=1e-3)
        assert np.allclose(par.grid, ref.grid, atol=1e-12)


class TestMachineJacobi:
    @pytest.mark.parametrize("p", [1, 2, 4, 5])
    def test_matches_sequential_exactly(self, p):
        from repro.apps.stencil import jacobi_machine

        ref = jacobi_seq(hot_top_grid(), tol=1e-4)
        out, _res = jacobi_machine(hot_top_grid(), p, tol=1e-4)
        assert out.iterations == ref.iterations
        assert np.allclose(out.grid, ref.grid, atol=1e-12)

    def test_larger_grid_scales(self):
        from repro.apps.stencil import jacobi_machine

        g = hot_top_grid(64)
        _o1, r1 = jacobi_machine(g, 1, tol=1e-2)
        _o2, r4 = jacobi_machine(g, 4, tol=1e-2)
        assert r4.makespan < r1.makespan

    def test_tiny_grid_stops_scaling(self):
        """Per-sweep allreduce latency dominates a small problem: adding
        processors beyond a few must stop helping — the surface-to-volume
        effect."""
        from repro.apps.stencil import jacobi_machine

        g = hot_top_grid(16)
        _o1, r4 = jacobi_machine(g, 4, tol=1e-2)
        _o2, r8 = jacobi_machine(g, 8, tol=1e-2)
        assert r8.makespan > r4.makespan * 0.8  # flat or worse

    def test_convergence_agreement_across_procs(self):
        """Every processor must report the same iteration count (the
        allreduced condition is global)."""
        from repro.apps.stencil import jacobi_machine
        from repro.machine import PERFECT

        out, res = jacobi_machine(hot_top_grid(12), 3, tol=1e-3, spec=PERFECT)
        iters = {v[1] for v in res.values}
        assert len(iters) == 1

    def test_empty_blocks_rejected(self):
        from repro.apps.stencil import jacobi_machine

        with pytest.raises(SkeletonError, match="empty"):
            jacobi_machine(hot_top_grid(4), 9)

    def test_max_iter_cap(self):
        from repro.apps.stencil import jacobi_machine

        out, _res = jacobi_machine(hot_top_grid(), 2, tol=0.0, max_iter=4)
        assert out.iterations == 4

    def test_cost_params_scale(self):
        from repro.apps.stencil import JacobiCostParams, jacobi_machine

        g = hot_top_grid(12)
        _o1, cheap = jacobi_machine(g, 2, tol=1e-2,
                                    params=JacobiCostParams(stencil_ops_per_cell=1))
        _o2, dear = jacobi_machine(g, 2, tol=1e-2,
                                   params=JacobiCostParams(stencil_ops_per_cell=100))
        assert dear.makespan > cheap.makespan
