"""Integration tests: the paper's §3 programs written exactly as composed
skeleton pipelines, exercised end-to-end across core + scl + apps layers."""

from __future__ import annotations

import operator

import numpy as np
import pytest

from repro.core import (
    Block,
    ColBlock,
    ParArray,
    align,
    apply_brdcast,
    fold,
    gather,
    imap,
    iter_for,
    parmap,
    partition,
    scan,
    spmd,
)
from repro.scl import (
    Fold,
    Map,
    Rotate,
    Scan,
    compose_nodes,
    default_engine,
    estimate_cost,
    evaluate,
)


class TestPaperGaussStructure:
    """The §3 Gauss program as literally composed skeletons."""

    def test_gauss_via_raw_skeletons(self, rng):
        n, p = 8, 3
        A = rng.standard_normal((n, n)) + n * np.eye(n)
        b = rng.standard_normal(n)
        aug = np.hstack([A, b.reshape(-1, 1)])
        pattern = ColBlock(p)
        da = partition(pattern, aug)

        def elim_pivot(i, x):
            (owner,), (_r, lcol) = pattern.index_map((0, i), aug.shape)

            def partial_pivot(block):
                col = np.array(np.asarray(block)[:, lcol])
                r = i + int(np.argmax(np.abs(col[i:])))
                col[[i, r]] = col[[r, i]]
                return r, col

            def update(pv, block):
                r, c = pv
                blk = np.array(np.asarray(block))
                blk[[i, r], :] = blk[[r, i], :]
                blk[i, :] /= c[i]
                m = c.copy()
                m[i] = 0.0
                return blk - np.outer(m, blk[i, :])

            return parmap(lambda pv_blk: update(pv_blk[0], pv_blk[1]),
                          apply_brdcast(partial_pivot, owner, x))

        result = iter_for(n, elim_pivot, da)
        solved = np.asarray(gather(ParArray(result.to_list(), dist=pattern)))
        assert np.allclose(solved[:, -1], np.linalg.solve(A, b))


class TestSpmdPipelines:
    """SPMD composition as the paper uses it for multi-phase programs."""

    def test_two_phase_pipeline(self):
        # phase 1: local square, then rotate; phase 2: add index
        from repro.core import rotate

        prog = spmd([
            (lambda c: rotate(1, c), lambda _i, x: x * x),
            (None, lambda i, x: x + i),
        ])
        out = prog(ParArray([1, 2, 3]))
        assert out.to_list() == [4, 10, 3]

    def test_spmd_pipeline_with_reduction_finish(self):
        conf = ParArray(list(range(8)))
        staged = spmd([(None, lambda _i, x: x + 1)])(conf)
        assert fold(operator.add, staged) == 36


class TestExpressionPipelineEndToEnd:
    """Write a program as an scl expression, optimise it, run both forms."""

    def test_optimised_pipeline_identical_results(self, rng):
        xs = rng.integers(-100, 100, size=32).tolist()
        prog = compose_nodes(
            Fold(operator.add),
            Map(lambda x: x * x),
            Map(lambda x: x + 1),
            Rotate(3),
            Rotate(-3),
        )
        # the fixpoint priced on the raw lowering, where the folded
        # rotations and fused maps show up as fewer barriers (the
        # search's pipeline cost recovers both via plan.opt, so there
        # the before/after barrier counts tie)
        optimized, _steps = default_engine().rewrite(prog)
        pa = ParArray(xs)
        assert evaluate(prog, pa) == evaluate(optimized, pa)
        assert estimate_cost(optimized, n=32).barriers \
            < estimate_cost(prog, n=32).barriers

    def test_scan_pipeline(self, rng):
        xs = rng.integers(0, 50, size=16).tolist()
        prog = compose_nodes(Scan(operator.add), Map(lambda x: x * 2))
        out = evaluate(prog, ParArray(xs))
        expected = np.cumsum([x * 2 for x in xs]).tolist()
        assert out.to_list() == expected

    def test_rewritten_program_runs_on_executor(self, rng):
        xs = rng.integers(0, 100, size=64).tolist()
        prog = compose_nodes(Map(lambda x: x + 1), Map(lambda x: x * 3))
        rewritten, _ = default_engine().rewrite(prog)
        a = evaluate(prog, ParArray(xs), executor="threads")
        b = evaluate(rewritten, ParArray(xs), executor="threads")
        assert a == b


class TestDataParallelReductions:
    def test_distributed_dot_product(self, rng):
        """map (*) over aligned partitions, then fold (+): the canonical
        two-array configuration workout."""
        x = rng.standard_normal(100)
        y = rng.standard_normal(100)
        conf = align(partition(Block(8), x), partition(Block(8), y))
        partials = parmap(lambda xy: float(np.dot(xy[0], xy[1])), conf)
        assert fold(operator.add, partials) == pytest.approx(float(np.dot(x, y)))

    def test_distributed_prefix_sums(self, rng):
        """Block-local scans + scan of block totals == global scan."""
        xs = rng.integers(0, 10, size=37).tolist()
        da = partition(Block(5), xs)
        local = parmap(lambda part: np.cumsum(list(part)).tolist(), da)
        totals = parmap(lambda c: c[-1] if c else 0, local)
        offsets = scan(operator.add, totals)
        shifted = imap(
            lambda i, c: [v + (offsets[i - 1] if i > 0 else 0) for v in c],
            local)
        out = [v for part in shifted for v in part]
        assert out == np.cumsum(xs).tolist()
