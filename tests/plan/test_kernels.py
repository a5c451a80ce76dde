"""Kernel registry contracts: error paths, cost tags and SoA grouping.

The registry is the trust boundary of the vectorized data plane — a
batched implementation that silently returns the wrong shape of result
would corrupt every rank downstream, so :func:`batched_apply` must
reject malformed returns loudly; :func:`elementwise` must tag its
fragments with the exact cost the per-rank interpreter would charge; and
:func:`group_uniform` must hand kernels C-contiguous stacks whatever
the stride layout of the inputs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.plan.ir import fragment_ops
from repro.plan.kernels import (
    batched_apply,
    elementwise,
    group_uniform,
    has_batched,
    stack_uniform,
    vectorize_fragment,
)


def _frag(v):
    return v + 1


class TestBatchedApplyErrorPaths:
    def test_wrong_length_raises(self):
        def bad(vals):
            return vals[:-1]

        fn = vectorize_fragment(lambda v: v, bad)
        with pytest.raises(ValueError, match="2 values for 3 ranks"):
            batched_apply(fn, [1, 2, 3])

    def test_non_sequence_return_raises(self):
        def bad(vals):
            return None

        fn = vectorize_fragment(lambda v: v, bad)
        with pytest.raises(ValueError, match="NoneType, not a sequence"):
            batched_apply(fn, [1, 2, 3])

    def test_scalar_return_raises(self):
        def bad(vals):
            return 42.0

        fn = vectorize_fragment(lambda v: v, bad)
        with pytest.raises(ValueError, match="float, not a sequence"):
            batched_apply(fn, [1.0, 2.0])

    def test_opaque_fallback_untouched(self):
        assert batched_apply(_frag, [1, 2, 3]) == [2, 3, 4]


class TestElementwiseCostTag:
    def test_fragment_ops_scales_with_size(self):
        frag = elementwise(np.sqrt, ops_per_elem=3.0)
        v = np.ones((8, 16))
        assert fragment_ops(frag, v) == 3.0 * v.size
        assert fragment_ops(frag, np.ones(5)) == 15.0

    def test_registered_both_ways(self):
        frag = elementwise(np.exp, name="exp")
        assert frag.__name__ == "exp"
        assert has_batched(frag)


class TestGroupUniform:
    def test_groups_by_shape_and_dtype(self):
        values = [np.zeros(4), np.zeros(6), np.zeros(4, dtype=np.int32),
                  np.ones(4)]
        groups = group_uniform(values)
        assert len(groups) == 3
        covered = sorted(i for idxs, _ in groups for i in idxs)
        assert covered == [0, 1, 2, 3]

    def test_stacks_are_c_contiguous_for_strided_inputs(self):
        # Transposed views are F-ordered; the stack must still come out
        # C-contiguous (one memcpy per value, and shm-sliceable downstream).
        rng = np.random.default_rng(0)
        values = [rng.normal(size=(8, 12)).T for _ in range(3)]
        ((idxs, stacked),) = group_uniform(values)
        assert idxs == [0, 1, 2]
        assert stacked.flags["C_CONTIGUOUS"]
        assert stacked.shape == (3, 12, 8)
        for k, v in enumerate(values):
            assert np.array_equal(stacked[k], v)

    def test_stack_uniform_bit_identical_under_normalisation(self):
        # Regression: ascontiguousarray must not change results or the
        # group count relative to the per-value loop.
        rng = np.random.default_rng(1)
        values = ([rng.normal(size=(6, 4)).T ** 2 for _ in range(3)]
                  + [rng.normal(size=(4, 6)) ** 2 for _ in range(2)])
        out = stack_uniform(values, np.sqrt)
        assert len(group_uniform(values)) == 1  # all are (4, 6) float64
        for v, o in zip(values, out):
            assert np.array_equal(np.sqrt(np.asarray(v)), o)

    def test_non_numeric_values_raise_in_transform(self):
        with pytest.raises(TypeError):
            stack_uniform([object(), object()], np.sqrt)
