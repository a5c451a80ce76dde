"""Kernel registry contracts: error paths, cost tags, SoA grouping, and
one ``==`` differential per whole-machine form.

The registry is the trust boundary of the vectorized data plane — a
batched implementation that silently returns the wrong shape of result
would corrupt every rank downstream, so :func:`batched_apply` must
reject malformed returns loudly; :func:`elementwise` must tag its
fragments with the exact cost the per-rank interpreter would charge; and
:func:`group_uniform` must hand kernels C-contiguous stacks whatever
the stride layout of the inputs.  Every fragment that registers a
whole-machine form (values or charges) is held here to its per-rank form
with ``==``, dtype and shape included (``CONTRIBUTING.md``, "Testing
conventions").
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import sort
from repro.apps.linalg import ColBlock, gauss_jordan_expression
from repro.apps.sort import hyperquicksort_expression
from repro.core import partition
from repro.plan import ir
from repro.plan.ir import fragment_ops, fragment_ops_all
from repro.plan.kernels import (
    batched_apply,
    elementwise,
    group_uniform,
    has_batched,
    stack_uniform,
    vectorize_fragment,
)
from repro.plan.lower import lower


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

    @pytest.mark.parametrize("res", ["abc", {0: 1.0, 1: 2.0, 2: 3.0}],
                             ids=["str", "dict"])
    def test_iterables_that_are_not_rank_sequences_raise(self, res):
        fn = vectorize_fragment(lambda v: v, lambda vals: res)
        with pytest.raises(ValueError, match="not a sequence"):
            batched_apply(fn, [1, 2, 3])

    def test_opaque_fallback_untouched(self):
        assert batched_apply(_frag, [1, 2, 3]) == [2, 3, 4]

    @pytest.mark.parametrize("charges", [[1.0, 2.0], (1.0, 2.0, 3.0), None],
                             ids=["short", "tuple", "none"])
    def test_malformed_cost_form_raises(self, charges):
        fn = vectorize_fragment(lambda v: v, list, lambda vals: charges)
        with pytest.raises(ValueError, match="list of 3 per-rank charges"):
            fragment_ops_all(fn, [1, 2, 3])


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

    def test_zero_d_values_stay_zero_d(self):
        # a rank value that is a bare number is not an array of one
        ((idxs, stacked),) = group_uniform([1.0, np.float64(2.0),
                                            np.array(3.0)])
        assert idxs == [0, 1, 2] and stacked.shape == (3,)
        frag = elementwise(np.square)
        for got, v in zip(stack_uniform([1.0, 2.0, 3.0], np.square),
                          [1.0, 2.0, 3.0]):
            assert _identical(got, frag(v)) and np.shape(got) == ()


# -- whole-machine forms against their per-rank forms ---------------------------

def _identical(a, b) -> bool:
    """Equal values of the same type, dtype and shape, tuples by element."""
    if isinstance(a, tuple):
        return (isinstance(b, tuple) and len(a) == len(b)
                and all(_identical(x, y) for x, y in zip(a, b)))
    return (type(a) is type(b) and a.dtype == b.dtype and a.shape == b.shape
            and np.array_equal(a, b))


def assert_forms_equal_per_rank(fn, values) -> None:
    """Both registered forms of ``fn`` against ``fn`` and its cost tag."""
    assert has_batched(fn) and getattr(fn, "scl_ops_all", None) is not None
    got = batched_apply(fn, values)
    want = [fn(v) for v in values]
    assert len(got) == len(want)
    assert all(_identical(g, w) for g, w in zip(got, want))
    charges = fragment_ops_all(fn, values)
    assert all(type(c) is float for c in charges)
    assert charges == [fragment_ops(fn, v) for v in values]


def plan_fragments(instrs):
    """Every ``LocalApply`` fragment of a raw (un-fused) instruction run."""
    for instr in instrs:
        if isinstance(instr, ir.Loop):
            for body in instr.bodies:
                yield from plan_fragments(body)
        elif isinstance(instr, ir.LocalApply):
            yield instr.fn


KEY_DTYPES = st.sampled_from([np.int32, np.int64, np.float64])


@st.composite
def sorted_blocks(draw, count, dtype):
    """``count`` sorted key blocks of 0–9 keys out of 0…3: empty and
    length-1 blocks, all-equal keys and ties with any pivot are common."""
    return [np.sort(np.asarray(draw(st.lists(st.integers(0, 3), max_size=9)),
                               dtype=dtype))
            for _ in range(count)]


class TestSortForms:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), p=st.integers(1, 12), dtype=KEY_DTYPES,
           sub=st.sampled_from([1, 2, 4, 16]))
    def test_split(self, data, p, dtype, sub):
        blocks = data.draw(sorted_blocks(p, dtype))
        # as ``align id (fetch leader)`` leaves them: a sub-cube's ranks
        # all hold their leader's block, the same object
        values = [(blocks[r], blocks[r // sub * sub]) for r in range(p)]
        assert_forms_equal_per_rank(sort._hq_split_on_leader_median, values)

    def test_split_takes_each_leaders_median_once(self, monkeypatch):
        calls = []
        real = sort.midvalue
        monkeypatch.setattr(sort, "midvalue",
                            lambda a: calls.append(a) or real(a))
        blocks = [np.arange(r, r + 5) for r in range(8)]
        values = [(blocks[r], blocks[r // 4 * 4]) for r in range(8)]
        batched_apply(sort._hq_split_on_leader_median, values)
        assert [id(a) for a in calls] == [id(blocks[0]), id(blocks[4])]

    def test_split_cost_over_its_whole_size_domain(self):
        # the one cost form that is memoised, so it is compared at every
        # block length 0…4 096, the max(m, 2) floor included
        fn = sort._hq_split_on_leader_median
        keys = np.zeros(4096, dtype=np.int8)
        values = [(keys[:m], None) for m in range(4097)]
        assert fragment_ops_all(fn, values) \
            == [fragment_ops(fn, v) for v in values]
        assert fragment_ops_all(fn, values[:3]) == [18.0, 18.0, 18.0]

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), p=st.integers(1, 12), dtype=KEY_DTYPES)
    def test_merge(self, data, p, dtype):
        keep = data.draw(sorted_blocks(p, dtype))
        recv = data.draw(sorted_blocks(p, dtype))
        assert_forms_equal_per_rank(sort._hq_merge_pair,
                                    list(zip(keep, recv)))


class TestGaussUpdateForms:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 6), p=st.integers(1, 4), seed=st.integers(0, 99),
           data=st.data())
    def test_update(self, n, p, seed, data):
        i = data.draw(st.integers(0, n - 1))
        rng = np.random.default_rng(seed)
        aug = np.hstack([rng.normal(size=(n, n)) + n * np.eye(n),
                         rng.normal(size=(n, 1))])
        plan = lower(gauss_jordan_expression(n, p, aug.shape), p)
        pivot_bcast, update = plan.instrs[0].bodies[i]
        # n + 1 columns over p ranks: ragged column blocks
        blocks = partition(ColBlock(p), aug).to_list()
        pivot = pivot_bcast.op(blocks[pivot_bcast.root])
        assert_forms_equal_per_rank(update.fn,
                                    [(pivot, blk) for blk in blocks])


class TestElementwiseForms:
    @settings(max_examples=60, deadline=None)
    @given(shapes=st.lists(st.sampled_from([(), (0,), (1,), (3,), (2, 3)]),
                           min_size=1, max_size=8),
           dtype=st.sampled_from([np.float64, np.float32, np.int64]))
    def test_elementwise(self, shapes, dtype):
        frag = elementwise(np.square, ops_per_elem=3.0)
        values = [np.arange(int(np.prod(shape)), dtype=dtype).reshape(shape)
                  for shape in shapes]
        assert_forms_equal_per_rank(frag, values)


def test_no_app_fragment_is_half_registered():
    """A fragment under ``repro.apps`` with a batched kernel charges
    through a cost form too (or a constant tag, which needs none), and no
    cost form stands without its kernel."""
    gauss = gauss_jordan_expression(6, 3, (6, 7))
    fragments = [*plan_fragments(lower(hyperquicksort_expression(3), 8).instrs),
                 *plan_fragments(lower(gauss, 3).instrs)]
    registered = [fn for fn in fragments if has_batched(fn)]
    assert {fn.__name__ for fn in registered} \
        == {"_hq_split_on_leader_median", "_hq_merge_pair", "update"}
    for fn in fragments:
        has_cost = getattr(fn, "scl_ops_all", None) is not None
        needs_cost = has_batched(fn) and callable(
            getattr(fn, "scl_ops", ir.DEFAULT_FRAGMENT_OPS))
        assert has_cost == needs_cost, fn.__name__
