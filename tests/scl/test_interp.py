"""Tests for repro.scl.interp — every node against the core semantics."""

from __future__ import annotations

import operator

import pytest

from repro.core import Block, Cyclic, ParArray
from repro.core import communication as comm
from repro.core import config as cfg
from repro.core import elementary as elem
from repro.errors import SkeletonError
from repro.scl import (
    ApplyBrdcast,
    Brdcast,
    Combine,
    Compose,
    Farm,
    Fetch,
    Fold,
    FoldrFused,
    Id,
    IMap,
    IterFor,
    Map,
    PermSend,
    Rotate,
    RotateCol,
    RotateRow,
    Scan,
    SendNode,
    Spmd,
    Split,
    Stage,
    compose_nodes,
    evaluate,
)

PA = ParArray([3, 1, 4, 1, 5, 9, 2, 6])


class TestLeafNodes:
    def test_id(self):
        assert evaluate(Id(), PA) is PA

    def test_map_matches_parmap(self):
        f = lambda x: x + 1
        assert evaluate(Map(f), PA) == elem.parmap(f, PA)

    def test_map_of_node_applies_to_subarrays(self):
        nested = cfg.split(Block(2), PA)
        out = evaluate(Map(Rotate(1)), nested)
        assert out[0] == comm.rotate(1, nested[0])

    def test_imap(self):
        f = lambda i, x: i * x
        assert evaluate(IMap(f), PA) == elem.imap(f, PA)

    def test_fold(self):
        assert evaluate(Fold(operator.add), PA) == 31

    def test_scan(self):
        assert evaluate(Scan(operator.add), PA) == elem.scan(operator.add, PA)

    def test_rotate(self):
        assert evaluate(Rotate(3), PA) == comm.rotate(3, PA)

    def test_rotate_row_col(self):
        grid = ParArray([[1, 2], [3, 4]], shape=(2, 2))
        df = lambda i: 1
        assert evaluate(RotateRow(df), grid) == comm.rotate_row(df, grid)
        assert evaluate(RotateCol(df), grid) == comm.rotate_col(df, grid)

    def test_fetch(self):
        f = lambda i: (i + 2) % 8
        assert evaluate(Fetch(f), PA) == comm.fetch(f, PA)

    def test_send_node(self):
        f = lambda k: [0]
        assert evaluate(SendNode(f), PA) == comm.send(f, PA)

    def test_brdcast(self):
        assert evaluate(Brdcast("v"), PA) == comm.brdcast("v", PA)

    def test_apply_brdcast(self):
        f = lambda x: x * 2
        assert evaluate(ApplyBrdcast(f, 3), PA) == comm.apply_brdcast(f, 3, PA)

    def test_split_combine(self):
        assert evaluate(Split(Cyclic(2)), PA) == cfg.split(Cyclic(2), PA)
        assert evaluate(Combine(), cfg.split(Block(2), PA)) == \
            cfg.combine(cfg.split(Block(2), PA))

    def test_farm(self):
        out = evaluate(Farm(lambda env, x: env + x, 100), PA)
        assert out.to_list() == [x + 100 for x in PA.to_list()]

    def test_unknown_node_rejected(self):
        class Bogus:
            pass

        with pytest.raises(SkeletonError):
            evaluate(Bogus(), PA)  # type: ignore[arg-type]


class TestPermSend:
    def test_permutation_routing(self):
        out = evaluate(PermSend(lambda k: (k + 1) % 8), PA)
        # element k lands at k+1: out[i] = PA[i-1]
        assert out == comm.rotate(-1, PA)

    def test_non_permutation_rejected(self):
        with pytest.raises(SkeletonError, match="permutation"):
            evaluate(PermSend(lambda k: 0), PA)

    def test_out_of_range_rejected(self):
        with pytest.raises(SkeletonError, match="out of range"):
            evaluate(PermSend(lambda k: k + 1), PA)

    def test_requires_1d(self):
        with pytest.raises(SkeletonError):
            evaluate(PermSend(lambda k: k), ParArray([[1]], shape=(1, 1)))


class TestFoldrFused:
    def test_sequential_right_fold(self):
        # op = sub (not associative): 3-(1-(4-(1-(5-(9-(2-6))))))
        node = FoldrFused(operator.sub, lambda x: x)
        expected = 3 - (1 - (4 - (1 - (5 - (9 - (2 - 6))))))
        assert evaluate(node, PA) == expected

    def test_g_applied_before_combine(self):
        node = FoldrFused(operator.add, lambda x: x * 10)
        assert evaluate(node, PA) == 310

    def test_single_element(self):
        node = FoldrFused(operator.add, lambda x: x + 1)
        assert evaluate(node, ParArray([5])) == 6

    def test_empty_undefined(self):
        node = FoldrFused(operator.add, lambda x: x)
        with pytest.raises(SkeletonError):
            evaluate(node, [])

    def test_accepts_plain_lists(self):
        node = FoldrFused(operator.add, lambda x: x)
        assert evaluate(node, [1, 2, 3]) == 6


class TestCompose:
    def test_right_to_left_application(self):
        prog = Compose((Map(lambda x: x * 2), Rotate(1)))
        assert evaluate(prog, ParArray([1, 2])) == \
            elem.parmap(lambda x: x * 2, comm.rotate(1, ParArray([1, 2])))

    def test_fold_as_outermost(self):
        prog = compose_nodes(Fold(operator.add), Map(lambda x: x * x))
        assert evaluate(prog, ParArray([1, 2, 3])) == 14


class TestSpmdAndIter:
    def test_spmd_stage_order(self):
        prog = Spmd((
            Stage(local=lambda x: x + 1),
            Stage(global_=Rotate(1)),
        ))
        assert evaluate(prog, ParArray([0, 1])).to_list() == [2, 1]

    def test_spmd_indexed_local(self):
        prog = Spmd((Stage(local=lambda i, x: i, indexed=True),))
        assert evaluate(prog, ParArray([9, 9])).to_list() == [0, 1]

    def test_iter_for_applies_body_n_times(self):
        prog = IterFor(3, lambda i: Map(lambda x: x + 1))
        assert evaluate(prog, ParArray([0])).to_list() == [3]

    def test_iter_for_body_sees_counter(self):
        prog = IterFor(3, lambda i: Rotate(i))
        # rotate 0 then 1 then 2 == rotate 3
        pa = ParArray(list(range(5)))
        assert evaluate(prog, pa) == comm.rotate(3, pa)

    def test_executor_threading(self, pool):
        prog = Map(lambda x: x * 2)
        out = evaluate(prog, PA, executor=pool)
        assert out == elem.parmap(lambda x: x * 2, PA)


class TestPartitionGatherNodes:
    def test_partition_node(self):
        import numpy as np
        from repro.core import Block
        from repro.scl import Partition

        out = evaluate(Partition(Block(3)), list(range(7)))
        assert out.to_list() == [[0, 1, 2], [3, 4], [5, 6]]
        assert out.dist == Block(3)

    def test_gather_inverts_partition(self):
        from repro.core import Cyclic
        from repro.scl import Gather, Partition, compose_nodes

        prog = compose_nodes(Gather(), Partition(Cyclic(3)))
        xs = list(range(11))
        assert evaluate(prog, xs) == xs

    def test_gather_with_explicit_pattern_transposes(self):
        from repro.core import Block, Cyclic
        from repro.scl import Gather, Partition, compose_nodes

        # partition block, gather cyclic: a real data transposition
        prog = compose_nodes(Gather(Cyclic(2)), Partition(Block(2)))
        out = evaluate(prog, [0, 1, 2, 3])
        assert out == [0, 2, 1, 3]

    def test_whole_program_expression(self):
        import numpy as np
        from repro.core import Block
        from repro.scl import Gather, Map, Partition, compose_nodes

        prog = compose_nodes(Gather(),
                             Map(lambda b: np.asarray(b) * 2),
                             Partition(Block(4)))
        x = np.arange(10)
        assert np.array_equal(evaluate(prog, x), x * 2)
