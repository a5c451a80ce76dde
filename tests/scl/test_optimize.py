"""Tests for repro.scl.optimize — the cost model — and the optimiser that
prices with it, ``repro.tune.tune_expression``."""

from __future__ import annotations

import operator

import pytest

from repro.machine import AP1000, PERFECT
from repro.scl import (
    Brdcast,
    Fetch,
    Fold,
    FoldrFused,
    Id,
    IterFor,
    Map,
    Rotate,
    RotateRow,
    Scan,
    compose_nodes,
    default_engine,
    estimate_cost,
)
from repro.scl.optimize import ExprCost
from repro.scl.rewrite import Rule
from repro.tune import tune_expression


class TestExprCost:
    def test_addition(self):
        a = ExprCost(1.0, 2, 3)
        b = ExprCost(0.5, 1, 1)
        assert a + b == ExprCost(1.5, 3, 4)

    def test_scaling(self):
        assert ExprCost(1.0, 2, 1).scaled(3) == ExprCost(3.0, 6, 3)


class TestEstimateCost:
    def test_id_is_free(self):
        assert estimate_cost(Id(), n=8) == ExprCost(0.0, 0, 0)

    def test_map_has_one_barrier(self):
        c = estimate_cost(Map(lambda x: x), n=8, spec=AP1000)
        assert c.barriers == 1 and c.messages == 0

    def test_fused_map_cheaper_than_two_maps(self):
        from repro.util.functional import Composed

        f = lambda x: x
        g = lambda x: x
        two = estimate_cost(compose_nodes(Map(f), Map(g)), n=32, spec=AP1000)
        one = estimate_cost(Map(Composed(f, g)), n=32, spec=AP1000)
        assert one.seconds < two.seconds
        assert one.barriers == 1 and two.barriers == 2

    def test_communication_nodes_count_messages(self):
        c = estimate_cost(Rotate(1), n=16, spec=AP1000)
        assert c.messages == 16

    def test_fused_fetch_halves_messages(self):
        two = estimate_cost(compose_nodes(Fetch(id), Fetch(id)), n=16, spec=AP1000)
        one = estimate_cost(Fetch(id), n=16, spec=AP1000)
        assert one.messages == two.messages // 2

    def test_foldr_fused_scales_linearly(self):
        small = estimate_cost(FoldrFused(operator.add, id), n=16, spec=AP1000)
        big = estimate_cost(FoldrFused(operator.add, id), n=64, spec=AP1000)
        assert big.seconds == pytest.approx(small.seconds * 4)

    def test_fold_scales_logarithmically(self):
        c16 = estimate_cost(Fold(operator.add), n=16, spec=AP1000)
        c256 = estimate_cost(Fold(operator.add), n=256, spec=AP1000)
        assert c256.seconds < c16.seconds * 3

    def test_parallel_fold_beats_sequential_foldr_at_scale(self):
        # per-element work must dominate the latency of the log-n combine
        # rounds for parallelisation to pay — fn_ops=50 models a real
        # base-language fragment rather than one machine op
        seq = estimate_cost(FoldrFused(operator.add, id), n=4096, spec=AP1000,
                            fn_ops=50)
        par = estimate_cost(compose_nodes(Fold(operator.add), Map(id)),
                            n=4096, spec=AP1000, fn_ops=50)
        assert par.seconds < seq.seconds

    def test_sequential_foldr_wins_for_trivial_ops_on_slow_network(self):
        """The dual: with one-op elements, AP1000 latency makes the
        sequential fold cheaper — the cost guard exists for this reason."""
        seq = estimate_cost(FoldrFused(operator.add, id), n=256, spec=AP1000,
                            fn_ops=1)
        par = estimate_cost(compose_nodes(Fold(operator.add), Map(id)),
                            n=256, spec=AP1000, fn_ops=1)
        assert seq.seconds < par.seconds

    def test_brdcast_counts_tree_messages(self):
        c = estimate_cost(Brdcast(1), n=8, spec=AP1000)
        assert c.messages == 7

    def test_iter_for_scales_body(self):
        body = Map(lambda x: x)
        one = estimate_cost(body, n=8, spec=AP1000)
        ten = estimate_cost(IterFor(10, lambda i: body), n=8, spec=AP1000)
        assert ten.seconds == pytest.approx(one.seconds * 10)

    def test_scan_costs_like_fold(self):
        f = estimate_cost(Fold(operator.add), n=64, spec=AP1000)
        s = estimate_cost(Scan(operator.add), n=64, spec=AP1000)
        assert s.seconds == pytest.approx(f.seconds)

    def test_perfect_machine_maps_are_compute_only(self):
        c = estimate_cost(Map(lambda x: x), n=8, spec=PERFECT)
        assert c.seconds == pytest.approx(PERFECT.flop_time)

    def test_only_no_plan_form_falls_back_to_the_expression_model(self):
        # a grid skeleton priced without a grid has no plan form
        # (SkeletonError from lowering) and is still priced ...
        assert estimate_cost(RotateRow(1), n=16, spec=AP1000).messages == 16
        # ... but a bug inside an index function is not "no plan form"
        with pytest.raises(ZeroDivisionError):
            estimate_cost(Fetch(lambda i: 1 // 0), n=4)


class TestOptimize:
    def test_accepts_improving_rewrite(self):
        # the fixpoint priced on the raw lowering, where map fusion shows
        # up as a barrier saved (search's pipeline cost recovers the
        # fusion via plan.opt, so there the two forms tie on cost and
        # the rewrite is taken on expression size instead)
        prog = compose_nodes(Map(lambda x: x), Map(lambda x: x))
        fused, steps = default_engine().rewrite(prog)
        before = estimate_cost(prog, n=64, spec=AP1000)
        after = estimate_cost(fused, n=64, spec=AP1000)
        assert steps
        assert before.seconds / after.seconds > 1.0
        assert after.barriers < before.barriers

    def test_search_takes_cost_invisible_fusion_for_size(self):
        prog = compose_nodes(Map(lambda x: x), Map(lambda x: x))
        res = tune_expression(prog, nprocs=64, spec=AP1000)
        assert res.improved
        assert res.predicted_speedup == pytest.approx(1.0)
        assert "map-fusion" in set(res.winner.rules)

    def test_noop_when_nothing_matches(self):
        prog = Rotate(1)
        res = tune_expression(prog, nprocs=8, spec=AP1000)
        assert res.winner.expr == prog
        assert res.winner.cost == res.original.cost

    def test_rejects_worsening_rule_set(self):
        """A (terminating) rule that splits one rotation into many must be
        rejected by the cost guard."""
        unfuse = Rule("unfuse", 1, lambda w: (Rotate(w[0].k - 1), Rotate(1))
                      if isinstance(w[0], Rotate) and w[0].k > 1 else None)
        res = tune_expression(Rotate(4), nprocs=8, spec=AP1000, rules=[unfuse])
        assert not res.improved
        assert res.winner.expr == Rotate(4)

    def test_report_is_printable(self):
        prog = compose_nodes(Map(lambda x: x), Map(lambda x: x), Rotate(1),
                             Rotate(-1))
        text = str(tune_expression(prog, nprocs=16, spec=AP1000))
        assert "map-fusion" in text and "predicted" in text

    def test_speedup_of_identity_rewrite_is_one(self):
        res = tune_expression(Rotate(2), nprocs=4, spec=AP1000)
        assert res.predicted_speedup == pytest.approx(1.0)

    def test_map_distribution_accepted_at_scale(self):
        prog = FoldrFused(operator.add, lambda x: x, op_associative=True)
        res = tune_expression(prog, nprocs=4096, spec=AP1000, fn_ops=50)
        assert res.improved and res.predicted_speedup > 1.0

    def test_map_distribution_rejected_when_latency_dominates(self):
        prog = FoldrFused(operator.add, lambda x: x, op_associative=True)
        res = tune_expression(prog, nprocs=256, spec=AP1000, fn_ops=1)
        assert not res.improved


class TestPartitionGatherCosts:
    def test_partition_priced_as_redistribution(self):
        from repro.scl import Partition
        from repro.core import Block

        c = estimate_cost(Partition(Block(8)), n=64, spec=AP1000)
        assert c.seconds > 0
        assert c.messages == 63
        assert c.barriers == 1

    def test_gather_cost_grows_with_n(self):
        from repro.scl import Gather

        small = estimate_cost(Gather(), n=16, spec=AP1000, element_bytes=1024)
        big = estimate_cost(Gather(), n=256, spec=AP1000, element_bytes=1024)
        assert big.seconds > small.seconds

    def test_eliminated_round_trip_predicts_cheaper(self):
        from repro.core import Block
        from repro.scl import Gather, Partition

        wasteful = compose_nodes(Gather(), Partition(Block(8)))
        res = tune_expression(wasteful, nprocs=64, spec=AP1000)
        assert res.improved
        assert res.winner.expr == Id()
        assert res.winner.cost.seconds < res.original.cost.seconds
