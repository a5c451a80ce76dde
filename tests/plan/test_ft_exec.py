"""The reliable transport: same plans, same walker, lossy network.

``run_expression_ft`` runs the identical :class:`~repro.plan.ir.Plan` the
direct transport runs, with every instruction's traffic on the reliable
channel.  The contract: fault-free results equal the raw compiler's
element-for-element; under message faults the values are still right and
the retransmit counters show the protocol working.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.pararray import ParArray
from repro.faults.models import FaultInjector, FaultSpec
from repro.faults.plan_exec import run_expression_ft
from repro.machine import AP1000, Hypercube, Machine
from repro.machine.topology import FullyConnected
from repro.scl import (
    AlignFetch,
    Brdcast,
    Fetch,
    Fold,
    IMap,
    IterFor,
    Map,
    Rotate,
    Scan,
    SendNode,
    compose_nodes,
)
from repro.scl.compile import run_expression

PA8 = ParArray([3, 1, 4, 1, 5, 9, 2, 6])

EXPRESSIONS = [
    compose_nodes(Map(lambda x: x + 1), Rotate(3)),
    AlignFetch(lambda r: r ^ 1),             # the pair-swap fast path
    Fetch(lambda r: 0),                      # one-to-many fan-out
    SendNode(lambda r: (0,)),                # many-to-one collect
    Scan(lambda a, b: a + b),
    Brdcast(42.0),
    compose_nodes(IMap(lambda i, x: x * (i + 1)), Rotate(-2)),
    IterFor(3, lambda i: Rotate(i + 1)),
]


def _faulty_machine(p: int, spec=None) -> Machine:
    return Machine(FullyConnected(p), spec=AP1000,
                   faults=FaultInjector(spec or FaultSpec()))


class TestFaultFree:
    @pytest.mark.parametrize("expr", EXPRESSIONS)
    def test_matches_the_raw_compiler(self, expr):
        want, _ = run_expression(expr, PA8, Machine(FullyConnected(8),
                                                    spec=AP1000))
        got, res = run_expression_ft(expr, PA8, _faulty_machine(8))
        assert list(got) == list(want)
        assert res.total_retransmits == 0

    def test_collect_by_pairwise_swap_is_a_list_of_arrivals(self):
        """A send in which every rank swaps with a partner still collects:
        each rank holds the list of what arrived, not the bare value."""
        expr = SendNode(lambda r: (r ^ 1,))
        got, _res = run_expression_ft(expr, PA8, _faulty_machine(8))
        assert got.to_list() == [[1], [3], [1], [4], [9], [5], [6], [2]]

    def test_fold_returns_the_scalar(self):
        want, _ = run_expression(Fold(lambda a, b: a + b), PA8,
                                 Machine(FullyConnected(8), spec=AP1000))
        got, _ = run_expression_ft(Fold(lambda a, b: a + b), PA8,
                                   _faulty_machine(8))
        assert got == want == sum(PA8.to_list())

    def test_hyperquicksort_expression_sorts(self, rng):
        from repro.apps.sort import hyperquicksort_expression, seq_quicksort
        from repro.core import parmap, partition
        from repro.core.partition import Block

        vals = rng.integers(0, 10**6, size=512).astype(np.int32)
        blocks = parmap(seq_quicksort, partition(Block(8), vals))
        out, res = run_expression_ft(hyperquicksort_expression(3), blocks,
                                     Machine(Hypercube(3), spec=AP1000,
                                             faults=FaultInjector(FaultSpec())))
        flat = np.concatenate([np.asarray(b) for b in out])
        assert np.array_equal(flat, np.sort(vals))
        assert res.total_retransmits == 0


class TestUnderMessageFaults:
    @pytest.mark.parametrize("expr", EXPRESSIONS)
    def test_values_survive_drops_and_duplicates(self, expr):
        machine = _faulty_machine(8, FaultSpec(seed=3, drop_rate=0.15,
                                               dup_rate=0.05))
        want, _ = run_expression(expr, PA8, Machine(FullyConnected(8),
                                                    spec=AP1000))
        got, _res = run_expression_ft(expr, PA8, machine)
        assert list(got) == list(want)

    def test_drops_force_retransmissions(self, rng):
        from repro.apps.sort import hyperquicksort_expression, seq_quicksort
        from repro.core import parmap, partition
        from repro.core.partition import Block

        vals = rng.integers(0, 10**6, size=512).astype(np.int32)
        blocks = parmap(seq_quicksort, partition(Block(8), vals))
        machine = Machine(Hypercube(3), spec=AP1000,
                          faults=FaultInjector(FaultSpec(seed=11,
                                                         drop_rate=0.2)))
        out, res = run_expression_ft(hyperquicksort_expression(3), blocks,
                                     machine)
        flat = np.concatenate([np.asarray(b) for b in out])
        assert np.array_equal(flat, np.sort(vals))
        assert res.total_retransmits > 0
        assert res.total_dropped > 0

    def test_same_seed_is_bit_identical(self):
        expr = EXPRESSIONS[0]

        def run():
            machine = _faulty_machine(8, FaultSpec(seed=7, drop_rate=0.1))
            return run_expression_ft(expr, PA8, machine)

        out1, res1 = run()
        out2, res2 = run()
        assert list(out1) == list(out2)
        assert res1.makespan == res2.makespan
        assert res1.total_retransmits == res2.total_retransmits
