"""Search soundness properties: same values, never a simulated regression.

The cost-driven rewrite search's contract, stated over randomly
generated expressions and a sweep of machine shapes (the PR-5
property-suite pattern, applied to the *pre-lowering* optimizer):

1. **Bit-identical results** — the searched winner computes the same
   values as the original expression, element for element.
2. **Predicted never worse** — the winner's lexicographic cost key is
   bounded by the original's (by construction: the original stays in
   the candidate pool), so search never *predicts* a regression.
3. **Simulated never worse** — on the single-port machine the search
   priced for, the winner's simulated makespan (tiny float slack for
   re-associated compute charges) and message count are bounded by the
   original's.  This is the model-fidelity half of the contract: a
   predicted improvement must not be a simulated regression.
4. **beam=1 never loses to greedy** — hill-climbing on the unified
   pipeline cost matches the old greedy fixpoint wherever greedy's
   package is genuinely improving, and prices no worse everywhere.  On
   the random space below the two agree exactly (every random ``Fetch``
   is a bijective shift, so fusion can never concentrate traffic);
   where they *can* diverge, search wins — the deterministic anchor at
   the bottom pins the engineered case where greedy's all-or-nothing
   package fuses sparse fetches into a traffic funnel and search
   declines it.
"""

from __future__ import annotations

import collections

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pararray import ParArray
from repro.machine import AP1000, Machine, PERFECT
from repro.machine.topology import FullyConnected, Hypercube, Ring
from repro.plan.cost import ExprCost
from repro.plan.lower import clear_plan_cache
from repro.scl import (
    Brdcast,
    Fetch,
    Fold,
    IMap,
    IterFor,
    Map,
    Rotate,
    Scan,
    compose_nodes,
)
from repro.scl.compile import base_fragment, run_expression
from repro.scl.optimize import optimize
from repro.tune import score_expression, tune_expression

SLACK = 1 + 1e-9  # fused compute charges re-associate float additions

SPECS = {"ap1000": AP1000, "perfect": PERFECT}
TOPOLOGIES = {
    "ring": Ring,
    "full": FullyConnected,
    "hypercube": Hypercube.of_size,
}


@base_fragment(ops=40.0)
def _inc(x):
    return x + 1


@base_fragment(ops=60.0)
def _dbl(x):
    return x * 2


@base_fragment(ops=20.0)
def _collapse(pair):
    # Brdcast pairs the broadcast value with each component; fold the
    # pair back to a number so any numeric leaf can follow.
    a, x = pair
    return a + x


@st.composite
def programs(draw):
    """Random flat chains over every §4-relevant skeleton family."""
    p = draw(st.sampled_from([2, 3, 4, 8]))
    leaf = st.one_of(
        st.sampled_from([Map(_inc), Map(_dbl),
                         IMap(lambda i, x: x + i),
                         compose_nodes(Map(_collapse), Brdcast(17.0))]),
        st.integers(min_value=-4, max_value=4).map(Rotate),
        st.integers(min_value=0, max_value=p - 1).map(
            lambda s: Fetch(lambda r, s=s: (r + s) % p)),
        st.just(Scan(lambda a, b: a + b)),
        st.integers(min_value=1, max_value=3).map(
            lambda k: IterFor(k, lambda i: compose_nodes(
                Map(_inc), Rotate(i + 1)))),
    )
    steps = draw(st.lists(leaf, min_size=1, max_size=5))
    # a trailing Fold is legal (scalar plans), anywhere else it is not
    if draw(st.booleans()):
        steps.insert(0, Fold(lambda a, b: a + b))
    return p, compose_nodes(*steps)


def _values(x):
    return list(x) if isinstance(x, ParArray) else x


@settings(max_examples=40, deadline=None)
@given(prog=programs(),
       topo_name=st.sampled_from(sorted(TOPOLOGIES)),
       spec_name=st.sampled_from(sorted(SPECS)))
def test_searched_winner_is_bit_identical_and_never_regresses(
        prog, topo_name, spec_name):
    p, expr = prog
    if topo_name == "hypercube" and p & (p - 1):
        p = 4  # hypercubes need a power of two
    spec = SPECS[spec_name]
    res = tune_expression(expr, nprocs=p, spec=spec,
                          beam=2, max_rounds=8)

    # predicted: the original never leaves the pool, so the winner's
    # lexicographic key is bounded by the original's
    assert res.best.order_key() <= res.original.order_key()
    winner = res.best if res.improved else res.original

    # single_port matches plan_cost's msg x degree exchange pricing —
    # the machine the search believed it was optimising for
    def machine():
        return Machine(TOPOLOGIES[topo_name](p), spec=spec,
                       single_port=True)

    pa = ParArray([float(3 * r + 1) for r in range(p)])
    want, res_orig = run_expression(expr, pa, machine(), opt="auto")
    got, res_win = run_expression(winner.expr, pa, machine(), opt="auto")

    assert _values(got) == _values(want)
    assert res_win.total_messages <= res_orig.total_messages
    assert res_win.makespan <= res_orig.makespan * SLACK


@settings(max_examples=25, deadline=None)
@given(prog=programs(),
       spec_name=st.sampled_from(sorted(SPECS)))
def test_beam1_search_never_loses_to_greedy(prog, spec_name):
    p, expr = prog
    spec = SPECS[spec_name]
    rep_search = optimize(expr, n=p, spec=spec, strategy="search",
                          beam=1)
    rep_greedy = optimize(expr, n=p, spec=spec, strategy="greedy")

    # both strategies preserve meaning
    pa = ParArray([float(3 * r + 1) for r in range(p)])

    def machine():
        return Machine(FullyConnected(p), spec=spec, single_port=True)

    want, _ = run_expression(expr, pa, machine(), opt="auto")
    got_s, _ = run_expression(rep_search.optimized, pa, machine(),
                              opt="auto")
    got_g, _ = run_expression(rep_greedy.optimized, pa, machine(),
                              opt="auto")
    assert _values(got_s) == _values(want)
    assert _values(got_g) == _values(want)

    # priced through the one unified model, hill-climbing on pipeline
    # cost is never worse than greedy's all-or-nothing package
    cost_s, _ = score_expression(rep_search.optimized, nprocs=p, spec=spec)
    cost_g, _ = score_expression(rep_greedy.optimized, nprocs=p, spec=spec)
    assert cost_s.seconds <= cost_g.seconds * SLACK

    # on this space every Fetch is a bijective shift, so greedy's fusion
    # package never concentrates traffic and the two agree exactly
    assert rep_search.optimized == rep_greedy.optimized


class TestSearchBeatsGreedyAnchor:
    """The engineered divergence the benchmarks track: greedy's package
    fuses two sparse fetches into one degree-15 funnel (2 barriers saved
    beats the fetch penalty under its raw-lowering model), search prices
    the funnel on the single-port machine and declines it."""

    def test_search_strictly_beats_greedy_in_simulated_makespan(self):
        from repro.tune import run_tuned_hyperquicksort

        rng = np.random.default_rng(7)
        values = rng.integers(0, 2**31, size=4000).astype(np.int32)

        out_s, res_s, rep_s = run_tuned_hyperquicksort(
            values, 5, strategy="search", beam=2)
        out_g, res_g, rep_g = run_tuned_hyperquicksort(
            values, 5, strategy="greedy")

        # per-rank blocks, exactly equal (not allclose)
        assert all(np.array_equal(np.asarray(a), np.asarray(b))
                   for a, b in zip(list(out_s), list(out_g)))
        assert res_s.makespan < res_g.makespan  # strict: the trap engaged
        # search took the fusions plan.opt cannot recover but declined
        # the traffic-concentrating fetch fusion greedy bundled in
        assert len(rep_s.steps) < len(rep_g.steps)
        assert "fetch" not in " ".join(s.rule for s in rep_s.steps)


class TestSearchWorkAndAnswerArePinned:
    """The ``tune_cold`` search, pinned: what it explores, what it picks,
    and how much lowering it does to get there — candidates share the
    steps their rewrite did not touch, but only within one search."""

    DIM, REPEATS = 5, 3

    def _search(self, expr):
        return tune_expression(expr, nprocs=1 << self.DIM, spec=AP1000,
                               beam=4)

    def test_explored_set_winner_and_cost(self):
        from repro.tune import tuned_sort_pipeline

        res = self._search(tuned_sort_pipeline(self.DIM, self.REPEATS))
        assert res.explored == 116 and res.rounds == 9
        assert res.best.rules == ("map-fusion",) * 6
        assert res.original.cost == res.best.cost
        assert res.best.cost == ExprCost(0.0217724, 433, 29)

    def test_each_fetch_is_lowered_once_per_search(self, monkeypatch):
        from repro.tune import workloads

        calls = collections.Counter()

        def counted(fn):
            def index_fn(r):
                calls[fn.__name__] += 1
                return fn(r)
            return index_fn

        for fn in (workloads._quarter_leader, workloads._block_pick):
            monkeypatch.setattr(workloads, fn.__name__, counted(fn))
        # built past the lru_cache so the nodes hold the counting wrappers
        expr = workloads.tuned_sort_pipeline.__wrapped__(self.DIM,
                                                         self.REPEATS)
        p = 1 << self.DIM
        # Three distinct Fetch nodes occur in the 116 candidates — the two
        # originals and their fusion, which calls both — each evaluated
        # over the p ranks exactly once, however many candidates hold it.
        self._search(expr)
        assert calls == {"_quarter_leader": 2 * p, "_block_pick": 2 * p}
        # nothing lowered outlives the search: the next one starts cold
        clear_plan_cache()
        self._search(expr)
        assert calls == {"_quarter_leader": 4 * p, "_block_pick": 4 * p}


def test_a_bug_in_an_index_function_is_not_priced_as_unlowerable():
    """Only "has no plan form" (``SkeletonError``) falls back to the legacy
    expression-level model; anything else is a bug and must surface."""

    def broken(r):
        return r + None

    expr = compose_nodes(Map(_inc), Fetch(broken))
    with pytest.raises(TypeError):
        tune_expression(expr, nprocs=4, spec=AP1000)
