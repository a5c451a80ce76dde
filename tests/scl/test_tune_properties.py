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
4. **beam=1 never loses to greedy, the fixpoint** — hill-climbing on the
   pipeline cost matches rewriting to fixpoint
   (``default_engine().rewrite``) wherever that package is genuinely
   improving, and prices no worse everywhere.  On the random space below
   the two agree exactly (every random ``Fetch`` is a bijective shift,
   so fusion can never concentrate traffic); where they *can* diverge,
   search wins — the deterministic anchor at the bottom pins the
   engineered case where the fixpoint fuses sparse fetches into a
   traffic funnel and search declines it.
"""

from __future__ import annotations

import collections
import operator
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.sort import seq_quicksort
from repro.core import Block, parmap, partition
from repro.core.pararray import ParArray
from repro.machine import AP1000, Machine, PERFECT
from repro.machine.topology import FullyConnected, Hypercube, Ring
from repro.plan import ir
from repro.plan.cost import ExprCost
from repro.plan.lower import clear_plan_cache, plan_cache_stats, tuned_lower
from repro.plan.opt import OptConfig
from repro.scl import (
    Brdcast,
    Combine,
    Fetch,
    Fold,
    FoldrFused,
    IMap,
    IterFor,
    Map,
    Rotate,
    Scan,
    Split,
    compose_nodes,
    default_engine,
    estimate_cost,
    evaluate,
)
from repro.scl.compile import base_fragment, run_expression
from repro.tune import tune_expression, tuned_sort_pipeline

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
    winner = res.winner
    # the search's memo priced each candidate as pricing it afresh does
    for c in res.frontier:
        assert c.cost == estimate_cost(c.expr, n=p, spec=spec,
                                       opt=OptConfig(spec=spec))

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
    """"Greedy" is rewriting to fixpoint: ``default_engine().rewrite``."""
    p, expr = prog
    spec = SPECS[spec_name]
    searched = tune_expression(expr, nprocs=p, spec=spec, beam=1).winner.expr
    fixpoint, _steps = default_engine().rewrite(expr)

    # both preserve meaning
    pa = ParArray([float(3 * r + 1) for r in range(p)])

    def machine():
        return Machine(FullyConnected(p), spec=spec, single_port=True)

    want, _ = run_expression(expr, pa, machine(), opt="auto")
    got_s, _ = run_expression(searched, pa, machine(), opt="auto")
    got_f, _ = run_expression(fixpoint, pa, machine(), opt="auto")
    assert _values(got_s) == _values(want)
    assert _values(got_f) == _values(want)

    # priced through the one function, hill-climbing on pipeline cost is
    # never worse than taking every rewrite
    cost_s = estimate_cost(searched, n=p, spec=spec)
    cost_f = estimate_cost(fixpoint, n=p, spec=spec)
    assert cost_s.seconds <= cost_f.seconds * SLACK

    # on this space every Fetch is a bijective shift, so the fixpoint's
    # fusions never concentrate traffic and the two agree exactly
    assert searched == fixpoint


class TestSearchBeatsGreedyAnchor:
    """The engineered divergence the benchmarks track: the fixpoint fuses
    two sparse fetches into one degree-15 funnel (2 barriers saved beats
    the fetch penalty on the raw lowering), search prices the funnel on
    the single-port machine and declines it."""

    def test_search_strictly_beats_greedy_in_simulated_makespan(self):
        d = 5
        rng = np.random.default_rng(7)
        values = rng.integers(0, 2**31, size=4000).astype(np.int32)
        blocks = parmap(seq_quicksort, partition(Block(1 << d), values))
        expr = tuned_sort_pipeline(d)

        # the one-port contention model is what the exchange pricing
        # (msg x degree) assumes
        def run(program):
            return run_expression(
                program, blocks,
                Machine(Hypercube(d), spec=AP1000, single_port=True),
                opt="auto")

        tuned = tuned_lower(expr, 1 << d, opt=OptConfig(spec=AP1000), beam=2)
        fixpoint, fixpoint_steps = default_engine().rewrite(expr)
        out_s, res_s = run(tuned.expr)
        out_g, res_g = run(fixpoint)

        # per-rank blocks, exactly equal (not allclose)
        assert all(np.array_equal(np.asarray(a), np.asarray(b))
                   for a, b in zip(list(out_s), list(out_g)))
        assert res_s.makespan < res_g.makespan  # strict: the trap engaged
        # search took the fusions plan.opt cannot recover but declined
        # the traffic-concentrating fetch fusion the fixpoint bundles in
        assert len(tuned.steps) < len(fixpoint_steps)
        assert "fetch" not in " ".join(s.rule for s in tuned.steps)


class TestSearchWorkAndAnswerArePinned:
    """The ``tune_cold`` search, pinned: what it explores, what it picks,
    and how much lowering it does to get there — candidates share the
    steps their rewrite did not touch, but only within one search."""

    DIM, REPEATS = 5, 3

    def _search(self, expr):
        return tune_expression(expr, nprocs=1 << self.DIM, spec=AP1000,
                               beam=4)

    def test_explored_set_winner_and_cost(self):
        res = self._search(tuned_sort_pipeline(self.DIM, self.REPEATS))
        assert res.explored == 116 and res.rounds == 9
        assert res.best.rules == ("map-fusion",) * 6
        assert res.original.cost == res.best.cost
        assert res.best.cost == ExprCost(0.0217724, 433, 29)
        # what the search's memo priced is what pricing afresh says
        config = OptConfig(spec=AP1000)
        for c in res.frontier:
            assert c.cost == estimate_cost(c.expr, n=1 << self.DIM,
                                           spec=AP1000, opt=config)

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

    def test_each_pass_and_price_runs_once_per_shared_instruction(
            self, monkeypatch):
        """The search's memo reaches ``plan.opt`` and ``plan_cost``: a
        change that defeats it fails here, not only in a benchmark."""
        from repro.plan import opt
        from repro.scl import optimize

        seen = collections.defaultdict(list)

        def spy(module, name, record):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                result = original(*args, **kwargs)
                seen[name].append(record(args, kwargs, result))
                return result

            monkeypatch.setattr(module, name, wrapper)

        # the objects are kept in the records, so their ids stay unique
        spy(opt, "_compose_routes", lambda a, kw, result: (*a[:2], result))
        spy(opt, "_coalesce_nested", lambda a, kw, result: a[0])
        spy(opt, "_fuse_nested", lambda a, kw, result: a[0])
        for module in (opt, optimize, sys.modules["repro.plan.cost"]):
            spy(module, "plan_cost",
                lambda a, kw, result, m=module: (m, kw.get("memo")))

        res = self._search(tuned_sort_pipeline(self.DIM, self.REPEATS))

        pairs = [(id(a), id(b)) for a, b, _ in seen["_compose_routes"]]
        assert pairs and len(set(pairs)) == len(pairs)
        for name in ("_coalesce_nested", "_fuse_nested"):
            groups = [id(instr) for instr in seen[name]]
            assert groups and len(set(groups)) == len(groups), name
            assert all(isinstance(instr, ir.Loop) for instr in seen[name])
        # one price per candidate, two per routing pair the guard weighs
        weighed = sum(1 for *_, result in seen["_compose_routes"]
                      if result != ())
        assert len(seen["plan_cost"]) == res.explored + 2 * weighed
        # every candidate is priced with the search's memo, so the shared
        # loop's cost term is worked out once
        priced_with = [memo for module, memo in seen["plan_cost"]
                       if module is optimize]
        assert len(priced_with) == res.explored
        assert priced_with[0] is not None
        assert all(memo is priced_with[0] for memo in priced_with)


def test_a_bug_in_an_index_function_is_not_priced_as_unlowerable():
    """Only "has no plan form" (``SkeletonError``) falls back to the legacy
    expression-level model; anything else is a bug and must surface."""

    def broken(r):
        return r + None

    expr = compose_nodes(Map(_inc), Fetch(broken))
    with pytest.raises(TypeError):
        tune_expression(expr, nprocs=4, spec=AP1000)


def test_pricing_never_touches_the_plan_cache():
    """Priced expressions are throwaway: neither a search nor one
    ``estimate_cost`` may probe, fill or count against the plan cache —
    not even for a candidate with no plan form, which is lowered once
    (to find that out) and then priced by the expression-level model."""
    prog = FoldrFused(operator.add, lambda x: x, op_associative=True)
    untouched = {"hits": 0, "misses": 0, "size": 0}

    def touched():
        stats = plan_cache_stats()
        return {key: stats[key] for key in untouched}

    clear_plan_cache()
    tune_expression(prog, nprocs=4096, spec=AP1000, fn_ops=50)
    assert touched() == untouched
    estimate_cost(prog, n=4096, spec=AP1000, fn_ops=50)
    assert touched() == untouched


def test_a_search_over_groups_never_touches_the_plan_cache():
    """The group plans of a ``map`` of a sub-expression are lowered through
    the search's memo as well, not through the cached ``lower()``."""
    inner = compose_nodes(Rotate(1), Map(_inc), Map(_dbl))
    expr = compose_nodes(Map(_inc), Map(_dbl), Combine(), Map(inner),
                         Split(Block(2)), Rotate(1), Rotate(2))
    clear_plan_cache()
    before = plan_cache_stats()
    res = tune_expression(expr, nprocs=8, spec=AP1000)
    assert plan_cache_stats() == before
    pa = ParArray([float(3 * r + 1) for r in range(8)])
    got, _ = run_expression(res.winner.expr, pa,
                            Machine(FullyConnected(8), spec=AP1000))
    assert _values(got) == _values(evaluate(expr, pa))
