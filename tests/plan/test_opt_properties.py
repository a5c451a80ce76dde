"""Optimizer soundness properties: same values, never-worse cost.

The plan optimizer's whole-pipeline contract, stated over randomly
generated expressions and a sweep of machine shapes:

1. **Bit-identical results** — the optimized plan's simulated values
   equal the unoptimized plan's, element for element.
2. **Simulated cost never worse** — makespan (tiny float slack for
   re-associated compute charges) and total messages of the optimized
   run are bounded by the unoptimized run's.
3. **Predicted cost never worse** — ``plan_cost`` of the optimized plan
   is bounded by the raw plan's on the spec the passes priced with.
4. **One walker, any transport** — the same program on the reliable
   transport (zero-rate fault injector) computes the same values, and on
   a traced machine the direct transport reproduces the untraced
   interpreter's values, makespan and message count exactly.

Plus two deterministic application anchors, compiled hyperquicksort and
the gauss-jordan solver (the ``sort_warm`` / ``gauss_warm`` programs of
``BENCHMARK.json``), where the passes must leave the simulated run as it
was.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pararray import ParArray
from repro.faults.models import FaultInjector, FaultSpec
from repro.faults.plan_exec import run_expression_ft
from repro.machine import AP1000, Machine, PERFECT
from repro.machine.topology import FullyConnected, Hypercube, Ring
from repro.plan.cost import plan_cost
from repro.plan.lower import lower
from repro.plan.opt import OptConfig, optimize_plan
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


@settings(max_examples=60, deadline=None)
@given(prog=programs(),
       topo_name=st.sampled_from(sorted(TOPOLOGIES)),
       spec_name=st.sampled_from(sorted(SPECS)))
def test_optimized_runs_are_bit_identical_and_never_cost_more(
        prog, topo_name, spec_name):
    p, expr = prog
    if topo_name == "hypercube" and p & (p - 1):
        p = 4  # hypercubes need a power of two
    spec = SPECS[spec_name]
    pa = ParArray([float(3 * r + 1) for r in range(p)])

    def machine(**kw):
        return Machine(TOPOLOGIES[topo_name](p), spec=spec, **kw)

    m = machine()
    config = OptConfig.for_machine(m)
    want, res_off = run_expression(expr, pa, m, opt="off")
    got, res_opt = run_expression(expr, pa, machine(), opt=config)
    got_ft, _ = run_expression_ft(
        expr, pa, machine(faults=FaultInjector(FaultSpec())), opt=config)
    got_tr, res_tr = run_expression(expr, pa, machine(record_trace=True),
                                    opt="off")

    for arm in (got, got_ft, got_tr):
        if np.isscalar(want) or not isinstance(want, ParArray):
            assert arm == want
        else:
            assert list(arm) == list(want)
    assert res_opt.total_messages <= res_off.total_messages
    assert res_opt.makespan <= res_off.makespan * SLACK
    # the walker's traced and untraced paths issue the same requests
    assert res_tr.makespan == res_off.makespan
    assert res_tr.total_messages == res_off.total_messages

    raw = lower(expr, p)
    opt = optimize_plan(raw, config)
    c_raw = plan_cost(raw, spec=spec)
    c_opt = plan_cost(opt, spec=spec)
    assert c_opt.messages <= c_raw.messages
    assert c_opt.seconds <= c_raw.seconds * SLACK


class TestApplicationAnchors:
    @pytest.mark.parametrize("d", [2, 3])
    def test_hyperquicksort_bit_identical_and_never_more_traffic(self, d,
                                                                 rng):
        from repro.apps.sort import hyperquicksort_compiled

        vals = rng.integers(0, 10**6, size=1 << (d + 6)).astype(np.int64)
        want, res_off = hyperquicksort_compiled(vals, d, opt="off")
        got, res_opt = hyperquicksort_compiled(vals, d)
        assert np.array_equal(got, want)
        # the passes find nothing in the sort that moves the timeline
        assert res_opt.total_messages == res_off.total_messages
        assert res_opt.makespan == res_off.makespan

    def test_gauss_jordan_bit_identical(self, rng):
        from repro.apps.linalg import gauss_jordan_compiled

        n, p = 12, 4
        A = rng.normal(size=(n, n)) + n * np.eye(n)
        b = rng.normal(size=n)
        want, res_off = gauss_jordan_compiled(A, b, p, opt="off")
        got, res_opt = gauss_jordan_compiled(A, b, p)
        assert np.array_equal(got, want)  # exact, not allclose
        assert res_opt.total_messages == res_off.total_messages
        assert res_opt.makespan == res_off.makespan
