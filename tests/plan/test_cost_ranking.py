"""The cost model's rankings agree with the simulator on §4 rewrite pairs.

The optimizer keeps a rewrite only when :func:`estimate_cost` predicts it
is no slower.  Since PR 3, the prediction walks the very plan the machine
executes, so the claim is checkable: for randomly-generated expressions
and their §4-rule rewrites, whenever the model predicts an improvement
the simulated makespan must not get worse — on the same machine spec the
model priced (with function costs aligned between model and fragments).

Everything here compares the *raw-lowering* cost model
(``estimate_cost`` with no ``opt``) against *unoptimised* execution
(``opt="off"``), with the rewrite being every rule applied to fixpoint.
The search prices through ``plan.opt`` instead; its counterpart lives in
``tests/scl/test_tune_properties.py``.
"""

from __future__ import annotations

import collections

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.pararray import ParArray
from repro.machine import AP1000, Machine
from repro.machine.topology import FullyConnected
from repro.scl import (Map, Rotate, compose_nodes, default_engine,
                       estimate_cost)
from repro.scl.compile import base_fragment, run_expression

P = 8
FN_OPS = 50.0


@base_fragment(ops=FN_OPS)
def _inc(x):
    return x + 1


@base_fragment(ops=FN_OPS)
def _dbl(x):
    return x * 2


@st.composite
def rewrite_candidates(draw):
    """A random chain of maps and rotates — §4 fusion-rule territory."""
    steps = draw(st.lists(
        st.one_of(
            st.sampled_from([Map(_inc), Map(_dbl)]),
            st.integers(min_value=-5, max_value=5).map(Rotate),
        ),
        min_size=2, max_size=6))
    return compose_nodes(*steps)


Report = collections.namedtuple(
    "Report", "original optimized cost_before cost_after accepted")


def _fixpoint_report(expr) -> Report:
    """Rewrite to fixpoint and price both ends on their raw lowerings; the
    package is accepted only when predicted no slower."""
    def cost(node):
        return estimate_cost(node, n=P, spec=AP1000, fn_ops=FN_OPS,
                             element_bytes=AP1000.word_bytes)

    rewritten, _steps = default_engine().rewrite(expr)
    before, after = cost(expr), cost(rewritten)
    if after.seconds <= before.seconds:
        return Report(expr, rewritten, before, after, rewritten is not expr)
    return Report(expr, expr, before, before, False)


def _simulate(expr) -> tuple[list, float]:
    # opt="off" throughout this module: these tests compare the
    # *expression-level* model against the raw compiled execution; the
    # plan optimizer would rewrite the program underneath the comparison.
    pa = ParArray(list(range(P)))
    machine = Machine(FullyConnected(P), spec=AP1000)
    out, res = run_expression(expr, pa, machine, opt="off")
    return list(out), res.makespan


@settings(max_examples=40, deadline=None)
@given(expr=rewrite_candidates())
def test_predicted_improvements_are_real(expr):
    report = _fixpoint_report(expr)
    before_out, before_s = _simulate(report.original)
    after_out, after_s = _simulate(report.optimized)
    # rewrites preserve meaning...
    assert after_out == before_out
    # ...and a predicted win must not be a simulated loss (tiny float slack)
    if report.accepted and report.cost_after.seconds < report.cost_before.seconds:
        assert after_s <= before_s * (1 + 1e-9)


@settings(max_examples=40, deadline=None)
@given(expr=rewrite_candidates())
def test_predicted_message_counts_match_simulation(expr):
    report = _fixpoint_report(expr)
    for node, cost in ((report.original, report.cost_before),
                       (report.optimized, report.cost_after)):
        _out, _ = _simulate(node)
        machine = Machine(FullyConnected(P), spec=AP1000)
        _o, res = run_expression(node, ParArray(list(range(P))), machine,
                                 opt="off")
        assert cost.messages == res.total_messages


def test_the_papers_headline_pairs_rank_correctly(rng):
    """The §4 showcase rewrites: fused forms beat unfused in both worlds."""
    pairs = [
        (compose_nodes(Map(_inc), Map(_dbl)),
         "map fusion"),
        (compose_nodes(Rotate(2), Rotate(3)),
         "rotate fusion"),
        (compose_nodes(Map(_inc), Map(_dbl), Rotate(1), Rotate(-3)),
         "mixed chain"),
    ]
    for expr, label in pairs:
        report = _fixpoint_report(expr)
        assert report.accepted, label
        _out_b, before_s = _simulate(report.original)
        _out_a, after_s = _simulate(report.optimized)
        assert report.cost_after.seconds <= report.cost_before.seconds, label
        assert after_s <= before_s * (1 + 1e-9), label
