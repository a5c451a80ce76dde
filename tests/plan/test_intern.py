"""The interned Plan IR, and the payload rule it shares with expressions.

Structurally equal plan instructions are one object, whoever built them,
so a pass or price result kept on an instruction serves every plan that
holds it.  Tables, labels, modes and ints are compared by value;
payloads — fragments, operators, broadcast values, farm environments —
by identity.  ``1 == 1.0 == True``, but the three broadcast different
values: a value key would let an equality-keyed cache (the canonical
table, the plan cache, the tuned tier, a search's lowering memo) serve
one for another.
"""

from __future__ import annotations

import gc
import operator
import sys
import threading

import numpy as np
import pytest

from repro.core import Block, ParArray
from repro.machine import AP1000, Hypercube, Machine
from repro.machine.api import Comm
from repro.machine.plan_exec import execute_plan
from repro.plan import ir
from repro.plan.lower import clear_plan_cache, lower_uncached, tuned_lower
from repro.plan.opt import OptConfig, optimize_plan
from repro.scl import (
    Brdcast,
    Combine,
    Farm,
    Fetch,
    IterFor,
    Map,
    Rotate,
    Split,
    compose_nodes,
    evaluate,
    run_expression,
)
from repro.tune import tune_expression
from repro.util.functional import Composed


def _payloads():
    """Values that are ``==`` (pairwise within a group) yet of different
    types, built afresh so that no two are one object."""
    return [1, 1.0, True, np.float32(1), np.float64(1),
            (1, 2.0), (1.0, 2)]


def _with_env(env, x):
    return (env, x)


def _typed(x):
    """``x`` with the type of every scalar in it, so ``==`` tells ``1``
    from ``1.0``."""
    if isinstance(x, (tuple, list)):
        return (type(x), tuple(_typed(v) for v in x))
    return (type(x), x)


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


class TestInterning:
    def test_equal_instructions_are_one_object(self):
        p = 8
        built = ir.Exchange.from_sources("replace",
                                         [(r + 3) % p for r in range(p)],
                                         "rotate 3")
        assert ir.rotation(3, p) is built
        assert ir.Exchange(built.mode, built.sends, built.recvs,
                           built.label) is built
        assert ir.GroupCombine() is ir.GroupCombine()
        body = (ir.LocalApply(abs), built)
        assert ir.Loop((body, body)) is ir.Loop(((ir.LocalApply(abs), built),
                                                 (ir.LocalApply(abs), built)))

    def test_every_field_is_part_of_the_key(self):
        a = ir.Exchange("replace", ((1,), (0,)), ((1,), (0,)), "swap")
        assert ir.Exchange("replace", ((1,), (0,)), ((1,), (0,)), "x") \
            is not a
        assert ir.Exchange("pair", a.sends, a.recvs, "swap") is not a
        assert ir.Collective("fold", op=operator.add, root=1) is not \
            ir.Collective("fold", op=operator.add, root=0)

    def test_equality_and_hashing_are_identity(self):
        a = ir.rotation(1, 4)
        assert a == ir.rotation(1, 4) and a != ir.rotation(2, 4)
        assert hash(a) == object.__hash__(a)
        assert len({ir.rotation(1, 4), ir.rotation(1, 4)}) == 1

    def test_payloads_are_never_merged(self):
        """The matrix of ``==`` payloads: distinct objects, distinct
        instructions, in every payload field; one object, one
        instruction."""
        values = _payloads()
        for build in (lambda v: ir.Collective("bcast", value=v),
                      lambda v: ir.LocalApply(operator.add, farm_env=v),
                      lambda v: ir.Collective("apply_bcast", op=v)):
            instrs = [build(v) for v in values]
            assert len({id(i) for i in instrs}) == len(values)
            assert all(build(v) is i for v, i in zip(values, instrs))
        # fragments: equal Composed pipelines are still two payloads
        f, g = Composed(abs, operator.neg), Composed(abs, operator.neg)
        assert f == g and ir.LocalApply(f) is not ir.LocalApply(g)

    def test_fusing_a_run_twice_yields_one_instruction(self):
        run = (ir.LocalApply(abs), ir.LocalApply(operator.neg))
        config = OptConfig(spec=AP1000)
        a = optimize_plan(ir.Plan(run, 4), config)
        b = optimize_plan(ir.Plan(run + (ir.rotation(1, 4),), 4), config)
        assert isinstance(a.instrs[0].fn, ir.FusedKernel)
        assert a.instrs[0] is b.instrs[0]

    def test_the_table_holds_nothing_alive(self):
        def fn(x):
            return x

        instr = ir.LocalApply(fn, label="weak")
        instr.results["probe"] = True
        del instr
        gc.collect()
        # a new object: the old one and its results went with its last user
        assert "probe" not in ir.LocalApply(fn, label="weak").results


def test_threads_building_one_structure_get_one_object():
    """Serve workers lower concurrently: however their constructor calls
    interleave, a structure has one canonical object."""
    n_threads, p = 8, 64
    built: list[list[ir.Exchange]] = []
    start = threading.Barrier(n_threads)

    def build():
        start.wait(timeout=10)
        built.append([ir.rotation(k, p) for k in range(1, p)])

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert len(built) == n_threads
    assert all(a is b for row in built for a, b in zip(row, built[0]))


def _run_plan(plan, values):
    machine = Machine(Hypercube(2), spec=AP1000)
    res = machine.run(lambda env: execute_plan(plan, env, Comm.world(env),
                                               values[env.pid]))
    return res.values


class TestPayloadsReachTheRun:
    """Each compiled result equals ``evaluate``'s in value *and* type, for
    every payload of the matrix, in one process: through the cached
    ``lower()``, the tuned tier, and one search's lowering memo."""

    PA = ParArray([10, 20, 30, 40])

    @staticmethod
    def _exprs():
        return ([Brdcast(v) for v in _payloads()]
                + [Farm(_with_env, v) for v in _payloads()]
                # group plans of a map of a sub-expression, two per split
                + [compose_nodes(Combine(), Map(Brdcast(v)),
                                 Map(Brdcast(w)), Split(Block(2)))
                   for v, w in zip(_payloads(), _payloads()[1:])])

    def test_through_the_plan_cache(self):
        machine = Machine(Hypercube(2), spec=AP1000)
        for expr in self._exprs():
            want = evaluate(expr, self.PA).to_list()
            got, _ = run_expression(expr, self.PA, machine)
            assert _typed(got.to_list()) == _typed(want), expr

    def test_through_the_tuned_tier(self):
        machine = Machine(Hypercube(2), spec=AP1000)
        for expr in self._exprs():
            want = evaluate(expr, self.PA).to_list()
            tuned = tuned_lower(expr, 4, opt=OptConfig(spec=AP1000), beam=2)
            got, _ = run_expression(tuned.expr, self.PA, machine)
            assert _typed(got.to_list()) == _typed(want), expr

    def test_inside_one_search(self):
        # the steps of every expression meet in one lowering memo, as a
        # search's candidates do
        memo: dict = {}
        for expr in self._exprs():
            want = evaluate(expr, self.PA).to_list()
            plan = lower_uncached(expr, 4, opt=OptConfig(spec=AP1000),
                                  memo=memo)
            got = _run_plan(plan, self.PA.to_list())
            assert _typed(got) == _typed(want), expr
        # and one search over an expression holding all of them
        steps = []
        for v in _payloads():
            steps += [Map(lambda pair: pair[1] + (pair[0],)), Brdcast(v)]
        expr = compose_nodes(*steps, Rotate(1), Map(lambda x: ()))
        res = tune_expression(expr, nprocs=4, spec=AP1000, beam=2)
        machine = Machine(Hypercube(2), spec=AP1000)
        want = evaluate(expr, self.PA).to_list()
        got, _ = run_expression(res.winner.expr, self.PA, machine)
        assert _typed(got.to_list()) == _typed(want)

    def test_loops_keep_their_payloads_apart(self):
        ones = _payloads()
        loop = IterFor(len(ones), lambda i: compose_nodes(
            Map(lambda pair: pair[1] + (pair[0],)), Brdcast(ones[i])))
        expr = compose_nodes(loop, Fetch(lambda r: r), Map(lambda x: ()))
        machine = Machine(Hypercube(2), spec=AP1000)
        want = evaluate(expr, self.PA).to_list()
        got, _ = run_expression(expr, self.PA, machine)
        assert _typed(got.to_list()) == _typed(want)
