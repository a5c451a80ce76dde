"""The plan optimizer: §4's algebra over the lowered IR, pass by pass.

Each pass's contract is checked structurally (what the instruction stream
becomes) and behaviourally (the optimized plan computes the same values
for no more simulated cost).  The sweeping equivalence properties live in
``test_opt_properties.py``; this file pins the individual mechanisms:
fusion (including through ``Loop`` bodies), routing composition with its
hot-spot cost guard, a witness program per pass, the
opt-aware plan cache, the vectorized data plane's eligibility gate and
its equality with the interpreter on hand-lowered plans (the sweeping
differential suite is ``test_vexec.py``), and the SoA kernel registry.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.pararray import ParArray
from repro.core.partition import Block
from repro.machine import AP1000, MODERN_CLUSTER, Machine, PERFECT
from repro.machine.lockstep import Lockstep
from repro.machine.topology import FullyConnected, Hypercube, Ring
from repro.plan import ir, kernels, vexec
from repro.plan.lower import clear_plan_cache, lower, plan_cache_stats
from repro.plan.opt import OptConfig, optimize_plan, optimize_plan_report
from repro.scl import (
    Brdcast,
    Combine,
    Fetch,
    Fold,
    IMap,
    IterFor,
    Map,
    Rotate,
    Scan,
    SendNode,
    Split,
    compose_nodes,
)
from repro.apps.sort import hyperquicksort_expression
from repro.scl.compile import run_expression

#: A spec where only message *counts* distinguish plans: with zero flop
#: time and infinite bandwidth every predicted second is exactly 0, so
#: the coalescing guard decides purely on the message axis.
ZERO_COST = dataclasses.replace(PERFECT, flop_time=0.0,
                                bandwidth=float("inf"))

PA8 = ParArray([3, 1, 4, 1, 5, 9, 2, 6])

#: Priced on AP1000.
CFG = OptConfig(spec=AP1000)


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


def _interpret(plan: ir.Plan, values: list, machine: Machine):
    """Drive ``plan`` through the per-rank interpreter (no walk)."""
    from repro.machine.api import Comm
    from repro.machine.plan_exec import execute_plan

    def program(env):
        return (yield from execute_plan(plan, env, Comm.world(env),
                                        values[env.pid]))

    return machine.run(program)


class TestFusion:
    def test_adjacent_maps_merge_into_one_fused_apply(self):
        f, g = (lambda x: x + 1), (lambda x: x * 2)
        plan = optimize_plan(lower(compose_nodes(Map(f), Map(g)), 4), CFG)
        (instr,) = plan.instrs
        assert isinstance(instr, ir.LocalApply)
        assert isinstance(instr.fn, ir.FusedKernel)
        assert instr.fn.parts == (g, f)  # execution order

    def test_fused_label_names_the_original_skeletons(self):
        plan = optimize_plan(
            lower(compose_nodes(Map(lambda x: x),
                                IMap(lambda i, x: (i, x))), 4), CFG)
        (instr,) = plan.instrs
        assert instr.label == "imap+map"
        assert instr.indexed  # any indexed constituent taints the run

    def test_fusion_reaches_loop_bodies(self):
        expr = IterFor(2, lambda i: compose_nodes(Map(lambda x: x + 1),
                                                  Map(lambda x: x * 2)))
        plan = optimize_plan(lower(expr, 4), CFG)
        (loop,) = plan.instrs
        for body in loop.bodies:
            (instr,) = body
            assert isinstance(instr.fn, ir.FusedKernel)

    def test_single_applies_are_left_alone(self):
        plan = lower(Map(lambda x: x), 4)
        assert optimize_plan(plan, CFG) is plan

    def test_fused_run_matches_unfused_bit_for_bit(self):
        expr = compose_nodes(Map(lambda x: x * 3),
                             IMap(lambda i, x: x + i),
                             Map(lambda x: x - 1))
        machine = Machine(FullyConnected(8), spec=AP1000)
        want, res_off = run_expression(expr, PA8, machine, opt="off")
        got, res_opt = run_expression(expr, PA8,
                                      Machine(FullyConnected(8), spec=AP1000),
                                      opt=CFG)
        assert list(got) == list(want)
        assert res_opt.makespan == res_off.makespan
        assert res_opt.total_messages == res_off.total_messages

    def test_apply_fused_charges_per_constituent_ops(self):
        from repro.scl.compile import base_fragment

        @base_fragment(ops=100)
        def f(x):
            return x + 1

        @base_fragment(ops=lambda v: 10 * v)
        def g(x):
            return x * 2

        plan = optimize_plan(lower(compose_nodes(Map(g), Map(f)), 2), CFG)
        (instr,) = plan.instrs
        result, ops = ir.apply_fused(instr.fn, 0, 5)
        assert result == (5 + 1) * 2
        assert ops == 100 + 10 * 6  # g is charged on f's output


class TestCoalesce:
    def test_rotations_fold_into_one(self):
        plan = optimize_plan(lower(compose_nodes(Rotate(2), Rotate(1)), 8),
                             CFG)
        (instr,) = plan.instrs
        shift = ir.rotation(3, 8)
        assert (instr.mode, instr.sends, instr.recvs) == (
            "replace", shift.sends, shift.recvs)

    def test_inverse_rotations_cancel_entirely(self):
        plan = optimize_plan(lower(compose_nodes(Rotate(5), Rotate(3)), 8),
                             CFG)
        assert plan.instrs == ()

    def test_identity_fetch_is_dropped(self):
        plan, notes = optimize_plan_report(lower(Fetch(lambda r: r), 8), CFG)
        assert plan.instrs == ()
        assert any("identity" in n.detail for n in notes)

    def test_rotate_composes_with_a_fetch(self):
        # rotate then fetch = one replace-exchange round
        expr = compose_nodes(Fetch(lambda r: (r + 1) % 8), Rotate(1))
        plan, notes = optimize_plan_report(lower(expr, 8), CFG)
        (instr,) = plan.instrs
        assert isinstance(instr, ir.Exchange) and instr.mode == "replace"
        assert any(n.pass_name == "coalesce" and "merged" in n.detail
                   for n in notes)

    def test_hot_spot_composition_is_rejected_by_the_cost_guard(self):
        # Executed order: leaders fetch from 0, then everyone fetches from
        # its group leader.  Composed, all 16 ranks would fetch straight
        # from rank 0 — same total messages but a serialised fan-out of 15
        # instead of two rounds of degree 3, which the predicted-seconds
        # guard rejects.
        expr = compose_nodes(Fetch(lambda r: 4 * (r // 4)),
                             Fetch(lambda r: 0 if r % 4 == 0 else r))
        plan, notes = optimize_plan_report(lower(expr, 16), CFG)
        assert len(plan.instrs) == 2
        assert not any(n.pass_name == "coalesce" for n in notes)

    def test_coalesced_run_matches_bit_for_bit(self):
        expr = compose_nodes(Fetch(lambda r: (r + 3) % 8), Rotate(2),
                             Rotate(3))
        want, res_off = run_expression(
            expr, PA8, Machine(FullyConnected(8), spec=AP1000), opt="off")
        got, res_opt = run_expression(
            expr, PA8, Machine(FullyConnected(8), spec=AP1000), opt=CFG)
        assert list(got) == list(want)
        assert res_opt.total_messages < res_off.total_messages
        assert res_opt.makespan <= res_off.makespan


#: Pass name -> (program it must change, nprocs).  A pass without a row
#: here is a pass nobody has shown firing.
WITNESSES = {
    "fuse": (lambda: hyperquicksort_expression(3), 8),
    "coalesce": (lambda: compose_nodes(Rotate(2), Rotate(3)), 8),
}


#: Every shipped spec prices a one-word message above zero seconds.
shipped_specs = pytest.mark.parametrize(
    "spec", [AP1000, MODERN_CLUSTER, PERFECT], ids=lambda s: s.name)


class TestPassWitnesses:
    def test_every_pass_that_can_leave_a_note_has_a_witness(self):
        import inspect
        import re

        from repro.plan import opt

        reported = set(re.findall(r'PassNote\(\s*"(\w+)"',
                                  inspect.getsource(opt)))
        assert reported == set(WITNESSES)

    @shipped_specs
    @pytest.mark.parametrize("pass_name", sorted(WITNESSES))
    def test_the_pass_fires_on_its_witness(self, pass_name, spec):
        build, p = WITNESSES[pass_name]
        raw = lower(build(), p)
        plan, notes = optimize_plan_report(raw, OptConfig(spec=spec))
        assert any(n.pass_name == pass_name for n in notes)
        assert plan != raw

    @shipped_specs
    def test_coalescing_sends_strictly_fewer_messages(self, spec):
        build, p = WITNESSES["coalesce"]
        (merged,) = lower(build(), p, opt=OptConfig(spec=spec)).instrs
        shift = ir.rotation(5, p)
        assert (merged.sends, merged.recvs) == (shift.sends, shift.recvs)
        want, res_off = run_expression(
            build(), PA8, Machine(FullyConnected(p), spec=spec), opt="off")
        got, res_opt = run_expression(
            build(), PA8, Machine(FullyConnected(p), spec=spec), opt="auto")
        assert list(got) == list(want)
        assert res_opt.total_messages < res_off.total_messages


class TestOptAwareCache:
    def test_raw_and_optimized_plans_never_alias(self):
        expr = compose_nodes(Map(lambda x: x + 1), Map(lambda x: x * 2))
        raw = lower(expr, 8)
        opt = lower(expr, 8, opt=CFG)
        assert raw is not opt
        assert isinstance(raw.instrs[0].fn, ir.FusedKernel) is False
        assert isinstance(opt.instrs[0].fn, ir.FusedKernel)
        # asking again hits the right entry each time
        assert lower(expr, 8) is raw
        assert lower(expr, 8, opt=CFG) is opt

    def test_stats_count_optimizations_and_hits(self):
        expr = compose_nodes(Rotate(1), Rotate(2))
        lower(expr, 8, opt=CFG)
        lower(expr, 8, opt=CFG)
        stats = plan_cache_stats()
        assert stats["optimized"] == 1
        assert stats["hits"] == 1
        # the opt miss lowers the raw plan too, caching both shapes
        assert stats["size"] == 2

    def test_different_configs_are_different_keys(self):
        # the hot-spot pair of TestCoalesce: kept apart where a message
        # costs time, merged where only the (equal) message count counts
        expr = compose_nodes(Fetch(lambda r: 4 * (r // 4)),
                             Fetch(lambda r: 0 if r % 4 == 0 else r))
        a = lower(expr, 16, opt=OptConfig(spec=AP1000))
        b = lower(expr, 16, opt=OptConfig(spec=ZERO_COST))
        assert a is not b
        assert len(a.instrs) == 2 and len(b.instrs) == 1

    def test_one_entry_serves_every_topology_of_a_spec(self):
        cube = OptConfig.for_machine(Machine(Hypercube(3), spec=AP1000))
        ring = OptConfig.for_machine(Machine(Ring(8), spec=AP1000))
        assert cube == ring
        expr = compose_nodes(Rotate(1), Rotate(2))
        assert lower(expr, 8, opt=cube) is lower(expr, 8, opt=ring)
        assert plan_cache_stats()["optimized"] == 1

    def test_the_spec_is_the_whole_config(self):
        assert [f.name for f in dataclasses.fields(OptConfig)] == ["spec"]


class TestVectorizedDataPlane:
    def test_group_plans_are_not_scriptable(self):
        inner = compose_nodes(Rotate(1), Map(lambda x: -x))
        expr = compose_nodes(Combine(), Map(inner), Split(Block(2)))
        plan = lower(expr, 8)
        assert not vexec.supported(plan)
        timeline = Lockstep(Machine(FullyConnected(8), spec=AP1000))
        assert vexec.precompute(plan, PA8.to_list(), timeline) is None

    def test_group_plans_still_run_via_the_interpreter(self):
        inner = compose_nodes(Rotate(1), Map(lambda x: -x))
        expr = compose_nodes(Combine(), Map(inner), Split(Block(2)))
        want, _ = run_expression(
            expr, PA8, Machine(FullyConnected(8), spec=AP1000), opt="off")
        got, _ = run_expression(
            expr, PA8, Machine(FullyConnected(8), spec=AP1000), opt=CFG)
        assert list(got) == list(want)

    @pytest.mark.parametrize("expr", [
        compose_nodes(Map(lambda x: x + 1), Rotate(3)),
        Fetch(lambda r: 0),
        SendNode(lambda r: (0,)),
        Scan(lambda a, b: a + b),
        Fold(lambda a, b: a + b),
        Brdcast(42.0),
        IterFor(3, lambda i: compose_nodes(Map(lambda x: x * 2),
                                           Rotate(i + 1))),
    ])
    def test_replay_is_bit_identical_to_the_interpreter(self, expr):
        # the walk replays each rank's request sequence on the lockstep
        # timeline; nothing in the result may tell it from the interpreter
        from tests.plan.test_vexec import assert_identical_runs, run_plan

        plan = lower(expr, 8, opt=CFG)
        assert vexec.supported(plan)
        res_i, res_v = (
            run_plan(plan, PA8.to_list(),
                     Machine(FullyConnected(8), spec=AP1000), walk=walk)
            for walk in (False, True))
        assert_identical_runs(res_v, res_i)


class TestKernelRegistry:
    def test_opaque_fragments_fall_back_per_rank(self):
        fn = lambda x: x * 2  # noqa: E731
        assert kernels.batched_apply(fn, [1, 2, 3]) == [2, 4, 6]
        assert not kernels.has_batched(fn)

    def test_registered_kernel_runs_batched(self):
        calls = []

        def fn(v):  # pragma: no cover - must not be called
            raise AssertionError("batched path should have been taken")

        def batched(vals):
            calls.append(len(vals))
            return [v * 2 for v in vals]

        kernels.vectorize_fragment(fn, batched)
        assert kernels.has_batched(fn)
        assert kernels.batched_apply(fn, [1, 2, 3]) == [2, 4, 6]
        assert calls == [3]

    def test_length_mismatch_is_an_error(self):
        fn = kernels.vectorize_fragment(lambda x: x, lambda vals: vals[:-1])
        with pytest.raises(ValueError, match="returned 2 values for 3"):
            kernels.batched_apply(fn, [1, 2, 3])

    def test_stack_uniform_groups_ragged_shapes(self):
        vals = [np.ones(3), np.ones(4), 2 * np.ones(3), 2 * np.ones(4)]
        out = kernels.stack_uniform(vals, lambda b: b * 10)
        for got, v in zip(out, vals):
            assert np.array_equal(got, v * 10)

    def test_elementwise_fragment_is_bit_identical_both_ways(self):
        frag = kernels.elementwise(np.sqrt, ops_per_elem=2.0)
        vals = [np.linspace(0, 1, 5), np.linspace(1, 2, 5)]
        batched = kernels.batched_apply(frag, vals)
        for got, v in zip(batched, vals):
            assert np.array_equal(got, np.sqrt(v))
        assert ir.fragment_ops(frag, vals[0]) == 2.0 * 5


class TestFaultTolerantPath:
    def test_ft_runs_the_optimized_plan_to_the_same_values(self):
        from repro.faults.models import FaultInjector, FaultSpec
        from repro.faults.plan_exec import run_expression_ft

        expr = compose_nodes(Map(lambda x: x + 1), Rotate(3),
                             Map(lambda x: x * 2))

        def machine():
            return Machine(FullyConnected(8), spec=AP1000,
                           faults=FaultInjector(FaultSpec()))

        want, _ = run_expression_ft(expr, PA8, machine(), opt="off")
        got, _ = run_expression_ft(expr, PA8, machine(), opt="auto")
        assert list(got) == list(want)

    def test_traced_machines_skip_the_scripted_path_but_agree(self):
        expr = compose_nodes(Map(lambda x: x + 1), Rotate(1))
        plain = Machine(Hypercube(3), spec=AP1000)
        traced = Machine(Hypercube(3), spec=AP1000, record_trace=True)
        want, res_p = run_expression(expr, PA8, plain, opt=CFG)
        got, res_t = run_expression(expr, PA8, traced, opt=CFG)
        assert list(got) == list(want)
        assert res_t.makespan == res_p.makespan
        assert res_t.trace  # tracing actually happened
