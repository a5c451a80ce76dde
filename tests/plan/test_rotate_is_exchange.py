"""``rotate k`` is ``fetch (λi. (i + k) mod p)``: one instruction, one run.

The Plan IR has no rotate instruction — lowering emits the exchange of
the shift (:func:`repro.plan.ir.rotation`).  So a program that rotates and
its twin that fetches through the same index map must be the same run on
every execution path: the whole-machine walk, the interpreter, a traced
machine, a single-port machine and the reliable transport with and
without drops — ``==`` on values, makespan, event count and every
:class:`~repro.machine.simulator.ProcStats` field, never ``approx``.  The
literals were captured from the tree that still had ``ir.Rotate`` and its
own transport methods, so the runs are pinned across that change too.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.pararray import ParArray
from repro.faults.models import FaultInjector, FaultSpec
from repro.faults.plan_exec import run_expression_ft
from repro.machine import AP1000, Machine
from repro.machine.topology import Hypercube
from repro.plan import ir
from repro.plan.lower import lower
from repro.scl import Fetch, Map, Rotate, compose_nodes
from repro.scl.compile import base_fragment, run_expression
from tests.plan.test_vexec import assert_identical_runs

P = 16


@base_fragment(ops=lambda b: 3.0 * b.size)
def _scale(b):
    return b * 1.5


@base_fragment(ops=lambda b: 2.0 * b.size + 1)
def _bump(b):
    return b + 1.0


def _blocks():
    """Ragged float blocks, so sizes and arrival times differ per rank."""
    return ParArray([np.arange(r % 5 + 1, dtype=float) + r for r in range(P)])


def _program(shift, k):
    return compose_nodes(Map(_scale), shift(k), Map(_bump), shift(2))


def _fetch(k):
    return Fetch(lambda i: (i + k) % P)


def _direct(**machine_kw):
    def run(expr):
        machine = Machine(Hypercube.of_size(P), spec=AP1000, **machine_kw)
        return run_expression(expr, _blocks(), machine, opt="off")[1]
    return run


def _reliable(drop_rate):
    def run(expr):
        machine = Machine(Hypercube.of_size(P), spec=AP1000,
                          faults=FaultInjector(FaultSpec(seed=3,
                                                         drop_rate=drop_rate)))
        return run_expression_ft(expr, _blocks(), machine, opt="off")[1]
    return run


#: arm -> (runner, ``(makespan, messages, events, retransmits)`` of the
#: ``k = 8`` rotate program at the parent commit — the pair-swap shift,
#: which the reliable transport's ``rotate`` special-cased)
ARMS = {
    "walk": (_direct(), (0.00032360000000000006, 32, 96, 0)),
    "interpreter": (_direct(batch=False),
                    (0.00032360000000000006, 32, 96, 0)),
    "traced": (_direct(record_trace=True),
               (0.00032360000000000006, 32, 96, 0)),
    "single-port": (_direct(single_port=True), (0.0003236, 32, 96, 0)),
    "reliable": (_reliable(0.0), (0.09687416, 64, 176, 0)),
    "reliable-drops": (_reliable(0.1), (0.10254092000000001, 67, 183, 2)),
}


SHIFTS = pytest.mark.parametrize("k", [1, 3, 8, -5, 17])


@SHIFTS
def test_the_two_lower_to_the_same_tables(k):
    def tables(expr):
        return [(instr.mode, instr.sends, instr.recvs)
                for instr in lower(expr, P).instrs
                if isinstance(instr, ir.Exchange)]

    rotated = tables(_program(Rotate, k))
    assert len(rotated) == 2
    assert rotated == tables(_program(_fetch, k))


@SHIFTS
@pytest.mark.parametrize("arm", ARMS)
def test_a_rotate_program_and_its_fetch_twin_are_one_run(arm, k):
    run, _pinned = ARMS[arm]
    assert_identical_runs(run(_program(Rotate, k)), run(_program(_fetch, k)))


@pytest.mark.parametrize("arm", ARMS)
def test_the_run_is_the_one_ir_rotate_made(arm):
    run, pinned = ARMS[arm]
    res = run(_program(Rotate, 8))
    assert (res.makespan, res.total_messages, res.events,
            res.total_retransmits) == pinned
