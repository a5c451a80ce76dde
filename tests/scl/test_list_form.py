"""``run_expression`` over a list of per-rank values against the ParArray form.

A compiled program runs on each processor's local value; the ParArray is
the coordination-level view of those values.  ``run_expression`` (and
``run_expression_ft``) therefore also take the row-major per-rank list
itself and hand the run's per-rank list back — no ParArray built on the
way in or out.  The oracle is the ParArray form: on every execution path
of the machine (the walk, the interpreter on ``batch=False``, single
port, traced, fault-tolerant) the two forms must agree on the values,
the makespan, the event and message counts, every ``ProcStats`` field
and, traced, every processor's event sequence.
"""

from __future__ import annotations

import dataclasses
import operator

import numpy as np
import pytest

from repro.core.pararray import ParArray
from repro.errors import SkeletonError
from repro.faults.models import FaultInjector, FaultSpec
from repro.faults.plan_exec import run_expression_ft
from repro.machine import AP1000, Machine
from repro.machine.topology import Hypercube
from repro.scl import Fold, Map, Rotate, Scan, compose_nodes
from repro.scl.compile import run_expression
from repro.serve.service import PlanEndpoint, StreamEndpoint
from repro.stream.plan import Chunk, MapPlan


def _square(x):
    return x * x


EXPRESSIONS = {
    "scan": Scan(operator.add),
    "fold": compose_nodes(Fold(operator.add), Map(_square)),
    "map-rotate": compose_nodes(Map(_square), Rotate(1)),
}

VALUES = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]


def _machine(**kw):
    return Machine(Hypercube(3), spec=AP1000, **kw)


def _run(data, expr, arm):
    if arm == "ft":
        return run_expression_ft(
            expr, data, _machine(faults=FaultInjector(FaultSpec())))
    kw = {"walk": {}, "interpreter": {"batch": False},
          "single_port": {"single_port": True},
          "traced": {"record_trace": True}}[arm]
    return run_expression(expr, data, _machine(**kw))


@pytest.mark.parametrize("arm", ["walk", "interpreter", "single_port",
                                 "traced", "ft"])
@pytest.mark.parametrize("name", sorted(EXPRESSIONS))
def test_list_form_equals_the_pararray_form(name, arm):
    expr = EXPRESSIONS[name]
    got, res_list = _run(list(VALUES), expr, arm)
    want, res_pa = _run(ParArray(VALUES), expr, arm)
    if name == "fold":
        assert got == want == sum(v * v for v in VALUES)
    else:
        assert type(got) is list and isinstance(want, ParArray)
        assert got == want.to_list()
    assert res_list.values == res_pa.values
    assert res_list.makespan == res_pa.makespan
    assert res_list.events == res_pa.events
    assert res_list.total_messages == res_pa.total_messages > 0
    for a, b in zip(res_list.stats, res_pa.stats, strict=True):
        assert dataclasses.asdict(a) == dataclasses.asdict(b)
    if arm == "traced":
        assert len(res_list.trace) == len(res_pa.trace) == res_list.events
        for pid in range(res_list.nprocs):
            assert res_list.trace.events(pid=pid) \
                == res_pa.trace.events(pid=pid), pid


def test_a_tuple_is_a_list_of_per_rank_values():
    got, _ = run_expression(EXPRESSIONS["scan"], tuple(VALUES), _machine())
    assert got == list(np.cumsum(VALUES))


@pytest.mark.parametrize("run", [run_expression, run_expression_ft])
def test_every_input_check_holds_for_both_forms(run):
    machine = _machine()
    expr = EXPRESSIONS["scan"]
    for data, count in ((VALUES[:5], 5), (ParArray(VALUES[:5]), 5)):
        with pytest.raises(SkeletonError, match=(
                f"expression input has {count} components but the machine "
                "has 8 processors")):
            run(expr, data, machine)
    cube = ParArray({(i, j, k): 1 for i in range(2) for j in range(2)
                     for k in range(2)}, shape=(2, 2, 2))
    for bad in (cube, np.arange(8.0),
                {r: 1 for r in range(8)}, 8):
        with pytest.raises(SkeletonError, match=(
                "compiled programs take a 1-D or 2-D ParArray input")):
            run(expr, bad, machine)


@pytest.fixture()
def pararrays_built(monkeypatch):
    """How many ParArrays are constructed inside the test."""
    built = []
    real = ParArray.__init__

    def counting(self, *args, **kwargs):
        built.append(args[0] if args else None)
        real(self, *args, **kwargs)

    monkeypatch.setattr(ParArray, "__init__", counting)
    return built


def test_served_requests_build_no_pararray(pararrays_built):
    """The serve path's two plan-running endpoints (the e2e ``stream-scan``
    and ``scan-add``) carry per-rank lists end to end."""
    machines: dict = {}
    stream = StreamEndpoint("stream-scan", (Chunk(4), MapPlan(Scan(
        operator.add))))
    plan = PlanEndpoint("scan-add", Scan(operator.add), nprocs=4)
    items = [float(v) for v in range(1, 33)]
    out, events, _ = stream.execute(items, machines)
    assert out == [tuple(np.cumsum(items[i:i + 4]))
                   for i in range(0, 32, 4)]
    assert events > 0
    out, events, _ = plan.execute([1.0, 2.0, 3.0, 4.0], machines)
    assert out == [1.0, 3.0, 6.0, 10.0] and events > 0
    assert pararrays_built == []
    # the counter counts: the ParArray form still builds its result
    run_expression(Scan(operator.add), ParArray([1.0, 2.0]), Machine(2))
    assert len(pararrays_built) == 2
