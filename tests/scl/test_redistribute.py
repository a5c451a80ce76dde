"""``Redistribute``: the paper's ``redistribution`` as a compiled skeleton.

``redistribution [f1, .., fn] (DA1, .., DAn) = (f1 DA1, .., fn DAn)``
moves each component of an aligned configuration by its own movement.
The interpreter means it as :func:`repro.core.config.redistribution`;
lowered, every moving component is one exchange carrying that component
alone.  The differential property below states that nobody can tell the
two apart — not the walk, the per-event interpreter, a single-port or a
traced machine, nor the reliable transport — on well-formed
configurations and on mis-sized ones, which every path rejects with the
same error.  (One mix stays out of it: a width-1 redistribution over
bare values on some processors and tuples on others.  The interpreter
decides for the whole array whether it is a configuration of tuples; a
compiled rank sees only its own value.)
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import config as cfg
from repro.core.communication import rotate
from repro.core.pararray import ParArray
from repro.errors import ConfigurationError, SclError, SkeletonError
from repro.faults.models import FaultInjector, FaultSpec
from repro.faults.plan_exec import run_expression_ft
from repro.machine import AP1000, Machine
from repro.machine.topology import FullyConnected
from repro.plan import ir
from repro.plan.lower import clear_plan_cache, lower
from repro.scl import (
    AlignFetch,
    Fetch,
    Id,
    Map,
    PermSend,
    Redistribute,
    Rotate,
    RotateCol,
    RotateRow,
    compose_nodes,
    evaluate,
    run_expression,
)


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


class TestNode:
    def test_movements_are_single_source_data_movements(self):
        for bad in (Map(abs), AlignFetch(lambda i: i), 3,
                    compose_nodes(Rotate(1), Rotate(2))):
            with pytest.raises(SkeletonError, match="movement"):
                Redistribute((Id(), bad))

    def test_something_moves(self):
        with pytest.raises(SkeletonError, match="no component moves"):
            Redistribute((Id(), Id()))

    def test_moves_are_a_tuple(self):
        assert Redistribute([Id(), Rotate(1)]) \
            == Redistribute((Id(), Rotate(1)))

    def test_evaluates_as_the_configuration_skeleton(self):
        a, b = ParArray([1, 2, 3, 4]), ParArray([5, 6, 7, 8])
        conf = cfg.align(a, b)
        got = evaluate(Redistribute((Id(), Rotate(1))), conf)
        assert got == cfg.redistribution(
            [None, lambda da: rotate(1, da)], conf)
        assert got.to_list() == [(1, 6), (2, 7), (3, 8), (4, 5)]


class TestLowering:
    def test_one_exchange_per_moving_component(self):
        plan = lower(Redistribute((Rotate(1), Id(), Fetch(lambda r: 0))), 4)
        first, second = plan.instrs
        assert first.part == (0, 3) and second.part == (2, 3)
        assert first.sources == ir.rotation(1, 4).sources
        assert second.sources == (0, 0, 0, 0)
        assert "part 2" in ir.instr_title(second)

    def test_an_identity_routing_is_still_emitted(self):
        # no traffic, but the exchange checks what it is handed
        (instr,) = lower(Redistribute((Id(), Rotate(4))), 4).instrs
        assert instr.traffic == (0, 0) and instr.part == (1, 2)

    def test_grid_movements(self):
        (a, b) = lower(Redistribute((RotateRow(lambda i: i),
                                     RotateCol(lambda j: j), Id())),
                       4, (2, 2)).instrs
        assert a.sources == (0, 1, 3, 2) and b.sources == (0, 3, 2, 1)

    def test_the_part_rule(self):
        (instr,) = lower(Redistribute((Id(), Rotate(1))), 2).instrs
        assert instr.carried(("x", "y")) == "y"
        assert instr.landed(("x", "y"), "z") == ("x", "z")
        whole = ir.rotation(1, 2)
        assert whole.carried(("x", "y")) == ("x", "y")
        assert whole.landed(("x", "y"), "z") == "z"


# -- the differential property ----------------------------------------------------

def _fetch(srcs):
    return Fetch(lambda i: srcs[i])


def _send(dsts):
    return PermSend(lambda k: dsts[k])


def movements(p):
    return st.one_of(
        st.just(Id()),
        st.integers(-2 * p, 2 * p).map(Rotate),
        st.lists(st.integers(0, p - 1), min_size=p, max_size=p)
        .map(lambda srcs: _fetch(tuple(srcs))),
        st.permutations(range(p)).map(lambda dsts: _send(tuple(dsts))))


@st.composite
def cases(draw):
    """``(p, expression, configuration)``: one or two redistributions of
    width 1-3 over a configuration whose width (0: bare values) may not
    be theirs, or whose processors hold tuples of different widths."""
    p = draw(st.integers(1, 5))
    width = draw(st.integers(1, 3))
    steps = draw(st.lists(
        st.lists(movements(p), min_size=width, max_size=width).filter(
            lambda moves: not all(isinstance(m, Id) for m in moves)),
        min_size=1, max_size=2))
    expr = compose_nodes(*(Redistribute(tuple(m)) for m in steps))
    uniform = draw(st.sampled_from([width, width, 0, 1, 2, 3, None]))
    widths = [uniform] * p if uniform is not None \
        else draw(st.lists(st.integers(1, 3), min_size=p, max_size=p))

    def component(r, c):  # ragged, so every part has its own wire size
        return np.arange(r + c + 1, dtype=np.float64) * (10 * c + 1)

    values = [component(r, 0) if w == 0
              else tuple(component(r, c) for c in range(w))
              for r, w in enumerate(widths)]
    return p, expr, ParArray(values)


def _outcome(run):
    try:
        return "ok", run()
    except SclError as exc:
        return "error", type(exc)


def _same(a, b) -> bool:
    if isinstance(a, tuple):
        return isinstance(b, tuple) and len(a) == len(b) \
            and all(_same(x, y) for x, y in zip(a, b))
    return isinstance(b, np.ndarray) and np.array_equal(a, b)


def _machine(p, **kw):
    return Machine(FullyConnected(p), spec=AP1000, **kw)


def assert_every_path_agrees(p, expr, conf):
    want = _outcome(lambda: evaluate(expr, conf).to_list())
    paths = {
        "walk": lambda: run_expression(expr, conf, _machine(p)),
        "per-event": lambda: run_expression(expr, conf,
                                            _machine(p, batch=False)),
        "single-port": lambda: run_expression(
            expr, conf, _machine(p, single_port=True)),
        "traced": lambda: run_expression(expr, conf,
                                         _machine(p, record_trace=True)),
        "reliable": lambda: run_expression_ft(
            expr, conf, _machine(p, faults=FaultInjector(FaultSpec()))),
    }
    for name, run in paths.items():
        got = _outcome(lambda: run()[0].to_list())
        assert got[0] == want[0], (name, got, want)
        if want[0] == "error":
            assert got[1] is want[1], name
        else:
            assert all(_same(w, g) for w, g in zip(want[1], got[1],
                                                   strict=True)), name


@settings(max_examples=80, deadline=None)
@given(case=cases())
def test_every_path_agrees_with_the_interpreter(case):
    assert_every_path_agrees(*case)


def test_a_receiver_of_the_wrong_shape_is_rejected():
    """Rank 0 is every rank's source and well shaped; rank 2 only
    receives, into a triple."""
    conf = ParArray([(np.zeros(1), np.ones(1)), (np.zeros(2), np.ones(2)),
                     (np.zeros(3), np.ones(3), np.ones(3))])
    expr = Redistribute((Id(), Fetch(lambda i: 0)))
    with pytest.raises(ConfigurationError):
        evaluate(expr, conf)
    assert_every_path_agrees(3, expr, conf)
