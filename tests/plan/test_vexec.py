"""The whole-machine walk against the interpreter, through ``run_expression``.

``run_expression`` hands the machine :func:`repro.plan.vexec.precompute`
beside the per-rank interpreter; on a fault-free, multi-port machine it
takes the walk, which drives the lockstep timeline
(:mod:`repro.machine.lockstep`) instead of any event engine.  The contract
is that nobody can tell: values, ``events`` and *every*
:class:`~repro.machine.simulator.ProcStats` field equal those of the same
program interpreted on a ``Machine(batch=False)`` exactly (``==`` on floats
— same additions in the same order).  One differential suite states that
over the application anchors, every collective kind, looped and ragged
point-to-point traffic and three topologies, plus the random flat-plan
strategy of ``test_opt_properties`` — and each comparison first checks
that the walk arm really walked, and went through every whole-machine
form the program's fragments register, so neither a plan the walk
declines nor a registry that stops being consulted can turn the suite
into per-rank against per-rank.  The remaining tests
pin the payload sizes the walk reports, the machine-side routing (who
chooses the interpreter) and error parity on malformed hand-built plans.
The same contract on traced machines, event by event, is
``tests/plan/test_traced_walk.py``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.linalg import ColBlock, gauss_jordan_expression
from repro.apps.sort import hyperquicksort_expression, seq_quicksort
from repro.core import parmap, partition
from repro.core.pararray import ParArray
from repro.core.partition import Block
from repro.errors import DeadlockError, MachineError
from repro.machine import AP1000, Comm, Machine
from repro.machine.lockstep import Lockstep
from repro.machine.plan_exec import execute_plan
from repro.machine.topology import FullyConnected, Hypercube, Ring
from repro.plan import ir, vexec
from repro.plan.kernels import elementwise
from repro.plan.lower import clear_plan_cache, lower
from repro.scl import (
    ApplyBrdcast,
    Brdcast,
    Fold,
    IterFor,
    Map,
    Rotate,
    Scan,
    SendNode,
    compose_nodes,
)
from repro.scl.compile import base_fragment, run_expression
from tests.plan.test_kernels import plan_fragments
from tests.plan.test_opt_properties import programs

TOPOLOGIES = {
    "hypercube": Hypercube.of_size,
    "ring": Ring,
    "full": FullyConnected,
}


@pytest.fixture(autouse=True)
def fresh_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


def _same(a, b) -> bool:
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b)
    if isinstance(a, (list, tuple)):
        return (type(a) is type(b) and len(a) == len(b)
                and all(_same(x, y) for x, y in zip(a, b)))
    return a == b


def assert_identical_runs(res_walk, res_interp) -> None:
    """Values, event count and every per-processor statistic equal."""
    assert _same(res_walk.values, res_interp.values)
    assert res_walk.events == res_interp.events
    assert res_walk.crashed == res_interp.crashed == []
    for got, want in zip(res_walk.stats, res_interp.stats, strict=True):
        assert dataclasses.asdict(got) == dataclasses.asdict(want)
    assert res_walk.makespan == res_interp.makespan


def run_both(expr, pa, topology, **machine_kw):
    """``(walk run, interpreter run)`` of ``expr`` on fresh machines: the
    second is the same machine with ``batch=False``, which never walks."""
    return [run_expression(expr, pa,
                           Machine(topology(pa.size), spec=AP1000, **kw))[1]
            for kw in (machine_kw, {**machine_kw, "batch": False})]


@contextlib.contextmanager
def walks_recorded():
    """What every call of ``vexec.precompute`` inside the block returned:
    the walk's values, or ``None`` where it declined the plan."""
    outcomes = []
    real = vexec.precompute

    def spy(*args, **kwargs):
        outcomes.append(real(*args, **kwargs))
        return outcomes[-1]

    with mock.patch.object(vexec, "precompute", spy):
        yield outcomes


@contextlib.contextmanager
def forms_recorded(expr, p):
    """How often each whole-machine form registered by a fragment of
    ``expr`` (values ``scl_batched``, charges ``scl_ops_all``) was called
    inside the block, as ``{(fragment name, attribute): calls}``."""
    calls = {}

    def spy(key, real):
        def wrapper(values):
            calls[key] += 1
            return real(values)
        return wrapper

    with contextlib.ExitStack() as stack:
        for fn in set(plan_fragments(lower(expr, p).instrs)):
            for attr in ("scl_batched", "scl_ops_all"):
                real = getattr(fn, attr, None)
                if real is not None:
                    key = (fn.__name__, attr)
                    calls[key] = 0
                    stack.enter_context(
                        mock.patch.object(fn, attr, spy(key, real)))
        yield calls


def run_walked_and_interpreted(expr, pa, topology):
    """:func:`run_both`, having checked that the first arm was walked to
    the end through every registered form (and the second never offered
    to the walk)."""
    with walks_recorded() as outcomes, forms_recorded(expr, pa.size) as forms:
        runs = run_both(expr, pa, topology)
    assert len(outcomes) == 1 and outcomes[0] is not None
    assert all(forms.values()), forms
    return runs


# -- the differential suite -----------------------------------------------------

@base_fragment(ops=lambda x: 30.0 + np.size(x))
def _grow(x):
    return np.append(x, np.sum(x))


def _hyperquicksort(d, nkeys=None, key_range=10**6):
    rng = np.random.default_rng(40 + d)
    keys = rng.integers(0, key_range, size=nkeys or 37 << d).astype(np.int64)
    return (hyperquicksort_expression(d),
            parmap(seq_quicksort, partition(Block(1 << d), keys)))


def _gauss_jordan():
    n, p = 12, 4
    rng = np.random.default_rng(5)
    aug = np.hstack([rng.normal(size=(n, n)) + n * np.eye(n),
                     rng.normal(size=(n, 1))])
    return (gauss_jordan_expression(n, p, aug.shape),
            partition(ColBlock(p), aug))


def _vector(p=8):
    return ParArray([np.arange(3 + r, dtype=np.float64) * (r + 1)
                     for r in range(p)])


def _numbers(p=8):
    return ParArray([float(3 * r + 1) for r in range(p)])


def _runs(p):
    """Ragged lists under concatenation: the operand order of every combine
    shows in the value, and what a rank holds grows from round to round."""
    return ParArray([[float(r)] * (r + 1) for r in range(p)])


#: name -> (expression, input) builders.  Ragged array payloads wherever
#: the traffic is point-to-point, so byte counters and arrival times
#: differ per rank.
CASES = {
    "hyperquicksort-d3": functools.partial(_hyperquicksort, 3),
    "hyperquicksort-d4": functools.partial(_hyperquicksort, 4),
    "hyperquicksort-d5": functools.partial(_hyperquicksort, 5),
    # fewer keys than ranks: empty blocks, empty pieces, leaders with none
    "hyperquicksort-d3-sparse": functools.partial(_hyperquicksort, 3,
                                                  nkeys=5),
    # three distinct keys: every pivot ties with most of every block
    "hyperquicksort-d3-duplicates": functools.partial(_hyperquicksort, 3,
                                                      key_range=3),
    "gauss-jordan": _gauss_jordan,
    "scan": lambda: (Scan(lambda a, b: a + b), _numbers()),
    "fold": lambda: (Fold(lambda a, b: a + b), _numbers()),
    "bcast": lambda: (compose_nodes(Map(lambda pair: pair[0] + pair[1]),
                                    Brdcast(17.0)), _numbers()),
    "applybrdcast-root-5": lambda: (ApplyBrdcast(_grow, 5), _vector()),
    "looped-rotate": lambda: (
        IterFor(5, lambda i: compose_nodes(Map(_grow), Rotate(i + 1))),
        _vector()),
    # rank r sends twice to rank 0 and once to its right neighbour: rank 0
    # collects every source twice (FIFO per source), its own value locally
    "collect-repeated-source": lambda: (
        compose_nodes(Map(lambda got: sum(np.sum(v) for v in got)),
                      SendNode(lambda r: (0, 0, (r + 1) % 8))),
        _vector()),
    # bare numbers through a registered kernel stay 0-d: one word on the
    # wire, not an array of one
    "zero-d-elementwise": lambda: (
        compose_nodes(Rotate(1), Map(elementwise(np.square))), _numbers()),
}


# ids keep the ``None`` slot of the forced-schedule axis this suite once
# had, so the names the test floor records stay valid
@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
@pytest.mark.parametrize("case", CASES, ids=lambda case: f"{case}-None")
def test_walk_is_indistinguishable_from_the_interpreter(case, topology):
    expr, pa = CASES[case]()
    res_walk, res_interp = run_walked_and_interpreted(expr, pa,
                                                      TOPOLOGIES[topology])
    assert res_walk.total_messages > 0
    assert_identical_runs(res_walk, res_interp)


#: collective -> expression over ``p`` ranks
COLLECTIVES = {
    "fold": lambda p: Fold(lambda a, b: a + b),
    "scan": lambda p: Scan(lambda a, b: a + b),
    "bcast": lambda p: Brdcast([17.0] * 5),
    "applybrdcast-last-root": lambda p: ApplyBrdcast(_grow, p - 1),
}


@pytest.mark.parametrize("topology", ["full", "ring"])
@pytest.mark.parametrize("p", [5, 6, 7])
@pytest.mark.parametrize("collective", COLLECTIVES)
def test_collective_rounds_walk_identically_off_the_powers_of_two(
        collective, p, topology):
    pa = _vector(p) if collective.startswith("applybrdcast") else _runs(p)
    res_walk, res_interp = run_walked_and_interpreted(
        COLLECTIVES[collective](p), pa, TOPOLOGIES[topology])
    assert res_walk.total_messages > 0
    assert_identical_runs(res_walk, res_interp)


@settings(max_examples=60, deadline=None)
@given(prog=programs(), topology=st.sampled_from(sorted(TOPOLOGIES)))
def test_random_flat_plans_walk_identically(prog, topology):
    p, expr = prog
    if topology == "hypercube" and p & (p - 1):
        p = 4
    clear_plan_cache()
    pa = ParArray([float(3 * r + 1) for r in range(p)])
    res_walk, res_interp = run_walked_and_interpreted(expr, pa,
                                                      TOPOLOGIES[topology])
    assert_identical_runs(res_walk, res_interp)


# -- payload sizes ------------------------------------------------------------------

class TestSizeHoisting:
    """A looped ``Rotate`` moves the *same* p array objects around every
    iteration and an ``Exchange`` sends one value to many ranks: the sizes
    that reach the timeline are the interpreter's, and a fan-out sizes its
    value once."""

    @staticmethod
    def _count_sizings(monkeypatch):
        calls = []
        real = vexec.estimate_nbytes
        monkeypatch.setattr(
            vexec, "estimate_nbytes",
            lambda v, w: calls.append(id(v)) or real(v, w))
        return calls

    P, ITERS = 4, 6

    def _looped_rotate(self):
        pa = ParArray([np.arange(8 * (r + 1), dtype=np.float64)
                       for r in range(self.P)])
        return IterFor(self.ITERS, lambda i: Rotate(1)), pa

    def test_scripted_sizes_match_unhoisted(self):
        expr, pa = self._looped_rotate()
        res_walk, res_interp = run_both(expr, pa, FullyConnected)
        # rank r forwards the values of ranks r, r+1, ... in turn
        assert [s.bytes_sent for s in res_walk.stats] \
            == [sum(pa[(r + i) % self.P].nbytes for i in range(self.ITERS))
                for r in range(self.P)]
        assert_identical_runs(res_walk, res_interp)

    def test_exchange_uses_cached_sizes(self, monkeypatch):
        calls = self._count_sizings(monkeypatch)
        p = 4
        pa = ParArray([np.arange(32) + r for r in range(p)])
        # every rank sends its value to all the others
        expr = SendNode(lambda r: tuple(d for d in range(p) if d != r))
        res_walk, res_interp = run_both(expr, pa, FullyConnected)
        assert len(calls) == p
        assert [s.bytes_sent for s in res_walk.stats] \
            == [(p - 1) * pa[r].nbytes for r in range(p)]
        assert_identical_runs(res_walk, res_interp)


# -- the machine, not the compiler, picks the interpreter -------------------------

class TestRouting:
    def test_plain_machines_take_the_walk(self):
        expr, pa = _hyperquicksort(3)
        with walks_recorded() as calls:
            run_both(expr, pa, Hypercube.of_size)
        assert len(calls) == 1  # the batch=False arm interprets

    @pytest.mark.parametrize("machine_kw", [
        {"single_port": True}, {"batch": False}],
        ids=["single-port", "per-event"])
    def test_other_machines_interpret_with_identical_results(
            self, machine_kw):
        expr, pa = _hyperquicksort(5)  # p=32, the tune_cold shape
        with walks_recorded() as calls:
            res_vec, res_interp = run_both(expr, pa, Hypercube.of_size,
                                           **machine_kw)
        assert calls == []  # the walk was handed over and not taken
        assert_identical_runs(res_vec, res_interp)

    def test_traced_machines_take_the_walk(self):
        expr, pa = _hyperquicksort(5)
        with walks_recorded() as calls:
            res_walk, res_interp = run_both(expr, pa, Hypercube.of_size,
                                            record_trace=True)
        assert len(calls) == 1 and calls[0] is not None
        assert_identical_runs(res_walk, res_interp)
        assert len(res_walk.trace) == len(res_interp.trace) > 0
        for pid in range(pa.size):
            assert res_walk.trace.events(pid=pid) \
                == res_interp.trace.events(pid=pid)


# -- error parity on malformed hand-built plans -----------------------------------

def _exchange(p, sends=None, recvs=None):
    """A ``replace`` exchange over ``p`` ranks: ``sends[r]`` destination
    tuples, ``recvs[r]`` the one source (default: keep the local value)."""
    sends = sends or {}
    recvs = recvs or {}
    return ir.Exchange(
        "replace",
        tuple(tuple(sends.get(r, ())) for r in range(p)),
        tuple((recvs.get(r, r),) for r in range(p)))


@base_fragment(ops=lambda x: -5.0 if x == 2.0 else 5.0)
def _negative_on_rank_2(x):
    return x


BAD_PLANS = {
    # rank 1 sends to rank 3, which never receives it
    "dangling-send": (ir.Plan((_exchange(4, sends={1: (3,)}),), 4),
                      MachineError, "3"),
    # rank 2 waits for rank 0, which never sends
    "unmatched-receive": (ir.Plan((_exchange(4, recvs={2: 0}),), 4),
                          DeadlockError, "2"),
    "self-send": (ir.Plan((_exchange(4, sends={1: (1,)}),), 4),
                  MachineError, "1"),
    "negative-ops": (ir.Plan((ir.LocalApply(_negative_on_rank_2),), 4),
                     MachineError, "processor 2"),
    "destination-out-of-range": (
        ir.Plan((_exchange(4, sends={0: (7,)}),), 4), MachineError, "7"),
}


def run_plan(plan, values, machine, *, walk):
    """Hand ``machine`` what ``run_expression`` would for ``plan``:
    the per-rank interpreter and, with ``walk``, the whole-machine walk."""
    return machine.run(
        lambda env: execute_plan(plan, env, Comm.world(env),
                                 values[env.pid]),
        walk=functools.partial(vexec.precompute, plan, values)
        if walk else None)


@pytest.mark.parametrize("name", sorted(BAD_PLANS))
def test_malformed_plans_raise_the_same_error_class_on_every_path(name):
    plan, error, names = BAD_PLANS[name]
    values = [float(r) for r in range(plan.nprocs)]
    timeline = Lockstep(Machine(FullyConnected(4), spec=AP1000))
    if name == "negative-ops":
        # a charge is data, not structure: only the walk itself finds it
        assert vexec.supported(plan)
        with pytest.raises(error, match=names):
            vexec.precompute(plan, values, timeline)
    else:
        # tables that do not match up are declined on sight, before any
        # clock moves; the engines then say what is wrong with them
        assert not vexec.supported(plan)
        assert vexec.precompute(plan, values, timeline) is None
        assert timeline.finish([None] * 4).events == 0
    with pytest.raises(error) as walk_err:
        run_plan(plan, values, Machine(FullyConnected(4), spec=AP1000),
                 walk=True)
    # whichever path reports it names the processor (or address) at fault
    assert names in str(walk_err.value)
    for batch in (True, False):
        with pytest.raises(error) as interp_err:
            run_plan(plan, values,
                     Machine(FullyConnected(4), spec=AP1000, batch=batch),
                     walk=False)
        assert (isinstance(walk_err.value, DeadlockError)
                == isinstance(interp_err.value, DeadlockError))


def test_an_exchange_built_for_another_size_is_declined():
    rotate_3 = ir.Exchange.from_sources("replace", [1, 2, 0])
    assert rotate_3.wiring is not None
    assert not vexec.supported(ir.Plan((rotate_3,), 4))
    assert not vexec.supported(ir.Plan((ir.Loop(((rotate_3,),)),), 2))


@pytest.mark.parametrize("k", [0, 4, -8])
def test_a_rotate_by_a_multiple_of_p_is_left_to_the_interpreter(k):
    # hand-written shift tables (lowering elides such a rotate): every rank
    # would send to itself — the engines' error, not a silent no-op
    shift = _exchange(4, sends={r: ((r - k) % 4,) for r in range(4)},
                      recvs={r: (r + k) % 4 for r in range(4)})
    plan = ir.Plan((shift,), 4)
    assert not vexec.supported(plan)
    for walk in (True, False):
        with pytest.raises(MachineError, match="sent a message to itself"):
            run_plan(plan, [0.0] * 4, Machine(FullyConnected(4), spec=AP1000),
                     walk=walk)
