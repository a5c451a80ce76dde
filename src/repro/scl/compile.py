"""The SCL compiler: skeleton expressions → plans → machine programs.

The paper closes with "a prototype SCL compiler is currently under
development"; this module is that compiler for the simulated machine.  A
skeleton expression (one :class:`~repro.scl.nodes.Node`) over a ParArray
with one component per processor — a 1-D vector, or a 2-D grid for the
``rotate_row``/``rotate_col`` mesh operations — is compiled in two
stages:

1. **Lowering** (:func:`repro.plan.lower.lower`): the expression tree is
   flattened once into a typed SPMD instruction sequence
   (:class:`~repro.plan.ir.Plan`).  Index functions are evaluated over
   the whole index space here — communication becomes static per-rank
   send/receive tables — and shape errors (flat skeletons on split
   configurations, grid mismatches, non-permutation sends) are raised
   before anything runs.  Plans are cached per ``(expr, nprocs, grid)``.
2. **Execution** (:func:`repro.machine.plan_exec.execute_plan`): every
   virtual processor runs the same plan through one interpreter loop —
   ``Map``/``IMap``/``Farm``/SPMD locals charge their
   :func:`base_fragment` cost and apply, exchanges replay the tables as
   point-to-point messages, ``Fold``/``Scan``/``Brdcast`` use the tree /
   doubling collectives of :mod:`repro.machine.collectives`, and
   ``split``/``combine`` map to communicator groups exactly as §2.1
   prescribes.  The walker's *transport* decides how the messages
   move: direct here, acked and retransmitted under
   :func:`repro.faults.plan_exec.run_expression_ft` — same walker, same
   :func:`run_lowered` front end.

Between the two stages sits the plan optimizer (:mod:`repro.plan.opt`),
on by default: lowering is asked for the plan optimized for this
machine's spec (exchange coalescing, cost-guarded to never predict
worse, then fusion), and the machine is
handed the whole-machine SoA walk of :mod:`repro.plan.vexec` alongside
the per-instruction interpreter — it takes the walk on fault-free runs
(a single-port machine has the per-event engine time the walk's
requests) and interprets otherwise.
``opt="off"`` runs the raw lowering (a hand-built
:class:`~repro.plan.opt.OptConfig` prices the passes on another spec) —
the cache keys raw and optimized plans separately, so the two never
alias.

The compiled program carries real data, so :func:`run_expression`'s
result can be (and in the test-suite, is) cross-checked against the pure
interpreter — the compiler's correctness statement — while the run's
makespan prices the program on the machine.
:func:`~repro.scl.optimize.estimate_cost` prices the plan lowered under
the ``opt`` it is given: hand it the run's own
``OptConfig.for_machine(machine)`` to price the optimized plan the
machine runs, or leave ``opt=None`` for the raw lowering that
``opt="off"`` runs.
"""

from __future__ import annotations

import functools
from typing import Any, Sequence

from repro.core.pararray import ParArray
from repro.errors import MachineError, SkeletonError
from repro.machine.simulator import Machine, RunResult
from repro.plan.ir import Scalar as _Scalar, base_fragment, fragment_ops
# Bind the lowering module through sys.modules: `repro.plan.lower` imports
# `repro.scl.nodes`, whose package __init__ imports this module back, so the
# `lower` *name* may not exist yet at either import order — and the package
# attribute `repro.plan.lower` is shadowed by the function of the same name
# once `repro.plan.__init__` finishes.  The sys.modules entry is always the
# module itself.
import repro.plan.lower  # noqa: F401  (registers the module in sys.modules)
import sys

from repro.scl import nodes as N

_plan_lower = sys.modules["repro.plan.lower"]

__all__ = ["base_fragment", "fragment_ops", "run_expression",
           "run_expression_many", "resolve_opt"]


def resolve_opt(opt: Any, machine: Machine):
    """Normalise an ``opt`` argument to an OptConfig (or ``None``).

    ``"auto"`` builds the machine's config (priced on its spec);
    ``"off"``/``None``/``False`` disables the
    optimizer; an :class:`~repro.plan.opt.OptConfig` passes through.
    Anything else is a :class:`~repro.errors.SkeletonError`.
    """
    from repro.plan.opt import OptConfig

    if isinstance(opt, OptConfig):
        return opt
    if opt is None or opt is False or opt == "off":
        return None
    if opt == "auto":
        return OptConfig.for_machine(machine)
    raise SkeletonError(
        f"opt must be 'auto', 'off' (or None/False) or an OptConfig, "
        f"got {opt!r}")


def run_lowered(expr: N.Node, pa: ParArray | Sequence[Any],
                machine: Machine, opt: Any,
                make_program) -> tuple[Any, RunResult]:
    """Validate ``pa``, lower ``expr``, run, unwrap — what
    :func:`run_expression` and ``run_expression_ft`` share (internal).
    ``make_program(plan, values)`` builds the :meth:`Machine.run` arguments
    ``(program, walk)`` executing ``plan`` over the row-major per-rank
    ``values`` (``walk`` may be ``None``).  A ParArray ``pa`` gets a
    ParArray of its shape back; a list (or tuple) of per-rank values runs
    as it is and gets ``RunResult.values`` itself back.  A fold returns
    its scalar either way."""
    values, shape = _per_rank(pa, machine)
    plan = _plan_lower.lower(expr, machine.nprocs, _grid(shape),
                             opt=resolve_opt(opt, machine))
    program, walk = make_program(plan, values)
    res = machine.run(program, walk=walk)
    return _result(res, shape), res


def _per_rank(pa: ParArray | Sequence[Any], machine: Machine
              ) -> tuple[Sequence[Any], tuple | None]:
    """The row-major per-rank values of one input and its ParArray shape
    (``None`` for a list of per-rank values), checked against
    ``machine``."""
    if isinstance(pa, ParArray) and pa.ndim in (1, 2):
        values, shape = pa.to_list(), pa.shape
    elif isinstance(pa, (list, tuple)):
        values, shape = pa, None
    else:
        raise SkeletonError("compiled programs take a 1-D or 2-D ParArray "
                            "input, or a list of per-rank values")
    if len(values) != machine.nprocs:
        raise SkeletonError(
            f"expression input has {len(values)} components but the machine "
            f"has {machine.nprocs} processors")
    return values, shape


def _grid(shape: tuple | None) -> tuple[int, int] | None:
    return shape if shape is not None and len(shape) == 2 else None


def _result(res: RunResult, shape: tuple | None) -> Any:
    """What a run over an input of ``shape`` returns: the fold scalar, the
    values themselves (a list input) or a ParArray of that shape."""
    if res.values and isinstance(res.values[0], _Scalar):
        return res.values[0].value
    if shape is None:
        return res.values
    if len(shape) == 2:
        rows, cols = shape
        return ParArray(
            {(i, j): res.values[i * cols + j]
             for i in range(rows) for j in range(cols)}, shape)
    return ParArray(res.values)


def run_expression(expr: N.Node, pa: ParArray | Sequence[Any],
                   machine: Machine, *,
                   label: str = "program",
                   opt: Any = "auto") -> tuple[Any, RunResult]:
    """Compile ``expr`` and run it on ``machine`` over ``pa``; returns
    (result, run statistics).

    ``pa`` must have exactly one component per processor: 1-D arrays
    map rank ``r`` to component ``r``; 2-D grids map row-major, and
    enable the grid communication nodes (``RotateRow``/``RotateCol``).
    The result is a ParArray of the final per-processor values (same
    shape as the input), or the reduction scalar for expressions
    ending in ``Fold``.

    ``pa`` may instead be a plain list (or tuple) of the per-rank values,
    rank ``r`` holding item ``r`` — the 1-D case without the ParArray
    view.  The result is then the run's list of final per-rank values,
    ``RunResult.values`` itself (or the fold scalar), and no ParArray is
    built on the way in or out: the form for callers that hold values,
    not arrays (stream chunks, service payloads).  Both forms run the
    same plan to the same values and statistics.

    ``label`` is the root span label on traced machines (the
    skeleton/program name the observability layer attributes every event
    to); ``opt`` the plan-optimizer switch: ``"auto"`` (optimize for this
    machine), ``"off"`` / ``None`` (raw plan), or a prebuilt
    :class:`~repro.plan.opt.OptConfig`.

    The machine gets the per-rank plan interpreter and the
    whole-machine walk of :mod:`repro.plan.vexec`, which makes the
    same requests in the same per-rank order.  Which of the two runs
    is the machine's choice (:meth:`Machine.run`: the walk when
    fault-free and multi-port and the plan is flat; the interpreter
    otherwise) — the returned values and statistics are identical
    either way, and so is each processor's traced event sequence.
    """
    return run_lowered(expr, pa, machine, opt,
                       functools.partial(_program, label=label))


def run_expression_many(expr: N.Node,
                        inputs: Sequence[ParArray | Sequence[Any]],
                        machine: Machine, *, label: str = "program",
                        opt: Any = "auto") -> list[tuple[Any, RunResult]]:
    """``[run_expression(expr, x, machine, label=label, opt=opt) for x in
    inputs]`` — each ``(result, run statistics)`` ``==`` its solo run —
    with one lowering and, where the machine allows it, one run (internal:
    the stream layer's batched chunks).

    The inputs run as independent jobs side by side on
    :meth:`machine.copies(k) <repro.machine.simulator.Machine.copies>`,
    whose one :meth:`~repro.machine.simulator.Machine.run` takes the
    :mod:`repro.plan.vexec` walk of all ``k`` copies at once — one bulk
    step per instruction for the lot — and whose result
    :meth:`~repro.machine.simulator.RunResult.split` hands each job its
    own values and statistics.  A machine that has no copies
    (fault-injected, traced, single-port or ``batch=False``), a plan the
    walk declines (:func:`repro.plan.vexec.supported`), fewer than two
    inputs, or inputs of different shapes run one by one through
    :func:`run_expression`.  Every input is checked as
    :func:`run_expression` checks it.
    """
    from repro.plan import vexec

    checked = [_per_rank(pa, machine) for pa in inputs]
    shapes = {_grid(shape) for _, shape in checked}
    copies = machine.copies(len(checked)) if len(checked) > 1 else None
    plan = None
    if copies is not None and len(shapes) == 1:
        plan = _plan_lower.lower(expr, machine.nprocs, shapes.pop(),
                                 opt=resolve_opt(opt, machine))
    if plan is None or not vexec.supported(plan):
        return [run_expression(expr, pa, machine, label=label, opt=opt)
                for pa in inputs]
    values = [v for per_rank, _ in checked for v in per_rank]
    res = copies.run(_walked_only, walk=lambda timeline: vexec.precompute(
        plan, values, timeline, label))
    return [(_result(part, shape), part)
            for part, (_, shape) in zip(res.split(len(checked)), checked)]


def _walked_only(env):
    """The per-processor program of a run on copies, which a copies
    machine never interprets: it walks every plan it is given."""
    raise MachineError("a run on machine copies takes the plan walk")


def _program(plan, values, label):
    """The :meth:`Machine.run` arguments ``(program, walk)`` running
    ``plan`` over the row-major per-rank ``values``: the per-rank
    interpreter and the whole-machine walk."""
    from repro.machine.api import Comm
    from repro.machine.plan_exec import execute_plan
    from repro.plan import vexec

    return (lambda env: execute_plan(plan, env, Comm.world(env),
                                     values[env.pid], label),
            lambda timeline: vexec.precompute(plan, values, timeline, label))
