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
the per-instruction interpreter — it takes the walk on fault-free,
multi-port runs and interprets otherwise.
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

from typing import Any

from repro.core.pararray import ParArray
from repro.errors import SkeletonError
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

__all__ = ["base_fragment", "fragment_ops", "run_expression", "resolve_opt"]


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


def run_lowered(expr: N.Node, pa: ParArray, machine: Machine, opt: Any,
                make_program) -> tuple[Any, RunResult]:
    """Validate ``pa``, lower ``expr``, run, unwrap — what
    :func:`run_expression` and ``run_expression_ft`` share (internal).
    ``make_program(plan, values)`` builds the :meth:`Machine.run` arguments
    ``(program, walk)`` executing ``plan`` over the row-major per-rank
    ``values`` (``walk`` may be ``None``)."""
    if not isinstance(pa, ParArray) or pa.ndim not in (1, 2):
        raise SkeletonError("compiled programs take a 1-D or 2-D ParArray input")
    if pa.size != machine.nprocs:
        raise SkeletonError(
            f"expression input has {pa.size} components but the machine "
            f"has {machine.nprocs} processors")
    shape = pa.shape
    plan = _plan_lower.lower(expr, machine.nprocs,
                             shape if len(shape) == 2 else None,
                             opt=resolve_opt(opt, machine))
    program, walk = make_program(plan, pa.to_list())
    res = machine.run(program, walk=walk)
    if res.values and isinstance(res.values[0], _Scalar):
        return res.values[0].value, res
    if len(shape) == 2:
        rows, cols = shape
        return ParArray(
            {(i, j): res.values[i * cols + j]
             for i in range(rows) for j in range(cols)}, shape), res
    return ParArray(res.values), res


def run_expression(expr: N.Node, pa: ParArray, machine: Machine, *,
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
    from repro.machine.api import Comm
    from repro.machine.plan_exec import execute_plan
    from repro.plan import vexec

    def make_program(plan, values):
        return (lambda env: execute_plan(plan, env, Comm.world(env),
                                         values[env.pid], label),
                lambda timeline: vexec.precompute(plan, values, timeline,
                                                  label))

    return run_lowered(expr, pa, machine, opt, make_program)
