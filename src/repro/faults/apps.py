"""Example applications rebuilt on the resilience layer.

:func:`ft_hyperquicksort_machine` is hyperquicksort on a lossy machine —
but unlike the first generation of this module, it is no longer a hand
port.  The sorting rounds are the *compiled* §5 expression
(:func:`repro.apps.sort.hyperquicksort_expression`) executed by the plan
walker (:func:`repro.machine.plan_exec.execute_plan`) over the reliable
transport (:class:`repro.faults.plan_exec.ReliableTransport`), and the
bracketing distribution/collection steps are the shared crash-aware
collectives
(:func:`~repro.machine.collectives_ft.ft_scatter` /
:func:`~repro.machine.collectives_ft.ft_gather`).  The only app-specific
code left is the app itself: pre-sort the local block, run the
expression, concatenate.

The communication pattern this produces differs from the perfect-network
compiler's (linear reliable scatter/gather instead of binomial trees;
`ReliableChannel.exchange` for the symmetric partner swap, which services
the partner's data while awaiting its own ack), so the makespan carries a
measurable resilience penalty — but the computed values are identical.

Node *crashes* are out of scope here: a crashed sorter loses its data
block, which no messaging protocol can recover.  Crash tolerance belongs
to the job-level farm (:mod:`repro.faults.runtime`), where work — not
state — is what must survive.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import FaultError
from repro.apps.sort import SortCostParams, hyperquicksort_expression, seq_quicksort
from repro.machine import AP1000, Hypercube, Machine, MachineSpec
from repro.machine.api import Comm
from repro.machine.collectives_ft import ft_gather, ft_scatter
from repro.machine.plan_exec import Grouped, execute_plan
from repro.machine.reliable import ReliableChannel
from repro.machine.simulator import RunResult
from repro.plan.lower import lower
from repro.runtime.chunking import chunk_indices
from repro.faults.models import FaultInjector, FaultSpec
from repro.faults.plan_exec import ReliableTransport

__all__ = ["ft_hyperquicksort_machine"]


def ft_hyperquicksort_machine(
    values: Sequence[int] | np.ndarray,
    d: int,
    *,
    spec: MachineSpec = AP1000,
    params: SortCostParams = SortCostParams(),
    faults: FaultSpec | None = None,
    record_trace: bool = False,
    channel_timeout: float | None = None,
    max_retries: int = 8,
) -> tuple[np.ndarray, RunResult]:
    """Hyperquicksort on a lossy simulated hypercube; returns (sorted, run).

    Structure: reliable scatter, local sort, the compiled §5 expression's
    ``d`` pivot/split/exchange/merge rounds through the plan walker on
    the reliable transport, reliable gather.  With ``faults=None`` (or an
    all-zero spec) the result matches the plain version
    element-for-element; under message faults it still sorts correctly,
    and the :class:`RunResult` carries the retransmit/timeout/drop
    counters that quantify the cost.
    """
    values = np.asarray(values)
    p = 1 << d
    # Always install an injector (zero-rate if no faults requested): the
    # reliable protocol can leave benign duplicate frames in mailboxes even
    # on a healthy network (a retransmit raced a slow ack), which only the
    # faults-enabled engine tolerates.  A zero-rate injector's verdicts
    # are the ones the engine uses without an injector.
    injector = FaultInjector(faults if faults is not None else FaultSpec())
    machine = Machine(Hypercube(d), spec=spec, record_trace=record_trace,
                      faults=injector)
    spans = chunk_indices(len(values), p)
    blocks = [values[lo:hi] for lo, hi in spans]
    plan = lower(hyperquicksort_expression(d), p)

    def program(env):
        comm = Comm.world(env)
        chan = ReliableChannel(env, timeout=channel_timeout,
                               max_retries=max_retries)
        # -- distribute: linear reliable scatter from p0
        local = np.asarray((yield from ft_scatter(
            chan, comm, blocks if comm.rank == 0 else None)))
        # -- local sort
        yield env.work(params.sort_ops(local.size))
        local = seq_quicksort(local)
        # -- the compiled sorting rounds, fault-tolerantly
        local = yield from execute_plan(plan, env, comm, local,
                                        transport=ReliableTransport(chan))
        assert not isinstance(local, Grouped)
        # -- linear reliable gather to p0
        if p > 1:
            try:
                parts = yield from ft_gather(chan, comm, local)
            except FaultError:
                # Two-generals tail: an eternally unacked final send means
                # the root already has our block and exited (its ack to us
                # was lost).  If the data itself were lost, the root would
                # still be blocked re-acking our retransmissions.
                return None
            if comm.rank != 0:
                return None
            yield env.work(len(values))  # copy-out cost
            return np.concatenate([np.asarray(b) for b in parts])
        return local

    result = machine.run(program)
    return np.asarray(result.values[0]), result
