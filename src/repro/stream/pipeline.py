"""The stage pipeline on the simulated machine — P3L's ``pipe`` skeleton.

:func:`pipeline_machine` runs per-item stage functions with stage ``s``
on processor ``s``, items flowing as messages — so the classic
fill/drain law ``T ≈ (m + s - 1) · t_bottleneck`` can be measured rather
than assumed (and is, in the test-suite).  The host-thread pipeline over
the same stages is a stream plan of per-item maps:
``stream_plan(xs).map_seq(f).map_seq(g).run()`` (:mod:`repro.stream.plan`).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Sequence

from repro.errors import SkeletonError
from repro.machine import Comm, Machine, MachineSpec, PERFECT
from repro.machine.cost import estimate_nbytes
from repro.machine.simulator import RunResult
from repro.machine.topology import Ring

__all__ = ["PipelineStage", "pipeline_machine"]


@dataclasses.dataclass(frozen=True)
class PipelineStage:
    """One pipeline stage: a per-item function plus its op cost (virtual
    time charged per item)."""

    fn: Callable[[Any], Any]
    ops: float = 10.0
    name: str = ""

    @classmethod
    def of(cls, stage: "PipelineStage | Callable[[Any], Any]") -> "PipelineStage":
        if isinstance(stage, PipelineStage):
            return stage
        if callable(stage):
            return cls(fn=stage, name=getattr(stage, "__name__", ""))
        raise SkeletonError(f"pipeline stage must be callable, got {stage!r}")


def pipeline_machine(
    stages: Sequence["PipelineStage | Callable[[Any], Any]"],
    items: Sequence[Any],
    *,
    spec: MachineSpec = PERFECT,
    item_nbytes: int | None = None,
) -> tuple[list[Any], RunResult]:
    """Run a pipeline on the simulated machine, one stage per processor.

    Processor ``s`` receives each item from processor ``s - 1``, charges
    its stage's ``ops``, and forwards the result.  Returns the ordered
    output list (collected on the last processor) and the run result —
    whose makespan exhibits the fill/drain behaviour
    ``T ≈ (m + s - 1) · t_bottleneck`` for ``m`` items.
    """
    parsed = [PipelineStage.of(s) for s in stages]
    if not parsed:
        raise SkeletonError("pipeline_machine requires at least one stage")
    items = list(items)
    s = len(parsed)
    machine = Machine(Ring(s) if s > 1 else 1, spec=spec)

    def program(env):
        comm = Comm.world(env)
        rank = comm.rank
        stage = parsed[rank]
        outputs = []
        for k in range(len(items)):
            if rank == 0:
                value = items[k]
            else:
                msg = yield comm.recv(rank - 1, tag=k)
                value = msg.payload
            yield env.work(stage.ops)
            value = stage.fn(value)
            if rank < comm.size - 1:
                nbytes = (estimate_nbytes(value, env.spec.word_bytes)
                          if item_nbytes is None else item_nbytes)
                yield comm.send(rank + 1, value, tag=k, nbytes=nbytes)
            else:
                outputs.append(value)
        return outputs

    res = machine.run(program)
    return res.values[-1], res
