"""Computational skeletons (§2.3): abstracting parallel control flow.

* :func:`farm` — the simplest form of data parallelism: apply a worker
  function (closed over a common environment) to every job.
* :func:`spmd` — staged SPMD computation: a list of (global-op, local-op)
  pairs; local ops are farmed across the configuration, global ops
  synchronise and communicate.  Function composition between stages models
  barrier synchronisation.
* :func:`iter_until` / :func:`iter_for` — the iteration skeletons; the
  latter is defined *via* the former exactly as in the paper.
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import Executor
from typing import Any, Callable, Sequence

from repro.core.elementary import imap, parmap
from repro.core.pararray import ParArray
from repro.errors import SkeletonError

__all__ = ["farm", "spmd", "SpmdStage", "iter_until", "iter_for"]


def farm(f: Callable[[Any, Any], Any], env: Any, pa: ParArray, *,
         executor: Executor | None = None,
         retries: int = 0) -> ParArray:
    """Farm jobs out to processors: ``farm f env = map (f env)``.

    ``env`` is data common to all jobs (broadcast once); each component of
    ``pa`` is an independent job evaluated as ``f(env, job)``.

    ``retries`` adds host-level transient-fault tolerance: a job whose
    evaluation raises is retried up to ``retries`` more times before the
    exception propagates (jobs are independent, so re-evaluation is safe).
    This covers flaky *host* execution only; for simulated machine faults
    (crashed processors, lost messages) use the machine-level farm in
    :mod:`repro.faults.runtime`, which reassigns work and checkpoints.
    """
    if retries < 0:
        raise SkeletonError(f"retries must be non-negative, got {retries}")

    def attempt(x: Any) -> Any:
        for remaining in range(retries, -1, -1):
            try:
                return f(env, x)
            except Exception:
                if remaining == 0:
                    raise

    return parmap(attempt, pa, executor=executor)


@dataclasses.dataclass(frozen=True)
class SpmdStage:
    """One SPMD stage: a global parallel operation and a farmed local one.

    ``local`` is applied with ``imap`` (it receives ``(index, value)``) —
    a flat base-language fragment computed independently per processor.
    ``global_`` acts on the whole configuration — a parallel operation that
    requires synchronisation/communication (a communication skeleton, a
    redistribution, …).  Either may be ``None`` for identity.
    """

    global_: Callable[[ParArray], ParArray] | None = None
    local: Callable[[Any, Any], Any] | None = None

    @classmethod
    def of(cls, stage: "SpmdStage | tuple | Callable | None") -> "SpmdStage":
        """Coerce ``(gf, lf)`` tuples (paper notation) to a stage."""
        if isinstance(stage, SpmdStage):
            return stage
        if isinstance(stage, tuple) and len(stage) == 2:
            return cls(global_=stage[0], local=stage[1])
        raise SkeletonError(
            f"SPMD stage must be SpmdStage or (global, local) pair, got {stage!r}")


def spmd(stages: Sequence["SpmdStage | tuple"], *,
         executor: Executor | None = None) -> Callable[[ParArray], ParArray]:
    """Compose SPMD stages into one configuration transformer.

    ``spmd([]) = id``; ``spmd([(gf, lf)] + fs) = spmd(fs) . gf . imap(lf)``
    — each stage farms its local operation across the configuration, then
    runs its global operation; the composition boundary is the barrier.
    """
    parsed = [SpmdStage.of(s) for s in stages]

    def run(conf: ParArray) -> ParArray:
        if not isinstance(conf, ParArray):
            raise SkeletonError(f"SPMD expects a ParArray, got {type(conf).__name__}")
        for stage in parsed:
            if stage.local is not None:
                conf = imap(stage.local, conf, executor=executor)
            if stage.global_ is not None:
                conf = stage.global_(conf)
                if not isinstance(conf, ParArray):
                    raise SkeletonError(
                        "SPMD global operation must return a ParArray, "
                        f"got {type(conf).__name__}")
        return conf

    return run


def iter_until(
    iter_solve: Callable[[Any], Any],
    final_solve: Callable[[Any], Any],
    cond: Callable[[Any], bool],
    x: Any,
    *,
    max_iterations: int | None = None,
) -> Any:
    """Iterate ``iter_solve`` until ``cond`` holds, then apply ``final_solve``.

    The condition is checked *before* each iteration, exactly as the paper
    defines ``iterUntil``.  ``max_iterations`` (an extension) guards
    against non-terminating conditions; ``None`` means unbounded.
    """
    steps = 0
    while not cond(x):
        if max_iterations is not None and steps >= max_iterations:
            raise SkeletonError(
                f"iter_until exceeded max_iterations={max_iterations}")
        x = iter_solve(x)
        steps += 1
    return final_solve(x)


def iter_for(terminator: int, iter_solve: Callable[[int, Any], Any], x: Any) -> Any:
    """Counted iteration: apply ``iter_solve(i, x)`` for ``i = 0 .. n-1``.

    Defined via :func:`iter_until` over an ``(x, i)`` pair, mirroring the
    paper's ``iterFor = fst (iterUntil iSolve id con (x, 0))``.
    """
    if not isinstance(terminator, int) or terminator < 0:
        raise SkeletonError(f"terminator must be a non-negative int, got {terminator!r}")

    def i_solve(state: tuple[Any, int]) -> tuple[Any, int]:
        xv, i = state
        return (iter_solve(i, xv), i + 1)

    def con(state: tuple[Any, int]) -> bool:
        return state[1] >= terminator

    final_state = iter_until(i_solve, lambda s: s, con, (x, 0))
    return final_state[0]
