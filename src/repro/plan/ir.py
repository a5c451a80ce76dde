"""The Plan IR: a flat, typed SPMD instruction sequence.

A :class:`Plan` is what an SCL expression lowers to (see
:mod:`repro.plan.lower`): one shared instruction stream that every virtual
processor interprets against its own rank.  All index-function evaluation
happens at lowering time — instructions carry *precomputed per-rank
communication tables*, so the executor never re-walks the expression tree
or re-evaluates an index map.  The same stream is the unit of pricing
(:mod:`repro.plan.cost`), pretty-printing
(:mod:`repro.scl.plan_pretty`) and execution — one walker
(:mod:`repro.machine.plan_exec`) whose transport is either direct
messages or the reliable channel (:mod:`repro.faults.plan_exec`):
predicted cost, dump, simulated run and resilient run all describe the
identical program.

Instruction set:

==================  =====================================================
:class:`LocalApply`  apply a base-language fragment to the local value
:class:`Exchange`    static point-to-point pattern (rotate / fetch / send)
:class:`Collective`  fold / scan / broadcast via the machine collectives
:class:`GroupSplit`  enter a processor group (communicator split)
:class:`SubPlan`     run a nested plan inside the current group
:class:`GroupCombine` leave the group (inverse of :class:`GroupSplit`)
:class:`Loop`        ``iterFor``: per-iteration instruction sequences
==================  =====================================================

The base-fragment cost annotations (:func:`base_fragment`,
:func:`fragment_ops`) live here because charging opaque fragments to the
machine clock is part of the IR's execution contract: every executor of a
:class:`LocalApply` charges ``fragment_ops(fn, value)`` before applying.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Any, Callable, Sequence

__all__ = [
    "DEFAULT_FRAGMENT_OPS", "base_fragment", "fragment_ops",
    "fragment_ops_all",
    "Instr", "LocalApply", "Exchange", "rotation", "Collective",
    "GroupSplit", "SubPlan", "GroupCombine", "Loop",
    "Plan", "Scalar", "NO_ENV", "instr_title",
    "FusedKernel", "apply_fused",
]

#: Operation count charged per application of an un-annotated fragment.
DEFAULT_FRAGMENT_OPS = 10.0


def base_fragment(ops: float | Callable[[Any], float]):
    """Annotate a base-language callable with its operation cost.

    ``ops`` is either a constant or a function of the fragment's input
    (e.g. ``lambda xs: len(xs) * 5`` for a linear pass).  Every plan
    executor charges this to the machine's cost model at each
    application::

        @base_fragment(ops=lambda block: block.size * 3)
        def smooth(block): ...
    """

    def wrap(fn):
        fn.scl_ops = ops
        return fn

    return wrap


def fragment_ops(fn: Any, value: Any) -> float:
    """The operation count a fragment application charges for ``value``."""
    ops = getattr(fn, "scl_ops", DEFAULT_FRAGMENT_OPS)
    if callable(ops):
        return float(ops(value))
    return float(ops)


def fragment_ops_all(fn: Any, values: Sequence[Any]) -> list[float]:
    """:func:`fragment_ops` of one fragment for each of ``values`` (every
    rank's input to one instruction), in one pass.

    A fragment that registered a whole-machine cost form
    (:func:`repro.plan.kernels.vectorize_fragment`, carried as
    ``fn.scl_ops_all``) is asked once for all ranks; its answer must be
    exactly ``[fragment_ops(fn, v) for v in values]`` — the per-rank
    annotation stays what the interpreter charges.  Otherwise the
    annotation is read once and called per rank.
    """
    ops_all = getattr(fn, "scl_ops_all", None)
    if ops_all is not None:
        charges = ops_all(values)
        if not isinstance(charges, list) or len(charges) != len(values):
            raise ValueError(
                f"cost form of {getattr(fn, '__name__', fn)!r} did not "
                f"return a list of {len(values)} per-rank charges")
        return charges
    ops = getattr(fn, "scl_ops", DEFAULT_FRAGMENT_OPS)
    if callable(ops):
        return [float(ops(value)) for value in values]
    return [float(ops)] * len(values)


class _NoEnv:
    """Sentinel: a :class:`LocalApply` with no farm environment."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NO_ENV"


NO_ENV = _NoEnv()


@dataclasses.dataclass(frozen=True)
class Instr:
    """Base class of plan instructions."""


@dataclasses.dataclass(frozen=True)
class LocalApply(Instr):
    """Apply fragment ``fn`` to the local value (charging its cost first).

    ``indexed=True`` applies ``fn(index, local)`` where ``index`` is the
    rank (or the ``(row, col)`` grid coordinate); a non-``NO_ENV``
    ``farm_env`` applies ``fn(farm_env, local)``.

    ``fn`` may also be a :class:`FusedKernel` — the optimizer's merged
    form of a run of adjacent ``LocalApply`` s (§4 map fusion); executors
    handle it through :func:`apply_fused`.
    """

    fn: Callable[..., Any]
    indexed: bool = False
    farm_env: Any = NO_ENV
    label: str = "map"


class FusedKernel:
    """A run of adjacent :class:`LocalApply` s merged into one instruction.

    ``applies`` holds the original instructions in execution order — each
    keeps its own calling convention (plain / indexed / farm) and its own
    cost tag, so provenance and charging are exact.  ``parts`` is the flat
    tuple of constituent fragment callables (``Composed`` fragments are
    expanded), which is what :func:`repro.plan.cost.plan_cost` counts to
    price one pass per constituent — the fused instruction predicts and
    simulates the same compute cost as the run it replaced, minus the
    per-instruction dispatch.
    """

    __slots__ = ("applies", "parts")

    def __init__(self, applies: tuple["LocalApply", ...]):
        self.applies = tuple(applies)
        flat: list = []
        for a in self.applies:
            sub = getattr(a.fn, "parts", None)
            flat.extend(sub if sub is not None else (a.fn,))
        self.parts = tuple(flat)

    @property
    def __name__(self) -> str:
        return "(" + " ; ".join(
            getattr(a.fn, "__name__", "<fn>") for a in self.applies) + ")"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FusedKernel({'+'.join(a.label for a in self.applies)})"


def apply_fused(fk: FusedKernel, idx: Any, local: Any) -> tuple[Any, float]:
    """Run every constituent of a fused kernel; returns ``(result, ops)``.

    Each part charges :func:`fragment_ops` on its *actual* input (the
    previous part's output), so the summed charge equals what the unfused
    instruction run would have charged step by step.
    """
    total = 0.0
    for a in fk.applies:
        total += fragment_ops(a.fn, local)
        if a.indexed:
            local = a.fn(idx, local)
        elif a.farm_env is not NO_ENV:
            local = a.fn(a.farm_env, local)
        else:
            local = a.fn(local)
    return local, total


@dataclasses.dataclass(frozen=True)
class Exchange(Instr):
    """A static point-to-point pattern with precomputed per-rank tables.

    ``sends[r]`` is the ordered tuple of destinations rank ``r`` sends its
    local value to (self excluded); ``recvs[r]`` the ordered tuple of
    sources it receives from, where an entry equal to ``r`` itself means
    "take the local value" (no message).  ``mode`` selects the result:

    * ``"replace"`` — single source; the received value becomes the local
      value (``rotate_row``/``rotate_col``/``fetch``/``send`` with a
      permutation),
    * ``"pair"`` — single source; the result is ``(local, received)``
      (``align id (fetch f)``),
    * ``"collect"`` — any number of sources in source-rank order; the
      result is the list of arrivals (the general ``send``).

    The tables are built here, from whichever side a skeleton's index
    function names (:meth:`from_sources` for the ``fetch`` family,
    :meth:`from_destinations` for the ``send`` family), in one pass over
    the ranks.  Three facts about the tables are worked out once per
    instruction object and kept beside them (outside ``==``, ``hash`` and
    ``dataclasses.replace``): what they cost on the wire
    (:attr:`traffic`), which send each receive consumes (:attr:`wiring`)
    — ``None`` when the tables do not match up, which hand-built tables
    can fail to and the two constructors cannot — and, for the
    single-source modes, the rank each rank reads from
    (:attr:`sources`).
    """

    mode: str
    sends: tuple[tuple[int, ...], ...]
    recvs: tuple[tuple[int, ...], ...]
    label: str = "exchange"

    @classmethod
    def from_sources(cls, mode: str, srcs: Sequence[int],
                     label: str = "exchange") -> "Exchange":
        """The exchange in which rank ``r`` reads from ``srcs[r]`` (itself:
        no message).  Every entry must be a rank in ``0..len(srcs)-1``."""
        sends: list[list[int]] = [[] for _ in srcs]
        for r, src in enumerate(srcs):
            if src != r:
                sends[src].append(r)
        return cls(mode, tuple(map(tuple, sends)),
                   tuple((src,) for src in srcs), label)

    @classmethod
    def from_destinations(cls, mode: str, dsts: Sequence[Sequence[int]],
                          label: str = "exchange") -> "Exchange":
        """The exchange in which rank ``r`` sends to each of ``dsts[r]`` in
        order (itself: kept locally), so ``recvs[r]`` lists the senders in
        rank order, once per copy sent.  Every entry must be a rank in
        ``0..len(dsts)-1``."""
        recvs: list[list[int]] = [[] for _ in dsts]
        for r, out in enumerate(dsts):
            for dst in out:
                recvs[dst].append(r)
        return cls(mode,
                   tuple(tuple(d for d in out if d != r)
                         for r, out in enumerate(dsts)),
                   tuple(map(tuple, recvs)), label)

    @functools.cached_property
    def traffic(self) -> tuple[int, int]:
        """``(total messages, max port degree)`` of the tables: every send
        is one message, and a rank's port carries the larger of what it
        sends and what it receives from others.  Scanned once per
        instruction object — the cost model prices the same exchange for
        every plan that contains it."""
        total = degree = 0
        for r, out in enumerate(self.sends):
            incoming = self.recvs[r]
            total += len(out)
            degree = max(degree, len(out), len(incoming) - incoming.count(r))
        return total, degree

    @functools.cached_property
    def wiring(self) -> tuple[tuple[int, ...], ...] | None:
        """Per rank, the send each of its receives consumes
        (:func:`repro.machine.lockstep.wire` of the tables), or ``None``
        when some send has no receive, some receive no send, or a
        destination is not another rank.  A static property of the
        instruction: the whole-machine walk follows it instead of matching
        messages as they fly, and leaves an unwired exchange to the
        interpreter, whose engines report what is wrong with it."""
        from repro.machine.lockstep import wire
        return wire(self.sends, self.recvs)

    @functools.cached_property
    def sources(self) -> tuple[int, ...]:
        """``recvs[r][0]`` for every rank ``r``: the one rank each rank
        reads from in a ``replace`` / ``pair`` exchange (itself: no
        message) — the routing map the optimizer composes.  Read once per
        instruction object, like :attr:`traffic`."""
        return tuple(srcs[0] for srcs in self.recvs)


@functools.lru_cache(maxsize=256)
def rotation(k: int, p: int) -> Exchange:
    """``rotate k`` over ``p`` ranks as the exchange it is: rank ``r``
    reads from ``(r + k) % p`` (so ``out[i] = A[(i + k) % p]``) and sends
    to ``(r - k) % p``.  One shared object per ``(k, p)`` — lowering
    passes ``k`` already reduced modulo ``p`` — so a loop of rotates holds
    one instruction and its :attr:`~Exchange.traffic` /
    :attr:`~Exchange.wiring` are scanned once."""
    return Exchange.from_sources(
        "replace", [(r + k) % p for r in range(p)], f"rotate {k}")


@dataclasses.dataclass(frozen=True)
class Collective(Instr):
    """A machine collective.

    ``kind`` is one of ``"fold"`` (tree reduce + broadcast, result wrapped
    in :class:`Scalar`), ``"scan"`` (Hillis–Steele prefix), ``"bcast"``
    (broadcast the constant ``value``, result ``(value, local)``) or
    ``"apply_bcast"`` (root applies ``op`` to its local value and
    broadcasts, result ``(piece, local)``).  All run the binomial /
    doubling schedules of :mod:`repro.machine.collectives`.
    """

    kind: str
    op: Callable[..., Any] | None = None
    value: Any = None
    root: int = 0
    label: str = "collective"


@dataclasses.dataclass(frozen=True)
class GroupSplit(Instr):
    """Split the current communicator into processor groups.

    ``groups[g]`` lists the member ranks of group ``g``; ``group_of[r]``
    is the group index of rank ``r``.  Executors push a group frame (the
    subgroup communicator) that :class:`SubPlan` runs within and
    :class:`GroupCombine` pops.
    """

    groups: tuple[tuple[int, ...], ...]
    group_of: tuple[int, ...]
    label: str = "split"


@dataclasses.dataclass(frozen=True)
class SubPlan(Instr):
    """Run a nested plan inside the current group (``map`` of a
    sub-expression).  ``plans[g]`` is the plan for group ``g`` — groups of
    equal size share one :class:`Plan` object via the lowering cache."""

    plans: tuple["Plan", ...]


@dataclasses.dataclass(frozen=True)
class GroupCombine(Instr):
    """Return to the parent communicator (inverse of :class:`GroupSplit`)."""


@dataclasses.dataclass(frozen=True)
class Loop(Instr):
    """``iterFor n body``: ``bodies[i]`` is the instruction sequence of
    iteration ``i`` (bodies differ per iteration — the expression family
    is expanded at lowering time)."""

    bodies: tuple[tuple[Instr, ...], ...]


@dataclasses.dataclass(frozen=True)
class Plan:
    """A lowered SPMD program: one instruction stream for ``nprocs`` ranks.

    ``grid`` carries the processor-grid shape for 2-D configurations
    (indexed :class:`LocalApply` then receives ``(row, col)``).
    """

    instrs: tuple[Instr, ...]
    nprocs: int
    grid: tuple[int, int] | None = None

    def __len__(self) -> int:
        return len(self.instrs)

    @property
    def returns_scalar(self) -> bool:
        """True when the outermost step is a reduction, whose result every
        rank holds wrapped in a :class:`Scalar`."""
        return bool(self.instrs) and isinstance(self.instrs[-1], Collective) \
            and self.instrs[-1].kind == "fold"


@dataclasses.dataclass(frozen=True)
class Scalar:
    """Wrapper distinguishing a reduction result from an array component."""

    value: Any


def instr_title(instr: Instr) -> str:
    """Short human name of an instruction — the shared display/span label
    used by the plan dumper, the span-tagged executors and the trace
    reports (so an instruction is called the same thing everywhere)."""
    if isinstance(instr, LocalApply):
        return f"local {instr.label}"
    if isinstance(instr, Exchange):
        return f"exchange {instr.label}"
    if isinstance(instr, Collective):
        return f"coll {instr.kind}"
    if isinstance(instr, GroupSplit):
        return "group split"
    if isinstance(instr, GroupCombine):
        return "group combine"
    if isinstance(instr, SubPlan):
        return "subplan"
    if isinstance(instr, Loop):
        return f"loop x{len(instr.bodies)}"
    return type(instr).__name__
