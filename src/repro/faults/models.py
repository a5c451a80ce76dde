"""Deterministic fault models for the simulated machine.

A :class:`FaultSpec` declares *what* can go wrong (rates and schedules);
a :class:`FaultInjector` turns it into the narrow hook protocol the
simulator consumes (``Machine(..., faults=FaultInjector(spec))``).

Every probabilistic decision is a **pure hash** of
``(seed, decision-kind, src, dst, tag, seq)`` — no host RNG object, no
mutable stream state.  Two consequences the test-suite leans on:

* the same seed and spec give bit-identical runs (drops, delays,
  duplicates and corruptions land on exactly the same messages), and
* decisions are *local*: whether message ``seq`` is dropped does not
  depend on how many messages were sent before it, so unrelated program
  changes do not reshuffle the fault pattern wholesale.

An all-zero-rate spec is the identity: the injector then returns the
verdict the simulator uses for ``faults=None`` — one undelayed,
uncorrupted delivery at wire factor ``1.0`` — so both go through the
same send arithmetic with the same inputs.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Mapping

from repro.errors import MachineError

__all__ = ["Corrupted", "FaultSpec", "FaultInjector"]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
#: One delivery, on time, intact — the fault-free outcome tuple.
_CLEAN = ((0.0, False),)


def _mix(z: int) -> int:
    """splitmix64 finaliser: a high-quality 64-bit avalanche."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _u01(seed: int, *parts: int) -> float:
    """A uniform [0, 1) draw, a pure function of ``(seed, *parts)``."""
    h = _mix((seed + _GOLDEN) & _MASK64)
    for p in parts:
        h = _mix(((h ^ (p & _MASK64)) + _GOLDEN) & _MASK64)
    return (h >> 11) * (1.0 / (1 << 53))


class Corrupted:
    """Wrapper an injector substitutes for a corrupted payload.

    The original payload is kept (simulation is observable), but any layer
    that checks frame structure — e.g. ``repro.machine.reliable`` — will
    see an unusable object and treat the message as garbage on the wire.
    """

    __slots__ = ("original",)

    def __init__(self, original: Any):
        self.original = original

    def __repr__(self) -> str:
        return f"Corrupted({self.original!r})"


@dataclasses.dataclass(frozen=True)
class FaultSpec:
    """Declarative description of the faults to inject (all off by default).

    Message faults (independent per message, decided by hash):

    * ``drop_rate`` — probability a message never arrives,
    * ``dup_rate`` — probability a message is delivered twice,
    * ``delay_rate`` / ``delay_seconds`` — probability a message is late,
      and by how much (also the lag of a duplicate's second copy),
    * ``corrupt_rate`` — probability the payload arrives as
      :class:`Corrupted`.

    Link/node degradation (deterministic schedules):

    * ``slow_links`` — ``(src, dst)`` pairs whose wire time is multiplied
      by ``link_slowdown``; an *empty* set with ``link_slowdown != 1``
      slows **every** link,
    * ``slow_nodes`` — ``pid -> factor`` compute-time multipliers,
    * ``crash_at`` — ``pid -> virtual time`` of permanent node death.
    """

    seed: int = 0
    drop_rate: float = 0.0
    dup_rate: float = 0.0
    delay_rate: float = 0.0
    delay_seconds: float = 0.0
    corrupt_rate: float = 0.0
    link_slowdown: float = 1.0
    slow_links: frozenset[tuple[int, int]] = frozenset()
    slow_nodes: Mapping[int, float] = dataclasses.field(
        default_factory=dict)
    crash_at: Mapping[int, float] = dataclasses.field(default_factory=dict)

    def __post_init__(self) -> None:
        for field in ("drop_rate", "dup_rate", "delay_rate", "corrupt_rate"):
            v = getattr(self, field)
            if not (0.0 <= v <= 1.0):
                raise MachineError(
                    f"FaultSpec.{field} must be in [0, 1], got {v!r}")
        if not (self.delay_seconds >= 0.0
                and math.isfinite(self.delay_seconds)):
            raise MachineError(
                f"FaultSpec.delay_seconds must be finite and non-negative, "
                f"got {self.delay_seconds!r}")
        if not (self.link_slowdown >= 1.0
                and math.isfinite(self.link_slowdown)):
            raise MachineError(
                f"FaultSpec.link_slowdown must be >= 1, got "
                f"{self.link_slowdown!r}")
        object.__setattr__(self, "slow_links",
                           frozenset(self.slow_links))
        object.__setattr__(self, "slow_nodes", dict(self.slow_nodes))
        object.__setattr__(self, "crash_at", dict(self.crash_at))
        for pid, factor in self.slow_nodes.items():
            if not (factor >= 1.0 and math.isfinite(factor)):
                raise MachineError(
                    f"FaultSpec.slow_nodes[{pid}] must be >= 1, got "
                    f"{factor!r}")
        for pid, at in self.crash_at.items():
            if not (at >= 0.0 and math.isfinite(at)):
                raise MachineError(
                    f"FaultSpec.crash_at[{pid}] must be finite and "
                    f"non-negative, got {at!r}")

    def replace(self, **changes: Any) -> "FaultSpec":
        """A copy of this spec with some fields changed."""
        return dataclasses.replace(self, **changes)

    @property
    def is_identity(self) -> bool:
        """True iff this spec injects nothing at all."""
        return (self.drop_rate == 0.0 and self.dup_rate == 0.0
                and self.delay_rate == 0.0 and self.corrupt_rate == 0.0
                and self.link_slowdown == 1.0
                and not self.slow_nodes and not self.crash_at)


class FaultInjector:
    """The simulator-facing realisation of a :class:`FaultSpec`.

    Implements the hook protocol documented in
    :mod:`repro.machine.simulator`; stateless across runs apart from the
    processor count captured by :meth:`begin_run` for validation.
    """

    __slots__ = ("spec", "_nprocs", "_message_faults", "_all_links_slow")

    def __init__(self, spec: FaultSpec):
        if not isinstance(spec, FaultSpec):
            raise MachineError(
                f"FaultInjector needs a FaultSpec, got {type(spec).__name__}")
        self.spec = spec
        self._nprocs = 0
        self._message_faults = (spec.drop_rate > 0.0 or spec.dup_rate > 0.0
                                or spec.delay_rate > 0.0
                                or spec.corrupt_rate > 0.0)
        self._all_links_slow = (spec.link_slowdown != 1.0
                                and not spec.slow_links)

    # -- hook protocol ----------------------------------------------------

    def begin_run(self, nprocs: int) -> None:
        """Validate the spec against the machine size at run start."""
        self._nprocs = nprocs
        for pid in self.spec.crash_at:
            if not (0 <= pid < nprocs):
                raise MachineError(
                    f"FaultSpec.crash_at names pid {pid}, but the machine "
                    f"has {nprocs} processors")
        for pid in self.spec.slow_nodes:
            if not (0 <= pid < nprocs):
                raise MachineError(
                    f"FaultSpec.slow_nodes names pid {pid}, but the machine "
                    f"has {nprocs} processors")

    def crash_time(self, pid: int) -> float | None:
        """Virtual time at which ``pid`` dies, or ``None``."""
        return self.spec.crash_at.get(pid)

    def compute_factor(self, pid: int) -> float:
        """Compute-time multiplier for ``pid`` (1.0 = nominal)."""
        return self.spec.slow_nodes.get(pid, 1.0)

    def link_factor(self, src: int, dst: int) -> float:
        """Wire-time multiplier for the ``src -> dst`` link."""
        spec = self.spec
        if self._all_links_slow:
            return spec.link_slowdown
        if spec.slow_links and (src, dst) in spec.slow_links:
            return spec.link_slowdown
        return 1.0

    def deliveries(self, src: int, dst: int, tag: int, nbytes: int,
                   seq: int) -> tuple[tuple[float, bool], ...]:
        """Delivery outcomes for one message: ``((extra_delay, corrupt), ...)``.

        Empty tuple = dropped; two entries = duplicated.  Decisions hash
        ``(seed, kind, src, dst, tag, seq)`` so they are independent per
        message and reproducible per seed.
        """
        if not self._message_faults:
            return _CLEAN
        spec = self.spec
        seed = spec.seed
        if spec.drop_rate > 0.0 and _u01(seed, 1, src, dst, tag,
                                         seq) < spec.drop_rate:
            return ()
        delay = 0.0
        if spec.delay_rate > 0.0 and _u01(seed, 2, src, dst, tag,
                                          seq) < spec.delay_rate:
            delay = spec.delay_seconds
        corrupt = (spec.corrupt_rate > 0.0
                   and _u01(seed, 3, src, dst, tag, seq) < spec.corrupt_rate)
        first = (delay, corrupt)
        if spec.dup_rate > 0.0 and _u01(seed, 4, src, dst, tag,
                                        seq) < spec.dup_rate:
            # The duplicate trails the original by the delay quantum (or
            # arrives simultaneously if no delay is configured) and is
            # never independently corrupted.
            return (first, (delay + spec.delay_seconds, False))
        if first == (0.0, False):
            return _CLEAN
        return (first,)

    def corrupt_payload(self, payload: Any) -> Corrupted:
        """Replace ``payload`` with its :class:`Corrupted` wrapper."""
        return Corrupted(payload)

    def __repr__(self) -> str:
        return f"FaultInjector({self.spec!r})"
