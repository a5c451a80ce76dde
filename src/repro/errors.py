"""Exception hierarchy for the SCL reproduction.

Every error raised by :mod:`repro` derives from :class:`SclError`, so callers
can catch library failures without accidentally swallowing interpreter-level
bugs.  The hierarchy mirrors the layering of the system:

* :class:`ConfigurationError` — misuse of configuration skeletons
  (``partition``, ``align``, ``distribution`` …): shape mismatches,
  non-conforming distributions, invalid partition patterns.
* :class:`SkeletonError` — misuse of elementary/computational skeletons
  (arity problems, empty reductions, invalid communication indices).
* :class:`MachineError` — faults inside the simulated machine substrate.

  * :class:`DeadlockError` — the event loop found live processes but no
    runnable event (every process blocked on a receive that can never be
    satisfied).
  * :class:`TopologyError` — invalid topology construction or addressing.
  * :class:`FaultError` — a *modelled* failure surfaced to the program:
    a receive timed out, a peer is presumed crashed, a retransmit budget
    was exhausted.  Structured (``kind``/``pid``/``rank`` attributes) so
    fault-tolerant runtimes can dispatch on the failure mode.
* :class:`RewriteError` — the transformation engine was asked to apply a
  rule whose side-conditions do not hold, or hit a malformed expression.
"""

from __future__ import annotations

__all__ = [
    "SclError",
    "ConfigurationError",
    "SkeletonError",
    "MachineError",
    "DeadlockError",
    "TopologyError",
    "FaultError",
    "RewriteError",
    "ParseError",
]


class SclError(Exception):
    """Base class for every error raised by :mod:`repro`."""


class ConfigurationError(SclError):
    """Invalid use of a configuration skeleton (partition/align/…)."""


class SkeletonError(SclError):
    """Invalid use of an elementary or computational skeleton."""


class MachineError(SclError):
    """Fault inside the simulated distributed machine."""


class DeadlockError(MachineError):
    """The simulated machine deadlocked: blocked processes, empty event queue."""


class TopologyError(MachineError):
    """Invalid topology construction or neighbour addressing."""


class FaultError(MachineError):
    """A modelled machine fault surfaced to the program.

    ``kind`` classifies the failure (``"timeout"``, ``"peer-dead"``,
    ``"no-survivors"``, …); ``pid``/``rank`` identify the peer involved
    when known.  Raised by the resilience layer (``repro.machine.reliable``,
    ``repro.machine.collectives_ft``) — never by the fault-free simulator.
    """

    def __init__(self, message: str, *, kind: str = "fault",
                 pid: int | None = None, rank: int | None = None):
        super().__init__(message)
        self.kind = kind
        self.pid = pid
        self.rank = rank


class RewriteError(SclError):
    """A transformation rule was applied where its side-conditions fail."""


class ParseError(SclError):
    """Syntax or resolution error in a textual SCL program."""
