"""Simulation request and message objects.

A virtual-processor program is a Python generator that ``yield``s request
objects to the simulator; the simulator advances virtual time, performs the
requested action, and resumes the generator (with a value, for receives).
Three primitive requests exist — everything else (collectives, barriers,
communicators) is built on top of them:

* :class:`Compute` — advance this processor's clock by a CPU cost,
* :class:`Send` — asynchronous (buffered) message send,
* :class:`Recv` — blocking receive, matching on source and tag.

``Recv`` supports ``src=ANY`` / ``tag=ANY`` wildcards.  Matching on a
concrete ``(src, tag)`` pair is FIFO in send order and fully deterministic;
ANY-source matching picks the earliest delivered candidate, which mirrors
the paper's remark that many-to-one communication is non-deterministic
("no ordering of the elements may be assumed").

The request classes are ``slots=True`` dataclasses: the simulator
allocates one request object per event, so the per-instance ``__dict__``
would be pure overhead on the hot path.  Only :class:`Compute` is frozen
(it validates its field); the others are immutable by convention — a
frozen dataclass builds every instance through ``object.__setattr__``,
which costs several times a plain ``__init__`` at this allocation rate.
:class:`Message` goes one step further and is a :class:`~typing.NamedTuple`:
one message object is built per *delivery*, and the C-level tuple
constructor is ~3x cheaper than even a slots-dataclass ``__init__``.
"""

from __future__ import annotations

import dataclasses
from typing import Any, NamedTuple

from repro.errors import MachineError

__all__ = ["ANY", "Compute", "Send", "Recv", "Message"]


class _Any:
    """Singleton wildcard for Recv source/tag matching."""

    _instance: "_Any | None" = None

    def __new__(cls) -> "_Any":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "ANY"


#: Wildcard accepted by :class:`Recv` for ``src`` and ``tag``.
ANY = _Any()


@dataclasses.dataclass(frozen=True, slots=True)
class Compute:
    """Charge ``seconds`` of CPU time to the yielding processor."""

    seconds: float

    def __post_init__(self) -> None:
        if not (self.seconds >= 0):
            raise MachineError(
                f"Compute.seconds must be non-negative, got {self.seconds!r}")


@dataclasses.dataclass(slots=True)
class Send:
    """Asynchronous send of ``payload`` to processor ``dst``.

    ``nbytes`` is the wire size; if ``None`` the simulator estimates it with
    :func:`repro.machine.cost.estimate_nbytes`.  The sender is charged
    ``send_overhead`` CPU time; delivery happens after the network transfer
    time for the payload over the topology's hop count.
    """

    dst: int
    payload: Any
    tag: int = 0
    nbytes: int | None = None
    #: Marks a retransmission by the reliable-messaging layer: counted in
    #: ``ProcStats.retransmits`` and traced as ``"retransmit"`` instead of
    #: ``"send"``.  Cost model and delivery are identical to a plain send.
    is_retransmit: bool = False


@dataclasses.dataclass(slots=True)
class Recv:
    """Blocking receive matching ``src`` and ``tag`` (either may be ANY).

    Yielding a ``Recv`` suspends the processor until a matching message has
    been delivered; the generator is resumed with the :class:`Message`.

    ``timeout`` (virtual seconds, measured from the moment the receive is
    posted) bounds the wait: if no matching message has been delivered by
    the deadline the generator is resumed with ``None`` instead of a
    message and the processor's ``timeouts`` counter is incremented.  A
    ``None`` timeout (the default) waits forever, exactly as before.
    """

    src: int | _Any = ANY
    tag: int | _Any = ANY
    timeout: float | None = None

    def matches(self, msg: "Message") -> bool:
        """True iff ``msg`` satisfies this receive's source/tag pattern."""
        return (self.src is ANY or self.src == msg.src) and (
            self.tag is ANY or self.tag == msg.tag
        )


class Message(NamedTuple):
    """A delivered message: payload plus provenance and timing metadata.

    Immutable and allocated on the receive hot path, hence a named tuple
    (C-level construction) rather than a dataclass.

    ``seq`` is the engine's deterministic ordering token: unique per
    message, drawn from ``1..n``, and consistent with arrival-order
    tie-breaking within a run.  Its *absolute* value is an engine detail —
    the per-event core numbers sends in global processing order, the
    batched core numbers deliveries (see ``DESIGN.md``) — so programs
    should treat it as opaque and never branch on the number itself.
    """

    src: int
    dst: int
    tag: int
    payload: Any
    nbytes: int
    sent_at: float
    arrival: float
    seq: int

    def __repr__(self) -> str:
        return (
            f"Message({self.src}->{self.dst}, tag={self.tag}, "
            f"nbytes={self.nbytes}, arrival={self.arrival:.6g})"
        )
