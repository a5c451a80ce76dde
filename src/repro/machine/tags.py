"""Central message-tag registry: per-subsystem ranges, no collisions.

Every subsystem that owns message tags (the plan executor's exchange
traffic, the crash-aware collectives, the fault-tolerant runtime, the
fault-tolerant apps) reserves them here instead of hard-coding integers.
The registry enforces, at import time, the two properties that used to be
maintained by hand (and once weren't: the SCL compiler's exchange tag
collided with ``ft_bcast``'s):

* every reserved tag is **unique** across all subsystems, and
* every reserved tag lies below :data:`MAX_USER_TAG`, so it is legal both
  as a raw simulator tag and as a reliable-layer user tag (the reliable
  channel maps user tag ``t`` to frame tags ``DATA_TAG_BASE + t`` /
  ``ACK_TAG_BASE + t``).

Two kinds of tag space exist above the user range and are *blocks*, not
individual reservations: the raw-simulator tags of the plain and the
bandwidth-optimal collectives, and the reliable layer's data/ack frame
tags.  They are recorded in
:data:`INFRA_BLOCKS` so the disjointness test can cover the whole layout.
"""

from __future__ import annotations

from repro.errors import MachineError

__all__ = ["MAX_USER_TAG", "SUBSYSTEM_RANGES", "INFRA_BLOCKS", "reserve",
           "reserved", "subsystem_of"]

#: Exclusive upper bound on user tags accepted by the reliable layer
#: (re-exported by :mod:`repro.machine.reliable`).
MAX_USER_TAG = 1_000_000

#: Half-open ``[lo, hi)`` tag ranges owned by each subsystem.  All are below
#: :data:`MAX_USER_TAG`, so any reserved tag may travel over the reliable
#: channel as well as over the raw simulator.
SUBSYSTEM_RANGES: dict[str, tuple[int, int]] = {
    # small tags used by hand-written fault-tolerant applications
    "ft-apps": (1, 100),
    # the fault-tolerant farm/map runtime (control + job traffic)
    "ft-runtime": (800_001, 800_101),
    # crash-aware collectives over the reliable channel
    "collectives-ft": (900_001, 900_101),
    # the plan executor's point-to-point exchange traffic
    "plan": (910_001, 910_101),
}

#: Infrastructure tag blocks *above* the user range: not reservable, but
#: part of the global layout the disjointness test asserts.
INFRA_BLOCKS: dict[str, tuple[int, int]] = {
    # raw-simulator tags of repro.machine.collectives (never reliable-framed)
    "collectives-raw": (1_000_001, 1_000_101),
    # raw-simulator tags of repro.machine.collectives_ext
    "collectives-ext": (1_100_001, 1_100_101),
    # reliable-layer frame blocks: user tag t -> base + t
    "reliable-data": (2_000_000, 3_000_000),
    "reliable-ack": (3_000_000, 4_000_000),
}

_RESERVED: dict[str, int] = {}
_BY_TAG: dict[int, str] = {}


def reserve(subsystem: str, name: str, offset: int) -> int:
    """Reserve tag ``offset`` within ``subsystem``'s range; returns the tag.

    Idempotent for the same ``(subsystem, name, offset)`` triple (modules
    may be re-imported); any other overlap raises :class:`MachineError`.
    """
    try:
        lo, hi = SUBSYSTEM_RANGES[subsystem]
    except KeyError:
        raise MachineError(
            f"unknown tag subsystem {subsystem!r}; known: "
            f"{sorted(SUBSYSTEM_RANGES)}") from None
    tag = lo + offset
    if not (lo <= tag < hi):
        raise MachineError(
            f"tag offset {offset} out of range for subsystem {subsystem!r} "
            f"[{lo}, {hi})")
    full = f"{subsystem}.{name}"
    holder = _BY_TAG.get(tag)
    if holder is not None and holder != full:
        raise MachineError(
            f"tag {tag} already reserved by {holder!r}, requested by {full!r}")
    if full in _RESERVED and _RESERVED[full] != tag:
        raise MachineError(
            f"{full!r} already holds tag {_RESERVED[full]}, requested {tag}")
    _RESERVED[full] = tag
    _BY_TAG[tag] = full
    return tag


def reserved() -> dict[str, int]:
    """All current reservations as ``{"subsystem.name": tag}`` (a copy)."""
    return dict(_RESERVED)


def subsystem_of(tag: int) -> str | None:
    """The subsystem range or infra block containing ``tag``, if any."""
    for name, (lo, hi) in {**SUBSYSTEM_RANGES, **INFRA_BLOCKS}.items():
        if lo <= tag < hi:
            return name
    return None
