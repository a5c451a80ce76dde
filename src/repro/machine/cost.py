"""Machine cost models.

A :class:`MachineSpec` captures the handful of constants a latency/bandwidth
(Hockney-style) performance model needs:

* ``flop_time`` — seconds per elementary scalar operation (comparison, add,
  multiply) of base-language sequential code,
* ``latency`` — fixed startup cost per message, seconds,
* ``bandwidth`` — sustained transfer rate, bytes/second,
* ``per_hop_latency`` — extra latency per additional network hop,
* ``send_overhead`` / ``recv_overhead`` — CPU time charged to the sender /
  receiver per message (software overhead of the messaging layer),
* ``word_bytes`` — size of one data element on the wire.

The message cost of sending ``n`` bytes across ``h`` hops is::

    latency + per_hop_latency * (h - 1) + n / bandwidth

Presets
-------

``AP1000``
    Calibrated to the Fujitsu AP1000 the paper used: 25 MHz SPARC cells
    (a few MFLOP/s of compiled Fortran), a 25 MB/s T-net with tens of
    microseconds of software latency per message.  These constants give
    sorting runtimes and speedups of the same order and shape as the paper's
    Table 1 / Figure 3.

``MODERN_CLUSTER``
    A contemporary commodity cluster (for "does the shape survive on modern
    constants" ablations).

``PERFECT``
    Zero-cost communication: isolates pure computation/load-balance effects.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from typing import Any

import numpy as np

from repro.errors import MachineError

__all__ = [
    "MachineSpec",
    "AP1000",
    "MODERN_CLUSTER",
    "PERFECT",
    "SPECS",
    "estimate_nbytes",
]


@dataclasses.dataclass(frozen=True)
class MachineSpec:
    """Constants of the latency/bandwidth machine model (see module docs)."""

    name: str = "generic"
    flop_time: float = 1e-7
    latency: float = 50e-6
    bandwidth: float = 25e6
    per_hop_latency: float = 5e-6
    send_overhead: float = 10e-6
    recv_overhead: float = 10e-6
    word_bytes: int = 8

    def __post_init__(self) -> None:
        for field in ("flop_time", "latency", "per_hop_latency",
                      "send_overhead", "recv_overhead"):
            value = getattr(self, field)
            if not (isinstance(value, numbers.Real) and value >= 0 and math.isfinite(value)):
                raise MachineError(f"MachineSpec.{field} must be a finite non-negative real, got {value!r}")
        if not (isinstance(self.bandwidth, numbers.Real) and self.bandwidth > 0):
            raise MachineError(f"MachineSpec.bandwidth must be positive, got {self.bandwidth!r}")
        if not (isinstance(self.word_bytes, int) and self.word_bytes > 0):
            raise MachineError(f"MachineSpec.word_bytes must be a positive int, got {self.word_bytes!r}")

    def transfer_time(self, nbytes: float, hops: int = 1) -> float:
        """Wire time for ``nbytes`` over ``hops`` network hops."""
        if nbytes < 0:
            raise MachineError(f"nbytes must be non-negative, got {nbytes}")
        if hops < 1:
            raise MachineError(f"hops must be >= 1, got {hops}")
        return self.latency + self.per_hop_latency * (hops - 1) + nbytes / self.bandwidth

    def compute_time(self, ops: float) -> float:
        """CPU time for ``ops`` elementary base-language operations."""
        if ops < 0:
            raise MachineError(f"ops must be non-negative, got {ops}")
        return ops * self.flop_time

    def words(self, n: int) -> int:
        """Bytes occupied by ``n`` data elements."""
        return n * self.word_bytes

    def replace(self, **changes: Any) -> "MachineSpec":
        """A copy of this spec with some fields changed."""
        return dataclasses.replace(self, **changes)


#: Fujitsu AP1000-class constants (the paper's evaluation platform).
AP1000 = MachineSpec(
    name="AP1000",
    flop_time=4e-7,        # ~2.5 Mop/s of compiled sequential code per cell
    latency=100e-6,        # T-net software send/recv latency
    bandwidth=25e6,        # 25 MB/s T-net link bandwidth
    per_hop_latency=5e-6,
    send_overhead=25e-6,
    recv_overhead=25e-6,
    word_bytes=4,          # 32-bit integers/reals, as the Fortran code used
)

#: Commodity cluster with ~100x faster CPUs and network than the AP1000.
MODERN_CLUSTER = MachineSpec(
    name="modern-cluster",
    flop_time=1e-9,
    latency=2e-6,
    bandwidth=10e9,
    per_hop_latency=0.2e-6,
    send_overhead=0.5e-6,
    recv_overhead=0.5e-6,
    word_bytes=8,
)

#: Free communication: isolates computation and load balance.
PERFECT = MachineSpec(
    name="perfect",
    flop_time=1e-7,
    latency=0.0,
    bandwidth=float("1e30"),
    per_hop_latency=0.0,
    send_overhead=0.0,
    recv_overhead=0.0,
    word_bytes=8,
)

#: The presets by the name every command line's ``--spec`` takes.
SPECS = {"ap1000": AP1000, "modern": MODERN_CLUSTER, "perfect": PERFECT}


#: Scalar types known to cost exactly one word each.  Seeded with the
#: built-ins; NumPy scalar types (and any other ``numbers.Number``
#: registrant) are added on first sight so homogeneous lists of them take
#: the flat fast path too.
_NUMERIC_SCALAR_TYPES: set[type] = {int, float, bool, complex}


def estimate_nbytes(payload: Any, word_bytes: int = 8) -> int:
    """Estimate the wire size of a message payload.

    NumPy arrays, ``bytes``/``bytearray`` and ``memoryview`` objects report
    their exact buffer size; scalars cost one word; sequences cost one word
    per element (recursively for nesting); ``None`` and other opaque
    objects cost one word.  This is deliberately simple — programs that
    care pass an explicit ``nbytes`` to ``send``.

    A flat list or tuple whose elements are all the same numeric type is
    costed as ``len * word_bytes`` directly (identical to the recursive
    definition) without the per-element recursion, and a tuple that
    directly holds an ndarray (every partner exchange of the compiled
    sort) is summed on the spot.
    """
    if type(payload) is float:  # the commonest scalar, before the ABCs
        return word_bytes
    if isinstance(payload, np.ndarray):
        return int(payload.nbytes)
    if type(payload) is tuple:
        # Before the scalar/str ABC checks, none of which a tuple can pass.
        ndarray = np.ndarray
        for item in payload:
            if type(item) is ndarray:
                # the walk's sum, without a call per array
                total = 0
                for x in payload:
                    total += (x.nbytes if type(x) is ndarray
                              else estimate_nbytes(x, word_bytes))
                return total if total > word_bytes else word_bytes
        return _estimate_walk(payload, word_bytes)
    if isinstance(payload, (bool, numbers.Number)):
        return word_bytes
    if payload is None:
        return word_bytes
    if isinstance(payload, (str, bytes, bytearray)):
        return max(len(payload), 1)
    if isinstance(payload, memoryview):
        return max(payload.nbytes, 1)
    return _estimate_walk(payload, word_bytes)


def _estimate_walk(payload: Any, word_bytes: int) -> int:
    """The recursive costing walk behind :func:`estimate_nbytes`."""
    if isinstance(payload, (list, tuple, set, frozenset)):
        if payload and isinstance(payload, (list, tuple)):
            t0 = type(payload[0])
            if t0 not in _NUMERIC_SCALAR_TYPES and isinstance(payload[0], numbers.Number):
                _NUMERIC_SCALAR_TYPES.add(t0)
            if t0 in _NUMERIC_SCALAR_TYPES and all(type(x) is t0 for x in payload):
                return len(payload) * word_bytes
        return max(word_bytes,
                   sum(estimate_nbytes(item, word_bytes) for item in payload))
    if isinstance(payload, dict):
        return max(word_bytes,
                   sum(estimate_nbytes(k, word_bytes) + estimate_nbytes(v, word_bytes)
                       for k, v in payload.items()))
    return word_bytes
