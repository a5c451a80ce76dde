"""Host-speed normalisation and order statistics.

Host time on the authoring VM swings up to ~1.7x between minutes and
switches speed several times a second; CPU time is no steadier than wall
time.  Every timed iteration is therefore bracketed by runs of a fixed
reference kernel, and its wall time is rescaled to "milliseconds on a
host that runs the reference kernel in ``REF_NOMINAL_MS``".

The kernel has three phases because the stack under test slows down
differently from plain interpreter code when the host is contended: an
int/dict loop (bytecode), sorts of a fixed array (numpy bulk work), and
many tiny numpy operations (C-extension dispatch and small allocations,
which is where the plan and engine layers spend their time).  Measured
over eight 8 s runs per workload, the loop alone left a run-to-run
coefficient of variation of 1.8-8.8% in the normalised medians; adding
the tiny-operation phase at about equal weight brought it to 1.7-4.5%.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Frozen scale constant: roughly the reference kernel's run time on the
#: authoring host in its fast state.  Only ratios between runs matter, so
#: this is never re-tuned — changing it would rescale every recorded number.
REF_NOMINAL_MS = 7.0

_REF_STEPS = 30_000
_REF_SORTS = 10
_REF_KEYS = 20_000
_REF_TINY_OPS = 2_400


class ReferenceKernel:
    """A fixed unit of work whose run time measures current host speed."""

    def __init__(self) -> None:
        self._keys = np.random.default_rng(0).integers(
            0, 2**31, size=_REF_KEYS).astype(np.int32)
        self._small = np.arange(64.0)

    def __call__(self) -> float:
        """Run the kernel once; returns its wall time in milliseconds."""
        keys, small = self._keys, self._small
        table: dict[int, int] = {}
        acc = 0
        t0 = time.perf_counter()
        for i in range(_REF_STEPS):
            acc = (acc * 31 + i) & 0xFFFF
            table[acc & 0xFF] = acc
        for _ in range(_REF_SORTS):
            np.sort(keys)
        for _ in range(_REF_TINY_OPS):
            shifted = small + 1.0
            shifted[shifted > 3.0]
        return (time.perf_counter() - t0) * 1e3

    def sample(self, at_least_ms: float) -> list[float]:
        """Run the kernel until its runs add up to ``at_least_ms`` (once at
        least); returns each run's time."""
        runs = [self()]
        total = runs[0]
        while total < at_least_ms:
            runs.append(self())
            total += runs[-1]
        return runs


def normalise(wall_ms: float, ref_ms: list[float]) -> float:
    """``wall_ms`` rescaled by the reference runs that bracket it."""
    return wall_ms * REF_NOMINAL_MS * len(ref_ms) / sum(ref_ms)


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single sample is its own quartiles, and no
    sample at all (every iteration failed) reads 0."""
    if len(values) < 2:
        v = float(values[0]) if values else 0.0
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


#: Consecutive blocks a timed series is cut into to judge how far its
#: median could have moved (see :func:`summary`).
SPREAD_BLOCKS = 8


def summary(values: list[float], unit: str) -> dict:
    """The record every reported metric carries.

    ``value`` is the median, ``q1``/``q3`` the quartiles of the samples and
    ``n`` their number.  ``spread`` estimates how far the median itself
    moves from run to run, as a share of it: the distance between the
    quartiles of the medians of ``SPREAD_BLOCKS`` consecutive blocks.
    Single iterations scatter far more than that (15% on the authoring
    host), and in bursts, so neither their quartiles nor a standard error
    that assumes independence says it.
    """
    q1, q2, q3 = quartiles(values)
    spread = 0.0
    size = len(values) // SPREAD_BLOCKS
    if size >= 2 and q2:
        blocks = [statistics.median(values[i * size:(i + 1) * size])
                  for i in range(SPREAD_BLOCKS)]
        b1, _, b3 = quartiles(blocks)
        spread = (b3 - b1) / abs(q2)
    return {"value": q2, "unit": unit, "q1": q1, "q3": q3, "n": len(values),
            "spread": spread}
