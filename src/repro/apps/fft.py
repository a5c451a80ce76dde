"""Binary-exchange parallel FFT on a hypercube.

The decimation-in-frequency radix-2 FFT is the textbook hypercube
algorithm the AP1000 generation of machines was built for: with ``n``
coefficients block-distributed over ``p = 2**d`` processors, the first
``d`` butterfly stages pair elements on *different* processors (partner =
``rank ^ 2**(d-1-s)``, a single full-block exchange per stage) and the
remaining ``log2(n) - d`` stages are purely local.  Output emerges in
bit-reversed order and is permuted once the blocks are collected.

The parallel program is one SCL expression, :func:`fft_expression`:
``iterFor (log2 n)`` over the stages, a cross-processor stage being
``imap butterfly . align id (fetch (j ^ dist))`` and a local stage one
``imap butterfly``.  It has two renderings:

* :func:`fft_parallel` — the expression interpreted over a ParArray,
* :func:`fft_compiled` — the expression compiled onto the simulated
  hypercube, returning the run's virtual timing too.

:func:`fft_seq` is the same DIF algorithm sequentially (the reference).
All three agree with ``numpy.fft.fft`` to floating-point accuracy.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from repro.core import Block, partition
from repro.errors import SkeletonError
from repro.machine import AP1000, Hypercube, Machine, MachineSpec
from repro.machine.simulator import RunResult
from repro.plan.ir import base_fragment
from repro.util.validation import ilog2, is_power_of_two

__all__ = ["fft_seq", "fft_expression", "fft_parallel", "fft_compiled",
           "bit_reverse"]

#: Operations per element of one butterfly stage: complex multiply, add
#: and twiddle, charged by every stage's fragment.
_BUTTERFLY_OPS_PER_ELEM = 14.0


def bit_reverse(i: int, bits: int) -> int:
    """Reverse the low ``bits`` bits of ``i``."""
    out = 0
    for _ in range(bits):
        out = (out << 1) | (i & 1)
        i >>= 1
    return out


def _check_length(n: int, p: int) -> int:
    """``log2 n``, once ``n`` is a power of two with a coefficient per
    processor."""
    if not is_power_of_two(n):
        raise SkeletonError(f"FFT length must be a power of two, got {n}")
    if n < p:
        raise SkeletonError(f"need at least one coefficient per processor "
                            f"({n} < {p})")
    return ilog2(n)


def _unscramble(flat: np.ndarray, bits: int) -> np.ndarray:
    """Undo the DIF output's bit-reversed order."""
    out = np.empty_like(flat)
    for g in range(flat.size):
        out[bit_reverse(g, bits)] = flat[g]
    return out


def _butterfly_block(block: np.ndarray, g0: int, h: int, n: int,
                     is_low: bool | None = None,
                     partner: np.ndarray | None = None) -> np.ndarray:
    """One DIF stage on a contiguous block starting at global index ``g0``.

    With ``partner`` given (cross-processor stage), the whole block is one
    side of every butterfly: ``is_low`` selects ``a + b`` (low side) or
    ``(a - b) * w`` (high side).  Without, the stage is local: pairs at
    distance ``h`` inside the block.
    """
    m = block.size
    g = g0 + np.arange(m)
    if partner is not None:
        w = np.exp(-2j * np.pi * (g % h) / (2 * h))
        if is_low:
            return block + partner
        return (partner - block) * w  # partner holds the low-side values
    out = block.copy()
    idx = np.arange(m)
    low = idx[(g // h) % 2 == 0]
    high = low + h
    w = np.exp(-2j * np.pi * (g[low] % h) / (2 * h))
    a, b = out[low].copy(), out[high].copy()
    out[low] = a + b
    out[high] = (a - b) * w
    return out


def fft_seq(x: Sequence[complex] | np.ndarray) -> np.ndarray:
    """Sequential DIF FFT (the exact algorithm the parallel versions run)."""
    data = np.asarray(x, dtype=complex).copy()
    n = data.size
    bits = _check_length(n, 1)
    h = n // 2
    while h >= 1:
        data = _butterfly_block(data, 0, h, n)
        h //= 2
    return _unscramble(data, bits)


@functools.lru_cache(maxsize=None)
def fft_expression(n: int, d: int):
    """The binary-exchange FFT of ``n`` coefficients on ``2**d`` processors
    as one SCL expression over their blocks.

    ``iterFor (log2 n) stage``: stage ``s`` pairs coefficients ``h =
    n / 2**(s+1)`` apart.  While ``h`` spans whole blocks the partner
    block is fetched (``align id (fetch (j ^ dist))``) and each side of
    the butterfly computed from the pair; after that every stage is local
    to a block.  Each stage's fragment charges
    ``_BUTTERFLY_OPS_PER_ELEM`` per element of its block.

    Memoised on ``(n, d)``, so every compile after the first is a
    plan-cache hit.
    """
    from repro.scl import AlignFetch, IMap, IterFor, compose_nodes

    p = 1 << d
    m = n // p

    def stage(s: int):
        h = n >> (s + 1)
        if h < m:
            @base_fragment(ops=lambda blk: _BUTTERFLY_OPS_PER_ELEM
                           * np.size(blk))
            def butterfly(r, blk):
                return _butterfly_block(np.asarray(blk), r * m, h, n)

            return IMap(butterfly)
        dist = h // m

        @base_fragment(ops=lambda pair: _BUTTERFLY_OPS_PER_ELEM
                       * np.size(pair[0]))
        def butterfly_pair(r, pair):
            return _butterfly_block(
                np.asarray(pair[0]), r * m, h, n,
                is_low=(r // dist) % 2 == 0, partner=np.asarray(pair[1]))

        return compose_nodes(IMap(butterfly_pair),
                             AlignFetch(lambda j: j ^ dist))

    return IterFor(_check_length(n, p), stage)


def fft_parallel(x: Sequence[complex] | np.ndarray, d: int) -> np.ndarray:
    """:func:`fft_expression` interpreted on ``2**d`` virtual processors."""
    from repro.scl import evaluate

    data = np.asarray(x, dtype=complex)
    bits = _check_length(data.size, 1 << d)
    out = evaluate(fft_expression(data.size, d), partition(Block(1 << d), data))
    return _unscramble(np.concatenate(out.to_list()), bits)


def fft_compiled(
    x: Sequence[complex] | np.ndarray,
    d: int,
    *,
    spec: MachineSpec = AP1000,
) -> tuple[np.ndarray, RunResult]:
    """:func:`fft_expression` compiled onto the simulated ``d``-cube.

    Data is pre-distributed block-wise; the blocks are collected and put
    in natural order off the machine, so the run prices the butterfly
    stages alone.
    """
    from repro.scl.compile import run_expression

    data = np.asarray(x, dtype=complex)
    p = 1 << d
    bits = _check_length(data.size, p)
    out, res = run_expression(fft_expression(data.size, d),
                              np.split(data, p),
                              Machine(Hypercube(d), spec=spec))
    return _unscramble(np.concatenate(out), bits), res
