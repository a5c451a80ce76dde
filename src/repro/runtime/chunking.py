"""Deterministic chunking helpers used by partition patterns, ``scan`` and apps."""

from __future__ import annotations

from typing import Sequence, TypeVar

from repro.errors import SkeletonError

__all__ = ["chunk_indices", "chunk_evenly"]

_T = TypeVar("_T")


def chunk_indices(n: int, parts: int) -> list[tuple[int, int]]:
    """Split ``range(n)`` into ``parts`` contiguous ``(start, stop)`` spans.

    The first ``n % parts`` spans get one extra element, so sizes differ by
    at most one.  Spans may be empty when ``parts > n``; they are still
    returned so the caller gets exactly ``parts`` spans.
    """
    if parts <= 0:
        raise SkeletonError(f"parts must be positive, got {parts}")
    if n < 0:
        raise SkeletonError(f"n must be non-negative, got {n}")
    base, extra = divmod(n, parts)
    spans: list[tuple[int, int]] = []
    start = 0
    for i in range(parts):
        size = base + (1 if i < extra else 0)
        spans.append((start, start + size))
        start += size
    return spans


def chunk_evenly(items: Sequence[_T], parts: int) -> list[Sequence[_T]]:
    """Split a sequence into ``parts`` contiguous chunks of near-equal size."""
    return [items[lo:hi] for lo, hi in chunk_indices(len(items), parts)]
