"""Communication skeletons (§2.2): bulk data movement between processors.

These operators are "the data-parallel counterpart of sequential loops which
rearrange array elements".  Two classes:

* **regular** — the destination pattern is uniform: :func:`rotate`,
  :func:`rotate_row`, :func:`rotate_col`, :func:`brdcast`,
  :func:`apply_brdcast`;
* **irregular** — the destination (or source) is an arbitrary function of
  the index: :func:`send` and :func:`fetch`.

``send`` models many-to-one delivery by accumulating a vector of arrivals at
each index; the paper stresses that "no ordering of the elements in the
vector may be assumed" — this implementation delivers in ascending source
order for reproducibility, but callers must treat the vector as a multiset
(the property-based tests do).
"""

from __future__ import annotations

import numbers
from typing import Any, Callable, Iterable

from repro.core.pararray import ParArray
from repro.errors import ConfigurationError, SkeletonError

__all__ = [
    "rotate",
    "rotate_row",
    "rotate_col",
    "brdcast",
    "apply_brdcast",
    "send",
    "fetch",
]


def _require_1d(pa: ParArray, who: str) -> int:
    if not isinstance(pa, ParArray):
        raise SkeletonError(f"{who} expects a ParArray, got {type(pa).__name__}")
    if pa.ndim != 1:
        raise SkeletonError(f"{who} requires a 1-D ParArray, got shape {pa.shape}")
    return pa.shape[0]


def _require_2d(pa: ParArray, who: str) -> tuple[int, int]:
    if not isinstance(pa, ParArray):
        raise SkeletonError(f"{who} expects a ParArray, got {type(pa).__name__}")
    if pa.ndim != 2:
        raise SkeletonError(f"{who} requires a 2-D ParArray, got shape {pa.shape}")
    return pa.shape  # type: ignore[return-value]


def rotate(k: int, pa: ParArray) -> ParArray:
    """Cyclic shift: ``rotate k A = <A[(i+k) mod n] | i>``.

    Positive ``k`` pulls each element from ``k`` places to the right, i.e.
    the array contents move ``k`` places left; ``rotate(-k)`` inverts
    ``rotate(k)``.
    """
    n = _require_1d(pa, "rotate")
    k = _integer(k, "rotate", "shift")
    return pa.with_items(lambda idx, _v: pa[(idx[0] + k) % n])


def _integer(value: Any, who: str, what: str) -> int:
    """``value`` as an int — any integral number is one, as it is to
    lowering — or a :class:`ConfigurationError` naming ``who``."""
    if type(value) is int:  # the common case, without the ABC check
        return value
    if not isinstance(value, numbers.Integral):
        raise ConfigurationError(f"{who}: {what} {value!r} is not an integer")
    return int(value)


def _shifted(at: int, shift: Any, n: int, who: str) -> int:
    """``(at + shift) mod n``, which must be an index."""
    return (at + _integer(shift, who, "shift")) % n


def rotate_row(df: Callable[[int], int], pa: ParArray) -> ParArray:
    """Rotate every row of an ``m x n`` grid: row ``i`` shifts by ``df(i)``.

    ``out[i, j] = A[i, (j + df(i)) mod n]`` — the distance function lets
    each row rotate by a different amount (Cannon's algorithm skews rows
    with ``df = lambda i: i``).
    """
    _m, n = _require_2d(pa, "rotate_row")
    return pa.with_items(lambda idx, _v: pa[
        (idx[0], _shifted(idx[1], df(idx[0]), n, "rotate_row"))])


def rotate_col(df: Callable[[int], int], pa: ParArray) -> ParArray:
    """Rotate every column: ``out[i, j] = A[(i + df(j)) mod m, j]``."""
    m, _n = _require_2d(pa, "rotate_col")
    return pa.with_items(lambda idx, _v: pa[
        (_shifted(idx[0], df(idx[1]), m, "rotate_col"), idx[1])])


def brdcast(a: Any, pa: ParArray) -> ParArray:
    """Broadcast ``a`` to all sites, aligned with the local data.

    ``brdcast a A = map (align_pair a) A``: every component becomes the
    pair ``(a, local)``.
    """
    if not isinstance(pa, ParArray):
        raise SkeletonError(f"brdcast expects a ParArray, got {type(pa).__name__}")
    return pa.with_items(lambda _i, v: (a, v))


def apply_brdcast(f: Callable[[Any], Any], i: Any, pa: ParArray) -> ParArray:
    """Apply ``f`` to the data at index ``i`` and broadcast the result.

    ``applybrdcast f i A = brdcast (f A[i]) A`` — e.g. compute the pivot on
    one processor, pair it with everyone's local data.
    """
    return brdcast(f(pa[i]), pa)


def send(f: Callable[[int], Iterable[int]], pa: ParArray) -> ParArray:
    """Irregular send: element ``k`` is delivered to every index in ``f(k)``.

    The result holds, at each index, the **vector of arrivals** (possibly
    empty, possibly many — the many-to-one case).  Arrivals are listed in
    ascending source order for determinism, but their order is semantically
    unspecified.
    """
    n = _require_1d(pa, "send")
    boxes: list[list[Any]] = [[] for _ in range(n)]
    for k in range(n):
        for dst in f(k):
            if not (0 <= dst < n):
                raise SkeletonError(
                    f"send: destination {dst} of element {k} out of range 0..{n - 1}")
            boxes[dst].append(pa[k])
    return ParArray(boxes, dist=None)


def fetch(f: Callable[[int], int], pa: ParArray) -> ParArray:
    """Irregular fetch: ``out[i] = A[f(i)]`` — the index function names the
    *source* of each element (one-to-one or one-to-many only)."""
    n = _require_1d(pa, "fetch")

    def pick(idx: tuple[int, ...], _v: Any) -> Any:
        src = _integer(f(idx[0]), "fetch", "source")
        if not (0 <= src < n):
            raise SkeletonError(
                f"fetch: source {src} for index {idx[0]} out of range 0..{n - 1}")
        return pa[src]

    return pa.with_items(pick, dist=None)
