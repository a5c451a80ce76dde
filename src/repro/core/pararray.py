"""The distributed parallel array — SCL's underlying parallel data structure.

The paper types distributed arrays as ``ParArray index τ``: a collection of
elements of type ``τ`` addressed by a (possibly multi-dimensional) processor
index.  Each element conceptually lives on one virtual processor; nesting a
``ParArray`` inside a ``ParArray`` expresses processor *groups* ("an element
of a nested array corresponds to the concept of a group in MPI"), and leaves
hold arbitrary sequential base-language data (``SeqArray`` — here NumPy
arrays, lists, or any Python value).

:class:`ParArray` is immutable: skeletons always build new arrays, which is
what makes the transformation laws of §4 equational.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Iterator, Mapping, Sequence, TypeVar, Union

from repro.errors import ConfigurationError

__all__ = ["ParArray", "Index", "normalize_index"]

_T = TypeVar("_T")

#: A processor index: an int for 1-D arrays or a tuple for grids.
Index = Union[int, tuple[int, ...]]


def normalize_index(index: Index) -> tuple[int, ...]:
    """Coerce an index to its canonical tuple form (``3`` → ``(3,)``)."""
    if isinstance(index, tuple):
        return index
    if isinstance(index, int) and not isinstance(index, bool):
        return (index,)
    raise ConfigurationError(f"invalid ParArray index {index!r}")


class ParArray:
    """An immutable distributed array over a dense grid of virtual processors.

    ``shape`` gives the processor-grid extents — ``(p,)`` for a vector of
    ``p`` components, ``(r, c)`` for an ``r x c`` grid.  Every grid point
    holds exactly one element.  Construct from a sequence (1-D), a nested
    list matching ``shape``, or an explicit ``{index: value}`` mapping::

        ParArray([a, b, c])                     # shape (3,)
        ParArray([[a, b], [c, d]])              # shape (2, 2) if shape given
        ParArray({(0, 0): a, (0, 1): b}, shape=(1, 2))

    Elements are arbitrary; a nested :class:`ParArray` element represents a
    processor group (used by ``split``/``combine`` and nested SPMD).
    """

    __slots__ = ("_shape", "_data", "dist")

    def __init__(
        self,
        items: Union[Sequence[Any], Mapping[Index, Any]],
        shape: tuple[int, ...] | None = None,
        *,
        dist: Any = None,
    ):
        if isinstance(items, ParArray):
            self._shape = items._shape
            self._data = items._data
            self.dist = items.dist if dist is None else dist
            return
        if isinstance(items, Mapping):
            if shape is None:
                raise ConfigurationError("mapping construction requires an explicit shape")
            data = {normalize_index(k): v for k, v in items.items()}
        else:
            items = list(items)
            if shape is None:
                shape = (len(items),)
            if len(shape) == 1:
                data = {(i,): v for i, v in enumerate(items)}
            elif len(shape) == 2:
                rows, cols = shape
                if len(items) != rows or any(len(row) != cols for row in items):
                    raise ConfigurationError(
                        f"nested list does not match shape {shape}")
                data = {(i, j): items[i][j] for i in range(rows) for j in range(cols)}
            else:
                raise ConfigurationError(
                    f"sequence construction supports 1-D/2-D shapes, got {shape}")
        if not all(isinstance(d, int) and d > 0 for d in shape):
            raise ConfigurationError(f"invalid ParArray shape {shape!r}")
        expected = set(_grid(shape))
        if set(data) != expected:
            missing = sorted(expected - set(data))[:3]
            extra = sorted(set(data) - expected)[:3]
            raise ConfigurationError(
                f"indices do not cover shape {shape}: missing {missing}, extra {extra}")
        self._shape = tuple(shape)
        self._data = data
        #: Optional distribution metadata (the PartitionPattern that built
        #: this array), consulted by ``gather`` to invert the partition.
        self.dist = dist

    # ---------------------------------------------------------------- basics

    @property
    def shape(self) -> tuple[int, ...]:
        """Processor-grid extents."""
        return self._shape

    @property
    def ndim(self) -> int:
        """Number of grid dimensions."""
        return len(self._shape)

    @property
    def size(self) -> int:
        """Total number of components (= number of virtual processors)."""
        n = 1
        for d in self._shape:
            n *= d
        return n

    def __len__(self) -> int:
        return self._shape[0]

    def indices(self) -> Iterator[tuple[int, ...]]:
        """All grid indices in row-major order."""
        return _grid(self._shape)

    def __getitem__(self, index: Index) -> Any:
        key = normalize_index(index)
        try:
            return self._data[key]
        except KeyError:
            raise ConfigurationError(
                f"index {index!r} out of range for shape {self._shape}") from None

    def __iter__(self) -> Iterator[Any]:
        """Components in row-major index order."""
        return (self._data[idx] for idx in _grid(self._shape))

    def __contains__(self, value: Any) -> bool:
        return any(v is value or v == value for v in self)

    # ------------------------------------------------------------ conversion

    def to_list(self) -> list[Any]:
        """Components as a flat list in row-major order."""
        return list(self)

    def to_nested_list(self) -> list[Any]:
        """Components as a nested list mirroring ``shape`` (2-D only)."""
        if self.ndim == 1:
            return self.to_list()
        if self.ndim == 2:
            r, c = self._shape
            return [[self._data[(i, j)] for j in range(c)] for i in range(r)]
        raise ConfigurationError(f"to_nested_list supports <=2-D, got {self.ndim}-D")

    # ---------------------------------------------------------- construction

    def with_items(self, fn: Callable[[tuple[int, ...], Any], Any], *,
                   dist: Any = "inherit") -> "ParArray":
        """A new array of the same shape with ``fn(index, value)`` elements.

        This is the single primitive every elementary skeleton reduces to.
        ``dist`` defaults to inheriting this array's distribution metadata.
        """
        out = ParArray(
            {idx: fn(idx, v) for idx, v in self._data.items()},
            self._shape,
            dist=self.dist if dist == "inherit" else dist,
        )
        return out

    def replace(self, index: Index, value: Any) -> "ParArray":
        """A copy with one component replaced."""
        key = normalize_index(index)
        if key not in self._data:
            raise ConfigurationError(
                f"index {index!r} out of range for shape {self._shape}")
        data = dict(self._data)
        data[key] = value
        return ParArray(data, self._shape, dist=self.dist)

    # -------------------------------------------------------------- equality

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ParArray):
            return NotImplemented
        if self._shape != other._shape:
            return False
        return all(_values_equal(self._data[i], other._data[i]) for i in self.indices())

    def __hash__(self) -> int:  # pragma: no cover - explicit unhashability
        raise TypeError("ParArray is not hashable")

    def __repr__(self) -> str:
        if self.ndim == 1 and self.size <= 8:
            return f"ParArray({self.to_list()!r})"
        return f"ParArray(shape={self._shape}, size={self.size})"


def _grid(shape: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Row-major iteration over a dense grid (``()`` once for no axes)."""
    return itertools.product(*map(range, shape))


def _values_equal(a: Any, b: Any) -> bool:
    """Structural equality that tolerates NumPy arrays as leaves."""
    import numpy as np

    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        try:
            return bool(np.array_equal(np.asarray(a), np.asarray(b)))
        except (TypeError, ValueError):
            return False
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(_values_equal(x, y) for x, y in zip(a, b))
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_values_equal(x, y) for x, y in zip(a, b))
    result = a == b
    return bool(result)
