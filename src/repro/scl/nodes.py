"""AST for skeleton expressions.

An expression denotes a function from a :class:`~repro.core.pararray.ParArray`
to a ParArray (or, for reductions, to a scalar).  Programs are built by
composing nodes exactly as SCL composes skeletons::

    prog = compose_nodes(Fold(add), Map(square))        # fold add . map square
    value = evaluate(prog, par_array)

Nodes are immutable; opaque base-language callables compare by identity,
while :class:`~repro.util.functional.Composed` pipelines compare
structurally — so rewriting is purely syntactic and its soundness is
checked behaviourally by the test-suite.  A :class:`Brdcast` value and a
:class:`Farm` environment compare by identity too, and a :class:`Rotate`
shift and an :class:`ApplyBrdcast` root by type as well as value:
``1 == 1.0 == True``, but an equality-keyed cache must not serve one's
plan for the other.

Nested parallelism appears as a :class:`Map` whose function is itself a
*node*: ``Map(Spmd(...))`` applies a parallel operation to every component
(each a sub-ParArray created by :class:`Split`).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Callable, Union

from repro.core.partition import PartitionPattern
from repro.errors import RewriteError, SkeletonError

__all__ = [
    "Node", "Id", "Map", "IMap", "Fold", "Scan", "FoldrFused",
    "Rotate", "RotateRow", "RotateCol", "Fetch", "AlignFetch", "PermSend",
    "SendNode", "Brdcast", "ApplyBrdcast", "Redistribute", "Compose",
    "Stage", "Spmd", "Split", "Combine", "Partition", "Gather", "Farm",
    "IterFor", "compose_nodes",
]

Fn = Callable[..., Any]


@dataclasses.dataclass(frozen=True)
class Node:
    """Base class of all skeleton-expression nodes."""

    def children(self) -> tuple["Node", ...]:
        """Sub-expressions, for generic traversal."""
        return ()

    def replace_children(self, new: tuple["Node", ...]) -> "Node":
        """Rebuild this node with different sub-expressions."""
        if new != ():
            raise RewriteError(f"{type(self).__name__} has no children to replace")
        return self

    def __call__(self, value: Any) -> Any:
        """Evaluate this expression in the calling thread."""
        from repro.scl.interp import evaluate

        return evaluate(self, value)


@dataclasses.dataclass(frozen=True)
class Id(Node):
    """The identity expression (unit of composition; ``SPMD [] = id``)."""


@dataclasses.dataclass(frozen=True)
class Map(Node):
    """``map f``: apply ``f`` to every component.

    ``f`` may be an opaque base-language callable, or a :class:`Node` —
    in which case each component must itself be a ParArray and ``f`` is a
    nested parallel operation.
    """

    f: Union[Fn, Node]

    def children(self) -> tuple[Node, ...]:
        return (self.f,) if isinstance(self.f, Node) else ()

    def replace_children(self, new: tuple[Node, ...]) -> "Map":
        if isinstance(self.f, Node):
            (f,) = new
            return Map(f)
        return super().replace_children(new)  # type: ignore[return-value]


@dataclasses.dataclass(frozen=True)
class IMap(Node):
    """``imap f``: index-aware map — ``f(index, value)`` per component."""

    f: Fn


@dataclasses.dataclass(frozen=True)
class Fold(Node):
    """``fold op``: tree reduction with an associative operator.

    Reduces a ParArray to a scalar, so a ``Fold`` is only legal as the
    outermost (leftmost) step of a composition.
    """

    op: Fn


@dataclasses.dataclass(frozen=True)
class Scan(Node):
    """``scan op``: inclusive prefix reduction (associative operator)."""

    op: Fn


@dataclasses.dataclass(frozen=True)
class FoldrFused(Node):
    """A *sequential* right-fold with a fused combine-and-transform step.

    Semantics: ``x0 ⊕ (x1 ⊕ (... ⊕ xn))`` where ``a ⊕ b = op(g(a'), b)``
    precisely: ``FoldrFused(op, g)`` computes
    ``op(g x0, op(g x1, ... op(g x_{n-1}, g x_n)))``.

    This is the left-hand side of §4's **map distribution** law: because
    the fused function is not associative, the fold cannot parallelise.
    When ``op`` *is* associative (assert with ``op_associative=True``) the
    law rewrites it to ``fold op . map g``, which can.
    """

    op: Fn
    g: Fn
    op_associative: bool = False


@dataclasses.dataclass(frozen=True)
class Rotate(Node):
    """``rotate k``: cyclic shift of a 1-D array."""

    k: int

    def __eq__(self, other: object) -> bool:
        return type(other) is Rotate and _same_index(other.k, self.k)


@dataclasses.dataclass(frozen=True)
class RotateRow(Node):
    """``rotate_row df``: per-row cyclic shift of a 2-D grid."""

    df: Fn


@dataclasses.dataclass(frozen=True)
class RotateCol(Node):
    """``rotate_col df``: per-column cyclic shift of a 2-D grid."""

    df: Fn


@dataclasses.dataclass(frozen=True)
class Fetch(Node):
    """``fetch f``: ``out[i] = A[f(i)]`` — source-indexed data movement."""

    f: Fn


@dataclasses.dataclass(frozen=True)
class AlignFetch(Node):
    """``align id (fetch f)``: ``out[i] = (A[i], A[f(i)])``.

    The paper's recurring idiom of pairing local data with fetched remote
    data — ``getpartner`` (``align localData partnerData``) and ``wpivot``
    (``align x pivots``) in the hyperquicksort programs are both instances.
    Fetching from oneself (``f(i) == i``) pairs the local value with itself.
    """

    f: Fn


@dataclasses.dataclass(frozen=True)
class PermSend(Node):
    """``send f`` with a single-destination index map: ``out[f(k)] = A[k]``.

    ``f`` must be a permutation of the index space (checked at evaluation
    time); this is the form of ``send`` for which §4's communication
    algebra law ``send f . send g = send (f . g)`` is exact.
    """

    f: Fn


@dataclasses.dataclass(frozen=True)
class SendNode(Node):
    """General ``send f``: ``f(k)`` is the *set* of destinations of element
    ``k``; each index accumulates a vector of arrivals (many-to-one)."""

    f: Fn


@dataclasses.dataclass(frozen=True)
class Brdcast(Node):
    """``brdcast a``: pair a fixed value with every component."""

    a: Any

    def __eq__(self, other: object) -> bool:
        return type(other) is Brdcast and other.a is self.a


@dataclasses.dataclass(frozen=True)
class ApplyBrdcast(Node):
    """``applybrdcast f i``: broadcast ``f(A[i])`` paired with local data."""

    f: Fn
    i: Any

    def __eq__(self, other: object) -> bool:
        return type(other) is ApplyBrdcast and other.f == self.f \
            and _same_index(other.i, self.i)


def _same_index(a: Any, b: Any) -> bool:
    """``a == b`` with every number, and every coordinate of a tuple, of
    the same type."""
    if type(a) is not type(b):
        return False
    if type(a) is tuple:
        return len(a) == len(b) and all(map(_same_index, a, b))
    return a == b


@dataclasses.dataclass(frozen=True)
class Redistribute(Node):
    """``redistribution [f1, .., fn]``: move each component of an aligned
    configuration by its own movement, ``(f1 DA1, .., fn DAn)``.

    A movement is :class:`Id` (the component stays) or a single-source
    data movement — :class:`Rotate`, :class:`RotateRow`,
    :class:`RotateCol`, :class:`Fetch` or a permutation
    :class:`PermSend` — and at least one component moves.  Compiled, each
    moving component is its own exchange carrying that component alone,
    so the parts that stay never touch the wire (the arrow combinators'
    ``second`` / ``***``).
    """

    moves: tuple[Node, ...]

    def __post_init__(self) -> None:
        moves = tuple(self.moves)
        for move in moves:
            if not isinstance(move, _MOVEMENTS):
                raise SkeletonError(
                    f"redistribution: a movement is Id or one of "
                    f"{', '.join(m.__name__ for m in _MOVEMENTS[1:])}, "
                    f"got {move!r}")
        if all(isinstance(move, Id) for move in moves):
            raise SkeletonError(
                "redistribution: no component moves — that is Id()")
        object.__setattr__(self, "moves", moves)


_MOVEMENTS = (Id, Rotate, RotateRow, RotateCol, Fetch, PermSend)


@dataclasses.dataclass(frozen=True)
class Compose(Node):
    """Function composition of steps, applied **right to left**.

    ``Compose((f, g, h))(x) == f(g(h(x)))`` — matching SCL's ``f . g . h``.
    Use :func:`compose_nodes` to build one: it flattens nested compositions
    and drops identities so that composition is associative by construction.
    """

    steps: tuple[Node, ...]

    def children(self) -> tuple[Node, ...]:
        return self.steps

    def replace_children(self, new: tuple[Node, ...]) -> Node:
        return compose_nodes(*new)


@dataclasses.dataclass(frozen=True)
class Stage(Node):
    """One SPMD stage: an optional global operation (a sub-expression) and
    an optional flat local function farmed over the configuration.

    ``indexed=True`` applies the local function as ``imap`` (receiving the
    component index); this blocks the flattening law, whose soundness
    needs index-insensitive locals (see :data:`repro.scl.rules.SPMD_FLATTENING`).
    """

    global_: Node | None = None
    local: Fn | None = None
    indexed: bool = False

    def children(self) -> tuple[Node, ...]:
        return (self.global_,) if self.global_ is not None else ()

    def replace_children(self, new: tuple[Node, ...]) -> "Stage":
        if self.global_ is not None:
            (g,) = new
            return Stage(global_=g, local=self.local, indexed=self.indexed)
        return super().replace_children(new)  # type: ignore[return-value]


@dataclasses.dataclass(frozen=True)
class Spmd(Node):
    """``SPMD [stage1, stage2, ...]``: staged SPMD computation.

    Each stage farms its local function then applies its global operation;
    ``Spmd(())`` is the identity, as in the paper.
    """

    stages: tuple[Stage, ...]

    def __post_init__(self) -> None:
        if not all(isinstance(s, Stage) for s in self.stages):
            raise RewriteError("Spmd stages must be Stage nodes")

    def children(self) -> tuple[Node, ...]:
        return self.stages

    def replace_children(self, new: tuple[Node, ...]) -> "Spmd":
        if not all(isinstance(s, Stage) for s in new):
            raise RewriteError("Spmd children must remain Stage nodes")
        return Spmd(tuple(new))  # type: ignore[arg-type]


@dataclasses.dataclass(frozen=True)
class Split(Node):
    """``split P``: divide a configuration into sub-configurations."""

    pattern: PartitionPattern


@dataclasses.dataclass(frozen=True)
class Partition(Node):
    """``partition P``: divide a *sequential* array into a ParArray.

    The data-ingress end of a program: ``Compose((work, Partition(P)))``
    applied to a base-language array.  The inverse is :class:`Gather`.
    """

    pattern: PartitionPattern


@dataclasses.dataclass(frozen=True)
class Gather(Node):
    """``gather``: collect a distributed array back into a sequential one.

    With ``pattern=None`` the partition recorded on the array is inverted;
    an explicit pattern overrides it.  ``Gather . Partition P`` is the
    identity — the redistribution-elimination rewrite rule exploits this.
    """

    pattern: PartitionPattern | None = None


@dataclasses.dataclass(frozen=True)
class Combine(Node):
    """``combine``: flatten a nested ParArray (inverse of :class:`Split`)."""


@dataclasses.dataclass(frozen=True)
class Farm(Node):
    """``farm f env``: apply ``f(env, ·)`` to every component."""

    f: Fn
    env: Any

    def __eq__(self, other: object) -> bool:
        return type(other) is Farm and other.f == self.f \
            and other.env is self.env


@dataclasses.dataclass(frozen=True)
class IterFor(Node):
    """``iterFor n body``: apply ``body(i)`` (an expression family) for
    ``i = 0 .. n-1``.  The body is an opaque function from the iteration
    counter to a :class:`Node`, so per-iteration structure (e.g. pivoting
    on column ``i``) stays expressible."""

    n: int
    body: Callable[[int], Node]


def compose_nodes(*steps: Node) -> Node:
    """Smart constructor for composition (right-to-left application).

    Flattens nested :class:`Compose` nodes and removes :class:`Id`, so
    ``compose_nodes(a, compose_nodes(b, c)) == compose_nodes(a, b, c)`` —
    making composition associativity hold *structurally*, which is what
    lets the rewrite engine slide windows over chains.
    """
    flat: list[Node] = []
    for s in steps:
        if isinstance(s, Compose):
            flat.extend(s.steps)
        elif isinstance(s, Id):
            continue
        elif isinstance(s, Node):
            flat.append(s)
        else:
            raise RewriteError(f"compose_nodes expects Node arguments, got {s!r}")
    if not flat:
        return Id()
    if len(flat) == 1:
        return flat[0]
    return Compose(tuple(flat))
