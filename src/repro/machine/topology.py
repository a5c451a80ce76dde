"""Interconnect topologies.

A :class:`Topology` knows how many processors it connects, which pairs are
neighbours, and how many hops a message between two processors traverses.
The simulator charges ``per_hop_latency`` for each hop beyond the first, so
topology choice affects virtual time exactly as it affects a real
store-and-forward network.

Topologies provided:

* :class:`Hypercube` — the paper's sorting example targets a d-dimensional
  hypercube; processors are numbered so that neighbours differ in exactly
  one address bit and hop count is the Hamming distance.
* :class:`Mesh2D` — the AP1000's physical T-net was a 2-D torus; supports
  both torus and non-wrapping mesh variants.
* :class:`Ring` — 1-D torus.
* :class:`FullyConnected` — every pair one hop apart (an idealisation,
  also a good model for modern fat-tree networks at this scale).
* :class:`Copies` — k disjoint copies of another topology side by side
  (the machine k independent runs share, :meth:`Machine.copies
  <repro.machine.simulator.Machine.copies>`).
"""

from __future__ import annotations

import abc
from typing import Iterator

from repro.errors import TopologyError
from repro.util.validation import ilog2, require_power_of_two

__all__ = ["Topology", "Hypercube", "Ring", "Mesh2D", "FullyConnected",
           "Copies"]


class Topology(abc.ABC):
    """Abstract interconnect: a connected graph over ``size`` processors."""

    def __init__(self, size: int):
        if not isinstance(size, int) or isinstance(size, bool) or size <= 0:
            raise TopologyError(f"topology size must be a positive int, got {size!r}")
        self._size = size
        self._hop_rows: dict[int, list[int]] = {}
        self._diameter: int | None = None

    @property
    def size(self) -> int:
        """Number of processors."""
        return self._size

    def check_node(self, node: int) -> None:
        """Raise :class:`TopologyError` unless ``node`` is a valid address."""
        if not isinstance(node, int) or isinstance(node, bool) or not (0 <= node < self._size):
            raise TopologyError(f"node {node!r} out of range for {self!r}")

    @abc.abstractmethod
    def hops(self, src: int, dst: int) -> int:
        """Shortest-path length between ``src`` and ``dst`` (0 if equal)."""

    def _hops_nocheck(self, src: int, dst: int) -> int:
        """``hops`` for already-validated addresses; subclasses override."""
        return self.hops(src, dst)

    def hop_row(self, src: int) -> list[int]:
        """Hop counts from ``src`` to every node, cached per source.

        The simulator's send path indexes these rows instead of calling
        the validated :meth:`hops` per message; rows are built once per
        source actually used, so memory stays O(p · active senders).
        """
        row = self._hop_rows.get(src)
        if row is None:
            self.check_node(src)
            row = self._hop_rows[src] = self._hop_row_build(src)
        return row

    def _hop_row_build(self, src: int) -> list[int]:
        """Build one hop row; subclasses override with a direct listcomp
        (one Python-level call per row instead of one per entry)."""
        nocheck = self._hops_nocheck
        return [nocheck(src, dst) for dst in range(self._size)]

    @abc.abstractmethod
    def neighbors(self, node: int) -> tuple[int, ...]:
        """Directly connected processors of ``node``."""

    def diameter(self) -> int:
        """Maximum hop count over all pairs (computed once, then cached).

        Subclasses with a closed form override this entirely; the generic
        all-pairs scan runs at most once per topology instance.
        """
        if self._diameter is None:
            size = self._size
            self._diameter = max(
                self._hops_nocheck(a, b)
                for a in range(size) for b in range(size)
            ) if size > 1 else 0
        return self._diameter

    def edges(self) -> Iterator[tuple[int, int]]:
        """Undirected edge list (each edge once, ``a < b``)."""
        for a in range(self._size):
            for b in self.neighbors(a):
                if a < b:
                    yield (a, b)

    def to_networkx(self):  # pragma: no cover - convenience, needs networkx
        """The topology as a ``networkx.Graph`` (for visualisation/analysis)."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(range(self._size))
        g.add_edges_from(self.edges())
        return g

    def __repr__(self) -> str:
        return f"{type(self).__name__}(size={self._size})"


class Hypercube(Topology):
    """d-dimensional binary hypercube on ``2**d`` processors.

    Node addresses are d-bit integers; two nodes are neighbours iff their
    addresses differ in exactly one bit, and the hop count between any two
    nodes is the Hamming distance of their addresses.  ``partner(node, dim)``
    gives the neighbour across dimension ``dim`` — the ``xor(i, 2**d)``
    partner function of the paper's hyperquicksort.
    """

    _SHARED_ROWS: dict[int, dict[int, list[int]]] = {}

    def __init__(self, dim: int):
        if not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
            raise TopologyError(f"hypercube dimension must be a non-negative int, got {dim!r}")
        super().__init__(1 << dim)
        self._dim = dim
        # Routing depends only on ``dim``: share the lazily built hop rows
        # across instances so repeated simulations don't rebuild them.
        self._hop_rows = Hypercube._SHARED_ROWS.setdefault(dim, {})

    @classmethod
    def of_size(cls, size: int) -> "Hypercube":
        """Hypercube with ``size`` nodes (must be a power of two)."""
        require_power_of_two(size, "hypercube size", TopologyError)
        return cls(ilog2(size))

    @property
    def dim(self) -> int:
        """Number of dimensions (log2 of size)."""
        return self._dim

    def partner(self, node: int, dim: int) -> int:
        """The neighbour of ``node`` across dimension ``dim``."""
        self.check_node(node)
        if not (0 <= dim < max(self._dim, 1)) or self._dim == 0:
            raise TopologyError(f"dimension {dim} out of range for {self!r}")
        return node ^ (1 << dim)

    def hops(self, src: int, dst: int) -> int:
        self.check_node(src)
        self.check_node(dst)
        return (src ^ dst).bit_count()

    def _hops_nocheck(self, src: int, dst: int) -> int:
        return (src ^ dst).bit_count()

    def _hop_row_build(self, src: int) -> list[int]:
        return [(src ^ dst).bit_count() for dst in range(self._size)]

    def neighbors(self, node: int) -> tuple[int, ...]:
        self.check_node(node)
        return tuple(node ^ (1 << d) for d in range(self._dim))

    def diameter(self) -> int:
        return self._dim

    def __repr__(self) -> str:
        return f"Hypercube(dim={self._dim}, size={self._size})"


class Ring(Topology):
    """1-D torus: node ``i`` connects to ``(i±1) mod size``."""

    _SHARED_ROWS: dict[int, dict[int, list[int]]] = {}

    def __init__(self, size: int):
        super().__init__(size)
        # Routing depends only on ``size``; share rows across instances.
        self._hop_rows = Ring._SHARED_ROWS.setdefault(size, {})

    def hops(self, src: int, dst: int) -> int:
        self.check_node(src)
        self.check_node(dst)
        d = abs(src - dst)
        return min(d, self._size - d)

    def _hops_nocheck(self, src: int, dst: int) -> int:
        d = abs(src - dst)
        return min(d, self._size - d)

    def _hop_row_build(self, src: int) -> list[int]:
        size = self._size
        return [min(d, size - d) for d in (abs(src - dst) for dst in range(size))]

    def neighbors(self, node: int) -> tuple[int, ...]:
        self.check_node(node)
        if self._size == 1:
            return ()
        if self._size == 2:
            return (1 - node,)
        return ((node - 1) % self._size, (node + 1) % self._size)

    def diameter(self) -> int:
        return self._size // 2


class Mesh2D(Topology):
    """2-D mesh of ``rows x cols`` processors, optionally wrapping (torus).

    Node ``i`` sits at ``(i // cols, i % cols)``; hop count is the Manhattan
    distance (with wrap-around per axis when ``torus=True``).  The AP1000's
    T-net was a 2-D torus, so ``Mesh2D(r, c, torus=True)`` is the most
    faithful model of the paper's platform.
    """

    def __init__(self, rows: int, cols: int, *, torus: bool = True):
        for name, v in (("rows", rows), ("cols", cols)):
            if not isinstance(v, int) or isinstance(v, bool) or v <= 0:
                raise TopologyError(f"Mesh2D {name} must be a positive int, got {v!r}")
        super().__init__(rows * cols)
        self._rows = rows
        self._cols = cols
        self._torus = torus
        # Routing depends only on the mesh parameters; share rows.
        self._hop_rows = Mesh2D._SHARED_ROWS.setdefault((rows, cols, torus), {})

    _SHARED_ROWS: dict[tuple[int, int, bool], dict[int, list[int]]] = {}

    @property
    def rows(self) -> int:
        return self._rows

    @property
    def cols(self) -> int:
        return self._cols

    @property
    def torus(self) -> bool:
        return self._torus

    def coords(self, node: int) -> tuple[int, int]:
        """(row, col) of a node address."""
        self.check_node(node)
        return divmod(node, self._cols)

    def node_at(self, row: int, col: int) -> int:
        """Node address of (row, col)."""
        if not (0 <= row < self._rows and 0 <= col < self._cols):
            raise TopologyError(f"coords ({row},{col}) out of range for {self!r}")
        return row * self._cols + col

    def _axis_dist(self, a: int, b: int, extent: int) -> int:
        d = abs(a - b)
        return min(d, extent - d) if self._torus else d

    def hops(self, src: int, dst: int) -> int:
        (r1, c1), (r2, c2) = self.coords(src), self.coords(dst)
        return self._axis_dist(r1, r2, self._rows) + self._axis_dist(c1, c2, self._cols)

    def _hops_nocheck(self, src: int, dst: int) -> int:
        cols = self._cols
        r1, c1 = divmod(src, cols)
        r2, c2 = divmod(dst, cols)
        return self._axis_dist(r1, r2, self._rows) + self._axis_dist(c1, c2, cols)

    def diameter(self) -> int:
        # Closed form: the farthest pair is extremal on both axes
        # independently — half the extent per axis with wrap-around,
        # the full extent minus one without.
        if self._torus:
            return self._rows // 2 + self._cols // 2
        return (self._rows - 1) + (self._cols - 1)

    def neighbors(self, node: int) -> tuple[int, ...]:
        r, c = self.coords(node)
        out: list[int] = []
        for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
            nr, nc = r + dr, c + dc
            if self._torus:
                nr %= self._rows
                nc %= self._cols
            elif not (0 <= nr < self._rows and 0 <= nc < self._cols):
                continue
            cand = self.node_at(nr, nc)
            if cand != node and cand not in out:
                out.append(cand)
        return tuple(out)

    def __repr__(self) -> str:
        kind = "torus" if self._torus else "mesh"
        return f"Mesh2D({self._rows}x{self._cols} {kind})"


class FullyConnected(Topology):
    """Complete graph: every distinct pair is one hop apart."""

    _SHARED_ROWS: dict[int, dict[int, list[int]]] = {}

    def __init__(self, size: int):
        super().__init__(size)
        # Routing depends only on ``size``; share rows across instances.
        self._hop_rows = FullyConnected._SHARED_ROWS.setdefault(size, {})

    def hops(self, src: int, dst: int) -> int:
        self.check_node(src)
        self.check_node(dst)
        return 0 if src == dst else 1

    def _hops_nocheck(self, src: int, dst: int) -> int:
        return 0 if src == dst else 1

    def _hop_row_build(self, src: int) -> list[int]:
        row = [1] * self._size
        row[src] = 0
        return row

    def neighbors(self, node: int) -> tuple[int, ...]:
        self.check_node(node)
        return tuple(n for n in range(self._size) if n != node)

    def diameter(self) -> int:
        return 1 if self._size > 1 else 0


class Copies(Topology):
    """``copies`` disjoint copies of ``base`` side by side.

    Processor ``c·m + j`` is processor ``j`` of copy ``c`` (``m =
    base.size``); within a copy the routes are ``base``'s, and no route
    joins two copies — a partitioned machine, each partition running its
    own job.  A walk on copies reads ``base``'s own hop rows, processor
    ``c·m + j`` the row of ``j`` (:class:`repro.machine.lockstep.Lockstep`),
    so the copies build no row of their own.
    """

    def __init__(self, base: Topology, copies: int):
        super().__init__(base.size * copies)
        self.base = base
        self.copies = copies

    def hops(self, src: int, dst: int) -> int:
        self.check_node(src)
        self.check_node(dst)
        m = self.base.size
        if src // m != dst // m:
            raise TopologyError(
                f"no route from {src} to {dst}: they are in different "
                f"copies of {self.base!r}")
        return self.base.hops(src % m, dst % m)

    def neighbors(self, node: int) -> tuple[int, ...]:
        self.check_node(node)
        m = self.base.size
        first = node - node % m
        return tuple(first + n for n in self.base.neighbors(node % m))

    def diameter(self) -> int:
        """The longest route within a copy (none joins two)."""
        return self.base.diameter()

    def __repr__(self) -> str:
        return f"Copies({self.base!r}, {self.copies})"
