"""Expression graphs: render skeleton programs as DOT / networkx graphs.

Each node of the expression tree becomes a graph vertex labelled in SCL
notation; composition edges are annotated with their order of application.
Useful for documenting how a program looked before and after rewriting::

    from repro.scl.graph import to_dot, to_networkx
    print(to_dot(program))             # paste into graphviz
    g = to_networkx(program)           # analyse structurally
"""

from __future__ import annotations

from typing import Iterator

from repro.scl import nodes as N
from repro.scl.pretty import pretty

__all__ = ["to_dot", "to_networkx", "node_count", "communication_count"]


def _walk(node: N.Node) -> Iterator[tuple[int, N.Node, int | None, str]]:
    """Yield (id, node, parent_id, edge_label) in preorder."""
    counter = 0

    def go(n: N.Node, parent: int | None, label: str):
        nonlocal counter
        my_id = counter
        counter += 1
        yield (my_id, n, parent, label)
        if isinstance(n, N.Compose):
            for i, step in enumerate(n.steps):
                yield from go(step, my_id, f"step {len(n.steps) - i}")
        elif isinstance(n, N.Spmd):
            for i, stage in enumerate(n.stages):
                yield from go(stage, my_id, f"stage {i + 1}")
        else:
            for child in n.children():
                yield from go(child, my_id, "")

    yield from go(node, None, "")


def _label(node: N.Node) -> str:
    if isinstance(node, N.Compose):
        return "compose"
    if isinstance(node, N.Spmd):
        return "SPMD"
    if isinstance(node, N.Stage):
        return "stage"
    text = pretty(node)
    return text if len(text) <= 30 else text[:27] + "..."


def to_dot(node: N.Node, *, name: str = "scl") -> str:
    """Render an expression as a Graphviz DOT digraph."""
    lines = [f"digraph {name} {{", "  rankdir=TB;",
             '  node [shape=box, fontname="monospace"];']
    for my_id, n, parent, label in _walk(node):
        lines.append(f'  n{my_id} [label="{_label(n)}"];')
        if parent is not None:
            attr = f' [label="{label}"]' if label else ""
            lines.append(f"  n{parent} -> n{my_id}{attr};")
    lines.append("}")
    return "\n".join(lines)


def to_networkx(node: N.Node):
    """The expression tree as a ``networkx.DiGraph`` (vertices carry the
    SCL label under the ``"label"`` attribute)."""
    import networkx as nx

    g = nx.DiGraph()
    for my_id, n, parent, label in _walk(node):
        g.add_node(my_id, label=_label(n), kind=type(n).__name__)
        if parent is not None:
            g.add_edge(parent, my_id, label=label)
    return g


def node_count(node: N.Node) -> int:
    """Total number of AST vertices (Compose/Stage wrappers included)."""
    return sum(1 for _ in _walk(node))


_COMM_NODES = (N.Rotate, N.RotateRow, N.RotateCol, N.Fetch, N.AlignFetch,
               N.PermSend, N.SendNode, N.Brdcast, N.ApplyBrdcast,
               N.Redistribute, N.Partition, N.Gather)


def communication_count(node: N.Node) -> int:
    """How many communication skeletons the program applies (statically;
    iteration bodies counted once)."""
    return sum(1 for _id, n, _p, _l in _walk(node)
               if isinstance(n, _COMM_NODES))
