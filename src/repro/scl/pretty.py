"""Human-readable rendering of skeleton expressions.

``pretty`` prints expressions in the paper's functional notation, e.g.
``fold (+) . map square`` or
``SPMD [(gf . map gf2 . split Block(4), lf)]``, which is how rewrite traces
and optimisation reports display programs.
"""

from __future__ import annotations

from typing import Any

from repro.scl import nodes as N
from repro.util.functional import Composed

__all__ = ["pretty"]


def _fn_name(f: Any) -> str:
    if isinstance(f, N.Node):
        return f"({pretty(f)})"
    if isinstance(f, Composed):
        return "(" + " . ".join(_fn_name(p) for p in f.parts) + ")"
    name = getattr(f, "__name__", None)
    if name and name != "<lambda>":
        return name
    return "<fn>"


def pretty(node: N.Node) -> str:
    """Render an expression in SCL notation."""
    if isinstance(node, N.Id):
        return "id"
    if isinstance(node, N.Compose):
        return " . ".join(pretty(s) for s in node.steps)
    if isinstance(node, N.Map):
        return f"map {_fn_name(node.f)}"
    if isinstance(node, N.IMap):
        return f"imap {_fn_name(node.f)}"
    if isinstance(node, N.Fold):
        return f"fold {_fn_name(node.op)}"
    if isinstance(node, N.Scan):
        return f"scan {_fn_name(node.op)}"
    if isinstance(node, N.FoldrFused):
        return f"foldr ({_fn_name(node.op)} . {_fn_name(node.g)})"
    if isinstance(node, N.Rotate):
        return f"rotate {node.k}"
    if isinstance(node, N.RotateRow):
        return f"rotate_row {_fn_name(node.df)}"
    if isinstance(node, N.RotateCol):
        return f"rotate_col {_fn_name(node.df)}"
    if isinstance(node, N.Fetch):
        return f"fetch {_fn_name(node.f)}"
    if isinstance(node, N.AlignFetch):
        return f"align id (fetch {_fn_name(node.f)})"
    if isinstance(node, N.PermSend):
        return f"send {_fn_name(node.f)}"
    if isinstance(node, N.SendNode):
        return f"send* {_fn_name(node.f)}"
    if isinstance(node, N.Brdcast):
        return f"brdcast {node.a!r}"
    if isinstance(node, N.ApplyBrdcast):
        return f"applybrdcast {_fn_name(node.f)} {node.i!r}"
    if isinstance(node, N.Redistribute):
        return "redistribute [" + ", ".join(
            pretty(move) for move in node.moves) + "]"
    if isinstance(node, N.Split):
        return f"split {node.pattern!r}"
    if isinstance(node, N.Combine):
        return "combine"
    if isinstance(node, N.Partition):
        return f"partition {node.pattern!r}"
    if isinstance(node, N.Gather):
        return "gather" if node.pattern is None else f"gather {node.pattern!r}"
    if isinstance(node, N.Farm):
        return f"farm {_fn_name(node.f)} <env>"
    if isinstance(node, N.Spmd):
        stages = ", ".join(_pretty_stage(s) for s in node.stages)
        return f"SPMD [{stages}]"
    if isinstance(node, N.IterFor):
        return f"iterFor {node.n} <body>"
    return repr(node)


def _pretty_stage(stage: N.Stage) -> str:
    g = pretty(stage.global_) if stage.global_ is not None else "id"
    loc = _fn_name(stage.local) if stage.local is not None else "id"
    marker = "imap " if stage.indexed else ""
    return f"({g}, {marker}{loc})"
