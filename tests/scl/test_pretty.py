"""Tests for repro.scl.pretty."""

from __future__ import annotations

import operator

from repro.core import Block
from repro.scl import (
    ApplyBrdcast,
    Brdcast,
    Combine,
    Farm,
    Fetch,
    Fold,
    FoldrFused,
    Id,
    IMap,
    IterFor,
    Map,
    PermSend,
    Redistribute,
    Rotate,
    RotateCol,
    RotateRow,
    Scan,
    SendNode,
    Spmd,
    Split,
    Stage,
    compose_nodes,
    pretty,
)


def named(x):
    return x


class TestPretty:
    def test_id(self):
        assert pretty(Id()) == "id"

    def test_named_function_shown(self):
        assert pretty(Map(named)) == "map named"

    def test_lambda_shown_as_fn(self):
        assert pretty(Map(lambda x: x)) == "map <fn>"

    def test_compose_uses_dots(self):
        text = pretty(compose_nodes(Map(named), Rotate(2)))
        assert text == "map named . rotate 2"

    def test_fold_scan(self):
        assert pretty(Fold(operator.add)) == "fold add"
        assert pretty(Scan(operator.add)) == "scan add"

    def test_foldr_fused(self):
        assert pretty(FoldrFused(operator.add, named)) == "foldr (add . named)"

    def test_communication_nodes(self):
        assert pretty(Fetch(named)) == "fetch named"
        assert pretty(PermSend(named)) == "send named"
        assert pretty(SendNode(named)) == "send* named"
        assert pretty(RotateRow(named)) == "rotate_row named"
        assert pretty(RotateCol(named)) == "rotate_col named"
        assert pretty(Redistribute((Id(), Rotate(1), RotateRow(named)))) \
            == "redistribute [id, rotate 1, rotate_row named]"

    def test_brdcast_nodes(self):
        assert pretty(Brdcast(5)) == "brdcast 5"
        assert "applybrdcast" in pretty(ApplyBrdcast(named, 0))

    def test_split_combine(self):
        assert pretty(Split(Block(4))) == "split Block(4)"
        assert pretty(Combine()) == "combine"

    def test_farm(self):
        assert pretty(Farm(named, {"e": 1})) == "farm named <env>"

    def test_spmd_stages(self):
        node = Spmd((Stage(global_=Rotate(1), local=named),))
        assert pretty(node) == "SPMD [(rotate 1, named)]"

    def test_spmd_indexed_marker(self):
        node = Spmd((Stage(local=named, indexed=True),))
        assert "imap named" in pretty(node)

    def test_spmd_empty_stage_parts(self):
        assert pretty(Spmd((Stage(),))) == "SPMD [(id, id)]"

    def test_iter_for(self):
        assert pretty(IterFor(5, lambda i: Id())) == "iterFor 5 <body>"

    def test_map_of_node_parenthesised(self):
        assert pretty(Map(Rotate(1))) == "map (rotate 1)"

    def test_composed_function_pipeline(self):
        from repro.util.functional import Composed

        assert pretty(Map(Composed(named, named))) == "map (named . named)"

    def test_imap(self):
        assert pretty(IMap(named)) == "imap named"
