"""Skeleton-expression layer: SCL programs as data, plus §4's transformations.

The paper's optimisation story depends on parallel structure being *visible*:
because skeletons are functional forms, "meaning preserving transformation
techniques can be generally applied to optimise the parallelism specified
uniformly in terms of skeletons".  This package mechanises that claim:

* :mod:`repro.scl.nodes` — an AST of skeleton applications (a ``Map`` node,
  a ``Fetch`` node, …) whose composition mirrors SCL's functional notation,
* :mod:`repro.scl.interp` — the semantics: evaluate an expression against a
  :class:`~repro.core.pararray.ParArray` using the core library,
* :mod:`repro.scl.rules` — the paper's rewrite rules (map fusion, map
  distribution, communication algebra, SPMD flattening) plus derived rules,
* :mod:`repro.scl.rewrite` — the rewrite engine (windowed matching over
  composition chains, recursion into sub-expressions, fixpoint strategy),
* :mod:`repro.scl.optimize` — the cost model: an expression priced as the
  plan it lowers to, against a :class:`~repro.machine.cost.MachineSpec`
  (the optimiser built on it is :mod:`repro.tune`),
* :mod:`repro.scl.pretty` — human-readable rendering of expressions,
* :mod:`repro.scl.compile` — lowering to the :mod:`repro.plan` IR and
  execution on the simulated machine,
* :mod:`repro.scl.plan_pretty` — rendering of lowered plans.
"""

from repro.scl.nodes import (
    Node,
    Id,
    Map,
    IMap,
    Fold,
    Scan,
    FoldrFused,
    Rotate,
    RotateRow,
    RotateCol,
    Fetch,
    AlignFetch,
    PermSend,
    SendNode,
    Brdcast,
    ApplyBrdcast,
    Compose,
    Spmd,
    Stage,
    Split,
    Combine,
    Partition,
    Gather,
    Farm,
    IterFor,
    compose_nodes,
)
from repro.scl.compile import (
    base_fragment,
    fragment_ops,
    run_expression,
)
from repro.scl.interp import evaluate
from repro.scl.rewrite import Rule, RewriteEngine, RewriteStep
from repro.scl.rules import (
    MAP_FUSION,
    MAP_DISTRIBUTION,
    FETCH_FUSION,
    SEND_FUSION,
    ROTATE_FUSION,
    ROTATE_ROW_FUSION,
    ROTATE_COL_FUSION,
    GATHER_PARTITION_ELIM,
    SPMD_FLATTENING,
    SPMD_STAGE_MERGE,
    ALL_RULES,
    default_engine,
)
from repro.scl.optimize import ExprCost, estimate_cost
from repro.scl.graph import to_dot, to_networkx, node_count, communication_count
from repro.scl.pretty import pretty
from repro.scl.plan_pretty import pretty_plan

__all__ = [
    "Node", "Id", "Map", "IMap", "Fold", "Scan", "FoldrFused",
    "Rotate", "RotateRow", "RotateCol", "Fetch", "AlignFetch", "PermSend",
    "SendNode", "Brdcast", "ApplyBrdcast", "Compose", "Spmd", "Stage",
    "Split", "Combine", "Partition", "Gather", "Farm", "IterFor", "compose_nodes",
    "base_fragment", "fragment_ops", "run_expression",
    "evaluate",
    "Rule", "RewriteEngine", "RewriteStep",
    "MAP_FUSION", "MAP_DISTRIBUTION", "FETCH_FUSION", "SEND_FUSION",
    "ROTATE_FUSION", "ROTATE_ROW_FUSION", "ROTATE_COL_FUSION", "GATHER_PARTITION_ELIM",
    "SPMD_FLATTENING", "SPMD_STAGE_MERGE",
    "ALL_RULES", "default_engine",
    "ExprCost", "estimate_cost",
    "to_dot", "to_networkx", "node_count", "communication_count",
    "pretty", "pretty_plan",
]
