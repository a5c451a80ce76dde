"""Beam search over SCL rewrite space, scored through the real pipeline.

The optimiser of §4: one cost model judges both the symbolic rewrites
(:mod:`repro.scl.rules`) and the post-lowering passes
(:mod:`repro.plan.opt`).  Every candidate expression is priced by
:func:`repro.scl.optimize.price` — lowered under ``OptConfig(spec)``,
then :func:`repro.plan.cost.plan_cost` — so a *pre-lowering* rewrite is
priced by what the *post-lowering* passes make of it on one machine
spec.  That is what lets the search decline a symbolic law
that is locally plausible but globally bad (e.g. fusing two sparse
``fetch`` steps into one traffic-concentrating exchange) while still
taking the fusions that the plan optimizer cannot recover on its own.

The search itself is a plain beam search: the frontier is expanded with
:meth:`repro.scl.rewrite.RewriteEngine.applications` (every expression
one rule application away), candidates are deduplicated by expression
equality, ordered lexicographically by predicted
``(seconds, messages, barriers)``, and the best ``beam`` survive each
round.  The original expression always stays in the candidate pool, so
the winner is never predicted worse than doing nothing.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from repro.machine.cost import MachineSpec, PERFECT
from repro.plan.cost import ExprCost
from repro.scl import nodes as N
from repro.scl.optimize import price
from repro.scl.pretty import pretty
from repro.scl.rewrite import RewriteEngine, RewriteStep, Rule

__all__ = ["Candidate", "TuneResult", "tune_expression", "expr_size"]


def expr_size(node: N.Node) -> int:
    """Number of skeleton nodes in ``node``'s tree (tie-break metric)."""
    return 1 + sum(expr_size(k) for k in node.children())


@dataclasses.dataclass(frozen=True)
class Candidate:
    """One point in rewrite space, with its pipeline-predicted cost."""

    expr: N.Node
    cost: ExprCost
    #: False when the expression has no plan form (e.g. ``FoldrFused``)
    #: and was priced by the legacy expression-level model instead.
    lowerable: bool
    #: Rule provenance from the original expression to this candidate.
    steps: tuple[RewriteStep, ...]
    depth: int
    #: :func:`expr_size` of ``expr`` — full-cost ties go to the smaller
    #: expression, so simplifications the post-lowering passes make
    #: cost-invisible (e.g. map fusion, which ``plan.opt`` recovers
    #: anyway) are still taken, while cost-neutral *blow-ups* that the
    #: passes merely repair (e.g. un-fusing a rotation) are declined.
    size: int = 0

    @property
    def rules(self) -> tuple[str, ...]:
        """The rule names applied, in order."""
        return tuple(s.rule for s in self.steps)

    def order_key(self) -> tuple:
        """Lexicographic ranking: seconds, then messages, then barriers,
        then expression size; final ties go to fewer rewrites."""
        return (self.cost.seconds, self.cost.messages, self.cost.barriers,
                self.size, self.depth)


@dataclasses.dataclass(frozen=True)
class TuneResult:
    """Outcome of :func:`tune_expression`."""

    original: Candidate
    best: Candidate
    #: The most promising candidates explored (including ``original`` and
    #: ``best``), ranked by :meth:`Candidate.order_key`.
    frontier: tuple[Candidate, ...]
    #: Total candidates scored (the whole explored set, not just the
    #: reported frontier).
    explored: int
    beam: int
    rounds: int

    @property
    def improved(self) -> bool:
        """True when the winner is a real rewrite predicted to beat the
        original (strictly, on the lexicographic key)."""
        return self.best is not self.original and \
            self.best.order_key() < self.original.order_key()

    @property
    def winner(self) -> Candidate:
        """The candidate to run: ``best`` when it is a real improvement,
        else ``original``."""
        return self.best if self.improved else self.original

    @property
    def predicted_speedup(self) -> float:
        """Predicted ratio of original to winner time."""
        if self.best.cost.seconds == 0:
            return float("inf") if self.original.cost.seconds > 0 else 1.0
        return self.original.cost.seconds / self.best.cost.seconds

    def __str__(self) -> str:
        before, after = self.original.cost, self.winner.cost
        lines = [f"original : {pretty(self.original.expr)}",
                 f"optimised: {pretty(self.winner.expr)}"]
        lines += [f"  applied {rule}" for rule in self.winner.rules]
        lines.append(
            f"predicted: {before.seconds:.3e}s -> {after.seconds:.3e}s "
            f"({before.messages} -> {after.messages} msgs, "
            f"{before.barriers} -> {after.barriers} barriers)")
        return "\n".join(lines)


def tune_expression(expr: N.Node, *, nprocs: int,
                    grid: tuple[int, int] | None = None,
                    spec: MachineSpec = PERFECT, opt=None,
                    rules: Sequence[Rule] | None = None,
                    beam: int = 4, max_rounds: int = 32,
                    frontier_size: int | None = None,
                    fn_ops: float = 1.0,
                    element_bytes: int | None = None) -> TuneResult:
    """Beam-search the rewrite space of ``expr`` for the cheapest plan.

    ``spec`` names the machine the candidates are priced for; ``opt``
    overrides the :class:`~repro.plan.opt.OptConfig` the candidates are
    lowered with (default: priced on ``spec`` — the same config
    ``scl.compile`` would build for that machine).  ``beam``
    candidates survive each expansion round; ``max_rounds`` bounds the
    search depth.  The result's ``best`` is the cheapest candidate seen
    anywhere — including the original, so search never *predicts* a
    regression — restricted to lowerable candidates whenever the
    original itself lowers (the winner must stay runnable).
    """
    from repro.plan.opt import OptConfig
    from repro.scl.rules import ALL_RULES

    if beam <= 0:
        raise ValueError(f"beam must be positive, got {beam}")
    if opt is None:
        opt = OptConfig(spec=spec)
    engine = RewriteEngine(ALL_RULES if rules is None else rules)

    # Candidates differ from their parent by one rewrite window: the steps
    # they share are lowered once for the whole search.
    lowered_steps: dict = {}

    def score(e: N.Node) -> tuple[ExprCost, bool]:
        return price(e, n=nprocs, grid=grid, opt=opt, spec=spec,
                     fn_ops=fn_ops, element_bytes=element_bytes,
                     memo=lowered_steps)

    seen: set = set()

    def remember(e: N.Node) -> bool:
        """True the first time ``e`` is seen (unhashable: always new)."""
        try:
            if e in seen:
                return False
            seen.add(e)
        except TypeError:
            pass
        return True

    cost, lowerable = score(expr)
    original = Candidate(expr, cost, lowerable, (), 0, expr_size(expr))
    remember(expr)
    pool = [original]
    frontier = [original]
    rounds = 0
    for _ in range(max_rounds):
        grown: list[Candidate] = []
        for cand in frontier:
            for new_expr, step in engine.applications(cand.expr):
                if not remember(new_expr):
                    continue
                c_cost, c_low = score(new_expr)
                grown.append(Candidate(new_expr, c_cost, c_low,
                                       cand.steps + (step,), cand.depth + 1,
                                       expr_size(new_expr)))
        if not grown:
            break
        rounds += 1
        grown.sort(key=Candidate.order_key)
        pool.extend(grown)
        frontier = grown[:beam]

    eligible = [c for c in pool if c.lowerable] if original.lowerable else pool
    best = min(eligible, key=Candidate.order_key)
    ranked = sorted(pool, key=Candidate.order_key)
    if frontier_size is None:
        frontier_size = max(4 * beam, 16)
    shown = ranked[:frontier_size]
    for must in (best, original):
        if must not in shown:
            shown.append(must)
    return TuneResult(original=original, best=best, frontier=tuple(shown),
                      explored=len(pool), beam=beam, rounds=rounds)
