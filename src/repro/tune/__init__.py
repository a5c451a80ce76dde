"""``repro.tune`` — cost-driven search over the SCL rewrite space.

One cost model for both optimizers: candidates produced by the §4
rewrite rules (:mod:`repro.scl.rules`) are scored by lowering them
through the existing pipeline — ``scl.compile`` → ``plan.opt`` →
``plan.cost`` — so pre-lowering rewrites are priced by what the
post-lowering passes make of them on one machine spec.
:func:`tune_expression` is the optimiser and :class:`TuneResult` its
report; ``plan.lower``'s tuned-plan cache tier memoises its winners per
machine, and ``python -m repro plan --search`` prints its explored
frontier beside the program that rewriting to fixpoint
(``default_engine().rewrite``) would have picked.
"""

from repro.tune.search import Candidate, TuneResult, tune_expression
from repro.tune.workloads import tuned_sort_pipeline

__all__ = [
    "Candidate",
    "TuneResult",
    "tune_expression",
    "tuned_sort_pipeline",
]
