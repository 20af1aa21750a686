"""Evaluation harness: demand builders, plan metrics and reporting.

* :mod:`~repro.evaluation.demand_builder` — construction of demand graphs
  the way the paper does (random far-apart pairs with a given flow);
* :mod:`~repro.evaluation.metrics` — per-plan metrics (repairs, repair cost,
  percentage of satisfied demand, feasibility checks);
* :mod:`~repro.evaluation.reporting` — plain-text tables for the benchmark
  output and EXPERIMENTS.md.

The paper's figures run as registered sweeps of the experiment engine
(:mod:`repro.engine.registry`), through
:meth:`repro.api.service.RecoveryService.sweep`.
"""

from repro.evaluation.demand_builder import (
    explicit_demand,
    far_apart_demand,
    random_demand,
    routable_far_apart_demand,
)
from repro.evaluation.metrics import PlanEvaluation, evaluate_plan
from repro.evaluation.reporting import format_table, rows_to_csv

__all__ = [
    "explicit_demand",
    "far_apart_demand",
    "random_demand",
    "routable_far_apart_demand",
    "PlanEvaluation",
    "evaluate_plan",
    "format_table",
    "rows_to_csv",
]
