"""Flow and optimisation substrate.

This package contains every piece of mathematical-programming machinery the
paper relies on:

* :mod:`~repro.flows.lp_backend` — construction of the multi-commodity flow
  variable space and of the sparse capacity / flow-conservation constraint
  matrices shared by all LPs and the MILP;
* :mod:`~repro.flows.routability` — the routability test of Section IV-A
  (LP feasibility of the routability conditions, Eq. 2);
* :mod:`~repro.flows.decomposition` — flow decomposition of LP edge flows
  into explicit path assignments;
* :mod:`~repro.flows.multicommodity` — the multi-commodity relaxation of
  Section VI-A (Eq. 8) with the MCB / MCW solution extremes;
* :mod:`~repro.flows.milp` — the exact MinR MILP of Eq. 1 (the paper's OPT),
  solved with the HiGHS branch-and-cut backend;
* :mod:`~repro.flows.splitting_lp` — the LP that computes the maximum
  splittable amount ``dx`` used by ISP's split action (Section IV-C), kept
  ready for HiGHS per ISP run with its bases;
* :mod:`~repro.flows.solver` — the solver substrate every solve goes
  through: the LP/MILP backend, the cached topology structure behind
  incremental re-solves, per-solve statistics and the library's numeric
  tolerances.
"""

from repro.flows.lp_backend import Commodity, FlowProblem
from repro.flows.milp import MinRSolution, solve_minimum_recovery
from repro.flows.multicommodity import MultiCommodityResult, solve_multicommodity_recovery
from repro.flows.routability import RoutabilityResult, is_routable, routability_test
from repro.flows.splitting_lp import SplitProgram, maximum_splittable_amount
from repro.flows.decomposition import decompose_flows
from repro.flows.solver import IncrementalFlowProblem, build_flow_problem

__all__ = [
    "Commodity",
    "FlowProblem",
    "RoutabilityResult",
    "is_routable",
    "routability_test",
    "decompose_flows",
    "MultiCommodityResult",
    "solve_multicommodity_recovery",
    "MinRSolution",
    "solve_minimum_recovery",
    "maximum_splittable_amount",
    "SplitProgram",
    "IncrementalFlowProblem",
    "build_flow_problem",
]
