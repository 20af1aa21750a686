"""Solver substrate: the HiGHS backend, cached structure, solve statistics.

This package owns every LP/MILP solve in the library:

* :mod:`repro.flows.solver.backends` — the one backend (scipy's bundled
  HiGHS core, driven directly with ``linprog``/``milp``'s options) and
  :data:`~repro.flows.solver.backends.HIGHS`, the instance every solve
  site calls;
* :mod:`repro.flows.solver.incremental` — constraint structure cached per
  graph topology inside one instance's :func:`instance_scope` and
  :class:`IncrementalFlowProblem` delta re-assembly;
* :mod:`repro.flows.solver.stats` — per-solve effort, counted on the open
  spans (:func:`repro.obs.trace.count`) and read off each run's
  ``service.run`` span into run stats, experiment cells and the CLI;
* :mod:`repro.flows.solver.tolerances` — the library's two numeric
  tolerance scales, documented once.
"""

from repro.flows.solver.backends import (
    LinearProgram,
    LPSolution,
    MILProgram,
    MILPSolution,
    ScipyHighsBackend,
)
from repro.flows.solver.tolerances import EPSILON, FLOW_TOLERANCE

#: Symbols of :mod:`repro.flows.solver.incremental`, loaded lazily (PEP 562):
#: that module depends on :mod:`repro.flows.lp_backend`, which itself imports
#: this package's tolerances — eager loading here would be circular.
_INCREMENTAL_EXPORTS = (
    "IncrementalFlowProblem",
    "StructureCache",
    "TopologyStructure",
    "build_flow_problem",
    "instance_scope",
    "topology_signature",
)


def __getattr__(name: str):
    if name in _INCREMENTAL_EXPORTS:
        from repro.flows.solver import incremental

        return getattr(incremental, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "LinearProgram",
    "LPSolution",
    "MILProgram",
    "MILPSolution",
    "ScipyHighsBackend",
    "IncrementalFlowProblem",
    "StructureCache",
    "TopologyStructure",
    "build_flow_problem",
    "instance_scope",
    "topology_signature",
    "EPSILON",
    "FLOW_TOLERANCE",
]
