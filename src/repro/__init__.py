"""repro — reproduction of "Network Recovery After Massive Failures" (DSN 2016).

The library implements the paper's MINIMUM RECOVERY (MinR) problem, the
Iterative Split and Prune (ISP) heuristic built on demand-based centrality,
the exact MILP optimum, the baseline heuristics (SRT, GRD-COM, GRD-NC, the
multi-commodity relaxation extremes MCB/MCW, ALL), the evaluation substrate
(topologies, disruption models, demand builders) and an experiment engine
that regenerates every figure of the paper's evaluation section.

The package root re-exports only the service facade of :mod:`repro.api`
— the request types and their section specs, :class:`RecoveryService` and
its result envelopes — plus :class:`ExperimentSpec` and :func:`get_spec`
for the registered sweeps.  Everything else is imported from its home
module, e.g. ``from repro.core.isp import iterative_split_prune``.

Quick start
-----------
>>> from repro import DemandSpec, RecoveryRequest, RecoveryService, TopologySpec
>>> service = RecoveryService()
>>> request = RecoveryRequest(
...     topology=TopologySpec("bell-canada"),
...     demand=DemandSpec(num_pairs=2, flow_per_pair=10.0),
...     algorithms=("ISP",),
...     seed=1,
... )
>>> result = service.solve(request)
>>> result.run("ISP").metrics["total_repairs"] > 0
True

See ``examples/`` for complete, runnable walk-throughs and ``benchmarks/``
for the per-figure reproduction harness.
"""

from repro.api import (
    AlgorithmRun,
    AssessmentRequest,
    AssessmentResult,
    DemandSpec,
    DisruptionSpec,
    RecoveryRequest,
    RecoveryResult,
    RecoveryService,
    TopologySpec,
)
from repro.engine.registry import get_spec
from repro.engine.spec import ExperimentSpec

__version__ = "1.2.0"

__all__ = [
    "__version__",
    # requests and their section specs
    "RecoveryRequest",
    "AssessmentRequest",
    "TopologySpec",
    "DisruptionSpec",
    "DemandSpec",
    # the service session and its result envelopes
    "RecoveryService",
    "RecoveryResult",
    "AssessmentResult",
    "AlgorithmRun",
    # registered sweeps
    "ExperimentSpec",
    "get_spec",
]
