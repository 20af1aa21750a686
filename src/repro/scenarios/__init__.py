"""Scenario sampling: declarative distributions over recovery requests.

The generator (:class:`ScenarioGenerator`) turns a declarative
:class:`ScenarioSpace` — which topologies with which parameter choices,
which disruptions, which demand sizes — into a seeded stream of valid
:class:`~repro.api.requests.RecoveryRequest` objects, and
:func:`run_fuzz` fans a budget of them through
:meth:`~repro.api.service.RecoveryService.solve_batch` — one engine
instance task per request — with the invariant checker of
:mod:`repro.verification` auditing every plan.
"""

from repro.scenarios.generator import (
    DEFAULT_SPACE,
    FuzzReport,
    ScenarioGenerator,
    ScenarioSpace,
    run_fuzz,
)

__all__ = [
    "DEFAULT_SPACE",
    "FuzzReport",
    "ScenarioGenerator",
    "ScenarioSpace",
    "run_fuzz",
]
