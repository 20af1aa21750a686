"""``repro.api`` — the service-grade facade of the library.

One schema, one construction path, one session object:

* :mod:`repro.api.requests` — frozen, validated, JSON-round-tripping
  request dataclasses (:class:`RecoveryRequest`, :class:`AssessmentRequest`)
  built from the shared section specs (:class:`TopologySpec`,
  :class:`DisruptionSpec`, :class:`DemandSpec`), plus the canonical hashing
  (:func:`config_digest`) and instance materialisation
  (:func:`materialise_instance`) every layer shares;
* :mod:`repro.api.results` — versioned, wire-ready result envelopes
  (:class:`RecoveryResult`, :class:`AssessmentResult`);
* :mod:`repro.api.service` — :class:`RecoveryService`, the session layer
  with a pristine-topology cache and engine-pool batch execution.

The CLI, the experiment engine, the figure benches and every script under
``examples/`` are thin clients of this package.
"""

from repro.api.requests import (
    SCHEMA_VERSION,
    AssessmentRequest,
    DemandSpec,
    DisruptionSpec,
    RecoveryRequest,
    TopologySpec,
    config_digest,
    materialise_instance,
    request_from_dict,
)
from repro.api.results import (
    METRIC_KEYS,
    AlgorithmRun,
    AssessmentResult,
    RecoveryResult,
    evaluation_metrics,
    plan_from_payload,
    plan_payload,
)

#: Symbols of :mod:`repro.api.service`, loaded lazily (PEP 562): the service
#: sits on top of the engine, which itself imports this package's request
#: schema — eager loading here would be circular.
_SERVICE_EXPORTS = ("RecoveryService", "DEFAULT_TOPOLOGY_CACHE_SIZE")


def __getattr__(name: str):
    if name in _SERVICE_EXPORTS:
        from repro.api import service

        return getattr(service, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "SCHEMA_VERSION",
    "METRIC_KEYS",
    "TopologySpec",
    "DisruptionSpec",
    "DemandSpec",
    "AssessmentRequest",
    "RecoveryRequest",
    "request_from_dict",
    "config_digest",
    "materialise_instance",
    "AlgorithmRun",
    "AssessmentResult",
    "RecoveryResult",
    "evaluation_metrics",
    "plan_from_payload",
    "plan_payload",
    "RecoveryService",
    "DEFAULT_TOPOLOGY_CACHE_SIZE",
]
