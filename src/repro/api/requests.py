"""Declarative, serialisable requests — the single construction path.

This module is the canonical home of the instance schema: *which* topology
to build, *which* disruption to apply, *how* to draw the demand.  The three
section specs (:class:`TopologySpec`, :class:`DisruptionSpec`,
:class:`DemandSpec`) live here so the experiment engine, the CLI, the
examples and the service layer all share one schema.

On top of the sections sit the two request types a recovery service accepts:

* :class:`RecoveryRequest` — one instance plus the algorithms to run on it
  and the solver options (seed, OPT time limit, LP backend);
* :class:`AssessmentRequest` — one instance to assess without recovering.

Both are frozen, validated at construction, hashable, and round-trip
losslessly through JSON via ``to_dict``/``from_dict`` — the property suite
asserts ``from_dict(json.loads(json.dumps(request.to_dict()))) == request``.

:func:`materialise_instance` is the one place a ``(topology, disruption,
demand)`` triple becomes a concrete ``(supply, demand)`` instance; the
engine's ``build_instance``, the service session and every CLI command go
through it, which is what makes their instances bit-identical for the same
seed stream.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.evaluation.demand_builder import (
    explicit_demand,
    far_apart_demand,
    random_demand,
    routable_far_apart_demand,
)
from repro.failures.base import FailureModel, FailureReport
from repro.failures.cascading import CascadingFailure
from repro.failures.complete import CompleteDestruction
from repro.failures.geographic import GaussianDisruption, MultiEpicenterDisruption
from repro.failures.random_failures import UniformRandomFailure
from repro.failures.targeted import TargetedAttack
from repro.heuristics.registry import available_algorithms, check_algorithm_kwargs
from repro.network.demand import DemandGraph
from repro.network.supply import SupplyGraph
from repro.obs.trace import span
from repro.topologies.registry import build_topology, get_topology_builder

#: Version stamped on every request and result envelope.  Bump when a field
#: changes meaning; ``from_dict`` rejects payloads from a *newer* schema.
SCHEMA_VERSION = 1

#: Demand builders addressable by name from a spec.
_DEMAND_BUILDERS = {
    "routable-far-apart": routable_far_apart_demand,
    "far-apart": far_apart_demand,
    "random": random_demand,
    "explicit": explicit_demand,
}

#: Disruption kinds addressable by name from a spec.  Existing kinds keep
#: their position and spelling — spec dictionaries (and therefore engine
#: cache keys) must not change when new kinds are appended.
_DISRUPTION_KINDS = (
    "complete",
    "gaussian",
    "random",
    "none",
    "cascading",
    "multi-gaussian",
    "targeted",
)

#: Model class per parameterised kind, for eager kwargs validation.
_DISRUPTION_MODELS = {
    "gaussian": GaussianDisruption,
    "random": UniformRandomFailure,
    "cascading": CascadingFailure,
    "multi-gaussian": MultiEpicenterDisruption,
    "targeted": TargetedAttack,
}


#: Topology builders whose output depends on external input (files) rather
#: than only on the spec — never cached as "pristine" by service sessions.
_EXTERNAL_INPUT_TOPOLOGIES = frozenset({"from-file"})


def available_disruptions() -> Tuple[str, ...]:
    """Disruption kinds a :class:`DisruptionSpec` accepts, in schema order."""
    return _DISRUPTION_KINDS


def freeze_value(value: Any) -> Any:
    """Canonicalise ``value`` for a frozen spec: sequences become tuples.

    JSON has no tuples, so a round-tripped request comes back with lists
    where tuples went in; freezing both sides makes equality (and hashing)
    insensitive to the trip.  Scalars pass through unchanged.  Mappings are
    rejected: no builder takes dict-valued kwargs, and allowing them would
    silently break the hashability frozen requests promise.
    """
    if isinstance(value, (list, tuple)):
        return tuple(freeze_value(item) for item in value)
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    # Anything else (dicts, sets, arrays, ...) would break the hashability
    # and JSON-serialisability frozen requests promise — fail at
    # construction, not later at cache-keying or serialisation time.
    raise TypeError(
        f"spec kwargs values must be scalars or (nested) sequences, got {value!r}"
    )


def jsonify_value(value: Any) -> Any:
    """The JSON-serialisable form of a frozen value (tuples become lists)."""
    if isinstance(value, (list, tuple)):
        return [jsonify_value(item) for item in value]
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    return value


def _frozen_kwargs(kwargs: Optional[Mapping[str, Any]]) -> Tuple[Tuple[str, Any], ...]:
    """Normalise a kwargs mapping into a sorted hashable tuple of pairs."""
    return tuple(sorted((str(key), freeze_value(value)) for key, value in (kwargs or {}).items()))


def _kwargs_to_json(kwargs: Tuple[Tuple[str, Any], ...]) -> Dict[str, Any]:
    return {key: jsonify_value(value) for key, value in kwargs}


#: ``inspect.signature`` per builder or model: every spec construction binds
#: its kwargs, and building a signature costs tens of microseconds.
_signature = functools.lru_cache(maxsize=None)(inspect.signature)


def _bind_kwargs(
    label: str, function: Any, kwargs: Mapping[str, Any], passed: Sequence[str] = ()
) -> None:
    """Bind ``kwargs`` to ``function``'s signature or raise ``ValueError``.

    ``passed`` names the parameters the caller always supplies itself, which
    ``kwargs`` may not name.  Catching an unknown or missing name here —
    instead of as a ``TypeError`` deep inside a later solve — gives CLI and
    service clients a clean error (HTTP 400), and keeps silently ignored
    kwargs from changing request digests.
    """
    signature = _signature(function)
    valid = [name for name in signature.parameters if name not in passed]
    unknown = [key for key in kwargs if key not in valid]
    if unknown:
        raise ValueError(
            f"unknown {label} parameter(s) {', '.join(unknown)}; valid: {', '.join(valid)}"
        )
    try:
        signature.bind(**dict.fromkeys(passed), **kwargs)
    except TypeError as error:
        raise ValueError(f"invalid {label} parameters: {error}") from None


def config_digest(config: Mapping[str, Any]) -> str:
    """Stable hex digest of a JSON-serialisable configuration mapping.

    This is the one hashing function of the library: engine cache keys,
    batch request keys and topology-session keys all go through it, so the
    different layers agree on what "the same instance" means.
    """
    canonical = json.dumps(config, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class TopologySpec:
    """Which registered topology to build, with static keyword arguments."""

    name: str
    kwargs: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        builder = get_topology_builder(self.name)  # validate the name eagerly
        object.__setattr__(self, "kwargs", _frozen_kwargs(dict(self.kwargs)))
        _bind_kwargs(f"{self.name} topology", builder, dict(self.kwargs))

    def build(self, rng: np.random.Generator, overrides: Mapping[str, Any]) -> SupplyGraph:
        kwargs = dict(self.kwargs)
        kwargs.update(overrides)
        if "seed" in _signature(get_topology_builder(self.name)).parameters:
            kwargs.setdefault("seed", rng)
        return build_topology(self.name, **kwargs)

    @property
    def deterministic(self) -> bool:
        """True when building draws nothing from the caller's RNG stream.

        Either the builder takes no seed at all, or the spec pins a concrete
        one in its kwargs (``build`` only defaults the seed when absent) —
        in both cases the same spec always yields the same graph, so a
        session may cache the pristine build.  A pinned ``seed=None`` means
        OS entropy and is *not* deterministic.  Builders reading external
        input are excluded: their output can change under an unchanged spec
        (the file gets edited), so a session must re-read, not serve a
        cached pristine copy.
        """
        if self.name in _EXTERNAL_INPUT_TOPOLOGIES:
            return False
        kwargs = dict(self.kwargs)
        if "seed" in kwargs:
            return kwargs["seed"] is not None
        return "seed" not in _signature(get_topology_builder(self.name)).parameters

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "kwargs": _kwargs_to_json(self.kwargs)}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "TopologySpec":
        return cls(name=str(payload["name"]), kwargs=dict(payload.get("kwargs", {})))


@dataclass(frozen=True)
class DisruptionSpec:
    """Which disruption model to apply after the topology is built."""

    kind: str = "complete"
    kwargs: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in _DISRUPTION_KINDS:
            raise ValueError(
                f"unknown disruption {self.kind!r}; available: {', '.join(_DISRUPTION_KINDS)}"
            )
        object.__setattr__(self, "kwargs", _frozen_kwargs(dict(self.kwargs)))
        model_cls = _DISRUPTION_MODELS.get(self.kind)
        if model_cls is not None:
            _bind_kwargs(f"{self.kind} disruption", model_cls, dict(self.kwargs))
        elif self.kwargs:  # ``complete`` and ``none`` take no parameters at all
            raise ValueError(
                f"disruption {self.kind!r} takes no parameters, "
                f"got: {', '.join(key for key, _ in self.kwargs)}"
            )

    def model(self, overrides: Optional[Mapping[str, Any]] = None) -> Optional[FailureModel]:
        """The failure model this spec describes (``None`` for kind "none").

        A parameter set the model rejects (an override that leaves a
        required argument out — the spec's own kwargs are already bound at
        construction) surfaces as a ``ValueError``, the error type callers
        of the request schema already handle, not a raw ``TypeError``.
        """
        kwargs = dict(self.kwargs)
        kwargs.update(overrides or {})
        if self.kind == "complete":
            return CompleteDestruction()
        if self.kind == "none":
            return None  # leave the supply intact
        try:
            return _DISRUPTION_MODELS[self.kind](**kwargs)
        except TypeError as error:
            raise ValueError(f"invalid {self.kind} disruption parameters: {error}") from None

    def apply(
        self,
        supply: SupplyGraph,
        rng: np.random.Generator,
        overrides: Optional[Mapping[str, Any]] = None,
    ) -> FailureReport:
        """Mutating application: mark the sampled elements broken on ``supply``."""
        model = self.model(overrides)
        if model is None:
            return FailureReport()
        return model.apply(supply, seed=rng)

    def applied(
        self,
        supply: SupplyGraph,
        rng: np.random.Generator,
        overrides: Optional[Mapping[str, Any]] = None,
    ) -> Tuple[SupplyGraph, FailureReport]:
        """Non-mutating application: return a disrupted copy of ``supply``.

        Draws from ``rng`` exactly as :meth:`apply` does, so a service that
        disrupts a cached pristine topology produces the same instance the
        engine produces from a freshly built one.
        """
        model = self.model(overrides)
        if model is None:
            return supply.copy(), FailureReport()
        return model.applied(supply, seed=rng)

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "kwargs": _kwargs_to_json(self.kwargs)}

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "DisruptionSpec":
        return cls(kind=str(payload.get("kind", "complete")), kwargs=dict(payload.get("kwargs", {})))


@dataclass(frozen=True)
class DemandSpec:
    """How to draw the demand graph on the (disrupted) supply."""

    builder: str = "routable-far-apart"
    num_pairs: int = 4
    flow_per_pair: float = 10.0
    kwargs: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.builder not in _DEMAND_BUILDERS:
            raise KeyError(
                f"unknown demand builder {self.builder!r}; "
                f"available: {', '.join(sorted(_DEMAND_BUILDERS))}"
            )
        object.__setattr__(self, "num_pairs", int(self.num_pairs))
        object.__setattr__(self, "flow_per_pair", float(self.flow_per_pair))
        object.__setattr__(self, "kwargs", _frozen_kwargs(dict(self.kwargs)))
        for field in ("num_pairs", "flow_per_pair"):
            # ``build`` would let the kwarg override the field, so two
            # digests could name one instance.
            if field in dict(self.kwargs):
                raise ValueError(
                    f"{field} is a DemandSpec field; set it there, not in the {self.builder} "
                    "demand kwargs"
                )
        _bind_kwargs(
            f"{self.builder} demand",
            _DEMAND_BUILDERS[self.builder],
            {"num_pairs": self.num_pairs, "flow_per_pair": self.flow_per_pair, **dict(self.kwargs)},
            passed=("supply", "seed"),
        )

    def build(
        self, supply: SupplyGraph, rng: np.random.Generator, overrides: Mapping[str, Any]
    ) -> DemandGraph:
        merged: Dict[str, Any] = dict(self.kwargs)
        merged.update(overrides)
        num_pairs = int(merged.pop("num_pairs", self.num_pairs))
        flow_per_pair = float(merged.pop("flow_per_pair", self.flow_per_pair))
        builder = _DEMAND_BUILDERS[self.builder]
        return builder(supply, num_pairs, flow_per_pair, seed=rng, **merged)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "builder": self.builder,
            "num_pairs": self.num_pairs,
            "flow_per_pair": self.flow_per_pair,
            "kwargs": _kwargs_to_json(self.kwargs),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "DemandSpec":
        return cls(
            builder=str(payload.get("builder", "routable-far-apart")),
            num_pairs=int(payload.get("num_pairs", 4)),
            flow_per_pair=float(payload.get("flow_per_pair", 10.0)),
            kwargs=dict(payload.get("kwargs", {})),
        )


def _frozen_algorithm_kwargs(
    value: Any,
) -> Tuple[Tuple[str, Tuple[Tuple[str, Any], ...]], ...]:
    """Normalise per-algorithm kwargs (mapping or pair tuple) to frozen form.

    Each algorithm's options are bound to its solver: an invalid one fails here.
    """
    if isinstance(value, Mapping):
        items = value.items()
    else:
        items = [(name, dict(kwargs)) for name, kwargs in (value or ())]
    frozen = tuple(
        sorted((str(name).upper(), _frozen_kwargs(dict(kwargs))) for name, kwargs in items)
    )
    for name, kwargs in frozen:
        check_algorithm_kwargs(name, dict(kwargs))
    return frozen


def check_schema(payload: Mapping[str, Any], kind: str) -> None:
    """Reject payloads from a newer schema or of the wrong kind."""
    version = int(payload.get("schema_version", SCHEMA_VERSION))
    if version > SCHEMA_VERSION:
        raise ValueError(
            f"payload has schema_version {version}, this library understands <= {SCHEMA_VERSION}"
        )
    got = payload.get("kind", kind)
    if got != kind:
        raise ValueError(f"expected a {kind!r} payload, got kind {got!r}")


@dataclass(frozen=True)
class AssessmentRequest:
    """Assess the damage of one disrupted instance, without recovery."""

    topology: TopologySpec
    disruption: DisruptionSpec = DisruptionSpec()
    demand: DemandSpec = DemandSpec()
    seed: int = 1
    lp_backend: Optional[str] = None

    kind = "assessment"

    def __post_init__(self) -> None:
        object.__setattr__(self, "seed", int(self.seed))
        _validate_backend(self.lp_backend)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": self.kind,
            "topology": self.topology.to_dict(),
            "disruption": self.disruption.to_dict(),
            "demand": self.demand.to_dict(),
            "seed": self.seed,
            "solver": {"lp_backend": self.lp_backend},
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "AssessmentRequest":
        check_schema(payload, cls.kind)
        solver = payload.get("solver", {})
        return cls(
            topology=TopologySpec.from_dict(payload["topology"]),
            disruption=DisruptionSpec.from_dict(payload.get("disruption", {})),
            demand=DemandSpec.from_dict(payload.get("demand", {})),
            seed=int(payload.get("seed", 1)),
            lp_backend=solver.get("lp_backend"),
        )

    def digest(self) -> str:
        """Stable identity of this request (used in result envelopes)."""
        return config_digest(self.to_dict())


@dataclass(frozen=True)
class RecoveryRequest:
    """Solve one disrupted instance with one or more recovery algorithms.

    The request is pure data — registry names plus keyword arguments — so it
    pickles to worker processes, hashes stably for result caches, and
    round-trips through JSON for a wire protocol.  Algorithm names are
    upper-cased and deduplicated in first-occurrence order.
    ``algorithm_kwargs`` optionally binds extra keyword arguments per
    algorithm name (e.g. ISP's ``split_amount_mode``), checked against the
    solver at construction; the OPT time limit has its own field because it
    is the one option every figure of the paper tunes.
    """

    topology: TopologySpec
    disruption: DisruptionSpec = DisruptionSpec()
    demand: DemandSpec = DemandSpec()
    algorithms: Tuple[str, ...] = ("ISP",)
    algorithm_kwargs: Tuple[Tuple[str, Tuple[Tuple[str, Any], ...]], ...] = ()
    seed: int = 1
    opt_time_limit: Optional[float] = None
    lp_backend: Optional[str] = None

    kind = "recovery"

    def __post_init__(self) -> None:
        algorithms = tuple(dict.fromkeys(str(name).upper() for name in self.algorithms))
        if not algorithms:
            raise ValueError("a recovery request needs at least one algorithm")
        known = set(available_algorithms())
        unknown = [name for name in algorithms if name not in known]
        if unknown:
            raise KeyError(
                f"unknown algorithm(s) {', '.join(unknown)}; available: {', '.join(sorted(known))}"
            )
        object.__setattr__(self, "algorithms", algorithms)
        object.__setattr__(self, "algorithm_kwargs", _frozen_algorithm_kwargs(self.algorithm_kwargs))
        object.__setattr__(self, "seed", int(self.seed))
        if self.opt_time_limit is not None:
            object.__setattr__(self, "opt_time_limit", float(self.opt_time_limit))
        _validate_backend(self.lp_backend)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": self.kind,
            "topology": self.topology.to_dict(),
            "disruption": self.disruption.to_dict(),
            "demand": self.demand.to_dict(),
            "algorithms": list(self.algorithms),
            "algorithm_kwargs": {
                name: _kwargs_to_json(kwargs) for name, kwargs in self.algorithm_kwargs
            },
            "seed": self.seed,
            "solver": {"lp_backend": self.lp_backend, "opt_time_limit": self.opt_time_limit},
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RecoveryRequest":
        check_schema(payload, cls.kind)
        solver = payload.get("solver", {})
        time_limit = solver.get("opt_time_limit")
        return cls(
            topology=TopologySpec.from_dict(payload["topology"]),
            disruption=DisruptionSpec.from_dict(payload.get("disruption", {})),
            demand=DemandSpec.from_dict(payload.get("demand", {})),
            algorithms=tuple(payload.get("algorithms", ("ISP",))),
            algorithm_kwargs=payload.get("algorithm_kwargs", {}),
            seed=int(payload.get("seed", 1)),
            opt_time_limit=None if time_limit is None else float(time_limit),
            lp_backend=solver.get("lp_backend"),
        )

    def digest(self) -> str:
        """Stable identity of this request (used in result envelopes)."""
        return config_digest(self.to_dict())

    def to_experiment_spec(self) -> "ExperimentSpec":  # noqa: F821 - lazy import below
        """This request as a degenerate (one-instance) experiment spec.

        Its single instance task is this request's instance and algorithms,
        and each cell's cache key resolves to this request, which is how
        ``RecoveryService.solve_batch`` shares the engine's resumable cache:
        request hashing *is* engine cell hashing.
        """
        from repro.engine.spec import ExperimentSpec, SweepAxis  # engine sits above api

        return ExperimentSpec(
            name=f"request-{self.digest()[:12]}",
            figure="request",
            topology=self.topology,
            disruption=self.disruption,
            demand=self.demand,
            sweep=SweepAxis(
                parameter="request",
                values=(self.demand.num_pairs,),
                target="demand.num_pairs",
            ),
            algorithms=self.algorithms,
            algorithm_kwargs=self.algorithm_kwargs,
            runs=1,
            opt_time_limit=self.opt_time_limit,
        )


def request_from_dict(payload: Mapping[str, Any]):
    """Parse a request payload into the class named by its ``kind`` field."""
    kind = payload.get("kind", RecoveryRequest.kind)
    if kind == RecoveryRequest.kind:
        return RecoveryRequest.from_dict(payload)
    if kind == AssessmentRequest.kind:
        return AssessmentRequest.from_dict(payload)
    raise ValueError(f"unknown request kind {kind!r}")


def _validate_backend(name: Optional[str]) -> None:
    # ``lp_backend`` names the one backend or nothing; it stays a request
    # field because it is part of the request digest.
    if name not in (None, "scipy"):
        raise KeyError(f"unknown LP backend {name!r}; the only backend is 'scipy'")


def materialise_instance(
    topology: TopologySpec,
    disruption: DisruptionSpec,
    demand: DemandSpec,
    rng: np.random.Generator,
    overrides: Optional[Mapping[str, Mapping[str, Any]]] = None,
    supply: Optional[SupplyGraph] = None,
) -> Tuple[SupplyGraph, DemandGraph, FailureReport]:
    """Materialise one concrete instance — the library's only build path.

    The three stochastic stages consume the *same* generator in a fixed
    order (topology, disruption, demand); every caller that derives an
    identical generator rebuilds the identical instance, whether it is an
    engine worker process, the service session or the CLI.

    When ``supply`` is given (a pristine prebuilt topology, e.g. from the
    service's topology cache) the build stage is skipped and the disruption
    is applied to a *copy*, so the cached graph is never mutated.  This is
    only sound for deterministic topologies (``TopologySpec.deterministic``)
    whose builders draw nothing from ``rng``.

    The build is one ``service.materialise`` span, so the demand builder's
    routability LPs are counted and traced apart from the runs.
    """
    sections: Dict[str, Mapping[str, Any]] = {"topology": {}, "disruption": {}, "demand": {}}
    sections.update(overrides or {})
    with span("service.materialise"):
        if supply is None:
            built = topology.build(rng, sections.get("topology", {}))
            report = disruption.apply(built, rng, sections.get("disruption", {}))
            disrupted = built
        else:
            disrupted, report = disruption.applied(supply, rng, sections.get("disruption", {}))
        demand_graph = demand.build(disrupted, rng, sections.get("demand", {}))
    return disrupted, demand_graph, report


__all__ = [
    "SCHEMA_VERSION",
    "TopologySpec",
    "DisruptionSpec",
    "DemandSpec",
    "AssessmentRequest",
    "RecoveryRequest",
    "available_disruptions",
    "request_from_dict",
    "config_digest",
    "freeze_value",
    "jsonify_value",
    "materialise_instance",
]
