"""Declarative experiment specifications.

An :class:`ExperimentSpec` describes one of the paper's sweep experiments as
pure data: which topology to build, which disruption to apply, how to draw
the demand, which parameter the x-axis sweeps, and which algorithms to
compare.  Because a spec is data (names + keyword arguments, no closures) it
can be

* executed instance by instance in worker *processes* (everything pickles),
* hashed stably for the on-disk result cache, and
* listed/inspected by the CLI (``repro.cli scenarios``).

The instance schema itself — :class:`~repro.api.requests.TopologySpec`,
:class:`~repro.api.requests.DisruptionSpec`,
:class:`~repro.api.requests.DemandSpec` and the hashing/materialisation
helpers — lives in :mod:`repro.api.requests`; an experiment spec is that
schema plus a sweep axis and an algorithm list.

:func:`build_instance` turns a spec plus a sweep value plus an RNG into a
concrete ``(supply, demand)`` instance by delegating to the api layer's
:func:`~repro.api.requests.materialise_instance`; serial and parallel
execution share it, which is what makes them bit-identical.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

import numpy as np

from repro.api.requests import DemandSpec as _DemandSpec
from repro.api.requests import DisruptionSpec as _DisruptionSpec
from repro.api.requests import TopologySpec as _TopologySpec
from repro.api.requests import _frozen_algorithm_kwargs, materialise_instance
from repro.heuristics.base import RecoveryAlgorithm
from repro.heuristics.registry import get_algorithm
from repro.network.demand import DemandGraph
from repro.network.supply import SupplyGraph
from repro.portfolio import is_exact, split_algorithms


@dataclass(frozen=True)
class SweepAxis:
    """The x-axis of a figure: a named parameter swept over values.

    ``target`` is a dotted path naming the spec field the value is injected
    into — ``"topology.<kwarg>"``, ``"disruption.<kwarg>"`` or
    ``"demand.<kwarg>"`` (where ``num_pairs`` and ``flow_per_pair`` address
    the spec's own fields and any other key is forwarded to the builder).
    """

    parameter: str
    values: Tuple[Any, ...]
    target: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise ValueError("a sweep needs at least one value")
        section, _, key = self.target.partition(".")
        if section not in ("topology", "disruption", "demand") or not key:
            raise ValueError(
                f"sweep target must look like 'topology.<kwarg>', 'disruption.<kwarg>' "
                f"or 'demand.<kwarg>', got {self.target!r}"
            )


@dataclass(frozen=True)
class ExperimentSpec:
    """One declarative sweep experiment (one figure of the paper)."""

    name: str
    figure: str
    topology: _TopologySpec
    sweep: SweepAxis
    algorithms: Tuple[str, ...]
    disruption: _DisruptionSpec = _DisruptionSpec()
    demand: _DemandSpec = _DemandSpec()
    runs: int = 1
    opt_time_limit: Optional[float] = None
    algorithm_kwargs: Tuple[Tuple[str, Tuple[Tuple[str, Any], ...]], ...] = ()
    description: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "algorithms", tuple(dict.fromkeys(map(str.upper, self.algorithms))))
        if not self.algorithms:
            raise ValueError("a spec needs at least one algorithm")
        if self.runs < 1:
            raise ValueError("runs must be at least 1")
        object.__setattr__(
            self, "algorithm_kwargs", _frozen_algorithm_kwargs(self.algorithm_kwargs)
        )
        section, _, key = self.sweep.target.partition(".")
        swept = getattr(self, section)
        for value in self.sweep.values:
            # Bind every swept value now, not when its instance is built.
            if section == "demand" and key in ("num_pairs", "flow_per_pair"):
                dataclasses.replace(swept, **{key: value})
            else:
                dataclasses.replace(swept, kwargs={**dict(swept.kwargs), key: value})

    def replace(self, **changes: Any) -> "ExperimentSpec":
        """A copy of this spec with the given fields replaced.

        Convenience fields ``sweep_values``, ``runs`` etc. let callers scale
        a registered spec up or down without rebuilding it from scratch.
        """
        sweep_values = changes.pop("sweep_values", None)
        if sweep_values is not None:
            changes["sweep"] = dataclasses.replace(self.sweep, values=tuple(sweep_values))
        return dataclasses.replace(self, **changes)

    def overrides_for(self, sweep_value: Any) -> Dict[str, Dict[str, Any]]:
        """Map a sweep value onto per-section keyword overrides."""
        section, _, key = self.sweep.target.partition(".")
        overrides: Dict[str, Dict[str, Any]] = {"topology": {}, "disruption": {}, "demand": {}}
        overrides[section][key] = sweep_value
        return overrides

    def algorithm_options(self, name: str) -> Dict[str, Any]:
        """The extra keyword arguments bound to ``name`` (empty by default)."""
        wanted = name.upper()
        for algorithm, kwargs in self.algorithm_kwargs:
            if algorithm == wanted:
                return dict(kwargs)
        return {}

    def resolve_algorithm(self, name: str) -> RecoveryAlgorithm:
        """Instantiate one of the spec's algorithms (OPT gets the time limit)."""
        kwargs = self.algorithm_options(name)
        if name.upper() == "OPT" and self.opt_time_limit is not None:
            kwargs.setdefault("time_limit", self.opt_time_limit)
        return get_algorithm(name, **kwargs)

    def to_config(self) -> Dict[str, Any]:
        """A canonical JSON-serialisable description of this spec.

        :meth:`from_config` parses it back; ``from_config(spec.to_config())``
        equals ``spec``.
        """
        return {
            "name": self.name,
            "figure": self.figure,
            "topology": self.topology.to_dict(),
            "disruption": self.disruption.to_dict(),
            "demand": self.demand.to_dict(),
            "sweep": {
                "parameter": self.sweep.parameter,
                "target": self.sweep.target,
                "values": list(self.sweep.values),
            },
            "algorithms": list(self.algorithms),
            "algorithm_kwargs": {
                name: dict(kwargs) for name, kwargs in self.algorithm_kwargs
            },
            "runs": self.runs,
            "opt_time_limit": self.opt_time_limit,
            "description": self.description,
        }

    @classmethod
    def from_config(cls, config: Mapping[str, Any]) -> "ExperimentSpec":
        """Rebuild a spec from a :meth:`to_config` mapping (JSON round trip)."""
        sweep = config["sweep"]
        return cls(
            name=str(config["name"]),
            figure=str(config.get("figure", "")),
            topology=_TopologySpec.from_dict(config["topology"]),
            disruption=_DisruptionSpec.from_dict(config.get("disruption", {})),
            demand=_DemandSpec.from_dict(config.get("demand", {})),
            sweep=SweepAxis(
                parameter=str(sweep["parameter"]),
                values=tuple(sweep["values"]),
                target=str(sweep["target"]),
            ),
            algorithms=tuple(config["algorithms"]),
            algorithm_kwargs=config.get("algorithm_kwargs", {}),
            runs=int(config.get("runs", 1)),
            opt_time_limit=(
                None
                if config.get("opt_time_limit") is None
                else float(config["opt_time_limit"])
            ),
            description=str(config.get("description", "")),
        )

    def cell_config(self, sweep_value: Any, algorithm: str) -> Dict[str, Any]:
        """The part of the configuration that determines one task's result.

        Excludes the sweep's value list and the run count, so extending a
        sweep or adding repetitions still hits the cache for existing cells.
        The OPT time limit only enters for OPT — changing it must not
        invalidate cached heuristic cells.  Per-algorithm kwargs enter only
        when bound, keeping keys stable for specs that bind none.  OPT beside
        heuristics is seeded with their plans, so ``seeded_by`` names them.
        """
        overrides = self.overrides_for(sweep_value)
        topology_kwargs = {**dict(self.topology.kwargs), **overrides["topology"]}
        disruption_kwargs = {**dict(self.disruption.kwargs), **overrides["disruption"]}
        demand_kwargs = {**dict(self.demand.kwargs), **overrides["demand"]}
        config = {
            "topology": {"name": self.topology.name, "kwargs": topology_kwargs},
            "disruption": {"kind": self.disruption.kind, "kwargs": disruption_kwargs},
            "demand": {
                "builder": self.demand.builder,
                "num_pairs": self.demand.num_pairs,
                "flow_per_pair": self.demand.flow_per_pair,
                "kwargs": demand_kwargs,
            },
            "algorithm": algorithm.upper(),
            "time_limit": self.opt_time_limit if algorithm.upper() == "OPT" else None,
        }
        options = self.algorithm_options(algorithm)
        if options:
            config["algorithm_kwargs"] = options
        heuristics, _ = split_algorithms(self.algorithms)
        if is_exact(algorithm) and heuristics:
            config["seeded_by"] = {name: self.algorithm_options(name) for name in heuristics}
        return config


def build_instance(
    spec: ExperimentSpec, sweep_value: Any, rng: np.random.Generator
) -> Tuple[SupplyGraph, DemandGraph]:
    """Materialise one experiment instance for a sweep value.

    Thin wrapper over :func:`repro.api.requests.materialise_instance` — the
    single construction path shared with the service layer and the CLI.
    """
    supply, demand, _ = materialise_instance(
        spec.topology,
        spec.disruption,
        spec.demand,
        rng,
        overrides=spec.overrides_for(sweep_value),
    )
    return supply, demand


__all__ = [
    "ExperimentSpec",
    "SweepAxis",
    "build_instance",
]
