"""Versioned, wire-ready result envelopes.

Every service response is a plain-data envelope stamped with
``schema_version`` so a future server can evolve the format without
breaking clients: :class:`RecoveryResult` carries one :class:`AlgorithmRun`
per requested algorithm (figure metrics, the repair plan, the solver-effort
stats of that run), :class:`AssessmentResult` carries the damage picture.
``to_dict``/``from_dict`` round-trip through JSON; node identifiers that are
tuples (grid coordinates) are canonicalised back to tuples on the way in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional

from repro.api.requests import (
    SCHEMA_VERSION,
    check_schema,
    config_digest,
    freeze_value,
    jsonify_value,
)
from repro.evaluation.metrics import PlanEvaluation
from repro.network.plan import RecoveryPlan

#: Metric keys every run reports, in figure order (shared with the engine).
METRIC_KEYS = (
    "node_repairs",
    "edge_repairs",
    "total_repairs",
    "repair_cost",
    "satisfied_pct",
    "elapsed_seconds",
)


def evaluation_metrics(evaluation: PlanEvaluation) -> Dict[str, float]:
    """The flat metric dictionary of one evaluated plan (METRIC_KEYS order)."""
    return {
        "node_repairs": float(evaluation.node_repairs),
        "edge_repairs": float(evaluation.edge_repairs),
        "total_repairs": float(evaluation.total_repairs),
        "repair_cost": float(evaluation.repair_cost),
        "satisfied_pct": float(evaluation.satisfied_percentage),
        "elapsed_seconds": float(evaluation.elapsed_seconds),
    }


def _flag(value: Any) -> Optional[bool]:
    """A flag field is written only when it is true."""
    return True if value else None


#: The optional OPT fields of a plan payload, in payload order, each with the
#: converter its value passes through.  A field is written when its value is
#: not ``None`` and converts to something other than ``None``.
PLAN_METADATA = (
    ("status", str),
    ("bound", float),
    ("mip_gap", float),
    ("strategy", str),
    ("seeded", _flag),
)


def _plan_metadata(source: Mapping[str, Any]) -> Dict[str, Any]:
    """The :data:`PLAN_METADATA` fields set in ``source``, converted."""
    converted = {
        key: convert(source[key])
        for key, convert in PLAN_METADATA
        if source.get(key) is not None
    }
    return {key: value for key, value in converted.items() if value is not None}


def plan_payload(plan: RecoveryPlan) -> Dict[str, Any]:
    """The serialisable repair plan: what to rebuild, in canonical order.

    Routes are deliberately omitted — they can be recomputed from the
    repaired network and would dominate the envelope size on large
    topologies.  The solver ``status`` (OPT's "optimal"/"feasible"/...) is
    kept: the verification harness must know whether an envelope's OPT run
    is a *proven* optimum before using it as a differential baseline.  The
    same goes for the proven dual ``bound``, the achieved ``mip_gap``, the
    solve ``strategy`` and whether the solve was ``seeded`` — the bound is
    what lets verification check cost-dominance even when the run stopped
    at a feasible incumbent.
    """
    payload = {
        "repaired_nodes": sorted((freeze_value(node) for node in plan.repaired_nodes), key=repr),
        "repaired_edges": sorted(
            ((freeze_value(u), freeze_value(v)) for u, v in plan.repaired_edges), key=repr
        ),
        "iterations": int(plan.iterations),
    }
    payload.update(_plan_metadata(plan.metadata))
    return payload


def normalise_plan_payload(payload: Optional[Mapping[str, Any]]) -> Dict[str, Any]:
    """Canonicalise a plan payload read back from JSON (lists -> tuples)."""
    if not payload:
        return {}
    normalised = {
        "repaired_nodes": [freeze_value(node) for node in payload.get("repaired_nodes", [])],
        "repaired_edges": [
            tuple(freeze_value(endpoint) for endpoint in edge)
            for edge in payload.get("repaired_edges", [])
        ],
        "iterations": int(payload.get("iterations", 0)),
    }
    normalised.update(_plan_metadata(payload))
    return normalised


def plan_from_payload(payload: Mapping[str, Any], algorithm: str = "") -> RecoveryPlan:
    """Rebuild a :class:`RecoveryPlan` (repairs only, no routes) from a payload."""
    normalised = normalise_plan_payload(payload)
    plan = RecoveryPlan(algorithm=algorithm)
    for node in normalised.get("repaired_nodes", []):
        plan.add_node_repair(node)
    for u, v in normalised.get("repaired_edges", []):
        plan.add_edge_repair(u, v)
    plan.iterations = normalised.get("iterations", 0)
    plan.metadata.update(_plan_metadata(normalised))
    return plan


@dataclass
class AlgorithmRun:
    """One algorithm's outcome on one request instance."""

    algorithm: str
    metrics: Dict[str, float] = field(default_factory=dict)
    plan: Dict[str, Any] = field(default_factory=dict)
    solver: Dict[str, float] = field(default_factory=dict)
    cached: bool = False

    def to_plan(self) -> RecoveryPlan:
        """The run's repair plan as a live :class:`RecoveryPlan` object."""
        plan = plan_from_payload(self.plan, algorithm=self.algorithm)
        plan.elapsed_seconds = float(self.metrics.get("elapsed_seconds", 0.0))
        return plan

    def as_row(self) -> Dict[str, object]:
        """Flat table row matching the library's reporting conventions."""
        metrics = self.metrics
        return {
            "algorithm": self.algorithm,
            "node_repairs": int(metrics.get("node_repairs", 0)),
            "edge_repairs": int(metrics.get("edge_repairs", 0)),
            "total_repairs": int(metrics.get("total_repairs", 0)),
            "repair_cost": round(float(metrics.get("repair_cost", 0.0)), 4),
            "satisfied_pct": round(float(metrics.get("satisfied_pct", 0.0)), 2),
            "elapsed_seconds": round(float(metrics.get("elapsed_seconds", 0.0)), 4),
        }

    def to_dict(self) -> Dict[str, Any]:
        return {
            "algorithm": self.algorithm,
            "metrics": {key: float(value) for key, value in self.metrics.items()},
            "plan": jsonify_plan(self.plan),
            "solver": {key: float(value) for key, value in self.solver.items()},
            "cached": bool(self.cached),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "AlgorithmRun":
        return cls(
            algorithm=str(payload["algorithm"]),
            metrics={key: float(value) for key, value in payload.get("metrics", {}).items()},
            plan=normalise_plan_payload(payload.get("plan")),
            solver={key: float(value) for key, value in payload.get("solver", {}).items()},
            cached=bool(payload.get("cached", False)),
        )


def jsonify_plan(payload: Mapping[str, Any]) -> Dict[str, Any]:
    """JSON-safe view of a plan payload (tuple node ids become lists)."""
    if not payload:
        return {}
    jsonified = {
        "repaired_nodes": [jsonify_value(node) for node in payload.get("repaired_nodes", [])],
        "repaired_edges": [jsonify_value(list(edge)) for edge in payload.get("repaired_edges", [])],
        "iterations": int(payload.get("iterations", 0)),
    }
    jsonified.update(_plan_metadata(payload))
    return jsonified


@dataclass
class RecoveryResult:
    """The versioned envelope answering one :class:`RecoveryRequest`."""

    request: Dict[str, Any]
    results: List[AlgorithmRun] = field(default_factory=list)
    broken_elements: int = 0
    wall_seconds: float = 0.0
    schema_version: int = SCHEMA_VERSION

    kind = "recovery-result"

    def run(self, algorithm: str) -> AlgorithmRun:
        """The run of ``algorithm`` (case-insensitive lookup)."""
        wanted = algorithm.upper()
        for run in self.results:
            if run.algorithm.upper() == wanted:
                return run
        raise KeyError(f"no run for algorithm {algorithm!r} in this result")

    def rows(self) -> List[Dict[str, object]]:
        """Per-algorithm table rows (the CLI's comparison table)."""
        return [run.as_row() for run in self.results]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "kind": self.kind,
            "request": self.request,
            "broken_elements": int(self.broken_elements),
            "wall_seconds": float(self.wall_seconds),
            "results": [run.to_dict() for run in self.results],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RecoveryResult":
        check_schema(payload, cls.kind)
        return cls(
            request=dict(payload.get("request", {})),
            results=[AlgorithmRun.from_dict(run) for run in payload.get("results", [])],
            broken_elements=int(payload.get("broken_elements", 0)),
            wall_seconds=float(payload.get("wall_seconds", 0.0)),
            schema_version=int(payload.get("schema_version", SCHEMA_VERSION)),
        )


@dataclass
class OnlineResult:
    """The versioned envelope of one online-recovery episode.

    Produced by :func:`repro.online.run_episode`: ``epochs`` is the full
    per-epoch trace (belief, plan, executed prefix, events, audited true
    satisfaction, per-epoch solver stats), ``baseline`` the clairvoyant
    solve on the final realized damage, ``regret`` the comparison between
    the two, and ``final`` the campaign-end summary.  Everything inside is
    already JSON-safe — the envelope is pure data, so it round-trips and
    caches exactly like the batch envelopes.
    """

    spec: Dict[str, Any]
    episode_seed: int = 0
    epochs: List[Dict[str, Any]] = field(default_factory=list)
    baseline: Dict[str, Any] = field(default_factory=dict)
    regret: Dict[str, Any] = field(default_factory=dict)
    final: Dict[str, Any] = field(default_factory=dict)
    violations: List[Dict[str, str]] = field(default_factory=list)
    verified: bool = False
    wall_seconds: float = 0.0
    schema_version: int = SCHEMA_VERSION

    kind = "online-result"

    @property
    def ok(self) -> bool:
        """No invariant violations (vacuously true when unverified)."""
        return not self.violations

    def fingerprint(self) -> str:
        """Digest of the behavioural trace, invariant under machine speed.

        Scrubs the fields that legitimately vary between identical replays —
        wall-clock timings and solver performance counters (under
        ``opt_time_limit`` an exact solve's effort depends on machine
        speed) — and hashes the rest.
        Two runs of the same seeded episode must agree on this digest; that
        is the determinism contract the differential suite enforces.
        """
        payload = self.to_dict()
        payload.pop("wall_seconds", None)
        payload["epochs"] = [
            {key: value for key, value in record.items() if key != "solver"}
            for record in payload.get("epochs", [])
        ]
        payload["baseline"] = {
            key: value for key, value in payload.get("baseline", {}).items() if key != "solver"
        }
        return config_digest(payload)

    def rows(self) -> List[Dict[str, object]]:
        """One table row per epoch for the CLI report."""
        return [
            {
                "epoch": record.get("epoch"),
                "known_broken": record.get("believed_broken", 0),
                "hidden": record.get("hidden", 0),
                "planned": record.get("planned_repairs", 0),
                "executed": record.get("executed_repairs", 0),
                "events": len(record.get("events", [])),
                "true_satisfied_pct": round(float(record.get("true_satisfied_pct", 0.0)), 2),
            }
            for record in self.epochs
        ]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "kind": self.kind,
            "spec": self.spec,
            "episode_seed": int(self.episode_seed),
            "epochs": self.epochs,
            "baseline": self.baseline,
            "regret": self.regret,
            "final": self.final,
            "violations": self.violations,
            "verified": bool(self.verified),
            "wall_seconds": float(self.wall_seconds),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "OnlineResult":
        check_schema(payload, cls.kind)
        return cls(
            spec=dict(payload.get("spec", {})),
            episode_seed=int(payload.get("episode_seed", 0)),
            epochs=[dict(record) for record in payload.get("epochs", [])],
            baseline=dict(payload.get("baseline", {})),
            regret=dict(payload.get("regret", {})),
            final=dict(payload.get("final", {})),
            violations=[dict(violation) for violation in payload.get("violations", [])],
            verified=bool(payload.get("verified", False)),
            wall_seconds=float(payload.get("wall_seconds", 0.0)),
            schema_version=int(payload.get("schema_version", SCHEMA_VERSION)),
        )


@dataclass
class AssessmentResult:
    """The versioned envelope answering one :class:`AssessmentRequest`."""

    request: Dict[str, Any]
    summary: Dict[str, Any] = field(default_factory=dict)
    disconnected_pairs: List[Any] = field(default_factory=list)
    wall_seconds: float = 0.0
    schema_version: int = SCHEMA_VERSION

    kind = "assessment-result"

    def rows(self) -> List[Dict[str, object]]:
        """(metric, value) table rows for the CLI report."""
        return [{"metric": key, "value": value} for key, value in self.summary.items()]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "kind": self.kind,
            "request": self.request,
            "summary": {key: jsonify_value(value) for key, value in self.summary.items()},
            "disconnected_pairs": [jsonify_value(list(pair)) for pair in self.disconnected_pairs],
            "wall_seconds": float(self.wall_seconds),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "AssessmentResult":
        check_schema(payload, cls.kind)
        return cls(
            request=dict(payload.get("request", {})),
            summary={key: freeze_value(value) for key, value in payload.get("summary", {}).items()},
            disconnected_pairs=[
                tuple(freeze_value(endpoint) for endpoint in pair)
                for pair in payload.get("disconnected_pairs", [])
            ],
            wall_seconds=float(payload.get("wall_seconds", 0.0)),
            schema_version=int(payload.get("schema_version", SCHEMA_VERSION)),
        )


__all__ = [
    "METRIC_KEYS",
    "AlgorithmRun",
    "AssessmentResult",
    "OnlineResult",
    "RecoveryResult",
    "evaluation_metrics",
    "jsonify_plan",
    "normalise_plan_payload",
    "plan_from_payload",
    "plan_payload",
]
