"""The replanning loop: an explicit clock over the frozen-snapshot stack.

:func:`run_episode` drives one seeded episode through a
:class:`Timeline` of epochs.  Each epoch runs the operational cycle the
paper's setting implies but the snapshot solvers cannot express:

1. **observe** — assessment sweeps reveal hidden damage, then the planner's
   believed network (:mod:`repro.online.belief`) is assessed with the same
   machinery as the ``assess`` entry point;
2. **plan** — the configured algorithm solves the *believed* instance from
   scratch (full replanning — the plan may change completely between
   epochs);
3. **execute** — the crew simulator (:mod:`repro.online.crews`) completes
   what physically fits into the epoch; completed repairs land on the
   *true* network and their cost is charged, including repeat repairs of
   re-broken elements;
4. **perturb** — scheduled/random events (:mod:`repro.online.events`)
   strike the true network through the non-mutating ``applied`` contract;
5. **verify** (optional) — the full invariant battery runs on every epoch's
   plan against the believed instance, plus online-specific checks
   (executed repairs must target truly broken elements).

After the last epoch a clairvoyant baseline solves the *final realized
damage* — every element that was ever broken, no fog, no crews — and the
episode's regret is the honest comparison: when the online run ends fully
satisfied, regret is its total executed cost minus the clairvoyant cost
(provably >= 0 against a proven optimum, because the standing repairs are
themselves a feasible solution of the clairvoyant problem); otherwise the
clairvoyant's satisfaction lead, in percentage points.

:func:`run_campaign` runs seeded episodes on the experiment engine's
executor and writes each one to a digest-keyed cache file the moment it
finishes, so an interrupted campaign resumes like an engine sweep.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.api.requests import SCHEMA_VERSION, config_digest, materialise_instance
from repro.api.results import OnlineResult, evaluation_metrics, jsonify_plan, plan_payload
from repro.api.requests import jsonify_value
from repro.engine.executor import run_units
from repro.engine.tasks import cell_seed_sequence, root_entropy
from repro.evaluation.metrics import evaluate_plan
from repro.extensions.assessment import assess_damage
from repro.flows.demand_satisfaction import max_satisfiable_flow
from repro.flows.solver.incremental import instance_scope
from repro.flows.solver.stats import solver_counts
from repro.flows.solver.tolerances import FLOW_TOLERANCE
from repro.heuristics.registry import get_algorithm
from repro.network.plan import RecoveryPlan
from repro.network.supply import SupplyGraph
from repro.obs.trace import span
from repro.online.belief import BeliefState, Element
from repro.online.crews import CrewSimulator
from repro.online.events import apply_event, event_fires
from repro.online.spec import OnlineScenarioSpec
from repro.portfolio import is_exact
from repro.utils.jsonio import write_json
from repro.verification import (
    FULL_SATISFACTION,
    Violation,
    check_plan_invariants,
    check_repair_sequence_monotonicity,
    repair_sequence,
)

#: Regret below this magnitude is solver noise, not a violation.
REGRET_TOLERANCE = 1e-6

#: Spawn keys of the episode's auxiliary streams.  The instance stream uses
#: the canonical engine-cell derivation (spawn key ``(0, 0)``); events and
#: fog draw from sibling streams so adding an event never perturbs the
#: initial instance.
_EVENTS_STREAM = 101
_FOG_STREAM = 102

ProgressCallback = Callable[[int, int], None]


@dataclass(frozen=True)
class Epoch:
    """One tick of the clock: ``hours`` of crew time starting at ``start_hour``."""

    index: int
    start_hour: float
    hours: float


class Timeline:
    """The episode clock: ``epochs`` epochs of ``epoch_hours`` each."""

    def __init__(self, epochs: int, epoch_hours: float) -> None:
        if epochs < 1:
            raise ValueError("a timeline needs at least one epoch")
        if epoch_hours <= 0:
            raise ValueError("epoch_hours must be positive")
        self.epochs = int(epochs)
        self.epoch_hours = float(epoch_hours)

    def __len__(self) -> int:
        return self.epochs

    def __iter__(self) -> Iterator[Epoch]:
        for index in range(self.epochs):
            yield Epoch(index=index, start_hour=index * self.epoch_hours, hours=self.epoch_hours)


# --------------------------------------------------------------------- #
# One episode
# --------------------------------------------------------------------- #
def _element_lists(steps: Sequence[Element]) -> Dict[str, List[Any]]:
    """JSON-safe node/edge lists of an executed step sequence."""
    return {
        "nodes": [jsonify_value(element) for kind, element in steps if kind == "node"],
        "edges": [jsonify_value(list(element)) for kind, element in steps if kind == "edge"],
    }


def _repair_cost(supply: SupplyGraph, steps: Sequence[Element]) -> float:
    nodes = [element for kind, element in steps if kind == "node"]
    edges = [element for kind, element in steps if kind == "edge"]
    return supply.repair_cost_of(nodes, edges)


def _true_satisfaction(supply: SupplyGraph, demand) -> float:
    """The audited satisfiable fraction of the *true* network, right now."""
    working = supply.working_graph(use_residual=False)
    return max_satisfiable_flow(working, demand).fraction


def _algorithm(name: str, opt_time_limit: Optional[float]):
    if is_exact(name) and opt_time_limit is not None:
        return get_algorithm(name, time_limit=opt_time_limit)
    return get_algorithm(name)


@instance_scope()
def run_episode(
    spec: OnlineScenarioSpec,
    episode_seed: Optional[int] = None,
    verify: bool = False,
) -> OnlineResult:
    """Simulate one online-recovery episode and return its envelope.

    ``episode_seed`` overrides the spec's seed (the campaign runner derives
    one per episode); everything stochastic — the initial instance, every
    event strike, every fog coin — flows from it through independent
    deterministic streams, so the same seed replays the identical episode.
    The episode is one instance scope: its epochs and its baseline share
    constraint structures, and nothing is kept past the episode.
    """
    started = time.perf_counter()
    seed = spec.seed if episode_seed is None else int(episode_seed)
    entropy = root_entropy(seed)
    instance_rng = np.random.default_rng(cell_seed_sequence(entropy, 0, 0))
    events_rng = np.random.default_rng(np.random.SeedSequence(entropy, spawn_key=(_EVENTS_STREAM,)))
    fog_rng = np.random.default_rng(np.random.SeedSequence(entropy, spawn_key=(_FOG_STREAM,)))

    supply, demand, _ = materialise_instance(
        spec.topology, spec.disruption, spec.demand, instance_rng
    )
    ever_broken_nodes = supply.broken_nodes
    ever_broken_edges = supply.broken_edges

    belief = BeliefState(supply, spec.fog, fog_rng)
    crews = CrewSimulator(spec.crews, spec.epoch_hours)
    algorithm = _algorithm(spec.algorithm, spec.opt_time_limit)

    realized_steps: List[Element] = []
    epoch_cuts: List[int] = [0]
    executed_cost = 0.0
    executed_keys: set = set()
    violations: List[Violation] = []
    trace: List[Dict[str, Any]] = []

    for epoch in Timeline(spec.epochs, spec.epoch_hours):
        epoch_violations: List[Violation] = []
        scope = f"epoch-{epoch.index}"

        # -- observe ------------------------------------------------------
        revealed = belief.reveal(spec.fog.reveal_per_epoch) if epoch.index > 0 else []
        believed = belief.believed_supply(supply)
        assessment = assess_damage(believed, demand)
        believed_broken = len(believed.broken_nodes) + len(believed.broken_edges)

        # -- plan ---------------------------------------------------------
        if believed_broken:
            with span("online.plan", epoch=epoch.index) as plan_span:
                plan = algorithm.solve(believed.copy(), demand)
                evaluation = evaluate_plan(believed, demand, plan)
            solver_stats = solver_counts(plan_span)
        else:
            # Nothing known to repair: planning is a no-op, not a solve.
            plan = RecoveryPlan(algorithm=spec.algorithm)
            evaluation = evaluate_plan(believed, demand, plan)
            solver_stats = {}

        if verify:
            epoch_violations += check_plan_invariants(
                believed,
                demand,
                plan,
                reported_metrics=evaluation_metrics(evaluation),
            )

        # -- execute ------------------------------------------------------
        completed = crews.execute_epoch(repair_sequence(plan))
        for step in completed:
            kind, element = step
            if kind == "node":
                if not supply.is_broken_node(element):
                    epoch_violations.append(
                        Violation(
                            "executed-within-damage",
                            spec.algorithm,
                            f"crew repaired working node {element!r}",
                        )
                    )
                executed_cost += supply.node_repair_cost(element)
                supply.repair_node(element)
            else:
                if not supply.is_broken_edge(*element):
                    epoch_violations.append(
                        Violation(
                            "executed-within-damage",
                            spec.algorithm,
                            f"crew repaired working edge {element!r}",
                        )
                    )
                executed_cost += supply.edge_repair_cost(*element)
                supply.repair_edge(*element)
            executed_keys.add(step)
        belief.note_repaired(completed)
        realized_steps.extend(completed)
        epoch_cuts.append(len(realized_steps))

        # -- perturb ------------------------------------------------------
        fired: List[Dict[str, Any]] = []
        for event in spec.events:
            if not event_fires(event, epoch.index, events_rng, len(completed)):
                continue
            supply, fresh, error = apply_event(event, supply, events_rng)
            record = {
                "kind": event.kind,
                "new_nodes": sum(1 for kind, _ in fresh if kind == "node"),
                "new_edges": sum(1 for kind, _ in fresh if kind == "edge"),
            }
            if error is not None:
                record["error"] = error
            fired.append(record)
            if fresh:
                ever_broken_nodes |= {element for kind, element in fresh if kind == "node"}
                ever_broken_edges |= {element for kind, element in fresh if kind == "edge"}
                belief.register_damage(fresh)

        # -- record -------------------------------------------------------
        true_satisfied = _true_satisfaction(supply, demand)
        violations += [
            Violation(v.invariant, v.algorithm, v.detail, request=scope)
            for v in epoch_violations
        ]
        trace.append(
            {
                "epoch": epoch.index,
                "start_hour": epoch.start_hour,
                "revealed": len(revealed),
                "hidden": len(belief.hidden),
                "believed_broken": believed_broken,
                "assessment": dict(assessment.summary()),
                "plan": jsonify_plan(plan_payload(plan)),
                "planned_repairs": plan.total_repairs,
                "planned_cost": float(evaluation.repair_cost),
                "planned_satisfied_pct": float(evaluation.satisfied_percentage),
                "solver": solver_stats,
                "executed": _element_lists(completed),
                "executed_repairs": len(completed),
                "executed_cost": _repair_cost(supply, completed),
                "carryover": crews.carryover(),
                "events": fired,
                "true_satisfied_pct": 100.0 * true_satisfied,
                "violations": len(epoch_violations),
            }
        )

    final_satisfied = _true_satisfaction(supply, demand)

    # -- clairvoyant baseline on the final realized damage ----------------
    clairvoyant = supply.copy()
    for node in ever_broken_nodes:
        clairvoyant.break_node(node)
    for u, v in ever_broken_edges:
        clairvoyant.break_edge(u, v)
    clairvoyant.reset_residuals()

    standing = RecoveryPlan(algorithm="ONLINE")
    for kind, element in sorted(executed_keys, key=repr):
        if kind == "node" and not supply.is_broken_node(element):
            standing.add_node_repair(element)
        elif kind == "edge" and not supply.is_broken_edge(*element):
            standing.add_edge_repair(*element)

    baseline_algorithm = _algorithm(spec.baseline_algorithm, spec.opt_time_limit)
    extra: Dict[str, Any] = {}
    seeded = (
        is_exact(spec.baseline_algorithm)
        and final_satisfied >= FULL_SATISFACTION
        and standing.total_repairs > 0
    )
    if seeded:
        # The realized standing repairs fully satisfy on the clairvoyant
        # instance (its recovered graph IS the final true network), so they
        # are a valid incumbent for the exact baseline.
        extra["seed_plans"] = [standing]
    with span("online.baseline", algorithm=spec.baseline_algorithm) as baseline_span:
        baseline_plan = baseline_algorithm.solve(clairvoyant.copy(), demand, **extra)
        baseline_eval = evaluate_plan(clairvoyant, demand, baseline_plan)
    baseline_proven = baseline_plan.metadata.get("status") == "optimal"

    if verify:
        violations += [
            Violation(v.invariant, v.algorithm, v.detail, request="final")
            for v in check_repair_sequence_monotonicity(
                clairvoyant,
                demand,
                realized_steps,
                algorithm=spec.algorithm,
                cuts=epoch_cuts,
            )
        ]

    # -- regret -----------------------------------------------------------
    online_pct = 100.0 * final_satisfied
    baseline_pct = float(baseline_eval.satisfied_percentage)
    baseline_cost = float(baseline_eval.repair_cost)
    fully = (
        final_satisfied >= FULL_SATISFACTION
        and baseline_eval.satisfied_fraction >= FULL_SATISFACTION
    )
    cost_regret = executed_cost - baseline_cost if fully else None
    competitive_ratio = (
        executed_cost / baseline_cost if fully and baseline_cost > FLOW_TOLERANCE else None
    )
    regret = cost_regret if fully else baseline_pct - online_pct

    return OnlineResult(
        spec=spec.to_dict(),
        episode_seed=seed,
        epochs=trace,
        baseline={
            "algorithm": spec.baseline_algorithm,
            "status": baseline_plan.metadata.get("status"),
            "proven": baseline_proven,
            "seeded": seeded,
            "repair_cost": baseline_cost,
            "satisfied_pct": baseline_pct,
            "total_repairs": baseline_plan.total_repairs,
            "solver": solver_counts(baseline_span),
        },
        regret={
            "regret": float(regret),
            "cost_regret": None if cost_regret is None else float(cost_regret),
            "satisfaction_regret_pct": baseline_pct - online_pct,
            "competitive_ratio": None if competitive_ratio is None else float(competitive_ratio),
            "baseline_proven": baseline_proven,
            "online_cost": float(executed_cost),
            "online_satisfied_pct": online_pct,
        },
        final={
            "satisfied_pct": online_pct,
            "executed_cost": float(executed_cost),
            "executed_repairs": len(realized_steps),
            "distinct_repairs": len(executed_keys),
            "standing_repairs": standing.total_repairs,
            "broken_remaining": len(supply.broken_nodes) + len(supply.broken_edges),
            "hidden_remaining": len(belief.hidden),
            "ever_broken_nodes": len(ever_broken_nodes),
            "ever_broken_edges": len(ever_broken_edges),
        },
        violations=[
            {
                "scope": v.request,
                "invariant": v.invariant,
                "algorithm": v.algorithm,
                "detail": v.detail,
            }
            for v in violations
        ],
        verified=bool(verify),
        wall_seconds=time.perf_counter() - started,
    )


# --------------------------------------------------------------------- #
# Campaigns: many seeded episodes through the executor, cached by digest
# --------------------------------------------------------------------- #
@dataclass
class OnlineCampaign:
    """All episodes of one online campaign, plus the aggregate verdict."""

    spec: OnlineScenarioSpec
    episodes: List[OnlineResult] = field(default_factory=list)
    verified: bool = False
    cached_episodes: int = 0
    wall_seconds: float = 0.0

    kind = "online-campaign"

    @property
    def regrets(self) -> List[float]:
        return [float(episode.regret.get("regret", 0.0)) for episode in self.episodes]

    @property
    def total_violations(self) -> int:
        return sum(len(episode.violations) for episode in self.episodes)

    @property
    def ok(self) -> bool:
        """No invariant violations, and no episode beats a *proven* baseline."""
        if self.total_violations:
            return False
        for episode in self.episodes:
            regret = float(episode.regret.get("regret", 0.0))
            if episode.regret.get("baseline_proven") and regret < -REGRET_TOLERANCE:
                return False
        return True

    def rows(self) -> List[Dict[str, object]]:
        """One table row per episode for the CLI report."""
        return [
            {
                "episode": index,
                "seed": episode.episode_seed,
                "satisfied_pct": round(float(episode.final.get("satisfied_pct", 0.0)), 2),
                "online_cost": round(float(episode.final.get("executed_cost", 0.0)), 4),
                "baseline_cost": round(float(episode.baseline.get("repair_cost", 0.0)), 4),
                "regret": round(float(episode.regret.get("regret", 0.0)), 4),
                "violations": len(episode.violations),
            }
            for index, episode in enumerate(self.episodes)
        ]

    def summary(self) -> Dict[str, object]:
        regrets = self.regrets
        return {
            "episodes": len(self.episodes),
            "epochs_per_episode": self.spec.epochs,
            "verified": self.verified,
            "violations": self.total_violations,
            "cached_episodes": self.cached_episodes,
            "mean_regret": sum(regrets) / len(regrets) if regrets else 0.0,
            "max_regret": max(regrets) if regrets else 0.0,
            "min_regret": min(regrets) if regrets else 0.0,
            "proven_baselines": sum(
                1 for episode in self.episodes if episode.regret.get("baseline_proven")
            ),
            "ok": self.ok,
        }

    def to_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": SCHEMA_VERSION,
            "kind": self.kind,
            "spec": self.spec.to_dict(),
            "summary": self.summary(),
            "episodes": [episode.to_dict() for episode in self.episodes],
            "wall_seconds": float(self.wall_seconds),
            "ok": self.ok,
        }


def episode_seeds(spec: OnlineScenarioSpec, episodes: int) -> List[int]:
    """The campaign's per-episode seeds, derived from the spec seed.

    Sibling ``SeedSequence`` spawn keys off the spec's root entropy — the
    same derivation discipline as engine cells — so campaigns are stable
    under extension: asking for more episodes never changes earlier ones.
    """
    if episodes < 1:
        raise ValueError("a campaign needs at least one episode")
    entropy = root_entropy(spec.seed)
    return [
        int.from_bytes(
            np.random.SeedSequence(entropy, spawn_key=(index,))
            .generate_state(2, np.uint32)
            .tobytes(),
            "little",
        )
        for index in range(episodes)
    ]


def _episode_cache_key(spec: OnlineScenarioSpec, seed: int, verify: bool) -> str:
    return config_digest(
        {
            "kind": "online-episode",
            "spec": spec.to_dict(),
            "episode_seed": int(seed),
            "verify": bool(verify),
        }
    )


def _episode_payload(args: Tuple[Dict[str, Any], int, bool]) -> Dict[str, Any]:
    """Pool worker: run one episode from pure data, return pure data."""
    spec_dict, seed, verify = args
    spec = OnlineScenarioSpec.from_dict(spec_dict)
    return run_episode(spec, episode_seed=seed, verify=verify).to_dict()


def run_campaign(
    spec: OnlineScenarioSpec,
    episodes: int = 1,
    jobs: int = 1,
    verify: bool = False,
    cache_dir: Optional[Union[str, Path]] = None,
    progress: Optional[ProgressCallback] = None,
) -> OnlineCampaign:
    """Run ``episodes`` seeded episodes of ``spec``; return the campaign.

    Episodes run on the engine's executor (``jobs`` as for sweeps); results
    are identical to the serial path because both build envelopes from the
    worker's JSON payload.  ``cache_dir`` makes the campaign resumable:
    each episode is written under the digest of (spec, episode seed,
    verify) as soon as it finishes, so an interrupted campaign recomputes
    only what is missing and extending a finished one only computes the
    new episodes.  ``progress`` fires as each computed episode finishes.
    """
    started = time.perf_counter()
    seeds = episode_seeds(spec, episodes)
    cache = Path(cache_dir) if cache_dir is not None else None
    if cache is not None:
        cache.mkdir(parents=True, exist_ok=True)

    payloads: Dict[int, Dict[str, Any]] = {}
    pending: List[Tuple[int, int]] = []
    for index, seed in enumerate(seeds):
        if cache is not None:
            path = cache / f"{_episode_cache_key(spec, seed, verify)}.json"
            try:
                payloads[index] = json.loads(path.read_text())
                continue
            except (OSError, ValueError):
                pass
        pending.append((index, seed))
    cached = len(payloads)

    def finished(position: int, payload: Dict[str, Any]) -> None:
        index, seed = pending[position]
        if cache is not None:
            write_json(payload, cache / f"{_episode_cache_key(spec, seed, verify)}.json")
        payloads[index] = payload
        if progress is not None:
            progress(len(payloads), len(seeds))

    spec_dict = spec.to_dict()
    run_units(_episode_payload, [(spec_dict, seed, verify) for _, seed in pending], jobs, finished)

    return OnlineCampaign(
        spec=spec,
        episodes=[OnlineResult.from_dict(payloads[index]) for index in range(len(seeds))],
        verified=bool(verify),
        cached_episodes=cached,
        wall_seconds=time.perf_counter() - started,
    )


__all__ = [
    "REGRET_TOLERANCE",
    "Epoch",
    "OnlineCampaign",
    "Timeline",
    "episode_seeds",
    "run_campaign",
    "run_episode",
]
