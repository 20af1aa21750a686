"""The session layer: a long-lived service answering declarative requests.

A :class:`RecoveryService` is what a recovery-planning server would hold per
worker: it keeps a small LRU of built *pristine* topologies so repeated requests on the same
network skip the build entirely — the disruption is applied to a copy
(:meth:`~repro.api.requests.DisruptionSpec.applied`), so the cached graph is
never corrupted between requests.

Three entry points:

* :meth:`RecoveryService.solve` — run the request's algorithms in-process
  and return a :class:`~repro.api.results.RecoveryResult` envelope; the
  portfolio racer (:mod:`repro.portfolio`) is a
  callback on it, not a second runner;
* :meth:`RecoveryService.assess` — the damage picture without recovery;
* :meth:`RecoveryService.solve_batch` — fan a list of requests out through
  the experiment engine's process pool, sharing its resumable on-disk cache
  (request hashing *is* engine cell hashing, so a batch interrupted and
  restarted recomputes only the missing requests).

:func:`run_algorithms` is the only code that runs an instance's algorithms:
``solve`` calls it in-process, every engine instance task (sweeps, batches)
in its worker, and instances are seeded exactly like engine instances (the
canonical ``SeedSequence`` derivation in :mod:`repro.engine.tasks`), so
``solve``, ``solve_batch`` and a degenerate sweep report the same runs.
Everything the runs reuse lives in one instance scope
(:func:`~repro.flows.solver.incremental.instance_scope`), so a run's
envelope depends on its request only, not on what the process solved
before.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.api.requests import (
    AssessmentRequest,
    RecoveryRequest,
    TopologySpec,
    config_digest,
    materialise_instance,
)
from repro.api.results import (
    AlgorithmRun,
    AssessmentResult,
    RecoveryResult,
    evaluation_metrics,
    plan_payload,
)
from repro.engine.cache import ResultCache
from repro.engine.executor import ProgressCallback, run_tasks
from repro.engine.experiment import ScenarioResult, run_experiment
from repro.engine.registry import get_spec
from repro.engine.spec import ExperimentSpec
from repro.engine.tasks import cell_seed_sequence, expand_tasks, root_entropy
from repro.evaluation.metrics import evaluate_plan
from repro.extensions.assessment import assess_damage
from repro.flows.solver.incremental import instance_scope
from repro.flows.solver.stats import solver_counts
from repro.network.demand import DemandGraph
from repro.network.plan import RecoveryPlan
from repro.network.supply import SupplyGraph
from repro.obs.trace import span
from repro.portfolio import split_algorithms

#: Pristine topologies retained per service session.
DEFAULT_TOPOLOGY_CACHE_SIZE = 8

Request = Union[AssessmentRequest, RecoveryRequest]


def run_algorithms(
    spec: ExperimentSpec,
    supply: SupplyGraph,
    demand: DemandGraph,
    on_heuristics: Optional[Callable[[List[AlgorithmRun]], None]] = None,
) -> List[AlgorithmRun]:
    """Run ``spec``'s algorithms on one instance; return the runs in listed order.

    Heuristics run first, in the listed order, then the exact algorithms,
    seeded with every heuristic plan (a verified incumbent lets the
    decomposition prove optimality without a MILP; OPT listed alone
    seeds itself with SRT).  All runs share one instance scope: constraint
    structures are built once per topology, and GRD-COM and GRD-NC
    enumerate the instance's candidate paths once.  Each run — the solve
    and the plan's evaluation LP — is one ``service.run`` span, and the
    run's ``solver`` stats are what was counted on it.
    When the list mixes the two classes, ``on_heuristics`` (if given) is
    called once with the heuristic runs before the first exact solve
    starts.
    """
    heuristics, exacts = split_algorithms(spec.algorithms)
    runs: Dict[str, AlgorithmRun] = {}

    def run(name: str, **extra) -> RecoveryPlan:
        algorithm = spec.resolve_algorithm(name)
        with span("service.run", algorithm=name) as scope:
            plan = algorithm.solve(supply, demand, **extra)
            evaluation = evaluate_plan(supply, demand, plan)
        runs[name] = AlgorithmRun(
            algorithm=algorithm.name,
            metrics=evaluation_metrics(evaluation),
            plan=plan_payload(plan),
            solver=solver_counts(scope),
        )
        return plan

    def listed() -> List[AlgorithmRun]:
        return [runs[name] for name in spec.algorithms if name in runs]

    with instance_scope():
        seed_plans = [run(name) for name in heuristics]
        if on_heuristics is not None and heuristics and exacts:
            on_heuristics(listed())
        for name in exacts:
            run(name, seed_plans=seed_plans)
    return listed()


class RecoveryService:
    """A session answering recovery and assessment requests.

    The session keeps the last :data:`DEFAULT_TOPOLOGY_CACHE_SIZE` pristine
    built topologies.  Only deterministic topologies (builders without a
    ``seed`` parameter, or with the seed pinned in the spec kwargs) are
    cached — otherwise the build draws from the request's RNG stream and
    must be repeated so the stream stays identical to the engine's.
    """

    def __init__(self) -> None:
        self._topologies: "OrderedDict[str, SupplyGraph]" = OrderedDict()
        self.topology_cache_hits = 0
        self.topology_cache_misses = 0

    # ------------------------------------------------------------------ #
    # Instance construction (the one path, with a session topology cache)
    # ------------------------------------------------------------------ #
    @staticmethod
    def _instance_rng(seed: int) -> np.random.Generator:
        """The RNG an engine instance with spawn key (0, 0) would derive."""
        return np.random.default_rng(cell_seed_sequence(root_entropy(seed), 0, 0))

    def _pristine_topology(self, spec: TopologySpec) -> Optional[SupplyGraph]:
        """The cached pristine build of ``spec`` (deterministic builders only)."""
        if not spec.deterministic:
            return None
        key = config_digest(spec.to_dict())
        supply = self._topologies.get(key)
        if supply is not None:
            self._topologies.move_to_end(key)
            self.topology_cache_hits += 1
            return supply
        self.topology_cache_misses += 1
        supply = spec.build(np.random.default_rng(0), {})  # rng unused: deterministic
        self._topologies[key] = supply
        if len(self._topologies) > DEFAULT_TOPOLOGY_CACHE_SIZE:
            self._topologies.popitem(last=False)
        return supply

    def build_instance(self, request: Request):
        """Materialise ``request``'s instance: ``(supply, demand, report)``.

        Public so thin clients that need live objects (e.g. the progressive
        recovery extension) can get them through the same construction path
        the service itself uses.
        """
        rng = self._instance_rng(request.seed)
        supply = self._pristine_topology(request.topology)
        return materialise_instance(
            request.topology, request.disruption, request.demand, rng, supply=supply
        )

    # ------------------------------------------------------------------ #
    # Entry points
    # ------------------------------------------------------------------ #
    def solve(
        self,
        request: RecoveryRequest,
        on_heuristics: Optional[Callable[[RecoveryResult], None]] = None,
    ) -> RecoveryResult:
        """Run the request's algorithms in-process and return the envelope.

        The runs go through :func:`run_algorithms`: heuristics first, then
        the exact algorithms seeded with every heuristic plan; the envelope
        lists them in the requested order.  When the request mixes the two
        classes, ``on_heuristics`` (if given) is called once with the
        envelope of the heuristic runs before the first exact solve starts:
        the portfolio racer's stage 1
        (:func:`repro.portfolio.solve_two_stage`).

        A repeated solve of the same request returns equal runs, ``solver``
        counts included (timings aside): nothing a run reuses outlives its
        instance.
        """
        started = time.perf_counter()
        supply, demand, _ = self.build_instance(request)
        broken = len(supply.broken_nodes) + len(supply.broken_edges)

        def envelope(runs: List[AlgorithmRun]) -> RecoveryResult:
            return RecoveryResult(
                request=request.to_dict(),
                results=runs,
                broken_elements=broken,
                wall_seconds=time.perf_counter() - started,
            )

        runs = run_algorithms(
            request.to_experiment_spec(),
            supply,
            demand,
            on_heuristics=(
                None if on_heuristics is None else lambda early: on_heuristics(envelope(early))
            ),
        )
        return envelope(runs)

    def assess(self, request: Request) -> AssessmentResult:
        """The damage picture of the request's instance, without recovery."""
        started = time.perf_counter()
        supply, demand, _ = self.build_instance(request)
        assessment = assess_damage(supply, demand)
        return AssessmentResult(
            request=request.to_dict(),
            summary=assessment.summary(),
            disconnected_pairs=list(assessment.disconnected_pairs),
            wall_seconds=time.perf_counter() - started,
        )

    def solve_batch(
        self,
        requests: Sequence[RecoveryRequest],
        jobs: int = 1,
        cache_dir: Optional[Union[str, Path]] = None,
        progress: Optional[ProgressCallback] = None,
    ) -> List[RecoveryResult]:
        """Solve many requests through the engine's process pool.

        Every request becomes one engine instance task that runs its
        algorithms like :meth:`solve`; each run is one cache cell keyed by
        the request's cell digest, so a ``cache_dir`` makes the batch
        resumable exactly like ``repro.cli sweep --resume``: rerunning an
        interrupted batch recomputes only the missing requests, and a
        request already solved by an earlier batch is served from disk.
        The runs equal :meth:`solve`'s, ``solver`` counts included
        (timings and ``cached`` flags aside).
        """
        tasks = [
            expand_tasks(request.to_experiment_spec(), seed=request.seed)[0]
            for request in requests
        ]
        cache = ResultCache(cache_dir) if cache_dir is not None else None
        instances = run_tasks(tasks, jobs=jobs, cache=cache, progress=progress)
        return [
            RecoveryResult(
                request=request.to_dict(),
                results=[
                    AlgorithmRun(c.algorithm, c.metrics, c.plan, c.solver, c.cached) for c in cells
                ],
                broken_elements=cells[0].broken_elements,
                wall_seconds=cells[0].wall_seconds,
            )
            for request, cells in zip(requests, instances)
        ]

    def sweep(
        self,
        spec: Union[str, ExperimentSpec],
        seed=None,
        jobs: int = 1,
        cache_dir: Optional[Union[str, Path]] = None,
        progress: Optional[ProgressCallback] = None,
        **changes,
    ) -> ScenarioResult:
        """Run a (registered or given) sweep spec through the engine.

        ``changes`` are forwarded to :meth:`ExperimentSpec.replace`, so
        clients can scale a registered figure (``runs=20``,
        ``sweep_values=...``) without touching the engine directly.
        """
        if isinstance(spec, str):
            spec = get_spec(spec)
        if changes:
            spec = spec.replace(**changes)
        return run_experiment(spec, seed=seed, jobs=jobs, cache_dir=cache_dir, progress=progress)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def cache_info(self) -> Dict[str, int]:
        """Topology-session cache counters (hits, misses, size, capacity)."""
        return {
            "topology_cache_hits": self.topology_cache_hits,
            "topology_cache_misses": self.topology_cache_misses,
            "topology_cache_size": len(self._topologies),
            "topology_cache_capacity": DEFAULT_TOPOLOGY_CACHE_SIZE,
        }


__all__ = [
    "DEFAULT_TOPOLOGY_CACHE_SIZE",
    "RecoveryService",
    "run_algorithms",
]
