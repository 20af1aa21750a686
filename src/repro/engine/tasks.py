"""Decomposition of an experiment into independent instance tasks.

A sweep experiment is a grid of instances ``(sweep value, run index)``, each
computed independently — which is what the parallel executor exploits.  A
task builds its instance once and runs every algorithm on it through
:func:`repro.api.service.run_algorithms` (the paper compares algorithms on
identical instances); each algorithm's outcome is one result cell.  Each
task derives its generator from a per-instance
:class:`~numpy.random.SeedSequence` spawned from the root seed:

``SeedSequence(root).spawn`` children are keyed by ``(value_index,)`` and
spawn once more into ``(value_index, run_index)``.  The resulting streams are

* independent of each other (SeedSequence's guarantee),
* stable under *extending* the sweep (appending values or adding runs never
  reseeds existing instances), and
* identical whether the task runs serially or in a worker process.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.api.requests import config_digest
from repro.api.results import normalise_plan_payload
from repro.engine.spec import ExperimentSpec, build_instance
from repro.utils.rng import SeedLike, ensure_seed_sequence


def root_entropy(seed: SeedLike = None) -> int:
    """Condense a seed into the root entropy integer tasks carry.

    Derived from the sequence's *generated state*, not its ``entropy``
    attribute: two sequences spawned from one parent share the parent's
    entropy and differ only in spawn key, so hashing the state keeps them
    (and their cache keys) distinct.
    """
    root = ensure_seed_sequence(seed)
    return int.from_bytes(root.generate_state(4, np.uint32).tobytes(), "little")


def cell_seed_sequence(entropy: int, value_index: int, run_index: int) -> np.random.SeedSequence:
    """The canonical per-cell seed sequence for a (value, run) spawn key.

    Shared by every layer that materialises instances — engine tasks and the
    service session — so a request with seed ``s`` builds the same instance
    as the single cell of the equivalent degenerate sweep.
    """
    value_seq = np.random.SeedSequence(entropy, spawn_key=(value_index,))
    return value_seq.spawn(run_index + 1)[run_index]


@dataclass(frozen=True)
class Task:
    """One independent experiment instance; every algorithm of the spec runs on it."""

    spec: ExperimentSpec
    sweep_value: Any
    value_index: int
    run_index: int
    root_entropy: int

    @property
    def spawn_key(self) -> Tuple[int, int]:
        return (self.value_index, self.run_index)

    def seed_sequence(self) -> np.random.SeedSequence:
        """The per-instance seed sequence.

        Derived with ``SeedSequence.spawn`` so the child carries the canonical
        spawn key ``(value_index, run_index)`` — re-deriving it from the root
        entropy in a worker process yields the identical sequence.
        """
        return cell_seed_sequence(self.root_entropy, self.value_index, self.run_index)

    def cache_key(self, algorithm: str) -> str:
        """Stable digest of everything that determines one algorithm's cell."""
        config = self.spec.cell_config(self.sweep_value, algorithm)
        config["root_entropy"] = self.root_entropy
        config["spawn_key"] = list(self.spawn_key)
        return config_digest(config)


@dataclass
class TaskResult:
    """The outcome of one cell: one algorithm's run on one instance.

    ``metrics``, ``plan`` and ``solver`` (the run's solver effort, algorithm
    plus evaluation LP) are the run's envelope fields; ``wall_seconds`` is
    the wall time of the whole instance task (its build and every run).
    """

    sweep_value: Any
    value_index: int
    run_index: int
    algorithm: str
    metrics: Dict[str, float]
    broken_elements: int
    wall_seconds: float
    solver: Dict[str, float]
    plan: Dict[str, Any]
    cached: bool = False

    def to_payload(self) -> Dict[str, Any]:
        """JSON-serialisable form stored in the result cache."""
        payload = asdict(self)
        del payload["cached"]
        return payload

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "TaskResult":
        """Parse a stored cell; a payload without a plan raises ``KeyError``."""
        return cls(
            sweep_value=payload["sweep_value"],
            value_index=int(payload["value_index"]),
            run_index=int(payload["run_index"]),
            algorithm=str(payload["algorithm"]),
            metrics={key: float(value) for key, value in payload["metrics"].items()},
            broken_elements=int(payload["broken_elements"]),
            wall_seconds=float(payload["wall_seconds"]),
            solver={key: float(value) for key, value in payload.get("solver", {}).items()},
            plan=normalise_plan_payload(payload["plan"]),
            cached=True,
        )


def expand_tasks(spec: ExperimentSpec, seed: SeedLike = None) -> List[Task]:
    """Unroll ``spec`` into its (value x run) instance tasks.

    Tasks carry only the root entropy and their instance indices; each
    re-derives its own :class:`~numpy.random.SeedSequence` on demand, so they
    stay self-contained (and picklable) for worker processes.
    """
    entropy = root_entropy(seed)
    return [
        Task(
            spec=spec,
            sweep_value=sweep_value,
            value_index=value_index,
            run_index=run_index,
            root_entropy=entropy,
        )
        for value_index, sweep_value in enumerate(spec.sweep.values)
        for run_index in range(spec.runs)
    ]


def execute_task(task: Task) -> List[TaskResult]:
    """Run one instance: build it once, then run the spec's algorithms on it.

    The algorithms go through the request runner,
    :func:`repro.api.service.run_algorithms` — heuristics first, then OPT
    seeded with every heuristic plan.  Returns one cell per algorithm, in
    the spec's order.
    """
    from repro.api.service import run_algorithms  # the service imports the engine

    started = time.perf_counter()
    rng = np.random.default_rng(task.seed_sequence())
    supply, demand = build_instance(task.spec, task.sweep_value, rng)
    broken = len(supply.broken_nodes) + len(supply.broken_edges)
    runs = run_algorithms(task.spec, supply, demand)
    wall_seconds = time.perf_counter() - started
    return [
        TaskResult(
            sweep_value=task.sweep_value,
            value_index=task.value_index,
            run_index=task.run_index,
            algorithm=run.algorithm,
            metrics=run.metrics,
            broken_elements=broken,
            wall_seconds=wall_seconds,
            solver=run.solver,
            plan=run.plan,
        )
        for run in runs
    ]
