"""Seeded scenario generation and the fuzz harness built on it.

A :class:`ScenarioSpace` is pure data: a tuple of topology choices, a tuple
of disruption choices and discrete demand distributions, where every
builder keyword maps either to a fixed scalar or to a tuple of candidate
values.  :class:`ScenarioGenerator` samples that space with one seeded
generator — same seed, same request stream, on every machine — and only
emits requests whose instance actually materialises (topology builds,
disruption applies, demand is drawable), resampling the rare invalid
combination.

:func:`run_fuzz` is the harness the CLI's ``fuzz`` sub-command and the CI
leg call: sample ``budget`` requests, fan them through
:meth:`RecoveryService.solve_batch` (one engine instance task per request,
running the same algorithm loop as ``solve``, over the process pool and the
resumable cache exactly like a production batch), and — with ``verify`` —
audit every returned plan with :func:`repro.verification.audit_result`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.api.requests import (
    DemandSpec,
    DisruptionSpec,
    RecoveryRequest,
    TopologySpec,
    materialise_instance,
)
from repro.api.results import RecoveryResult
from repro.api.service import RecoveryService
from repro.engine.tasks import cell_seed_sequence, root_entropy
from repro.heuristics.registry import available_algorithms
from repro.utils.rng import RandomState, ensure_rng
from repro.verification import InvariantReport, Violation, audit_result

#: One scenario choice: a registry name plus per-kwarg candidate values.
Choice = Tuple[str, Mapping[str, Any]]


@dataclass(frozen=True)
class ScenarioSpace:
    """Declarative distributions a :class:`ScenarioGenerator` samples from.

    Every kwarg value that is a tuple/list is a discrete uniform choice;
    scalars are passed through unchanged.  The default space deliberately
    stays *small* — every instance must be solvable by the exact MILP in
    well under a second, because the differential cost-dominance invariant
    is only as good as the optimum it compares against.
    """

    topologies: Tuple[Choice, ...] = (
        ("grid", {"rows": (3, 4), "cols": (3, 4), "capacity": (10.0, 20.0)}),
        ("ring", {"num_nodes": (6, 8, 10)}),
        ("erdos-renyi", {"num_nodes": (12, 16), "edge_probability": (0.25, 0.35), "capacity": (50.0,)}),
        ("barabasi-albert", {"num_nodes": (14, 18), "attachment": (2,), "capacity": (30.0,)}),
        ("watts-strogatz", {"num_nodes": (12, 16), "nearest_neighbors": (4,), "rewire_probability": (0.1, 0.3)}),
        ("fat-tree", {"pods": (4,), "access_capacity": (10.0,), "core_capacity": (20.0,)}),
    )
    disruptions: Tuple[Choice, ...] = (
        ("complete", {}),
        ("random", {"node_probability": (0.2, 0.4), "edge_probability": (0.3, 0.5)}),
        ("gaussian", {"variance": (2.0, 30.0), "intensity": (0.9,)}),
        ("cascading", {"num_triggers": (1, 2), "propagation_factor": (1.0, 1.5), "tolerance": (0.1, 0.3)}),
        ("multi-gaussian", {"variance": (2.0, 20.0), "num_epicenters": (2, 3)}),
        ("targeted", {"node_budget": (2, 4), "edge_budget": (0, 3), "metric": ("degree", "betweenness")}),
    )
    algorithms: Tuple[str, ...] = ()
    num_pairs: Tuple[int, ...] = (1, 2, 3)
    flow_per_pair: Tuple[float, ...] = (2.0, 4.0, 6.0)
    demand_builder: str = "routable-far-apart"
    opt_time_limit: float = 30.0

    def resolved_algorithms(self) -> Tuple[str, ...]:
        """The algorithm list, defaulting to every registered algorithm."""
        return self.algorithms or tuple(available_algorithms())


DEFAULT_SPACE = ScenarioSpace()


def _sample_kwargs(options: Mapping[str, Any], rng: np.random.Generator) -> Dict[str, Any]:
    """Resolve each kwarg: tuples/lists are discrete choices, scalars pass."""
    kwargs: Dict[str, Any] = {}
    for key in sorted(options):
        candidates = options[key]
        if isinstance(candidates, (tuple, list)):
            kwargs[key] = candidates[int(rng.integers(0, len(candidates)))]
        else:
            kwargs[key] = candidates
    return kwargs


class ScenarioGenerator:
    """A seeded stream of valid recovery requests drawn from a space.

    Parameters
    ----------
    space:
        The declarative distributions; defaults to :data:`DEFAULT_SPACE`.
    seed:
        Seed of the sampling stream.  The per-request instance seeds are
        drawn from the same stream, so one integer reproduces an entire
        fuzz campaign.
    max_attempts:
        Resampling budget per emitted request; a draw whose instance fails
        to materialise (e.g. a disruption leaving too few demand-eligible
        nodes) is discarded and redrawn.
    """

    def __init__(
        self,
        space: Optional[ScenarioSpace] = None,
        seed: RandomState = 0,
        max_attempts: int = 25,
    ) -> None:
        self.space = space or DEFAULT_SPACE
        self._rng = ensure_rng(seed)
        self.max_attempts = int(max_attempts)
        self.discarded = 0

    # ------------------------------------------------------------------ #
    def _draw(self) -> RecoveryRequest:
        rng = self._rng
        topologies = self.space.topologies
        name, options = topologies[int(rng.integers(0, len(topologies)))]
        topology = TopologySpec(name, kwargs=_sample_kwargs(options, rng))

        disruptions = self.space.disruptions
        kind, options = disruptions[int(rng.integers(0, len(disruptions)))]
        disruption = DisruptionSpec(kind, kwargs=_sample_kwargs(options, rng))

        demand = DemandSpec(
            self.space.demand_builder,
            num_pairs=self.space.num_pairs[int(rng.integers(0, len(self.space.num_pairs)))],
            flow_per_pair=self.space.flow_per_pair[
                int(rng.integers(0, len(self.space.flow_per_pair)))
            ],
        )
        return RecoveryRequest(
            topology=topology,
            disruption=disruption,
            demand=demand,
            algorithms=self.space.resolved_algorithms(),
            seed=int(rng.integers(0, 2**31 - 1)),
            opt_time_limit=self.space.opt_time_limit,
        )

    @staticmethod
    def _materialises(request: RecoveryRequest) -> bool:
        """Whether the request's instance builds — the validity criterion.

        Uses the canonical cell RNG derivation, so the probe constructs
        exactly the instance the engine worker will construct later.
        """
        rng = np.random.default_rng(cell_seed_sequence(root_entropy(request.seed), 0, 0))
        try:
            materialise_instance(request.topology, request.disruption, request.demand, rng)
        except (KeyError, ValueError):
            return False
        return True

    def sample_request(self) -> RecoveryRequest:
        """Draw the next valid request (resampling invalid combinations)."""
        for _ in range(self.max_attempts):
            request = self._draw()
            if self._materialises(request):
                return request
            self.discarded += 1
        raise RuntimeError(
            f"no valid scenario found in {self.max_attempts} attempts; "
            "the scenario space is likely over-constrained"
        )

    def requests(self, budget: int) -> List[RecoveryRequest]:
        """The next ``budget`` valid requests."""
        if budget < 1:
            raise ValueError("the fuzz budget must be at least 1")
        return [self.sample_request() for _ in range(budget)]

    def sample_online_spec(
        self,
        algorithm: str = "ISP",
        epochs: int = 4,
        events_menu: Optional[Sequence[Mapping[str, Any]]] = None,
    ):
        """Draw one valid :class:`~repro.online.spec.OnlineScenarioSpec`.

        Reuses :meth:`sample_request` for the instance sections (so online
        sampling inherits the space's validity guarantee and stays on the
        same stream discipline), then draws the temporal layer — one
        mid-recovery event from a small menu, a fog level and a crew count —
        from the same generator.  The differential suite feeds these specs
        to :func:`repro.online.run_episode` and asserts non-negative regret.
        """
        from repro.online import CrewSpec, EventSpec, FogSpec, OnlineScenarioSpec

        request = self.sample_request()
        rng = self._rng
        menu: Sequence[Mapping[str, Any]] = events_menu or (
            {"kind": "aftershock", "kwargs": {"variance": 4.0, "num_epicenters": 1}, "at_epochs": (1,)},
            {"kind": "attack", "kwargs": {"node_budget": 1}, "every": 2},
            {"kind": "cascade", "probability": 0.5},
        )
        event = EventSpec.from_dict(dict(menu[int(rng.integers(0, len(menu)))]))
        fog = FogSpec(
            hidden_fraction=float(rng.choice((0.0, 0.2, 0.35))),
            reveal_per_epoch=2,
        )
        crews = CrewSpec(count=int(rng.integers(2, 5)))
        return OnlineScenarioSpec(
            topology=request.topology,
            disruption=request.disruption,
            demand=request.demand,
            algorithm=algorithm,
            seed=request.seed,
            epochs=int(epochs),
            epoch_hours=12.0,
            crews=crews,
            fog=fog,
            events=(event,),
            opt_time_limit=self.space.opt_time_limit,
        )


# --------------------------------------------------------------------- #
# The fuzz harness
# --------------------------------------------------------------------- #
@dataclass
class FuzzReport:
    """Everything one fuzz campaign produced, ready for CLI/JSON output."""

    budget: int
    seed: int
    verified: bool
    requests: List[RecoveryRequest] = field(default_factory=list)
    envelopes: List[RecoveryResult] = field(default_factory=list)
    audit: InvariantReport = field(default_factory=InvariantReport)
    discarded: int = 0
    wall_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.audit.ok

    @property
    def violations(self) -> List[Violation]:
        return self.audit.violations

    def rows(self) -> List[Dict[str, object]]:
        """One table row per request for the CLI report."""
        rows: List[Dict[str, object]] = []
        for request, envelope in zip(self.requests, self.envelopes):
            digest = request.digest()[:12]
            related = [v for v in self.audit.violations if v.request == digest]
            rows.append(
                {
                    "request": digest,
                    "topology": request.topology.name,
                    "disruption": request.disruption.kind,
                    "pairs": request.demand.num_pairs,
                    "broken": envelope.broken_elements,
                    "algorithms": len(envelope.results),
                    "violations": len(related),
                }
            )
        return rows

    def to_dict(self) -> Dict[str, object]:
        """JSON envelope mirroring the service results' conventions."""
        return {
            "schema_version": 1,
            "kind": "fuzz-report",
            "budget": self.budget,
            "seed": self.seed,
            "verified": self.verified,
            "discarded_draws": self.discarded,
            "plans_checked": self.audit.checked,
            "unproven_baselines": self.audit.unproven_baselines,
            "opt_gaps": self.audit.gap_summary(),
            "wall_seconds": self.wall_seconds,
            "ok": self.ok,
            "violations": [
                {
                    "request": violation.request,
                    "algorithm": violation.algorithm,
                    "invariant": violation.invariant,
                    "detail": violation.detail,
                }
                for violation in self.audit.violations
            ],
            "requests": [request.to_dict() for request in self.requests],
        }


def run_fuzz(
    budget: int,
    seed: int = 0,
    space: Optional[ScenarioSpace] = None,
    service: Optional[RecoveryService] = None,
    jobs: int = 1,
    verify: bool = True,
    cache_dir: Optional[str] = None,
    progress=None,
) -> FuzzReport:
    """Sample ``budget`` scenarios, solve them as a batch, audit the plans.

    ``progress`` is forwarded to :meth:`RecoveryService.solve_batch` (the
    engine's per-cell callback, one cell per algorithm of a request).  With ``verify`` disabled the harness is a
    pure load generator — useful for benchmarking the batch path itself.
    """
    started = time.perf_counter()
    service = service or RecoveryService()
    generator = ScenarioGenerator(space=space, seed=seed)
    requests = generator.requests(budget)
    envelopes = service.solve_batch(requests, jobs=jobs, cache_dir=cache_dir, progress=progress)

    report = FuzzReport(
        budget=budget,
        seed=int(seed),
        verified=bool(verify),
        requests=requests,
        envelopes=envelopes,
        discarded=generator.discarded,
    )
    if verify:
        for request, envelope in zip(requests, envelopes):
            audited = audit_result(service, request, envelope)
            report.audit.checked += audited.checked
            report.audit.unproven_baselines += audited.unproven_baselines
            report.audit.opt_gaps.extend(audited.opt_gaps)
            report.audit.extend(audited.violations)
    report.wall_seconds = time.perf_counter() - started
    return report


__all__ = [
    "DEFAULT_SPACE",
    "FuzzReport",
    "ScenarioGenerator",
    "ScenarioSpace",
    "run_fuzz",
]
