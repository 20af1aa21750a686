"""Differential tests: every heuristic against the exact MILP optimum.

The scenario zoo multiplies the instances recovery algorithms see; this
suite keeps the heuristics honest on a grid of *small* instances — old
(grid, ring) and new (scale-free, small-world, fat-tree) topologies crossed
with old (complete, gaussian) and new (cascading, multi-epicentre,
targeted) failures — where the MILP solves to proven optimality in well
under a second.  For every instance and every registered algorithm:

* the full invariant battery of :mod:`repro.verification` passes (plan
  feasibility, repairs within damage, flow conservation, satisfaction
  monotonicity);
* a fully-satisfying heuristic never beats the proven optimum on repair
  cost (ratio >= 1).
"""

import numpy as np
import pytest

from repro.api.requests import DemandSpec, DisruptionSpec, TopologySpec, materialise_instance
from repro.evaluation.metrics import evaluate_plan
from repro.heuristics.registry import available_algorithms, get_algorithm
from repro.verification import FULL_SATISFACTION, check_plan_invariants

HEURISTICS = [name for name in available_algorithms() if name != "OPT"]

#: (topology spec, disruption spec) grid mixing paper-era and zoo scenarios.
INSTANCES = [
    pytest.param(
        TopologySpec("grid", kwargs={"rows": 3, "cols": 3, "capacity": 20.0}),
        DisruptionSpec("complete"),
        id="grid-complete",
    ),
    pytest.param(
        TopologySpec("ring", kwargs={"num_nodes": 8}),
        DisruptionSpec("gaussian", kwargs={"variance": 1.5, "intensity": 0.9}),
        id="ring-gaussian",
    ),
    pytest.param(
        TopologySpec("barabasi-albert", kwargs={"num_nodes": 14, "attachment": 2, "capacity": 30.0}),
        DisruptionSpec("targeted", kwargs={"node_budget": 3, "edge_budget": 2}),
        id="scalefree-targeted",
    ),
    pytest.param(
        TopologySpec("watts-strogatz", kwargs={"num_nodes": 12, "nearest_neighbors": 4, "rewire_probability": 0.2}),
        DisruptionSpec("cascading", kwargs={"num_triggers": 2, "propagation_factor": 1.5, "tolerance": 0.1}),
        id="smallworld-cascade",
    ),
    pytest.param(
        TopologySpec("fat-tree", kwargs={"pods": 4}),
        DisruptionSpec("multi-gaussian", kwargs={"variance": 400.0, "num_epicenters": 2, "intensity": 0.9}),
        id="fattree-multigaussian",
    ),
    pytest.param(
        TopologySpec("fat-tree", kwargs={"pods": 4}),
        DisruptionSpec("complete"),
        id="fattree-complete",
    ),
]

SEEDS = (3, 11)


def _instance(topology, disruption, seed):
    supply, demand, _ = materialise_instance(
        topology,
        disruption,
        DemandSpec("routable-far-apart", num_pairs=2, flow_per_pair=4.0),
        np.random.default_rng(seed),
    )
    return supply, demand


def _optimal(supply, demand):
    plan = get_algorithm("OPT", time_limit=60.0).solve(supply, demand)
    assert plan.metadata.get("status") == "optimal", (
        "the differential baseline requires a proven optimum"
    )
    return plan


@pytest.mark.parametrize("topology,disruption", INSTANCES)
@pytest.mark.parametrize("seed", SEEDS)
class TestDifferentialOptimal:
    def test_every_heuristic_respects_invariants_and_opt_cost(
        self, topology, disruption, seed
    ):
        supply, demand = _instance(topology, disruption, seed)
        optimal = _optimal(supply, demand)
        optimal_cost = optimal.repair_cost(supply)

        for name in HEURISTICS:
            plan = get_algorithm(name).solve(supply.copy(), demand)
            violations = check_plan_invariants(supply, demand, plan, optimal=optimal)
            assert not violations, (
                f"{name} violated invariants: " + "; ".join(map(str, violations))
            )
            evaluation = evaluate_plan(supply, demand, plan)
            assert evaluation.routing_violations == 0
            if evaluation.satisfied_fraction >= FULL_SATISFACTION and optimal_cost > 0:
                ratio = evaluation.repair_cost / optimal_cost
                assert ratio >= 1.0 - 1e-9, (
                    f"{name} beat the optimum: cost ratio {ratio:.6f} < 1"
                )

    def test_optimal_fully_satisfies_the_demand(self, topology, disruption, seed):
        supply, demand = _instance(topology, disruption, seed)
        optimal = _optimal(supply, demand)
        evaluation = evaluate_plan(supply, demand, optimal)
        assert evaluation.satisfied_fraction == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("topology,disruption", INSTANCES)
@pytest.mark.parametrize("seed", SEEDS)
class TestDecompositionDifferential:
    """Decomposed-vs-monolithic parity on the same instance matrix.

    ``solve_minimum_recovery`` (the decomposition attack with its fallback)
    must return a proven optimum with the exact objective of the plain
    Eq. 1 model, ``solve_monolithic``, on every instance — acceleration is
    never allowed to change the answer (see docs/solver.md).
    """

    def test_decomposition_proves_the_monolithic_objective(self, topology, disruption, seed):
        from repro.flows.milp import build_minr_model, solve_minimum_recovery, solve_monolithic

        supply, demand = _instance(topology, disruption, seed)
        monolithic = solve_monolithic(build_minr_model(supply, demand))
        assert monolithic.status == "optimal"
        accelerated = solve_minimum_recovery(supply, demand)
        assert accelerated.status == "optimal", (
            "the decomposition failed to prove optimality on this instance"
        )
        assert accelerated.objective == pytest.approx(monolithic.objective, abs=1e-9), (
            f"decomposed objective {accelerated.objective} != monolithic "
            f"{monolithic.objective}"
        )

    def test_seeded_decomposition_proves_the_monolithic_objective(
        self, topology, disruption, seed
    ):
        """The served path: the heuristics' plans seed the incumbent (its
        cost is the attack's upper bound), and the optimum proven under it
        is still the plain model's."""
        from repro.flows.milp import build_minr_model, solve_minimum_recovery, solve_monolithic

        supply, demand = _instance(topology, disruption, seed)
        seeds = [get_algorithm(name).solve(supply.copy(), demand) for name in ("ISP", "SRT")]
        monolithic = solve_monolithic(build_minr_model(supply, demand))
        seeded = solve_minimum_recovery(supply, demand, seed_plans=seeds)
        assert monolithic.status == seeded.status == "optimal"
        assert seeded.seeded is True
        assert seeded.objective == pytest.approx(monolithic.objective, abs=1e-9), (
            f"seeded objective {seeded.objective} != monolithic {monolithic.objective}"
        )
