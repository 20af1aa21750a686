"""Warm-start and strategy parity: acceleration never changes the optimum.

The contract of the exact-solve acceleration layer (docs/solver.md) is
that incumbent seeding and the decomposition strategies only change *how
fast* the MinR optimum is found and proven — never which optimum comes
back.  This suite pins that contract on small instances across every
available LP backend and every strategy, plus strategy name resolution.
"""

import numpy as np
import pytest

from repro.api.requests import (
    DemandSpec,
    DisruptionSpec,
    TopologySpec,
    materialise_instance,
)
from repro.flows.milp import (
    OPT_STRATEGIES,
    resolve_opt_strategy,
    solve_minimum_recovery,
)
from repro.heuristics.registry import get_algorithm
from repro.obs.trace import span


def small_instance(seed: int = 3):
    supply, demand, _ = materialise_instance(
        TopologySpec("grid", kwargs={"rows": 3, "cols": 3, "capacity": 20.0}),
        DisruptionSpec("complete"),
        DemandSpec("routable-far-apart", num_pairs=2, flow_per_pair=4.0),
        np.random.default_rng(seed),
    )
    return supply, demand


def heuristic_seeds(supply, demand):
    return [
        get_algorithm(name).solve(supply.copy(), demand) for name in ("ISP", "SRT")
    ]


class TestWarmStartParity:
    @pytest.mark.parametrize("strategy", OPT_STRATEGIES)
    def test_seeding_never_changes_the_optimal_objective(self, strategy):
        supply, demand = small_instance()
        seeds = heuristic_seeds(supply, demand)

        plain = solve_minimum_recovery(supply, demand, strategy=strategy)
        seeded = solve_minimum_recovery(supply, demand, strategy=strategy, seed_plans=seeds)

        assert plain.status == "optimal" and seeded.status == "optimal"
        assert seeded.objective == pytest.approx(plain.objective, abs=1e-9)
        assert seeded.seeded is True
        # a proven optimum's dual bound closes on the objective
        assert seeded.bound == pytest.approx(seeded.objective, abs=1e-6)

    @pytest.mark.parametrize("strategy", OPT_STRATEGIES)
    def test_seeded_solves_are_deterministic(self, strategy):
        supply, demand = small_instance(seed=7)
        seeds = heuristic_seeds(supply, demand)

        first = solve_minimum_recovery(supply, demand, strategy=strategy, seed_plans=seeds)
        second = solve_minimum_recovery(supply, demand, strategy=strategy, seed_plans=seeds)

        assert first.status == second.status == "optimal"
        assert first.objective == second.objective
        assert first.repaired_nodes == second.repaired_nodes
        assert first.repaired_edges == second.repaired_edges
        assert first.strategy == second.strategy

    def test_incumbent_seeding_is_counted_in_solver_stats(self):
        supply, demand = small_instance()
        seeds = heuristic_seeds(supply, demand)
        with span("solve") as scope:
            solution = solve_minimum_recovery(
                supply, demand, strategy="decomposed", seed_plans=seeds
            )
        assert solution.status == "optimal"
        assert scope.counts["incumbent_seeds"] >= 1

    def test_solution_records_its_strategy(self):
        supply, demand = small_instance()
        mono = solve_minimum_recovery(supply, demand, strategy="monolithic")
        dec = solve_minimum_recovery(supply, demand, strategy="decomposed")
        assert mono.strategy == "monolithic"
        assert dec.strategy == "decomposed"
        assert mono.seeded is False


class TestStrategy:
    def test_no_strategy_resolves_to_auto(self, monkeypatch):
        # the strategy is an explicit argument: no process setting moves it
        monkeypatch.setenv("REPRO_OPT_STRATEGY", "monolithic")
        assert resolve_opt_strategy() == "auto"
        assert resolve_opt_strategy("monolithic") == "monolithic"

    def test_unknown_strategies_are_rejected(self):
        with pytest.raises(ValueError, match="unknown OPT strategy"):
            resolve_opt_strategy("simulated-annealing")
