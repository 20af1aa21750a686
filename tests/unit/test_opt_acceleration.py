"""Warm-start parity: acceleration never changes the optimum.

The contract of the exact-solve acceleration layer (docs/solver.md) is
that incumbent seeding and the decomposition attack only change *how
fast* the MinR optimum is found and proven — never which optimum comes
back.  This suite pins that contract on small instances against the plain
Eq. 1 model, :func:`~repro.flows.milp.solve_monolithic`.
"""

import numpy as np
import pytest

import repro.flows.milp as milp
from repro.api.requests import (
    DemandSpec,
    DisruptionSpec,
    TopologySpec,
    materialise_instance,
)
from repro.flows.milp import build_minr_model, solve_minimum_recovery, solve_monolithic
from repro.heuristics.registry import get_algorithm
from repro.network.demand import DemandGraph
from repro.obs.trace import span


def small_instance(seed: int = 3):
    supply, demand, _ = materialise_instance(
        TopologySpec("grid", kwargs={"rows": 3, "cols": 3, "capacity": 20.0}),
        DisruptionSpec("complete"),
        DemandSpec("routable-far-apart", num_pairs=2, flow_per_pair=4.0),
        np.random.default_rng(seed),
    )
    return supply, demand


def heuristic_seeds(supply, demand, names=("ISP", "SRT")):
    return [get_algorithm(name).solve(supply.copy(), demand) for name in names]


class TestWarmStartParity:
    @pytest.mark.parametrize(
        "seeded_by", [("ISP",), ("SRT",), ("ISP", "SRT")], ids="+".join
    )
    def test_seeding_never_changes_the_optimal_objective(self, seeded_by):
        """Whichever heuristic's plan becomes the incumbent, the optimum holds."""
        supply, demand = small_instance()
        seeds = heuristic_seeds(supply, demand, seeded_by)

        reference = solve_monolithic(build_minr_model(supply, demand))
        plain = solve_minimum_recovery(supply, demand)
        seeded = solve_minimum_recovery(supply, demand, seed_plans=seeds)

        assert reference.status == plain.status == seeded.status == "optimal"
        assert plain.objective == pytest.approx(reference.objective, abs=1e-9)
        assert seeded.objective == pytest.approx(reference.objective, abs=1e-9)
        assert seeded.seeded is True
        # a proven optimum's dual bound closes on the objective
        assert seeded.bound == pytest.approx(seeded.objective, abs=1e-6)

    def test_seeded_solves_are_deterministic(self):
        supply, demand = small_instance(seed=7)
        seeds = heuristic_seeds(supply, demand)

        first = solve_minimum_recovery(supply, demand, seed_plans=seeds)
        second = solve_minimum_recovery(supply, demand, seed_plans=seeds)

        assert first.status == second.status == "optimal"
        assert first.objective == second.objective
        assert first.repaired_nodes == second.repaired_nodes
        assert first.repaired_edges == second.repaired_edges
        assert first.strategy == second.strategy

    def test_incumbent_seeding_is_counted_in_solver_stats(self):
        supply, demand = small_instance()
        seeds = heuristic_seeds(supply, demand)
        with span("solve") as scope:
            solution = solve_minimum_recovery(supply, demand, seed_plans=seeds)
        assert solution.status == "optimal"
        assert scope.counts["incumbent_seeds"] >= 1

    def test_solution_records_its_solve_path(self):
        supply, demand = small_instance()
        mono = solve_monolithic(build_minr_model(supply, demand))
        dec = solve_minimum_recovery(supply, demand)
        assert mono.strategy == "monolithic"
        assert dec.strategy == "decomposed"
        assert mono.seeded is False

    def test_an_empty_demand_keeps_the_auto_strategy_name(self):
        """An instance with no commodities reports the name its envelope
        carried when ``"auto"`` was the default of three strategies."""
        supply, _ = small_instance()
        solution = solve_minimum_recovery(supply, DemandGraph())
        assert solution.status == "optimal"
        assert solution.objective == solution.bound == 0.0
        assert solution.strategy == "auto"

    def test_no_process_setting_moves_the_solve_path(self, monkeypatch):
        # the solve path has no switch: a leftover variable changes nothing
        monkeypatch.setenv("REPRO_OPT_STRATEGY", "monolithic")
        supply, demand = small_instance()
        assert solve_minimum_recovery(supply, demand).strategy == "decomposed"


class TestFallback:
    @pytest.mark.parametrize("seeded", [False, True], ids=["unseeded", "seeded"])
    def test_a_declined_decomposition_falls_back_to_the_plain_model(
        self, monkeypatch, seeded
    ):
        """When the attack declines, the plain Eq. 1 solve answers with the
        same optimum, and ``seeded`` still says whether an incumbent existed."""
        supply, demand = small_instance()
        seeds = heuristic_seeds(supply, demand) if seeded else None
        reference = solve_monolithic(build_minr_model(supply, demand))
        monkeypatch.setattr(milp, "solve_decomposed", lambda model, **options: None)

        solution = solve_minimum_recovery(supply, demand, seed_plans=seeds)

        assert solution.status == "optimal"
        assert solution.strategy == "monolithic"
        assert solution.seeded is seeded
        assert solution.objective == pytest.approx(reference.objective, abs=1e-9)
        assert solution.repaired_nodes == reference.repaired_nodes
        assert solution.repaired_edges == reference.repaired_edges
