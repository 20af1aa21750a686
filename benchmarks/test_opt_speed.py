"""Exact-solve acceleration: decomposed / seeded OPT vs the monolithic MILP.

Figure-7-style instances (Erdős–Rényi, complete destruction, unit demands
over high-capacity links — pure connectivity recovery) are solved three
ways:

* **monolithic** — :func:`~repro.flows.milp.solve_monolithic`, the plain
  Eq. 1 model, byte-for-byte the pre-acceleration path, no incumbent seed
  (the parity baseline);
* **decomposed** — ``solve_minimum_recovery``, the decomposition attack
  (VUB-strengthened joint relaxation, then the tightened MILP) without a
  heuristic seed;
* **seeded** — the decomposition attack seeded with an SRT incumbent, the
  path the API service and the portfolio racer actually take: the
  incumbent caps the tightened MILP's objective and is proven optimal
  without a MILP when it meets the relaxation bound.  The SRT run itself
  is *included* in the measured time — the speedup is honest end-to-end.

Every path must return ``status == "optimal"`` with the identical
objective — the acceleration is only allowed to change *how fast* the
optimum is proven, never *which* optimum.

Set ``$REPRO_BENCH_OPT_RECORD`` to a path to write the ``BENCH_opt.json``
artefact (kind ``opt-bench``).  CI records a fresh artefact and gates its
machine-relative metrics (``geomean_speedup``, ``seeded_geomean_speedup``,
``proven_fraction``) against the tracked root-level ``BENCH_opt.json``
via ``scripts/benchmark_regression_check.py`` — raw seconds are printed
for context but never gated, so the trajectory travels across runners.
"""

from __future__ import annotations

import math
import os
import time
from pathlib import Path

from bench_utils import FULL_SCALE, print_figure

from repro.api.requests import (
    DemandSpec,
    DisruptionSpec,
    RecoveryRequest,
    TopologySpec,
)
from repro.api.service import RecoveryService
from repro.flows.milp import build_minr_model, solve_minimum_recovery, solve_monolithic
from repro.heuristics.srt import shortest_path_repair
from repro.utils.jsonio import write_json

#: (num_nodes, edge_probability, seed) per instance — figure-7 shape at
#: reduced size so the bench stays in tier-1 time budgets; full scale adds
#: the paper-sized graphs.
QUICK_INSTANCES = ((24, 0.2, 3), (32, 0.15, 5), (40, 0.12, 7))
FULL_INSTANCES = QUICK_INSTANCES + ((60, 0.1, 11), (100, 0.05, 19))


def _build_instance(num_nodes: int, edge_probability: float, seed: int):
    request = RecoveryRequest(
        topology=TopologySpec(
            "erdos-renyi",
            kwargs={
                "num_nodes": num_nodes,
                "edge_probability": edge_probability,
                "capacity": 1000.0,
                "seed": seed,
            },
        ),
        disruption=DisruptionSpec("complete"),
        demand=DemandSpec("routable-far-apart", num_pairs=4, flow_per_pair=1.0),
        algorithms=("OPT",),
        seed=seed,
    )
    supply, demand, _ = RecoveryService().build_instance(request)
    return supply, demand


def _timed(solve):
    started = time.perf_counter()
    solution = solve()
    return solution, time.perf_counter() - started


def _geomean(ratios) -> float:
    return math.exp(sum(math.log(r) for r in ratios) / len(ratios))


def _record_trajectory(payload) -> None:
    target = os.environ.get("REPRO_BENCH_OPT_RECORD")
    if target:
        write_json(payload, Path(target))


def test_decomposed_opt_beats_monolithic_with_identical_objectives():
    instances = FULL_INSTANCES if FULL_SCALE else QUICK_INSTANCES

    rows = []
    proven = 0
    solves = 0
    for num_nodes, edge_probability, seed in instances:
        supply, demand = _build_instance(num_nodes, edge_probability, seed)

        mono, mono_seconds = _timed(lambda: solve_monolithic(build_minr_model(supply, demand)))

        dec, dec_seconds = _timed(lambda: solve_minimum_recovery(supply, demand))

        seeded_started = time.perf_counter()
        srt_plan = shortest_path_repair(supply.copy(), demand)
        seeded = solve_minimum_recovery(supply, demand, seed_plans=[srt_plan])
        seeded_seconds = time.perf_counter() - seeded_started

        for solution in (mono, dec, seeded):
            assert solution.status == "optimal", solution.status
            assert abs(solution.objective - mono.objective) < 1e-9, (
                f"objective drifted: monolithic {mono.objective} vs "
                f"{solution.strategy} {solution.objective}"
            )
        proven += sum(1 for s in (dec, seeded) if s.status == "optimal")
        solves += 2

        rows.append(
            {
                "nodes": num_nodes,
                "p": edge_probability,
                "broken": len(supply.broken_nodes) + len(supply.broken_edges),
                "objective": round(mono.objective, 6),
                "monolithic_s": round(mono_seconds, 3),
                "decomposed_s": round(dec_seconds, 3),
                "seeded_s": round(seeded_seconds, 3),
                "speedup": round(mono_seconds / dec_seconds, 2),
                "seeded_speedup": round(mono_seconds / seeded_seconds, 2),
            }
        )

    geomean = _geomean([row["monolithic_s"] / row["decomposed_s"] for row in rows])
    seeded_geomean = _geomean([row["monolithic_s"] / row["seeded_s"] for row in rows])
    print_figure(
        "OPT acceleration — decomposed vs monolithic on figure-7-style instances",
        rows,
        columns=[
            "nodes",
            "p",
            "broken",
            "objective",
            "monolithic_s",
            "decomposed_s",
            "seeded_s",
            "speedup",
            "seeded_speedup",
        ],
        timing=["monolithic_s", "decomposed_s", "seeded_s", "speedup", "seeded_speedup"],
    )

    _record_trajectory(
        {
            "schema_version": 1,
            "kind": "opt-bench",
            "scale": "full" if FULL_SCALE else "quick",
            "instances": rows,
            "geomean_speedup": round(geomean, 3),
            "seeded_geomean_speedup": round(seeded_geomean, 3),
            "proven_fraction": round(proven / solves, 3),
        }
    )

    # Every accelerated solve proved optimality: no time limit is set, so
    # the tightened MILP never stops at an unproven incumbent.
    assert proven == solves
    # The acceleration must actually accelerate.  The committed
    # BENCH_opt.json trajectory records the real margin (>= 2x geomean);
    # the in-test floor is looser so a noisy shared runner cannot flake.
    assert seeded_geomean > 1.2, f"seeded geomean speedup collapsed: {seeded_geomean:.2f}"
    assert geomean > 1.0, f"decomposition no longer pays off: {geomean:.2f}"
